import numpy as np
import pytest

from wavescan.errors import DimensionError
from wavescan.nn import softplus
from wavescan.ssm import (
    SsmParams,
    _affine_recurrence,
    _coefficients,
    _prefix_affine,
    ssm_scan_parallel,
    ssm_scan_sequential,
)


def rel_err(a, b):
    return np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-9))


class TestClosedForms:
    def test_prefix_sums(self):
        p = SsmParams.static(1, transition=1.0)
        y = ssm_scan_sequential(p, np.array([[1.0], [2.0], [3.0]]))
        assert np.abs(y.ravel() - [1.0, 3.0, 6.0]).max() <= 1e-6

    def test_prefix_sums_parallel_ones(self):
        p = SsmParams.static(1, transition=1.0)
        y = ssm_scan_parallel(p, np.ones((10, 1)))
        assert np.abs(y.ravel() - np.arange(1, 11)).max() <= 1e-6

    def test_geometric_decay(self):
        p = SsmParams.static(1, transition=0.5)
        y = ssm_scan_sequential(p, np.array([[1.0], [0.0], [0.0]]))
        assert np.abs(y.ravel() - [1.0, 0.5, 0.25]).max() <= 1e-6

    def test_identity_params(self):
        p = SsmParams.identity(3)
        u = np.random.default_rng(0).normal(size=(17, 3))
        assert np.array_equal(ssm_scan_sequential(p, u), u)
        assert np.array_equal(ssm_scan_parallel(p, u), u)


class TestParallelEquivalence:
    def test_selective_length_257(self):
        p = SsmParams.random(4, 3, seed=0)
        u = np.random.default_rng(1).normal(size=(257, 4))
        assert rel_err(ssm_scan_parallel(p, u), ssm_scan_sequential(p, u)) <= 1e-5

    def test_length_one(self):
        p = SsmParams.random(2, 2, seed=5)
        u = np.random.default_rng(5).normal(size=(1, 2))
        assert np.allclose(ssm_scan_parallel(p, u), ssm_scan_sequential(p, u))

    @pytest.mark.parametrize("selective", [True, False])
    def test_random_configs_and_lengths(self, selective):
        rng = np.random.default_rng(11)
        for trial in range(20):
            channels = int(rng.integers(1, 6))
            states = int(rng.integers(1, 5))
            length = int(rng.integers(1, 300))
            p = SsmParams.random(channels, states, seed=trial, selective=selective)
            u = rng.normal(size=(length, channels))
            assert rel_err(ssm_scan_parallel(p, u), ssm_scan_sequential(p, u)) <= 1e-5


class TestProperties:
    def test_stability_bounded_state(self):
        p = SsmParams.static(1, transition=0.9)
        u = np.ones((5000, 1))
        y = ssm_scan_sequential(p, u)
        assert np.all(np.abs(y) <= 10.001)  # geometric series bound 1/(1-0.9)

    def test_causality(self):
        p = SsmParams.random(3, 4, seed=2)
        rng = np.random.default_rng(3)
        u = rng.normal(size=(64, 3))
        base = ssm_scan_sequential(p, u)
        u2 = u.copy()
        u2[40:] += rng.normal(size=(24, 3))
        changed = ssm_scan_sequential(p, u2)
        assert np.array_equal(base[:40], changed[:40])
        assert not np.allclose(base[40:], changed[40:])

    def test_zero_input_zero_output_without_skip(self):
        p = SsmParams.random(3, 4, seed=9)
        y = ssm_scan_sequential(p, np.zeros((32, 3)))
        assert np.allclose(y, 0.0)

    def test_transition_magnitudes_within_unit(self):
        p = SsmParams.random(4, 4, seed=1)
        from wavescan.ssm import _coefficients

        u = np.random.default_rng(1).normal(size=(50, 4))
        decay, _, _ = _coefficients(p, u)
        assert np.all(decay > 0.0)
        assert np.all(decay <= 1.0)


class TestAffineRecurrence:
    @staticmethod
    def coefficients(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.uniform(0.0, 1.0, shape), rng.normal(size=shape)

    def test_matches_closed_form_steps(self):
        decay = np.array([[9.0], [0.5], [0.25]])
        drive = np.array([[1.0], [2.0], [4.0]])
        out = np.empty_like(drive)
        _affine_recurrence(decay, drive, out)
        assert np.array_equal(out.ravel(), [1.0, 2.5, 4.625])

    @pytest.mark.parametrize("view", [
        lambda arr: arr[::-1],
        lambda arr: arr.transpose(1, 0, 2, 3),
        lambda arr: arr.transpose(1, 0, 2, 3)[::-1],
    ], ids=["reversed", "transposed", "transposed_reversed"])
    def test_strided_views_match_contiguous_copies(self, view):
        decay, drive = self.coefficients((5, 7, 3, 2), seed=4)
        decay_before, drive_before = decay.copy(), drive.copy()
        out = np.empty_like(drive)
        a, b, o = view(decay), view(drive), view(out)
        assert not a.flags.c_contiguous
        _affine_recurrence(a, b, o)
        want = np.empty(a.shape)
        _affine_recurrence(np.ascontiguousarray(a), np.ascontiguousarray(b), want)
        assert np.array_equal(o, want)
        assert np.array_equal(decay, decay_before)
        assert np.array_equal(drive, drive_before)

    def test_lanes_are_independent(self):
        decay, drive = self.coefficients((9, 4, 3), seed=5)
        out = np.empty_like(drive)
        _affine_recurrence(decay, drive, out)
        for lane in np.ndindex(4, 3):
            one = np.empty(9)
            _affine_recurrence(decay[(slice(None),) + lane], drive[(slice(None),) + lane], one)
            assert np.array_equal(out[(slice(None),) + lane], one)


class TestValidationAndStore:
    def test_dim_mismatch(self):
        p = SsmParams.static(2, transition=0.5)
        with pytest.raises(DimensionError):
            ssm_scan_sequential(p, np.ones((4, 3)))

    def test_empty_sequence(self):
        p = SsmParams.static(1, transition=0.5)
        with pytest.raises(DimensionError):
            ssm_scan_sequential(p, np.ones((0, 1)))

    @pytest.mark.parametrize("scan", [ssm_scan_parallel, ssm_scan_sequential])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_tokens(self, scan, bad):
        # Without the check both paths return an all-NaN output.
        p = SsmParams.random(3, 2, seed=0)
        u = np.zeros((10, 3))
        u[8, 0] = bad
        u[6, 2] = bad
        with pytest.raises(ValueError, match=f"step 6, channel 2 is {bad}"):
            scan(p, u)

    def test_rejects_positive_infinity_a_log(self):
        with pytest.raises(ValueError):
            SsmParams(state_dim=1, a_log=np.full((1, 1), np.inf), d_skip=np.zeros(1),
                      selective=False, delta=np.ones(1), b=np.ones(1), c=np.ones(1))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_d_skip(self, bad):
        d_skip = np.zeros(2)
        d_skip[1] = bad
        with pytest.raises(ValueError, match="^d_skip must be finite$"):
            SsmParams(state_dim=1, a_log=np.zeros((2, 1)), d_skip=d_skip,
                      selective=False, delta=np.ones(2), b=np.ones(1), c=np.ones(1))

    def test_static_requires_positive_step(self):
        with pytest.raises(ValueError):
            SsmParams(state_dim=1, a_log=np.zeros((1, 1)), d_skip=np.zeros(1),
                      selective=False, delta=np.zeros(1), b=np.ones(1), c=np.ones(1))

    @pytest.mark.parametrize("selective", [True, False])
    def test_store_roundtrip(self, selective):
        p = SsmParams.random(3, 2, seed=4, selective=selective)
        store = p.to_store(prefix="s2.")
        q = SsmParams.from_store(store, prefix="s2.")
        u = np.random.default_rng(4).normal(size=(40, 3))
        assert np.array_equal(ssm_scan_sequential(p, u), ssm_scan_sequential(q, u))

    @pytest.mark.parametrize("mode, name", [
        ("selective", "delta_w"), ("selective", "delta_b"), ("selective", "b_w"),
        ("selective", "c_w"), ("static", "delta"), ("static", "b"), ("static", "c"),
    ])
    def test_each_mode_block_is_required_shaped_and_finite(self, mode, name):
        p = SsmParams.random(3, 2, seed=5, selective=mode == "selective")
        base = {field: getattr(p, field)
                for field in ("state_dim", "a_log", "d_skip", "selective",
                              "delta_w", "delta_b", "b_w", "c_w", "delta", "b", "c")}
        with pytest.raises(DimensionError, match=f"^{mode} mode requires {name}$"):
            SsmParams(**{**base, name: None})
        block = np.asarray(base[name])
        with pytest.raises(DimensionError, match=f"^{name} must be "):
            SsmParams(**{**base, name: np.zeros(block.shape + (1,))})
        bad = block.copy()
        bad.flat[-1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            SsmParams(**{**base, name: bad})

    def test_store_block_names(self):
        p = SsmParams.random(2, 2, seed=0)
        names = set(p.to_store().names())
        assert {"ssm.a_log", "ssm.d", "ssm.proj_delta_w", "ssm.proj_delta_b",
                "ssm.proj_b", "ssm.proj_c"} == names


def copying_prefix_affine(decay, drive):
    """An earlier _prefix_affine: block-major blocks of the natural (L, ...) layout,
    scanned on copies of its inputs into a new output."""
    length = decay.shape[0]
    if length == 1:
        return drive.copy()
    bs = int(np.ceil(np.sqrt(length)))
    nb = -(-length // bs)
    pad = nb * bs - length
    if pad:
        decay = np.concatenate([decay, np.ones((pad,) + decay.shape[1:])])
        drive = np.concatenate([drive, np.zeros((pad,) + drive.shape[1:])])
    a = decay.reshape(nb, bs, *decay.shape[1:]).copy()
    b = drive.reshape(nb, bs, *drive.shape[1:]).copy()
    for t in range(1, bs):
        b[:, t] += a[:, t] * b[:, t - 1]
        a[:, t] *= a[:, t - 1]
    carries = np.zeros((nb,) + b.shape[2:])
    carry = carries[0]
    for k in range(1, nb):
        carry = a[k - 1, -1] * carry + b[k - 1, -1]
        carries[k] = carry
    out = b + a * carries[:, None]
    return out.reshape(nb * bs, *decay.shape[1:])[:length]


def blocking(length):
    """The scan's (steps per block, blocks) for a sequence of ``length``."""
    bs = int(np.ceil(np.sqrt(length)))
    return bs, -(-length // bs)


def time_major(x, fill):
    """(L, ...) -> (bs, nb, ...) with step t of block k at [t, k]; the tail holds ``fill``."""
    bs, nb = blocking(x.shape[0])
    padded = np.full((nb * bs,) + x.shape[1:], fill)
    padded[:x.shape[0]] = x
    return np.ascontiguousarray(padded.reshape(nb, bs, *x.shape[1:]).swapaxes(0, 1))


def sequence_order(x, length):
    """Undo ``time_major`` and crop the tail."""
    return x.swapaxes(0, 1).reshape(-1, *x.shape[2:])[:length]


def oracle_coefficients(params, u):
    """The previous _coefficients: broadcast products into new arrays."""
    length = u.shape[0]
    if params.selective:
        delta = softplus(u @ params.delta_w.T + params.delta_b)
        b_t = u @ params.b_w.T
        c_t = u @ params.c_w.T
    else:
        delta = np.broadcast_to(params.delta, (length, params.channels))
        b_t = np.broadcast_to(params.b, (length, params.state_dim))
        c_t = np.broadcast_to(params.c, (length, params.state_dim))
    a = -np.exp(params.a_log)
    decay = np.exp(delta[:, :, None] * a[None, :, :])
    drive = (delta * u)[:, :, None] * b_t[:, None, :]
    return decay, drive, c_t


class TestInPlaceScan:
    @pytest.mark.parametrize("selective", [True, False])
    @pytest.mark.parametrize("length", [1, 2, 3, 9, 10, 17, 257])
    def test_coefficients_bit_identical(self, selective, length):
        p = SsmParams.random(3, 4, seed=length, selective=selective)
        u = np.random.default_rng(length).normal(size=(length, 3))
        for got, want in zip(_coefficients(p, u), oracle_coefficients(p, u)):
            assert got.shape == want.shape
            assert np.array_equal(got, want)

    def test_integrator_coefficients_bit_identical(self):
        p = SsmParams.static(2, transition=1.0, state_dim=3)
        u = np.random.default_rng(0).normal(size=(11, 2))
        for got, want in zip(_coefficients(p, u), oracle_coefficients(p, u)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 9, 10, 16, 17, 100, 257])
    def test_prefix_affine_bit_identical_to_copying_scan(self, length):
        rng = np.random.default_rng(length)
        decay = rng.uniform(0.0, 1.0, size=(length, 3, 2))
        drive = rng.normal(size=(length, 3, 2))
        want = copying_prefix_affine(decay.copy(), drive.copy())
        got = _prefix_affine(time_major(decay, 1.0), time_major(drive, 0.0))
        assert got.shape == blocking(length) + (3, 2)
        got = sequence_order(got, length)
        assert got.shape == want.shape
        assert np.array_equal(got, want)

    def test_prefix_affine_overwrites_its_inputs(self):
        # The docstring's contract: the buffers are scratch; states come back in drive.
        rng = np.random.default_rng(4)
        decay = rng.uniform(0.0, 1.0, size=(4, 4, 2, 2))
        drive = rng.normal(size=(4, 4, 2, 2))
        decay_before = decay.copy()
        states = _prefix_affine(decay, drive)
        assert states.shape == (4, 4, 2, 2)
        assert np.shares_memory(states, drive)
        assert not np.array_equal(decay, decay_before)

    @pytest.mark.parametrize("selective", [True, False])
    def test_parallel_scan_bit_identical_to_copying_scan(self, selective):
        # The four stage shapes of a 256^2 forward, then other lengths over the same widths.
        for length, channels in [(4096, 16), (1024, 32), (256, 64), (64, 128),
                                 (1, 16), (2, 32), (3, 64), (4, 128),
                                 (10, 16), (17, 32), (123, 64), (1000, 128)]:
            p = SsmParams.random(channels, 8, seed=length, selective=selective)
            u = np.random.default_rng(length).normal(size=(length, channels))
            decay, drive, c_t = oracle_coefficients(p, u)
            hs = copying_prefix_affine(decay, drive)
            want = np.einsum("lcn,ln->lc", hs, c_t) + p.d_skip * u
            got = ssm_scan_parallel(p, u)
            assert got.shape == want.shape, (length, channels)
            assert np.array_equal(got, want), (length, channels)
