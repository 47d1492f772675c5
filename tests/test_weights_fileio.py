import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavescan import fileio
from wavescan.errors import DimensionError, InputError
from wavescan.weights import WeightStore, seeded_init


class TestSeededInit:
    SPEC = [("conv.w", (4, 4)), ("proj.w", (8, 16)), ("bias", (8,))]

    def test_same_seed_bit_identical(self):
        a = seeded_init(self.SPEC, 7)
        b = seeded_init(self.SPEC, 7)
        for name in a.names():
            assert np.array_equal(a[name], b[name])

    def test_different_seeds_differ(self):
        a = seeded_init(self.SPEC, 1)
        b = seeded_init(self.SPEC, 2)
        assert not np.array_equal(a["conv.w"], b["conv.w"])

    def test_fan_in_scaling_statistics(self):
        # shape (4, 4): fan_in 4 -> uniform on (-0.5, 0.5), mean |v| = 0.25
        values = np.concatenate(
            [seeded_init([("w", (4, 4))], seed)["w"].ravel() for seed in range(700)]
        )
        assert values.size > 10_000
        assert np.all(np.abs(values) < 1.0)
        assert np.all(np.abs(values) <= 0.5)
        assert abs(np.mean(np.abs(values)) - 0.25) < 0.01

    def test_rank1_fan_in_is_length(self):
        store = seeded_init([("b", (100,))], 0)
        assert np.all(np.abs(store["b"]) <= 0.1)

    def test_rejects_bad_shape(self):
        with pytest.raises(DimensionError):
            seeded_init([("w", (0, 3))], 0)


class TestWeightStore:
    def test_shape_validation(self):
        store = WeightStore({"a": np.zeros((2, 3))})
        assert store.get("a", (2, 3)).shape == (2, 3)
        with pytest.raises(DimensionError):
            store.get("a", (3, 2))

    def test_missing_block(self):
        with pytest.raises(KeyError) as exc:
            WeightStore()["nope"]
        assert isinstance(exc.value, InputError)
        assert str(exc.value) == "weight block 'nope' not found"

    @pytest.mark.parametrize("name, value", [("a.w", np.nan), ("a.w", -np.inf),
                                             ("s2.ssm.a_log", np.inf), ("s2.ssm.a_log", np.nan)])
    def test_load_rejects_non_finite_block_by_name(self, tmp_path, name, value):
        blocks = {"a.w": np.ones((2, 3)), "s2.ssm.a_log": np.zeros((2, 4))}
        blocks[name][1, 2] = value
        path = tmp_path / "w.fgw"
        WeightStore(blocks).save(path)
        with pytest.raises(InputError, match=f"block '{name}'"):
            WeightStore.load(path)

    def test_load_keeps_integrator_limit_in_a_log(self, tmp_path):
        a_log = np.zeros((2, 4))
        a_log[0] = -np.inf
        path = tmp_path / "w.fgw"
        WeightStore({"s1.ssm.a_log": a_log, "ssm.a_log": a_log}).save(path)
        loaded = WeightStore.load(path)
        assert np.array_equal(loaded["s1.ssm.a_log"], a_log)
        assert np.array_equal(loaded["ssm.a_log"], a_log)

    def test_save_load_roundtrip_bit_exact(self, tmp_path):
        store = seeded_init([("a.w", (3, 5)), ("b.w", (7,)), ("c", (2, 2, 3, 3))], 11)
        path = tmp_path / "weights.fgw"
        store.save(path)
        loaded = WeightStore.load(path)
        assert loaded.names() == store.names()
        for name in store.names():
            assert np.array_equal(loaded[name], store[name])
        # saving the loaded store reproduces identical bytes
        path2 = tmp_path / "again.fgw"
        loaded.save(path2)
        assert path.read_bytes() == path2.read_bytes()

    # (C_out, C_in, kh, kw): conv2d runs the first two tap-major at stride 1
    KERNELS = {"tap.w": (2, 6, 3, 3), "tap5.w": (3, 4, 5, 1), "square.w": (4, 4, 3, 3),
               "wide.w": (6, 2, 3, 3), "b": (6,)}

    def test_tap_major_kernels_are_held_in_tap_order(self):
        rng = np.random.default_rng(12)
        blocks = {name: rng.normal(size=shape) for name, shape in self.KERNELS.items()}
        store = WeightStore(blocks)
        for name, arr in blocks.items():
            held = store[name]
            assert np.array_equal(held, arr) and held.shape == arr.shape
            if name.startswith("tap"):
                assert held.transpose(2, 3, 0, 1).flags.c_contiguous
                assert not np.shares_memory(held, arr)  # the store's own copy
            else:
                assert held.flags.c_contiguous

    def test_save_writes_c_order_whatever_the_held_order(self, tmp_path):
        store = seeded_init(list(self.KERNELS.items()), 13)
        c_ordered = {name: np.ascontiguousarray(arr) for name, arr in store.items()}
        store.save(tmp_path / "held.fgw")
        fileio.write_store(tmp_path / "c.fgw", c_ordered)
        assert (tmp_path / "held.fgw").read_bytes() == (tmp_path / "c.fgw").read_bytes()
        loaded = WeightStore.load(tmp_path / "held.fgw")
        for name, arr in c_ordered.items():
            assert np.array_equal(loaded[name], arr)


class TestTensorFormat:
    def test_header_layout(self):
        buf = io.BytesIO()
        fileio.write_tensor(buf, np.arange(6, dtype=np.float64).reshape(2, 3))
        raw = buf.getvalue()
        assert raw[:4] == b"FGT1"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 2
        assert int.from_bytes(raw[12:16], "little") == 3
        assert len(raw) == 16 + 6 * 4

    def test_roundtrip(self):
        buf = io.BytesIO()
        arr = np.random.default_rng(0).normal(size=(2, 3, 4)).astype(np.float32)
        fileio.write_tensor(buf, arr)
        buf.seek(0)
        back = fileio.read_tensor(buf)
        assert np.array_equal(back, arr.astype(np.float64))

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            fileio.read_tensor(io.BytesIO(b"NOPE" + b"\0" * 16))

    def test_truncated_payload(self):
        buf = io.BytesIO()
        fileio.write_tensor(buf, np.zeros(4))
        raw = buf.getvalue()[:-4]
        with pytest.raises(ValueError):
            fileio.read_tensor(io.BytesIO(raw))


MALFORMED_PGMS = [
    (b"", "0 of 4 fields"),
    (b"P5\n5 7", "3 of 4 fields"),
    (b"P5\n# only a comment\n", "1 of 4 fields"),
    (b"P5\nfive 7\n255\n" + bytes(35), "width b'five' is not an integer"),
    (b"P5\n5 7.0\n255\n" + bytes(35), "height b'7.0' is not an integer"),
    (b"P5\n5 7\n0xff\n" + bytes(35), "maxval b'0xff' is not an integer"),
    (b"P5\n-2 4\n255\n" + bytes(8), "size -2x4 is not positive"),
    (b"P5\n0 4\n255\n", "size 0x4 is not positive"),
    (b"P5\n5 0\n255\n", "size 5x0 is not positive"),
    (b"P5\n5 7\n255\n", "pixel data has 0 of 35 bytes"),
    (b"P5\n5 7\n255\n" + bytes(34), "pixel data has 34 of 35 bytes"),
    (b"P5\n5 7\n255", "pixel data has 0 of 35 bytes"),
]


class TestPgm:
    def test_roundtrip(self, tmp_path):
        values = np.random.default_rng(3).uniform(size=(5, 7))
        fileio.save_pgm(tmp_path / "img.pgm", values)
        back = fileio.load_pgm(tmp_path / "img.pgm")
        assert back.shape == (5, 7)
        assert np.abs(back - values).max() <= 0.5 / 255.0 + 1e-12

    def test_reads_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n" + bytes([0, 128, 255, 64]))
        img = fileio.load_pgm(path)
        assert img.shape == (2, 2)
        assert img[0, 0] == 0.0
        assert img[1, 0] == 1.0

    def test_rejects_other_formats(self, tmp_path):
        path = tmp_path / "x.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
        with pytest.raises(ValueError):
            fileio.load_pgm(path)

    @pytest.mark.parametrize("data, reason", MALFORMED_PGMS,
                             ids=[reason for _, reason in MALFORMED_PGMS])
    def test_malformed_header_names_file_and_reason(self, tmp_path, data, reason):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        with pytest.raises(InputError) as exc:
            fileio.load_pgm(path)
        assert reason in str(exc.value)
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("data, reason", MALFORMED_PGMS,
                             ids=[reason for _, reason in MALFORMED_PGMS])
    def test_code_reader_raises_as_float_reader(self, tmp_path, data, reason):
        path = tmp_path / "bad.pgm"
        path.write_bytes(data)
        messages = []
        for reader in (fileio.load_pgm, fileio.load_pgm_codes):
            with pytest.raises(InputError) as exc:
                reader(path)
            messages.append(str(exc.value))
        assert messages[0] == messages[1]
        assert reason in messages[1] and str(path) in messages[1]

    def test_float_reader_is_codes_over_255_on_every_code(self, tmp_path):
        path = tmp_path / "codes.pgm"
        want = np.arange(256, dtype=np.uint8).reshape(8, 32)
        fileio.save_pgm(path, want)
        codes = fileio.load_pgm_codes(path)
        assert codes.dtype == np.uint8 and np.array_equal(codes, want)
        assert not codes.flags.writeable
        assert np.array_equal(fileio.load_pgm(path), codes.astype(np.float64) / 255.0)


VALID_PGM = b"P5\n5 7\n255\n" + bytes(range(0, 175, 5))
VALID_PIXELS = np.arange(0, 175, 5, dtype=np.float64).reshape(7, 5) / 255.0


def load_or_input_error(directory, data: bytes):
    """load_pgm of ``data``, or None when it raises InputError."""
    path = directory / "fuzz.pgm"
    path.write_bytes(data)
    try:
        return fileio.load_pgm(path)
    except InputError:
        return None


class TestPgmFuzz:
    def test_valid_file_reads_back(self, tmp_path):
        assert np.array_equal(load_or_input_error(tmp_path, VALID_PGM), VALID_PIXELS)

    def test_every_proper_prefix_raises_input_error(self, tmp_path):
        for end in range(len(VALID_PGM)):
            assert load_or_input_error(tmp_path, VALID_PGM[:end]) is None, end

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(VALID_PGM) - 1), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_mutated_bytes_give_array_or_input_error(self, tmp_path_factory, edits):
        data = bytearray(VALID_PGM)
        for pos, byte in edits:
            data[pos] = byte
        got = load_or_input_error(tmp_path_factory.mktemp("pgm"), bytes(data))
        if got is None:
            return
        assert got.ndim == 2 and got.size > 0
        assert got.dtype == np.float64 and ((got >= 0.0) & (got <= 1.0)).all()
        if data[: len(VALID_PGM) - VALID_PIXELS.size] == VALID_PGM[: -VALID_PIXELS.size]:
            want = np.frombuffer(bytes(data[-VALID_PIXELS.size:]), dtype=np.uint8)
            assert np.array_equal(got, want.reshape(7, 5) / 255.0)


def fgt1_bytes(arr) -> bytes:
    buf = io.BytesIO()
    fileio.write_tensor(buf, arr)
    return buf.getvalue()


VALID_ARRAY = np.arange(6, dtype=np.float32).reshape(2, 3) / 4.0
VALID_FGT1 = fgt1_bytes(VALID_ARRAY)
FGT1_HEADER = len(VALID_FGT1) - VALID_ARRAY.size * 4


def read_tensor_or_input_error(data: bytes):
    """read_tensor of ``data``, or None when it raises InputError."""
    try:
        return fileio.read_tensor(io.BytesIO(data))
    except InputError:
        return None


class TestTensorReader:
    def test_truncated_header_names_file_and_offset(self, tmp_path):
        path = tmp_path / "t.fgt"
        path.write_bytes(VALID_FGT1[:10])
        with open(path, "rb") as fh, pytest.raises(InputError) as exc:
            fileio.read_tensor(fh)
        assert str(path) in str(exc.value)
        assert "at byte 8" in str(exc.value)

    @pytest.mark.parametrize("dims,offset", [((2 ** 31, 2 ** 31), 8), ((2 ** 31, 2 ** 20), 16)])
    def test_huge_dims_rejected_before_allocating(self, dims, offset):
        # 2^31 x 2^31 float64 exceeds any address space; 2^31 x 2^20 exceeds the file.
        data = fileio.MAGIC + (2).to_bytes(4, "little")
        data += b"".join(d.to_bytes(4, "little") for d in dims)
        with pytest.raises(InputError) as exc:
            fileio.read_tensor(io.BytesIO(data + bytes(64)))
        assert f"at byte {offset}" in str(exc.value)

    @pytest.mark.parametrize("dims", [(2 ** 31, 2 ** 31, 0), (2 ** 32 - 1,) * 3 + (0,)])
    def test_empty_tensor_with_huge_dims_rejected(self, dims):
        data = fileio.MAGIC + len(dims).to_bytes(4, "little")
        data += b"".join(d.to_bytes(4, "little") for d in dims)
        with pytest.raises(InputError):
            fileio.read_tensor(io.BytesIO(data))

    def test_huge_rank_rejected(self):
        data = fileio.MAGIC + (2 ** 32 - 1).to_bytes(4, "little") + bytes(16)
        with pytest.raises(InputError):
            fileio.read_tensor(io.BytesIO(data))

    def test_rank_zero_reads_a_scalar(self):
        assert fileio.read_tensor(io.BytesIO(fgt1_bytes(np.float32(1.5)))) == 1.5

    # signaling and quiet NaN of either sign; casting a signaling NaN warns
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("bits", [0x7FA00000, 0xFF800001, 0x7FC00000, 0xFFFFFFFF], ids=hex)
    def test_nan_payload_rejected_before_casting(self, bits):
        raw = np.array([[1.0, -np.inf, np.inf], [0.5, 0.25, 2.0]], dtype="<f4")
        assert np.array_equal(read_tensor_or_input_error(fgt1_bytes(raw)), raw)
        raw.view("<u4")[1, 1] = bits
        with pytest.raises(InputError, match=f"1 NaN value.*at byte {FGT1_HEADER + 16}"):
            fileio.read_tensor(io.BytesIO(fgt1_bytes(raw)))

    def test_every_proper_prefix_raises_input_error(self):
        assert np.array_equal(read_tensor_or_input_error(VALID_FGT1), VALID_ARRAY)
        for end in range(len(VALID_FGT1)):
            assert read_tensor_or_input_error(VALID_FGT1[:end]) is None, end

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, len(VALID_FGT1) - 1), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_mutated_bytes_give_array_or_input_error(self, edits):
        data = bytearray(VALID_FGT1)
        for pos, byte in edits:
            data[pos] = byte
        got = read_tensor_or_input_error(bytes(data))
        if got is None:
            return
        assert got.dtype == np.float64 and not np.isnan(got).any()
        if data[:FGT1_HEADER] == VALID_FGT1[:FGT1_HEADER]:
            want = np.frombuffer(bytes(data[FGT1_HEADER:]), dtype="<f4").reshape(2, 3)
            assert np.array_equal(got, want)


VALID_BLOCKS = {"a.w": VALID_ARRAY, "bé": np.array([1.0, -2.0, 0.5, 8.0], dtype=np.float32)}


def fgw_bytes(tmp_path) -> bytes:
    path = tmp_path / "valid.fgw"
    fileio.write_store(path, VALID_BLOCKS)
    return path.read_bytes()


def read_store_or_input_error(directory, data: bytes):
    path = directory / "fuzz.fgw"
    path.write_bytes(data)
    try:
        return fileio.read_store(path)
    except InputError:
        return None


class TestStoreReader:
    def test_truncated_name_table_names_file_and_offset(self, tmp_path):
        path = tmp_path / "w.fgw"
        path.write_bytes(fgw_bytes(tmp_path)[:6])
        with pytest.raises(InputError) as exc:
            fileio.read_store(path)
        assert str(path) in str(exc.value)
        assert "at byte 4" in str(exc.value)

    def test_name_longer_than_file_rejected(self, tmp_path):
        path = tmp_path / "w.fgw"
        path.write_bytes((1).to_bytes(4, "little") + (2 ** 32 - 1).to_bytes(4, "little"))
        with pytest.raises(InputError, match="at byte 8"):
            fileio.read_store(path)

    def test_non_utf8_name_rejected(self, tmp_path):
        path = tmp_path / "w.fgw"
        path.write_bytes((1).to_bytes(4, "little") + (1).to_bytes(4, "little") + b"\xff")
        with pytest.raises(InputError, match="not UTF-8"):
            fileio.read_store(path)

    def test_duplicate_name_rejected(self, tmp_path):
        entry = (1).to_bytes(4, "little") + b"a"
        path = tmp_path / "w.fgw"
        path.write_bytes((2).to_bytes(4, "little") + entry + entry
                         + fgt1_bytes(np.zeros(1)) * 2)
        with pytest.raises(InputError, match="duplicate name 'a'"):
            fileio.read_store(path)

    def test_every_proper_prefix_raises_input_error(self, tmp_path):
        data = fgw_bytes(tmp_path)
        got = read_store_or_input_error(tmp_path, data)
        assert list(got) == list(VALID_BLOCKS)
        for name, arr in VALID_BLOCKS.items():
            assert np.array_equal(got[name], arr)
        for end in range(len(data)):
            assert read_store_or_input_error(tmp_path, data[:end]) is None, end

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10 ** 6), st.integers(0, 255)),
                    min_size=1, max_size=4))
    def test_mutated_bytes_give_arrays_or_input_error(self, tmp_path_factory, edits):
        directory = tmp_path_factory.mktemp("fgw")
        valid = fgw_bytes(directory)
        data = bytearray(valid)
        for pos, byte in edits:
            data[pos % len(data)] = byte
        got = read_store_or_input_error(directory, bytes(data))
        if got is None:
            return
        assert all(isinstance(v, np.ndarray) and v.dtype == np.float64 and not np.isnan(v).any()
                   for v in got.values())
        # Payloads are the last bytes of each tensor; with every other byte intact
        # the blocks must be exactly the mutated payloads.
        payload_ends, end = [], len(valid)
        for arr in reversed(list(VALID_BLOCKS.values())):
            payload_ends.append((end - arr.size * 4, end, arr.shape))
            end -= len(fgt1_bytes(arr))
        payloads = sorted(payload_ends)
        structure = [i for i in range(len(valid))
                     if not any(lo <= i < hi for lo, hi, _ in payloads)]
        if all(data[i] == valid[i] for i in structure):
            for name, (lo, hi, shape) in zip(VALID_BLOCKS, payloads):
                want = np.frombuffer(bytes(data[lo:hi]), dtype="<f4").reshape(shape)
                assert np.array_equal(got[name], want)
