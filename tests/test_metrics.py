import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from wavescan import metrics
from wavescan.errors import DimensionError, InputError
from wavescan.metrics import (
    ODS_THRESHOLDS,
    _DELETE_TABLES,
    OdsResult,
    _ods_counts,
    _OdsCounts,
    _slot_dtype,
    cldice,
    connected_components,
    dice,
    ods,
    region_metrics,
    skeletonize,
)
from wavescan.synth import SynthConfig, generate_sample


def oracle_region(pred, gt, threshold):
    """Exhaustive per-pixel recount, no vectorization."""
    tp = fp = fn = tn = 0
    h, w = gt.shape
    for r in range(h):
        for c in range(w):
            p = pred[r, c] >= threshold
            g = bool(gt[r, c])
            tp += p and g
            fp += p and not g
            fn += (not p) and g
            tn += (not p) and (not g)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    iou_fg = tp / (tp + fp + fn) if tp + fp + fn else 1.0
    iou_bg = tn / (tn + fp + fn) if tn + fp + fn else 1.0
    return (iou_fg + iou_bg) / 2, f1, precision, recall


def _zhang_suen_pass(img: np.ndarray, first: bool) -> np.ndarray:
    """One parallel Zhang-Suen sub-iteration over eight full-image neighbour planes."""
    padded = np.pad(img, 1).astype(np.uint8)
    p2 = padded[:-2, 1:-1]
    p3 = padded[:-2, 2:]
    p4 = padded[1:-1, 2:]
    p5 = padded[2:, 2:]
    p6 = padded[2:, 1:-1]
    p7 = padded[2:, :-2]
    p8 = padded[1:-1, :-2]
    p9 = padded[:-2, :-2]
    ring = np.stack([p2, p3, p4, p5, p6, p7, p8, p9])
    b = ring.sum(axis=0, dtype=np.int32)
    a = ((ring == 0) & (np.roll(ring, -1, axis=0) == 1)).sum(axis=0)
    cond = img & (b >= 2) & (b <= 6) & (a == 1)
    if first:
        cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    return img & ~cond


def oracle_skeletonize(mask) -> np.ndarray:
    """Whole-image Zhang-Suen thinning, iterated until a full pass changes nothing."""
    img = np.asarray(mask) != 0
    while True:
        after = _zhang_suen_pass(_zhang_suen_pass(img, True), False)
        if np.array_equal(after, img):
            return after
        img = after


def oracle_ods_counts(preds, gts):
    """tp, fp, fn per threshold from the full thresholds x pixels comparison."""
    tp = np.zeros(len(ODS_THRESHOLDS), dtype=np.int64)
    fp = np.zeros_like(tp)
    fn = np.zeros_like(tp)
    for pred, gt in zip(preds, gts):
        binned = np.asarray(pred, dtype=np.float64).ravel()[None, :] >= ODS_THRESHOLDS[:, None]
        gt_flat = (np.asarray(gt) != 0).ravel()[None, :]
        tp += (binned & gt_flat).sum(axis=1)
        fp += (binned & ~gt_flat).sum(axis=1)
        fn += (~binned & gt_flat).sum(axis=1)
    return tp, fp, fn


def assert_counts_equal(preds, gts):
    got = _ods_counts(preds, gts)
    want = oracle_ods_counts(preds, gts)
    for name, g, w in zip(("tp", "fp", "fn"), got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w), name


class TestRegionMetrics:
    def test_perfect_prediction(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[2:5, 1:7] = True
        m = region_metrics(gt.astype(float), gt)
        assert (m.miou, m.f1, m.precision, m.recall) == (1.0, 1.0, 1.0, 1.0)

    def test_complement_of_half_foreground(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[:4] = True
        m = region_metrics((~gt).astype(float), gt)
        assert (m.miou, m.f1, m.precision, m.recall) == (0.0, 0.0, 0.0, 0.0)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(0)
        for trial in range(10):
            pred = rng.uniform(size=(32, 32))
            gt = rng.uniform(size=(32, 32)) > 0.6
            t = float(rng.uniform(0.2, 0.8))
            m = region_metrics(pred, gt, t)
            want = oracle_region(pred, gt, t)
            assert (m.miou, m.f1, m.precision, m.recall) == pytest.approx(want)

    def test_empty_everything_conventions(self):
        zero = np.zeros((4, 4))
        m = region_metrics(zero, zero.astype(bool))
        assert m.miou == 1.0  # absent foreground counts as IoU 1
        assert m.f1 == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            region_metrics(np.zeros((4, 4)), np.zeros((4, 5), dtype=bool))

    def test_threshold_range(self):
        with pytest.raises(ValueError):
            region_metrics(np.zeros((4, 4)), np.zeros((4, 4), dtype=bool), threshold=0.0)


class TestOds:
    def test_perfect_hard_mask(self):
        gt = np.zeros((8, 8), dtype=bool)
        gt[3, 1:7] = True
        result = ods([gt.astype(float)], [gt])
        assert result.f1 == 1.0

    def test_constant_half_prediction_two_regimes(self):
        gt = np.zeros((6, 6), dtype=bool)
        gt[2:4, 2:4] = True
        pred = np.full((6, 6), 0.5)
        result = ods([pred], [gt])
        all_fg_f1 = 2 * gt.sum() / (gt.sum() + gt.size)
        assert result.f1 == pytest.approx(all_fg_f1)
        assert result.threshold <= 0.5

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        preds = [rng.uniform(size=(16, 16)) for _ in range(10)]
        gts = [rng.uniform(size=(16, 16)) > 0.7 for _ in range(10)]
        result = ods(preds, gts)
        best = (0.0, None)
        for t in ODS_THRESHOLDS:
            tp = fp = fn = 0
            for p, g in zip(preds, gts):
                b = p >= t
                tp += int((b & g).sum())
                fp += int((b & ~g).sum())
                fn += int((~b & g).sum())
            precision = tp / (tp + fp) if tp + fp else 0.0
            recall = tp / (tp + fn) if tp + fn else 0.0
            f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
            if f1 > best[0]:
                best = (f1, t)
        assert result.f1 == pytest.approx(best[0])
        assert result.threshold == pytest.approx(best[1])

    def test_dominates_fixed_threshold_f1(self):
        rng = np.random.default_rng(2)
        preds = [rng.uniform(size=(16, 16)) for _ in range(4)]
        gts = [rng.uniform(size=(16, 16)) > 0.5 for _ in range(4)]
        result = ods(preds, gts)
        for t in (0.25, 0.5, 0.75):
            tp = fp = fn = 0
            for p, g in zip(preds, gts):
                b = p >= t
                tp += int((b & g).sum())
                fp += int((b & ~g).sum())
                fn += int((~b & g).sum())
            f1 = 2 * tp / (2 * tp + fp + fn) if 2 * tp + fp + fn else 0.0
            assert result.f1 >= f1 - 1e-12

    def test_empty_dataset(self):
        with pytest.raises(InputError):
            ods([], [])

    def test_counts_match_oracle_at_threshold_edges(self):
        t = ODS_THRESHOLDS
        edges = np.concatenate([t, np.nextafter(t, -np.inf), np.nextafter(t, np.inf),
                                [np.nan, np.inf, -np.inf, -0.5, 0.0, 1.0, 1.5, -0.0,
                                 5e-324, 1e306, np.finfo(float).max, -np.finfo(float).max]])
        rng = np.random.default_rng(5)
        preds = [edges.reshape(1, -1), edges[::-1].reshape(-1, 1), rng.permutation(edges)[None]]
        gts = [rng.uniform(size=p.shape) < 0.5 for p in preds]
        assert_counts_equal(preds, gts)
        assert_counts_equal(preds, [~g for g in gts])

    def test_counts_match_oracle_on_noisy_synth_pairs(self):
        rng = np.random.default_rng(6)
        preds, gts = [], []
        for seed in range(4):
            gt = generate_sample(SynthConfig(height=48, width=40, seed=seed,
                                             orientation="bezier", width_max=4)).gt
            pred = 0.7 * gt + 0.15 + rng.normal(0.0, 0.3, gt.shape)
            pred[rng.uniform(size=gt.shape) < 0.02] = np.nan
            preds.append(pred)
            gts.append(gt)
        assert_counts_equal(preds, gts)
        assert ods(preds, gts) == ods([np.where(np.isnan(p), -1.0, p) for p in preds], gts)

    def test_nan_counts_as_below_every_threshold(self):
        gt = np.zeros((6, 6), dtype=bool)
        gt[2, 1:5] = True
        pred = np.where(gt, 1.0, np.nan)
        assert ods([pred], [gt]) == OdsResult(f1=1.0, threshold=0.01)
        tp, fp, fn = _ods_counts([pred], [gt])
        assert not fp.any() and not fn.any() and (tp == 4).all()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_counts_match_oracle_property(self, data):
        shape = data.draw(hnp.array_shapes(min_dims=2, max_dims=2, max_side=9))
        values = st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(list(ODS_THRESHOLDS)),
            st.floats(min_value=-0.1, max_value=1.1),
        )
        n = data.draw(st.integers(1, 3))
        preds = [data.draw(hnp.arrays(np.float64, shape, elements=values)) for _ in range(n)]
        gts = [data.draw(hnp.arrays(np.bool_, shape)) for _ in range(n)]
        assert_counts_equal(preds, gts)
        codes = [data.draw(hnp.arrays(np.uint8, shape)) for _ in range(n)]
        tally = _OdsCounts()
        for c, g in zip(codes, gts):
            tally.add_codes(c, g)
        want = oracle_ods_counts([c / 255.0 for c in codes], gts)
        for name, g, w in zip(("tp", "fp", "fn"), tally.totals(), want):
            assert g.dtype == w.dtype and np.array_equal(g, w), name

    @pytest.mark.parametrize("gt_value", [False, True])
    def test_code_counts_equal_float_counts_on_every_code(self, gt_value):
        # Every code once under gt_value, then every code twice with alternate
        # rows on each ground-truth value, so both histograms are filled.
        codes = np.arange(256, dtype=np.uint8).reshape(16, 16)
        gt = np.full(codes.shape, gt_value)
        mixed_codes = np.tile(codes, (2, 1))
        mixed_gt = np.zeros(mixed_codes.shape, dtype=bool)
        mixed_gt[::2] = gt_value
        mixed_gt[1::2] = not gt_value
        for c, g in ((codes, gt), (mixed_codes, mixed_gt)):
            by_codes, by_floats = _OdsCounts(), _OdsCounts()
            by_codes.add_codes(c, g)
            by_floats.add(c / 255.0, g)
            assert by_codes.counts.dtype == np.int64
            assert np.array_equal(by_codes.counts, by_floats.counts)

    def test_code_counts_reject_a_shape_mismatch(self):
        tally = _OdsCounts()
        with pytest.raises(DimensionError):
            tally.add_codes(np.zeros((4, 4), dtype=np.uint8), np.zeros((4, 5), dtype=bool))
        assert not tally.counts.any()


class TestSkeletonize:
    def test_one_pixel_line_unchanged(self):
        mask = np.zeros((5, 12), dtype=bool)
        mask[2, 1:11] = True
        assert np.array_equal(skeletonize(mask), mask)

    def test_bar_thins_to_single_path(self):
        mask = np.zeros((9, 26), dtype=bool)
        mask[3:6, 3:23] = True
        sk = skeletonize(mask)
        assert connected_components(sk) == 1
        cols = np.nonzero(sk)[1]
        assert cols.min() <= 5 and cols.max() >= 20  # spans the bar's extent
        for c in range(26):
            assert np.count_nonzero(sk[:, c]) <= 1  # single-pixel wide

    def test_empty_mask(self):
        assert skeletonize(np.zeros((6, 6), dtype=bool)).sum() == 0

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        mask = rng.uniform(size=(24, 24)) > 0.6
        sk = skeletonize(mask)
        assert np.array_equal(skeletonize(sk), sk)

    def test_preserves_component_count_on_synthetic_curves(self):
        for seed in range(8):
            sample = generate_sample(SynthConfig(
                height=48, width=48, curves=2, width_min=2, width_max=4,
                orientation="bezier", seed=seed,
            ))
            before = connected_components(sample.gt)
            after = connected_components(skeletonize(sample.gt))
            assert before == after


def _border_masks():
    frame = np.zeros((12, 15), dtype=bool)
    frame[:3] = frame[-2:] = True
    frame[:, :2] = frame[:, -3:] = True
    corner = np.zeros((10, 10), dtype=bool)
    corner[:4, :4] = True
    corner[-5:, -2:] = True
    diagonal = np.eye(9, 14, dtype=bool) | np.eye(9, 14, 1, dtype=bool)
    return [frame, corner, diagonal, np.ones((6, 9), dtype=bool) & ~np.eye(6, 9, 2, dtype=bool)]


def _exactness_masks():
    rng = np.random.default_rng(11)
    masks = []
    for seed in range(6):
        sample = generate_sample(SynthConfig(height=64, width=56, curves=3, width_min=1,
                                             width_max=6, orientation="bezier", seed=seed))
        masks.append(sample.gt)
        noisy = 0.7 * sample.gt + 0.15 + rng.normal(0.0, 0.2, sample.gt.shape)
        masks.append(noisy >= 0.5)
    for density in (0.1, 0.3, 0.5, 0.7, 0.9):
        masks.append(rng.uniform(size=(37, 41)) < density)
    masks += [np.ones((20, 23), dtype=bool), np.zeros((8, 9), dtype=bool),
              np.ones((1, 17), dtype=bool), np.ones((17, 1), dtype=bool),
              np.ones((2, 17), dtype=bool), np.ones((17, 2), dtype=bool)]
    return masks + _border_masks()


EXACTNESS_MASKS = _exactness_masks()


class TestSkeletonizeExact:
    @pytest.mark.parametrize("mask", EXACTNESS_MASKS)
    def test_matches_whole_image_oracle(self, mask):
        got = skeletonize(mask)
        assert got.dtype == np.bool_ and got.shape == mask.shape
        assert np.array_equal(got, oracle_skeletonize(mask))

    @pytest.mark.parametrize("first", [True, False])
    def test_tables_match_oracle_pass_on_every_patch(self, first):
        table = _DELETE_TABLES[0 if first else 1]
        # (row, col) of p2 .. p9 in a 3x3 patch, clockwise from north
        ring = [(0, 1), (0, 2), (1, 2), (2, 2), (2, 1), (2, 0), (1, 0), (0, 0)]
        for bits in itertools.product((False, True), repeat=9):
            patch = np.array(bits).reshape(3, 3)
            code = sum(int(patch[rc]) << k for k, rc in enumerate(ring))
            deleted = patch[1, 1] and not _zhang_suen_pass(patch, first)[1, 1]
            assert deleted == (patch[1, 1] and table[code]), (bits, first)

    def test_tables_are_read_only(self):
        for table in _DELETE_TABLES:
            with pytest.raises(ValueError):
                table[0] = True

    def test_input_left_unchanged(self):
        mask = np.ones((5, 7), dtype=np.uint8)
        skeletonize(mask)
        assert (mask == 1).all()

    def test_pixel_freed_by_the_other_sub_iteration(self):
        # The first-table lookup keeps (2, 1).  It becomes deletable for that
        # table only after the second sub-iteration deletes (1, 1), (2, 0) and
        # (3, 0), so a deletion must queue its neighbours for the other table.
        mask = np.array([[1, 0, 1, 0],
                         [1, 1, 1, 0],
                         [1, 1, 1, 1],
                         [1, 1, 1, 0],
                         [1, 0, 1, 1]], dtype=bool)
        want = oracle_skeletonize(mask)
        assert not want.any()
        assert np.array_equal(skeletonize(mask), want)

    @pytest.mark.parametrize("thickness", [5, 9, 16])
    @pytest.mark.parametrize("orientation", ["horizontal", "vertical", "diagonal"])
    def test_long_thick_bars_need_many_passes(self, thickness, orientation):
        # Each pass peels about one pixel off either side, so these take 2 to
        # 9 passes, and the later ones look up only the pixels next to the
        # last deletions.
        size = 96
        rows, cols = np.mgrid[:size, :size]
        if orientation == "horizontal":
            mask = (rows >= 40) & (rows < 40 + thickness) & (cols >= 4) & (cols < size - 4)
        elif orientation == "vertical":
            mask = (cols >= 40) & (cols < 40 + thickness) & (rows >= 4) & (rows < size - 4)
        else:
            mask = (np.abs(rows - cols) * 2 < thickness) & (rows > 3) & (rows < size - 4)
        assert np.array_equal(skeletonize(mask), oracle_skeletonize(mask))

    @settings(max_examples=80, deadline=None)
    @given(hnp.arrays(np.bool_, hnp.array_shapes(min_dims=2, max_dims=2, max_side=16)))
    def test_matches_oracle_property(self, mask):
        assert np.array_equal(skeletonize(mask), oracle_skeletonize(mask))

    def test_slot_dtype_at_its_size_boundary(self):
        # Positions below 8 * h * w fit int32 while 8 * h * w <= 2**31.
        assert _slot_dtype(1 << 14, 1 << 14) is np.int32
        assert _slot_dtype(1 << 13, 1 << 15) is np.int32
        assert _slot_dtype(1 << 14, (1 << 14) + 1) is np.intp
        assert _slot_dtype((1 << 14) + 1, 1 << 14) is np.intp
        assert _slot_dtype(1, 1) is np.int32

    @pytest.mark.parametrize("mask", [
        np.ones((12, 9), dtype=bool),
        np.indices((11, 14))[0] % 4 != 0,
        np.random.default_rng(21).uniform(size=(17, 13)) < 0.8,
    ], ids=["full", "bars", "dense"])
    def test_dedup_positions_stay_below_eight_per_pixel(self, mask, monkeypatch):
        sizes = []
        dedup = metrics._first_of_each

        def recording(idx, slot):
            sizes.append(idx.size)
            return dedup(idx, slot)

        monkeypatch.setattr(metrics, "_first_of_each", recording)
        assert np.array_equal(skeletonize(mask), oracle_skeletonize(mask))
        assert sizes and max(sizes) <= 8 * mask.size

    def test_intp_slot_gives_the_same_skeletons(self, monkeypatch):
        monkeypatch.setattr(metrics, "_slot_dtype", lambda h, w: np.intp)
        for mask in EXACTNESS_MASKS:
            assert np.array_equal(skeletonize(mask), oracle_skeletonize(mask))


class TestClDice:
    def test_identical_masks(self):
        sample = generate_sample(SynthConfig(height=32, width=32, width_max=3,
                                             orientation="bezier", seed=1))
        assert cldice(sample.gt, sample.gt) == 1.0

    def test_broken_one_pixel_line_closed_form(self):
        gt = np.zeros((5, 24), dtype=bool)
        gt[2, 2:22] = True  # 20-pixel line
        pred = gt.copy()
        pred[2, 12] = False  # drop one interior pixel
        got = cldice(pred, gt)
        assert abs(got - 2 * 0.95 / 1.95) <= 1e-6

    def test_penalizes_breaks_more_than_dice(self):
        for length in (15, 21, 27, 33):
            gt = np.zeros((9, length + 6), dtype=bool)
            gt[3:6, 3 : 3 + length] = True
            pred = gt.copy()
            pred[:, 3 + length // 2] = False
            assert cldice(pred, gt) < dice(pred, gt)

    def test_empty_conventions(self):
        empty = np.zeros((6, 6), dtype=bool)
        line = np.zeros((6, 6), dtype=bool)
        line[3, 1:5] = True
        assert cldice(empty, empty) == 1.0
        assert cldice(empty, line) == 0.0
        assert cldice(line, empty) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            cldice(np.zeros((4, 4), dtype=bool), np.zeros((4, 5), dtype=bool))


class TestComponents:
    def test_counts_diagonal_as_connected_in_8(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        assert connected_components(mask, connectivity=8) == 1
        assert connected_components(mask, connectivity=4) == 2
