import numpy as np
import pytest

from wavescan.errors import DimensionError, InsufficientStructureError
from wavescan.grid import FeatureGrid
from wavescan.scanorder import (
    ScanKind,
    _hilbert_square,
    along_structure_gaps,
    build_scan_order,
    deserialize,
    locality_cost,
    parse_kind,
    serialize,
)

ALL_KINDS = list(ScanKind)

# Mean 4-neighbor index gap of the canonical 8x8 Hilbert traversal,
# frozen from exhaustive pair enumeration: 71/14.
HILBERT_8X8_COST = 71.0 / 14.0


def enumerate_pair_cost(order):
    """Independent exhaustive enumeration of the mean 4-neighbor index gap."""
    pos = order.forward.reshape(order.height, order.width)
    total, count = 0, 0
    for r in range(order.height):
        for c in range(order.width):
            if c + 1 < order.width:
                total += abs(int(pos[r, c]) - int(pos[r, c + 1]))
                count += 1
            if r + 1 < order.height:
                total += abs(int(pos[r, c]) - int(pos[r + 1, c]))
                count += 1
    return total / count


def assert_hilbert_recursion(coords, k):
    """Quadrant-recursive structure: each quarter of the visit sequence fills
    exactly one quadrant before moving on, at every level."""
    if k == 0:
        return
    half = 1 << (k - 1)
    quarter = len(coords) // 4
    seen = set()
    for i in range(4):
        chunk = coords[i * quarter:(i + 1) * quarter]
        quadrants = {(r // half, c // half) for r, c in chunk}
        assert len(quadrants) == 1, f"quarter {i} spans quadrants {quadrants}"
        seen |= quadrants
        qr, qc = next(iter(quadrants))
        local = [(r - qr * half, c - qc * half) for r, c in chunk]
        assert_hilbert_recursion(local, k - 1)
    assert len(seen) == 4


class TestConstruction:
    def test_vertical_2x2_visits(self):
        order = build_scan_order(ScanKind.VERTICAL, 2, 2)
        assert [tuple(v) for v in order.visit_coords()] == [(0, 0), (1, 0), (0, 1), (1, 1)]

    def test_snake_2x3_visits(self):
        order = build_scan_order(ScanKind.SNAKE, 2, 3)
        want = [(0, 0), (0, 1), (0, 2), (1, 2), (1, 1), (1, 0)]
        assert [tuple(v) for v in order.visit_coords()] == want

    def test_horizontal_equals_raster(self):
        a = build_scan_order(ScanKind.HORIZONTAL, 5, 7)
        b = build_scan_order(ScanKind.RASTER, 5, 7)
        assert np.array_equal(a.forward, b.forward)

    def test_hilbert_4x4_adjacent_and_covering(self):
        order = build_scan_order(ScanKind.HILBERT, 4, 4)
        coords = [tuple(v) for v in order.visit_coords()]
        assert len(set(coords)) == 16
        for a, b in zip(coords, coords[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) == 1

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_hilbert_quadrant_recursion(self, k):
        n = 1 << k
        order = build_scan_order(ScanKind.HILBERT, n, n)
        coords = [tuple(v) for v in order.visit_coords()]
        assert_hilbert_recursion(coords, k)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("h,w", [(1, 1), (3, 5), (8, 8), (12, 20), (5, 16)])
    def test_bijectivity(self, kind, h, w):
        order = build_scan_order(kind, h, w)
        assert np.array_equal(np.sort(order.forward), np.arange(h * w))
        assert np.array_equal(order.forward[order.inverse], np.arange(h * w))

    def test_zorder_is_bit_interleaved_on_squares(self):
        order = build_scan_order(ScanKind.ZORDER, 4, 4)
        # Morton order on a 4x4 square: visits follow z-shaped quads
        want = [(0, 0), (0, 1), (1, 0), (1, 1), (0, 2), (0, 3), (1, 2), (1, 3),
                (2, 0), (2, 1), (3, 0), (3, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        assert [tuple(v) for v in order.visit_coords()] == want

    def test_rejects_zero_dimension(self):
        with pytest.raises(DimensionError):
            build_scan_order(ScanKind.RASTER, 0, 4)

    def test_orders_are_cached(self):
        a = build_scan_order(ScanKind.HILBERT, 16, 16)
        b = build_scan_order(ScanKind.HILBERT, 16, 16)
        assert a is b

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_cached_orders_are_read_only(self, kind):
        order = build_scan_order(kind, 6, 10)
        forward, inverse = order.forward.copy(), order.inverse.copy()
        with pytest.raises(ValueError):
            order.forward[0] = order.forward[1]
        with pytest.raises(ValueError):
            order.inverse[::-1].sort()
        with pytest.raises(ValueError):
            order.forward += 1
        again = build_scan_order(kind, 6, 10)
        assert again is order
        assert np.array_equal(again.forward, forward)
        assert np.array_equal(again.inverse, inverse)

    def test_cached_hilbert_curve_is_read_only(self):
        x, y = _hilbert_square(3)
        want = x.copy()
        with pytest.raises(ValueError):
            x[0] = 7
        with pytest.raises(ValueError):
            y[:] = 0
        assert np.array_equal(_hilbert_square(3)[0], want)

    def test_parse_kind_aliases(self):
        assert parse_kind("h") is ScanKind.HORIZONTAL
        assert parse_kind("V") is ScanKind.VERTICAL
        assert parse_kind("z-order") is ScanKind.ZORDER
        with pytest.raises(ValueError):
            parse_kind("spiral")


class TestSerialize:
    def test_raster_is_row_major_flatten(self):
        g = FeatureGrid(np.arange(12, dtype=float).reshape(1, 3, 4))
        seq = serialize(g, build_scan_order(ScanKind.RASTER, 3, 4))
        assert np.array_equal(seq[0], np.arange(12))

    def test_vertical_2x2_sequence(self):
        g = FeatureGrid(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        seq = serialize(g, build_scan_order(ScanKind.VERTICAL, 2, 2))
        assert np.array_equal(seq[0], [1.0, 3.0, 2.0, 4.0])

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_roundtrip_bit_exact(self, kind):
        g = FeatureGrid(np.random.default_rng(0).normal(size=(3, 6, 10)))
        order = build_scan_order(kind, 6, 10)
        back = deserialize(serialize(g, order), order)
        assert np.array_equal(back.data, g.data)

    def test_shape_mismatch_rejected(self):
        g = FeatureGrid.zeros(1, 4, 4)
        with pytest.raises(DimensionError):
            serialize(g, build_scan_order(ScanKind.RASTER, 4, 5))


class TestLocalityCost:
    def test_raster_8x8_exact(self):
        order = build_scan_order(ScanKind.RASTER, 8, 8)
        assert locality_cost(order) == pytest.approx(4.5)
        assert enumerate_pair_cost(order) == pytest.approx(4.5)

    def test_vertical_matches_by_transpose_symmetry(self):
        order = build_scan_order(ScanKind.VERTICAL, 8, 8)
        assert locality_cost(order) == pytest.approx(4.5)

    def test_raster_closed_form_all_sizes(self):
        for n in (4, 8, 16, 32, 64):
            order = build_scan_order(ScanKind.RASTER, n, n)
            assert locality_cost(order) == pytest.approx((n + 1) / 2.0)

    def test_hilbert_8x8_frozen_regression_value(self):
        order = build_scan_order(ScanKind.HILBERT, 8, 8)
        got = locality_cost(order)
        assert got == pytest.approx(HILBERT_8X8_COST, abs=1e-12)
        assert enumerate_pair_cost(order) == pytest.approx(got)

    def test_matches_enumeration_oracle_for_all_kinds(self):
        for kind in ALL_KINDS:
            order = build_scan_order(kind, 8, 12)
            assert locality_cost(order) == pytest.approx(enumerate_pair_cost(order))

    def test_needs_two_by_two(self):
        with pytest.raises(DimensionError):
            locality_cost(build_scan_order(ScanKind.RASTER, 1, 8))


class TestAlongStructureGaps:
    def make_line(self, h, w, row=None, col=None):
        data = np.zeros((1, h, w))
        if row is not None:
            data[0, row, :] = 1.0
        if col is not None:
            data[0, :, col] = 1.0
        return FeatureGrid(data)

    def test_horizontal_line_matching_scan_all_unit_gaps(self):
        mask = self.make_line(4, 4, row=0)
        stats = along_structure_gaps(mask, build_scan_order(ScanKind.HORIZONTAL, 4, 4))
        assert stats.mean == 1.0
        assert stats.max == 1
        assert stats.unit_fraction == 1.0

    def test_horizontal_line_orthogonal_scan_gaps_equal_height(self):
        mask = self.make_line(4, 4, row=0)
        stats = along_structure_gaps(mask, build_scan_order(ScanKind.VERTICAL, 4, 4))
        assert stats.mean == 4.0
        assert stats.max == 4

    def test_vertical_line_roles_swap(self):
        mask = self.make_line(6, 6, col=2)
        aligned = along_structure_gaps(mask, build_scan_order(ScanKind.VERTICAL, 6, 6))
        across = along_structure_gaps(mask, build_scan_order(ScanKind.HORIZONTAL, 6, 6))
        assert aligned.mean == 1.0
        assert across.mean == 6.0

    def test_main_diagonal_hilbert_beats_raster(self):
        data = np.zeros((1, 16, 16))
        for i in range(16):
            data[0, i, i] = 1.0
        mask = FeatureGrid(data)
        hilbert = along_structure_gaps(mask, build_scan_order(ScanKind.HILBERT, 16, 16))
        raster = along_structure_gaps(mask, build_scan_order(ScanKind.RASTER, 16, 16))
        assert hilbert.mean <= raster.mean

    def test_diagonals_aggregate_hilbert_beats_raster(self):
        means_h, means_r = [], []
        for off in range(-10, 11):
            data = np.zeros((1, 16, 16))
            idx = np.arange(16)
            rr, cc = idx, idx + off
            keep = (cc >= 0) & (cc < 16)
            if keep.sum() < 2:
                continue
            data[0, rr[keep], cc[keep]] = 1.0
            mask = FeatureGrid(data)
            means_h.append(along_structure_gaps(mask, build_scan_order(ScanKind.HILBERT, 16, 16)).mean)
            means_r.append(along_structure_gaps(mask, build_scan_order(ScanKind.RASTER, 16, 16)).mean)
        assert np.mean(means_h) < np.mean(means_r)

    def test_insufficient_structure(self):
        mask = FeatureGrid.zeros(1, 4, 4)
        with pytest.raises(InsufficientStructureError):
            along_structure_gaps(mask, build_scan_order(ScanKind.RASTER, 4, 4))
