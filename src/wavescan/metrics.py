"""Region, boundary and topology evaluation for thin-structure masks.

Masks are 2-D arrays: predictions are real-valued in [0, 1], ground
truth is boolean (anything nonzero counts as structure).  Conventions
for empty denominators: IoU of an absent class is 1, precision/recall
with an empty denominator are 0, clDice of two empty skeletons is 1
and of exactly one empty skeleton is 0.

mIoU is the two-class mean (foreground and background IoU).  ODS sweeps
the fixed threshold grid 0.01 .. 0.99 with dataset-aggregated confusion
counts and no boundary-tolerance matching.  Each pixel falls in one bin,
the number of thresholds at or below its prediction; a NaN prediction
counts as below every threshold.  The bin is found by arithmetic:
floor(100 p), clamped to [0, 99] with NaN sent to 0, is at most one off,
so one comparison against the exact threshold on each side corrects it.
One histogram of (bin, gt) per pair, added to a running count as each
pair arrives, and reversed cumulative sums give the counts at every
threshold.  A prediction given as 8-bit PGM codes v is read as v / 255,
as ``fileio.load_pgm`` reads it: the 256 values v / 255 are binned once,
by the same arithmetic, so a pair only counts its (code, gt) pairs and
its counts equal those of its float image exactly.

clDice uses Zhang-Suen thinning for its skeletons.  The deletion test of
each sub-iteration is a 256-entry table over the 8-neighbour code, built
once at import.  A pixel's code is computed once and again only after a
neighbour is deleted.  Each table keeps the set of foreground pixels
whose neighbourhood changed since that table last looked them up (all
of them at the start); a sub-iteration looks up only that set, deletes
all chosen pixels at once, so the pass stays parallel, and adds their
remaining neighbours to the sets of both tables.  A pixel left out has
the code it had when the same table last kept it, so the result equals
full Zhang-Suen passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError

ODS_THRESHOLDS = np.arange(1, 100) / 100.0


def _as_float_mask(mask) -> np.ndarray:
    arr = np.asarray(mask, dtype=np.float64)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {arr.shape}")
    return arr


def _as_bool_mask(mask) -> np.ndarray:
    """The mask as booleans; a boolean input is returned as is, not copied."""
    arr = np.asarray(mask)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {arr.shape}")
    return arr if arr.dtype == np.bool_ else arr != 0


def _as_pair(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    """A float prediction and a boolean ground truth of the same 2-D shape."""
    pred = _as_float_mask(pred)
    gt = _as_bool_mask(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    return pred, gt


@dataclass(frozen=True)
class RegionMetrics:
    miou: float
    f1: float
    precision: float
    recall: float


def _confusion(pred_bin: np.ndarray, gt: np.ndarray) -> tuple[int, int, int, int]:
    tp = int(np.count_nonzero(pred_bin & gt))
    fp = int(np.count_nonzero(pred_bin)) - tp
    fn = int(np.count_nonzero(gt)) - tp
    tn = gt.size - tp - fp - fn
    return tp, fp, fn, tn


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def region_metrics(pred, gt, threshold: float = 0.5) -> RegionMetrics:
    """Confusion-count metrics of pred >= threshold against a boolean mask.

    A boolean pred is taken as already thresholded: as 0.0 and 1.0 it
    gives the same binary mask at every threshold in (0, 1).
    """
    pred = _as_bool_mask(pred) if np.asarray(pred).dtype == np.bool_ else _as_float_mask(pred)
    gt = _as_bool_mask(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"threshold must be in (0, 1), got {threshold}")
    tp, fp, fn, tn = _confusion(pred if pred.dtype == np.bool_ else pred >= threshold, gt)
    precision, recall, f1 = _prf(tp, fp, fn)
    iou_fg = tp / (tp + fp + fn) if tp + fp + fn else 1.0
    iou_bg = tn / (tn + fp + fn) if tn + fp + fn else 1.0
    return RegionMetrics(
        miou=(iou_fg + iou_bg) / 2.0, f1=f1, precision=precision, recall=recall
    )


@dataclass(frozen=True)
class OdsResult:
    f1: float
    threshold: float


class _OdsCounts:
    """Running histogram of (bin, gt) over the pairs added so far.

    Bin b holds the predictions p with t_b <= p < t_(b+1), taking t_0 =
    -inf; a NaN prediction falls in bin 0.
    """

    n_bins = len(ODS_THRESHOLDS) + 1
    # Exact bin edges for the one-step correction of floor(100 p).  The top
    # bin's upper edge is NaN, which no comparison reaches, so +inf stays
    # in the top bin.
    lower = np.concatenate([[-np.inf], ODS_THRESHOLDS])
    upper = np.concatenate([ODS_THRESHOLDS, [np.nan]])
    lower.flags.writeable = upper.flags.writeable = False

    def __init__(self):
        self.counts = np.zeros(2 * self.n_bins, dtype=np.int64)

    @classmethod
    def bins(cls, flat: np.ndarray) -> np.ndarray:
        """The bin of each value of a flat float64 array."""
        with np.errstate(over="ignore"):  # beyond 1.8e306 the guess is inf, still clamped
            guess = flat * 100.0
        np.fmax(guess, 0.0, out=guess)  # also sends NaN to 0
        np.fmin(guess, cls.n_bins - 1, out=guess)
        bins = guess.astype(np.intp)  # truncation floors a non-negative guess
        del guess
        bins += flat >= cls.upper.take(bins)
        bins -= flat < cls.lower.take(bins)
        return bins

    def add(self, pred, gt) -> None:
        pred, gt = _as_pair(pred, gt)
        bins = self.bins(pred.ravel())
        np.add(bins, self.n_bins, out=bins, where=gt.ravel())
        self.counts += np.bincount(bins, minlength=2 * self.n_bins)

    def add_codes(self, codes, gt) -> None:
        """``add(codes / 255.0, gt)`` for 8-bit codes, without a float image."""
        codes = np.asarray(codes)
        gt = _as_bool_mask(gt)
        if codes.shape != gt.shape:
            raise DimensionError(f"shape mismatch: codes {codes.shape} vs gt {gt.shape}")
        pos = np.bincount(codes[gt], minlength=256)
        neg = np.bincount(codes.ravel(), minlength=256) - pos
        np.add.at(self.counts, _CODE_BINS, neg)
        np.add.at(self.counts, _CODE_BINS + self.n_bins, pos)

    def totals(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Dataset-aggregated tp, fp, fn of pred >= t at every ODS threshold t."""
        # pixels in bin j or above; at threshold j the positives are those above bin j
        neg_above, pos_above = np.cumsum(
            self.counts.reshape(2, self.n_bins)[:, ::-1], axis=1)[:, ::-1]
        tp = pos_above[1:]
        fp = neg_above[1:]
        fn = pos_above[0] - tp
        return tp, fp, fn

    def best(self) -> OdsResult:
        """Best dataset-aggregated F1 over the threshold grid."""
        tp, fp, fn = self.totals()
        with np.errstate(invalid="ignore", divide="ignore"):
            precision = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
            recall = np.where(tp + fn > 0, tp / np.maximum(tp + fn, 1), 0.0)
            denom = precision + recall
            f1 = np.where(denom > 0, 2 * precision * recall / np.maximum(denom, 1e-300), 0.0)
        best = int(np.argmax(f1))
        return OdsResult(f1=float(f1[best]), threshold=float(ODS_THRESHOLDS[best]))


# The bin of each 8-bit code v, read as v / 255.
_CODE_BINS = _OdsCounts.bins(np.arange(256) / 255.0)
_CODE_BINS.flags.writeable = False


def _ods_tally(preds, gts) -> _OdsCounts:
    tally = _OdsCounts()
    for pred, gt in zip(preds, gts):
        tally.add(pred, gt)
    return tally


def _ods_counts(preds, gts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dataset-aggregated tp, fp, fn of pred >= t at every ODS threshold t."""
    return _ods_tally(preds, gts).totals()


def ods(preds, gts) -> OdsResult:
    """Best dataset-aggregated F1 over the fixed threshold grid."""
    preds = list(preds)
    gts = list(gts)
    if not preds or len(preds) != len(gts):
        raise InputError(f"need equal non-empty mask lists, got {len(preds)} and {len(gts)}")
    return _ods_tally(preds, gts).best()


def _deletion_table(first: bool) -> np.ndarray:
    """Zhang-Suen deletion test for every 8-neighbour code of a foreground pixel.

    Bit k of the code is neighbour p(k+2), clockwise from north: p2 = N,
    p3 = NE, p4 = E, ... p9 = NW.
    """
    ring = (np.arange(256)[None, :] >> np.arange(8)[:, None]) & 1
    p2, _, p4, _, p6, _, p8, _ = ring
    b = ring.sum(axis=0)
    a = ((ring == 0) & (np.roll(ring, -1, axis=0) == 1)).sum(axis=0)
    cond = (b >= 2) & (b <= 6) & (a == 1)
    if first:
        cond &= (p2 * p4 * p6 == 0) & (p4 * p6 * p8 == 0)
    else:
        cond &= (p2 * p4 * p8 == 0) & (p2 * p6 * p8 == 0)
    cond.flags.writeable = False
    return cond


_DELETE_TABLES = (_deletion_table(True), _deletion_table(False))


def _slot_dtype(h: int, w: int) -> type:
    """int32 when every position ``_first_of_each`` writes for an h x w mask fits it, else intp.

    Each call dedupes either the neighbours of the deleted pixels (8 per
    deleted pixel) or the two todo sets (each a set of foreground pixels),
    so it writes fewer than 8 * h * w positions.
    """
    return np.int32 if 8 * h * w <= np.iinfo(np.int32).max + 1 else np.intp


def _first_of_each(idx: np.ndarray, slot: np.ndarray) -> np.ndarray:
    """``idx`` with repeats dropped, using ``slot`` (one entry per index) as scratch."""
    pos = np.arange(idx.size, dtype=slot.dtype)
    slot[idx] = pos
    # whichever repeat wrote last owns the slot; exactly one repeat matches it
    return idx[slot[idx] == pos]


def skeletonize(mask) -> np.ndarray:
    """Zhang-Suen iterative thinning to a 1-pixel-wide skeleton (boolean)."""
    img = _as_bool_mask(mask)
    h, w = img.shape
    stride = w + 2
    padded = np.zeros((h + 2, w + 2), dtype=bool)
    padded[1:-1, 1:-1] = img
    flat = padded.ravel()
    # flat offsets of p2 .. p9 in a row-major padded image
    ring = np.array([-stride, -stride + 1, 1, stride + 1, stride, stride - 1, -1, -stride - 1])
    fg = np.flatnonzero(flat)
    codes = np.zeros(flat.size, dtype=np.uint8)
    codes[fg] = np.packbits(flat[ring[:, None] + fg], axis=0, bitorder="little")[0]
    slot = np.empty(flat.size, dtype=_slot_dtype(h, w))
    # todo[k]: foreground pixels whose code changed since table k last kept them
    todo = [fg, fg]
    k = 0
    while todo[0].size or todo[1].size:
        looked, todo[k] = todo[k], fg[:0]
        gone = looked[_DELETE_TABLES[k][codes[looked]]]
        if gone.size:
            flat[gone] = False
            near = (gone[:, None] + ring).ravel()
            near = _first_of_each(near[flat[near]], slot)
            codes[near] = np.packbits(flat[ring[:, None] + near], axis=0, bitorder="little")[0]
            other = todo[1 - k]
            todo[1 - k] = _first_of_each(np.concatenate([other[flat[other]], near]), slot)
            todo[k] = near
        k = 1 - k
    return padded[1:-1, 1:-1].copy()


def dice(pred, gt) -> float:
    """Plain overlap Dice of two boolean masks."""
    pred = _as_bool_mask(pred)
    gt = _as_bool_mask(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    total = int(pred.sum()) + int(gt.sum())
    if total == 0:
        return 1.0
    return 2.0 * int((pred & gt).sum()) / total


def cldice(pred, gt) -> float:
    """Skeleton-overlap harmonic mean (connectivity-sensitive Dice).

    Tprec = |skel(pred) & gt| / |skel(pred)|,
    Tsens = |skel(gt) & pred| / |skel(gt)|,
    clDice = 2 * Tprec * Tsens / (Tprec + Tsens).
    """
    pred = _as_bool_mask(pred)
    gt = _as_bool_mask(gt)
    if pred.shape != gt.shape:
        raise DimensionError(f"shape mismatch: pred {pred.shape} vs gt {gt.shape}")
    skel_p = skeletonize(pred)
    skel_g = skeletonize(gt)
    np_, ng = int(skel_p.sum()), int(skel_g.sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    tprec = int((skel_p & gt).sum()) / np_
    tsens = int((skel_g & pred).sum()) / ng
    if tprec + tsens == 0.0:
        return 0.0
    return 2.0 * tprec * tsens / (tprec + tsens)


def connected_components(mask, connectivity: int = 8) -> int:
    """Count connected foreground components (4- or 8-connectivity)."""
    arr = _as_bool_mask(mask)
    if connectivity not in (4, 8):
        raise ValueError("connectivity must be 4 or 8")
    visited = np.zeros_like(arr)
    if connectivity == 8:
        steps = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    else:
        steps = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    h, w = arr.shape
    count = 0
    for start in zip(*np.nonzero(arr & ~visited)):
        if visited[start]:
            continue
        count += 1
        stack = [start]
        visited[start] = True
        while stack:
            r, c = stack.pop()
            for dr, dc in steps:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and arr[rr, cc] and not visited[rr, cc]:
                    visited[rr, cc] = True
                    stack.append((rr, cc))
    return count
