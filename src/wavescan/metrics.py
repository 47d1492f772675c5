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
of them at the start), each with its code; a sub-iteration looks up only
that set, deletes all chosen pixels at once, so the pass stays parallel,
and adds their remaining neighbours, freshly coded, to the sets of both
tables, in place of their older entries.  A pixel left out has the code
it had when the same table last kept it, so the result equals full
Zhang-Suen passes.

Thinning holds two planes of one byte per padded pixel (the image and a
tag plane), 9 bytes for each entry of a todo set (its position and its
code) and 64 per pixel deleted in the current sub-iteration; each list
is dropped after its last read.  The codes are gathered a fixed block of
positions at a time, 8 neighbour bytes read as one word per position.
The tag plane is the only dedup scratch: a repeated fancy assignment
leaves one of the values written, so after writing each deleted pixel's
neighbours with their ring column (0-7), a neighbour shared by several
deleted pixels keeps the one copy whose column it holds; the todo sets
are merged by writing 0 on one set and 1 on the other.  ``add_codes``
histograms the 8-bit codes in fixed chunks, so ``np.bincount`` never
gets an image-sized intp copy of them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, InputError

ODS_THRESHOLDS = np.arange(1, 100) / 100.0

# Codes histogrammed at once by _OdsCounts.add_codes (a 64 KB intp key).
_COUNT_CHUNK = 8192


def _as_mask(mask, dtype=None) -> np.ndarray:
    """The mask as a 2-D array; a (1, H, W) mask loses its leading axis."""
    arr = np.asarray(mask, dtype=dtype)
    if arr.ndim == 3 and arr.shape[0] == 1:
        arr = arr[0]
    if arr.ndim != 2:
        raise DimensionError(f"mask must be 2-D, got shape {arr.shape}")
    return arr


def _as_float_mask(mask) -> np.ndarray:
    return _as_mask(mask, np.float64)


def _as_bool_mask(mask) -> np.ndarray:
    """The mask as booleans; a boolean input is returned as is, not copied."""
    arr = _as_mask(mask)
    return arr if arr.dtype == np.bool_ else arr != 0


def _as_pair(pred, gt, as_pred=_as_float_mask) -> tuple[np.ndarray, np.ndarray]:
    """``as_pred(pred)`` and a boolean ground truth of the same 2-D shape."""
    pred = as_pred(pred)
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
    as_pred = _as_bool_mask if np.asarray(pred).dtype == np.bool_ else _as_float_mask
    pred, gt = _as_pair(pred, gt, as_pred)
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
        if codes.dtype != np.uint8:
            raise InputError(f"codes must be uint8, got {codes.dtype}")
        gt = _as_bool_mask(gt)
        if codes.shape != gt.shape:
            raise DimensionError(f"shape mismatch: codes {codes.shape} vs gt {gt.shape}")
        codes, gt = codes.ravel(), gt.ravel()
        # (gt, code) as gt * 256 + code, histogrammed one chunk at a time, so
        # bincount is handed a chunk-sized intp key, not an image-sized copy
        hist = np.zeros(512, dtype=np.int64)
        for start in range(0, codes.size, _COUNT_CHUNK):
            key = np.left_shift(gt[start:start + _COUNT_CHUNK], 8, dtype=np.intp)
            key |= codes[start:start + _COUNT_CHUNK]
            hist += np.bincount(key, minlength=512)
        neg, pos = hist.reshape(2, 256)
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


# Positions whose neighbour codes are gathered at once.  A block's index
# array (8 intp per position, 32 KB) and numpy's buffers for the broadcast
# sum that builds it stay under 0.1 MB on any mask.  On noisy 256^2
# masks, 256-position blocks thinned slower and 1024 raised the peak.
_GATHER_BLOCK = 512

# Ring column of each of a pixel's 8 neighbours, the values the dedup writes.
_RING_COLUMNS = np.arange(8, dtype=np.uint8)
_RING_COLUMNS.flags.writeable = False

# A position's 8 neighbour booleans, read as one little-endian uint64 with
# neighbour k in byte k, times this constant hold its code in their top
# byte: byte k reaches bit 56 + k through the term 2**(56 - 7k), and while
# each byte is 0 or 1 no other term or carry reaches bits 56 to 63.
_CODE_MAGIC = np.uint64(0x0102040810204080)
_CODE_SHIFT = np.uint64(56)
_NEIGHBOUR_WORD = np.dtype("<u8")


def _neighbour_codes(flat: np.ndarray, ring: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The 8-neighbour code of each position in ``pos``, gathered a block at a time."""
    codes = np.empty(pos.size, dtype=np.uint8)
    for start in range(0, pos.size, _GATHER_BLOCK):
        block = slice(start, start + _GATHER_BLOCK)
        words = flat[pos[block, None] + ring].view(_NEIGHBOUR_WORD)
        words *= _CODE_MAGIC
        words >>= _CODE_SHIFT
        codes[block] = words[:, 0]
    return codes


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
    # todo[k]: the foreground pixels whose code changed since table k last
    # kept them, and their codes.  A code changes only when a neighbour is
    # deleted, and then the pixel is in near, which replaces its entry in
    # both sets, so a stored code is always the pixel's current code.
    todo = [(fg, _neighbour_codes(flat, ring, fg))] * 2
    del fg
    none = (np.empty(0, dtype=np.intp), np.empty(0, dtype=np.uint8))
    # Dedup scratch, one byte per padded pixel.  A repeated fancy assignment
    # leaves one of the values written, so when each copy of a position
    # writes a different value, exactly one copy reads its own value back.
    tag = np.empty(flat.size, dtype=np.uint8)
    k = 0
    while todo[0][0].size or todo[1][0].size:
        (looked, codes), todo[k] = todo[k], none
        gone = looked[_DELETE_TABLES[k][codes]]
        del looked, codes
        if gone.size:
            flat[gone] = False
            # repeat, then add in place: the broadcast sum gone[:, None] + ring
            # has numpy buffer both operands, up to 128 KB beside the result
            near = gone.repeat(8).reshape(-1, 8)
            del gone
            near += ring
            # gone has no repeats, so the copies of one neighbour lie in
            # distinct ring columns, and only one has the column left in tag
            keep = flat[near]
            tag[near] = _RING_COLUMNS
            keep &= tag[near] == _RING_COLUMNS
            near = near[keep]
            del keep
            near_codes = _neighbour_codes(flat, ring, near)
            # keep the pixels of the other set that are still foreground and
            # that near does not list; the set leaves todo first, so that
            # the cut frees the uncut arrays
            (other, other_codes), todo[1 - k] = todo[1 - k], none
            tag[other] = 0
            tag[near] = 1
            keep = flat[other] & (tag[other] == 0)
            other, other_codes = other[keep], other_codes[keep]
            del keep
            todo[1 - k] = (np.concatenate([other, near]),
                           np.concatenate([other_codes, near_codes]))
            todo[k] = (near, near_codes)
            del other, other_codes, near, near_codes
        k = 1 - k
    del tag
    return padded[1:-1, 1:-1].copy()


def dice(pred, gt) -> float:
    """Plain overlap Dice of two boolean masks."""
    pred, gt = _as_pair(pred, gt, _as_bool_mask)
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
    pred, gt = _as_pair(pred, gt, _as_bool_mask)
    # the prediction's skeleton is counted and dropped before gt is thinned
    skel = skeletonize(pred)
    np_, np_in_gt = int(skel.sum()), int((skel & gt).sum())
    del skel
    skel = skeletonize(gt)
    ng, ng_in_pred = int(skel.sum()), int((skel & pred).sum())
    if np_ == 0 and ng == 0:
        return 1.0
    if np_ == 0 or ng == 0:
        return 0.0
    tprec = np_in_gt / np_
    tsens = ng_in_pred / ng
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
