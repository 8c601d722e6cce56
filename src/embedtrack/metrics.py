"""Tracking evaluation: CLEAR-MOT (MOTA), IDF1 and HOTA with full
sub-component decomposition, per class and aggregate.

Conventions:
- CLEAR correspondence carries matches over between frames while they stay
  above the IoU threshold; the remainder is matched optimally (maximum
  total IoU). An ID switch is counted when a ground-truth object's matched
  prediction ID differs from its most recent previous match.
- IDF1 uses a global trajectory-level optimal assignment on per-pair
  matched-frame counts.
- HOTA follows Luiten et al. (IJCV 2021) as its reference code, TrackEval,
  computes it: one matching per frame that maximizes the total IoU weighted
  by each (gt id, pred id) pair's global alignment score, thresholded at
  each localization threshold alpha in {0.05, ..., 0.95}; the per-alpha
  scores are averaged.
- Ground-truth entries flagged invisible are dropped from numerator and
  denominator before any matching.

How the work is shared:
- ``per_class_report`` makes one pass per class. Each frame's ids are read
  once into arrays, which give both the sorted distinct ids and the dense
  gt and pred id indices, and its boxes become (N, 4) arrays once; its IoU
  matrix is computed once, handed to two per-frame accumulators (CLEAR,
  and the identity store that IDF1 and HOTA read) and dropped.
  ``clear_mot``, ``idf1`` and ``hota`` each run the pass with one
  accumulator. A report of one class skips ``restrict_class``.
- One scorer serves every class and the aggregate: ``_clear_result`` gives
  MOTA and MOTP from CLEAR's counts, ``_idf1_result`` IDF1 from the
  identity counts, and ``_class_metrics`` a report row from the two and
  the HOTA rows. The aggregate is the score of its classes' summed counts,
  its MOTP their matches' weighted mean; a one-class report's aggregate
  scores other than MOTP equal its class's to the bit, as the tests check.
- CLEAR matches the whole frame when no gt box in it has a previous match.
- The identity store keeps each frame's non-zero IoUs, their shares of
  HOTA's alignment sums and their integer pair keys (gt index * number of
  pred ids + pred index, worked out once as the frame is added), and
  nothing for a (gt id, pred id) pair that never overlaps: the sums and
  counts live on the sorted overlapping pairs, and each pair's shares are
  added frame by frame, to the bits of a dense accumulation. IDF1 counts,
  per pair, the kept IoUs at or above its threshold; every threshold is
  above 0, so no pair it counts was dropped. HOTA then matches each frame,
  keeps each matched pair's key and IoU, and counts the TPs and
  association terms per pair and alpha, as TrackEval does.
- IDF1 needs only the largest total, which every optimum shares: each gt
  id keeps the best of the pred ids that only it scores (and each pred id
  likewise), a pair then alone in its row and its column is taken, and the
  solver runs on the rest, compacted to its rows and columns.
- CLEAR and HOTA choose which pairs match, so they solve the full cost
  matrix, except that a CLEAR matching whose admissible pairs already form
  a matching is read off without a solver call; it is the unique optimum.
- Every solve goes through ``linear_sum_assignment`` below, the one solver
  entry, which tests and the benchmark's tracer replace. It imports scipy's
  solver at its first call, so tracking, synthesis and training never load
  scipy.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property, partial
from operator import attrgetter

import numpy as np

from .geometry import BoundingBox, box_array, iou_matrix

__all__ = [
    "ObjectEntry",
    "TrackSet",
    "ClearMotResult",
    "Idf1Result",
    "HotaResult",
    "ClassMetrics",
    "EvalReport",
    "clear_mot",
    "idf1",
    "hota",
    "HOTA_ALPHAS",
    "per_class_report",
]

HOTA_ALPHAS = tuple(round(0.05 * i, 2) for i in range(1, 20))

_EPS = np.finfo(np.float64).eps  # TrackEval keeps matches with IoU >= alpha - eps
_obj_id = attrgetter("obj_id")


@dataclass(frozen=True, slots=True)
class ObjectEntry:
    """One object in one frame; ``score`` is the box's confidence (1.0 for
    ground truth)."""

    obj_id: int
    class_id: int
    box: BoundingBox
    visible: bool = True
    score: float = 1.0


class TrackSet:
    """Per-frame object lists, for ground truth or predictions."""

    def __init__(self):
        self.frames: dict[int, list[ObjectEntry]] = {}
        # the frame list last added to and its ids; one set, not one per
        # frame, which would cost five times the lists' memory
        self._open: tuple[list[ObjectEntry], set[int]] = ([], set())

    def add(self, frame: int, entry: ObjectEntry) -> None:
        """O(1) while entries arrive frame by frame; an add to another frame,
        or after ``frames[frame]`` was replaced or appended to directly,
        reads that frame's ids anew."""
        bucket = self.frames.setdefault(frame, [])
        seen, ids = self._open
        if seen is not bucket or len(ids) != len(bucket):
            ids = {e.obj_id for e in bucket}
            self._open = (bucket, ids)
        if entry.obj_id in ids:
            raise ValueError(f"duplicate object id {entry.obj_id} in frame {frame}")
        ids.add(entry.obj_id)
        bucket.append(entry)

    def class_ids(self) -> set[int]:
        return {e.class_id for entries in self.frames.values() for e in entries}

    def restrict_class(self, class_id: int) -> "TrackSet":
        # ids are already unique per frame here, so the entries skip add()
        out = TrackSet()
        for f, entries in self.frames.items():
            kept = [e for e in entries if e.class_id == class_id]
            if kept:
                out.frames[f] = kept
        return out

    def num_boxes(self) -> int:
        return sum(e.visible for entries in self.frames.values() for e in entries)


@dataclass
class ClearMotResult:
    mota: float | None  # None for a report's class seen only in predictions
    motp: float | None
    fp: int
    fn: int
    idsw: int
    mt: int
    ml: int
    num_gt: int
    num_matches: int


@dataclass
class Idf1Result:
    idf1: float | None  # None for a report's class seen only in predictions
    idtp: int
    idfp: int
    idfn: int


@dataclass
class HotaResult:
    hota: float
    deta: float
    assa: float
    detre: float
    detpr: float
    assre: float
    asspr: float
    # per alpha in HOTA_ALPHAS, for count-sum aggregation across classes
    tp: list[int]
    fn: list[int]
    fp: list[int]
    ass_sum: list[float]
    assre_sum: list[float]
    asspr_sum: list[float]


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's minimum-cost assignment of ``cost``, unchanged; scipy is
    imported here, at the first solve, not with the package."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


def _match(overlaps: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Optimal bipartite matching among pairs with IoU >= threshold,
    maximizing total IoU. Returns (gt rows, pred columns) in row order.
    When every row and every column has at most one admissible pair, those
    pairs are the unique optimum and are returned without a solver call.
    """
    admissible = overlaps >= threshold
    if (admissible.sum(axis=0) <= 1).all() and (admissible.sum(axis=1) <= 1).all():
        return np.nonzero(admissible)
    rows, cols = linear_sum_assignment(np.where(admissible, -overlaps, 0.0))
    keep = admissible[rows, cols]
    return rows[keep], cols[keep]


def _sequential_sum(values: np.ndarray, start: float) -> float:
    """Left-to-right sum, the float additions of a Python loop; np.sum adds
    pairwise, which can move the last digit."""
    return float(np.cumsum(np.concatenate(([start], values)))[-1])


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct values of an integer array, which is sorted in
    place: ``np.unique``'s answer without its per-call overhead, which a
    small frame notices, or its copy, which a long sequence does."""
    values.sort()
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def _id_indices(frames: list[list[ObjectEntry]]) -> tuple[list[np.ndarray], int]:
    """Each frame's object ids as indices into the sorted distinct ids, and
    the number of distinct ids."""
    ids = [np.fromiter(map(_obj_id, entries), np.int64, len(entries)) for entries in frames]
    distinct = _distinct(np.concatenate([np.zeros(0, np.int64), *ids]))
    return [np.searchsorted(distinct, x) for x in ids], len(distinct)


def _frames(gt: TrackSet, pred: TrackSet) -> tuple[Iterator[tuple[np.ndarray, ...]], int, int]:
    """Visible ground truth and all predictions, streamed as arrays in sorted
    frame order: per frame (gt indices, gt boxes, pred indices, pred boxes),
    with ids mapped to dense indices in sorted id order. Returns the stream
    and the numbers of distinct gt and pred ids."""
    order = sorted(set(gt.frames) | set(pred.frames))
    gts = [[e for e in gt.frames.get(f, ()) if e.visible] for f in order]
    prs = [pred.frames.get(f, []) for f in order]
    gt_indices, n_gt_ids = _id_indices(gts)
    if n_gt_ids == 0:
        raise ValueError("ground truth has no visible objects")
    pr_indices, n_pr_ids = _id_indices(prs)
    stream = ((gi, box_array(e.box for e in g), pi, box_array(e.box for e in p))
              for g, gi, p, pi in zip(gts, gt_indices, prs, pr_indices))
    return stream, n_gt_ids, n_pr_ids


def _one_pass(gt: TrackSet, pred: TrackSet, *accumulators) -> list:
    """Stream the frames once. Each accumulator is built from the numbers of
    gt and pred ids and takes, per frame, (gt indices, pred indices, IoU
    matrix), the matrix None when a side is empty. Returns the accumulators."""
    frames, n_gt_ids, n_pr_ids = _frames(gt, pred)
    accs = [make(n_gt_ids, n_pr_ids) for make in accumulators]
    for gi, gb, pi, pb in frames:
        overlaps = iou_matrix(gb, pb) if len(gi) and len(pi) else None
        for acc in accs:
            acc.add(gi, pi, overlaps)
    return accs


class _Clear:
    """CLEAR-MOT accumulation with match carry-over."""

    def __init__(self, iou_threshold: float, n_gt_ids: int, n_pr_ids: int):
        self.threshold = iou_threshold
        self.last_match = np.full(n_gt_ids, -1)  # gt index -> most recent matched pred index
        self.slot = np.full(n_pr_ids, -1)  # pred index -> position in the current frame
        self.presence = np.zeros(n_gt_ids, dtype=np.int64)
        self.covered = np.zeros(n_gt_ids, dtype=np.int64)
        self.n_pr_boxes = self.idsw = self.num_matches = 0
        self.sum_iou = 0.0

    def add(self, gi: np.ndarray, pi: np.ndarray, overlaps: np.ndarray | None) -> None:
        self.presence[gi] += 1
        self.n_pr_boxes += len(pi)
        if overlaps is None:
            return
        prev = self.last_match[gi]
        if (prev >= 0).any():
            # carry over surviving correspondences; two gt ids can share a
            # last-matched pred id, and the first in frame order keeps it
            self.slot[pi] = np.arange(len(pi))
            carried = np.where(prev >= 0, self.slot[prev], -1)
            self.slot[pi] = -1
            rows = np.flatnonzero(carried >= 0)
            cols = carried[rows]
            kept = overlaps[rows, cols] >= self.threshold
            rows, cols = rows[kept], cols[kept]
            first = np.sort(np.unique(cols, return_index=True)[1])
            rows, cols = rows[first], cols[first]

            rem_gt = np.flatnonzero(np.bincount(rows, minlength=len(gi)) == 0)
            rem_pr = np.flatnonzero(np.bincount(cols, minlength=len(pi)) == 0)
            if len(rem_gt) and len(rem_pr):
                r, c = _match(overlaps[np.ix_(rem_gt, rem_pr)], self.threshold)
                rows = np.concatenate((rows, rem_gt[r]))
                cols = np.concatenate((cols, rem_pr[c]))
        else:  # nothing to carry over: the whole frame is matched
            rows, cols = _match(overlaps, self.threshold)
        self.num_matches += len(rows)
        self.sum_iou = _sequential_sum(overlaps[rows, cols], self.sum_iou)

        gids, pids = gi[rows], pi[cols]
        prev = self.last_match[gids]
        self.idsw += int(np.count_nonzero((prev >= 0) & (prev != pids)))
        self.last_match[gids] = pids
        self.covered[gids] += 1

    def result(self) -> ClearMotResult:
        ratio = self.covered / self.presence
        num_gt, n = int(self.presence.sum()), self.num_matches
        return _clear_result(self.n_pr_boxes - n, num_gt - n, self.idsw, int(np.count_nonzero(ratio >= 0.8)),
                             int(np.count_nonzero(ratio <= 0.2)), num_gt, n, self.sum_iou)


def _clear_result(fp: int, fn: int, idsw: int, mt: int, ml: int, num_gt: int, num_matches: int,
                  sum_iou: float) -> ClearMotResult:
    """MOTA and MOTP from CLEAR's counts and the matches' summed IoU."""
    mota = 1.0 - (fn + fp + idsw) / num_gt
    motp = sum_iou / num_matches if num_matches else 0.0
    return ClearMotResult(mota, motp, fp, fn, idsw, mt, ml, num_gt, num_matches)


def _idf1_result(idtp: int, idfp: int, idfn: int) -> Idf1Result:
    """IDF1 from the identity counts."""
    denom = idtp + 0.5 * idfn + 0.5 * idfp
    return Idf1Result(idtp / denom if denom else 0.0, idtp, idfp, idfn)


def _best_of_sole(a: np.ndarray, w: np.ndarray, sole: np.ndarray) -> np.ndarray:
    """A mask over pairs (a, b) with weights ``w`` that drops, among the
    ``sole`` pairs (those whose b has no other pair), all but one of the
    largest weight per a. Such a b adds weight only when matched to its a,
    which takes at most one of them, so the largest total of a matching
    stays the same."""
    idx = np.flatnonzero(sole)
    idx = idx[np.lexsort((-w[idx], a[idx]))]  # by a, the largest weight first
    first = np.ones(len(idx), dtype=bool)
    first[1:] = a[idx][1:] != a[idx][:-1]
    keep = ~sole
    keep[idx[first]] = True
    return keep


def _max_matching_total(rows: np.ndarray, cols: np.ndarray, w: np.ndarray) -> int:
    """The largest total of the integer weights ``w`` > 0 of distinct pairs
    (rows, cols) over the matchings among them, as the solver finds it on
    the dense matrix of every row and column. Each side first keeps the
    best of the pairs that only it scores (``_best_of_sole``); a pair then
    alone in its row and its column is in some optimum, and the solver runs
    on what is left, compacted to its rows and columns."""
    keep = (_best_of_sole(rows, w, np.bincount(cols)[cols] == 1)
            & _best_of_sole(cols, w, np.bincount(rows)[rows] == 1))
    rows, cols, w = rows[keep], cols[keep], w[keep]
    alone = (np.bincount(rows)[rows] == 1) & (np.bincount(cols)[cols] == 1)
    total = int(w[alone].sum())
    rows, cols, w = rows[~alone], cols[~alone], w[~alone]
    if len(w):
        r = np.searchsorted(_distinct(rows.copy()), rows)
        c = np.searchsorted(_distinct(cols.copy()), cols)
        dense = np.zeros((r.max() + 1, c.max() + 1))
        dense[r, c] = w
        r, c = linear_sum_assignment(-dense)
        total += int(dense[r, c].sum())
    return total


class _Ids:
    """The identity store that IDF1 and HOTA both read: the box count of
    each gt and pred id, and each frame's non-zero IoUs with their shares
    of HOTA's alignment sums. HOTA's matching is TrackEval's: a pre-pass
    sums, per (gt id, pred id) pair, IoU / (row sum + column sum - IoU)
    over all frames, which gives the alignment score A = sum / (n_gt_id +
    n_pred_id - sum); then each frame is matched once, maximizing the total
    A * IoU. Sums and counts are kept per pair that has a non-zero IoU,
    never over every (gt id, pred id) pair.
    """

    def __init__(self, n_gt_ids: int, n_pr_ids: int):
        self.gt_total = np.zeros(n_gt_ids, dtype=np.int64)
        self.pr_total = np.zeros(n_pr_ids, dtype=np.int64)
        # (IoU matrix shape, flat positions, pair keys, IoU, alignment share)
        # of each frame's non-zero IoUs
        self.overlaps = []

    def add(self, gi: np.ndarray, pi: np.ndarray, ious: np.ndarray | None) -> None:
        self.gt_total[gi] += 1
        self.pr_total[pi] += 1
        if ious is None:
            return
        flat = np.flatnonzero(ious)
        r, c = np.divmod(flat, len(pi))
        v = ious.ravel()[flat]
        share = v / (ious.sum(axis=1)[r] + ious.sum(axis=0)[c] - v)
        self.overlaps.append((ious.shape, flat, gi[r] * len(self.pr_total) + pi[c], v, share))

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The sorted distinct pair keys of the kept entries."""
        keys = (key for _, _, key, _, _ in self.overlaps)
        return _distinct(np.concatenate([np.zeros(0, dtype=np.int64), *keys]))

    def idf1(self, iou_threshold: float) -> Idf1Result:
        """IDF1 from the per-pair counts of kept IoUs at or above the
        threshold; call it before ``matches``, which releases them."""
        pairs = self._pairs
        counts = np.zeros(len(pairs), dtype=np.int64)
        for _, _, key, v, _ in self.overlaps:  # a pair occurs once in a frame
            counts[np.searchsorted(pairs, key[v >= iou_threshold])] += 1
        hit = counts > 0
        gt_of, pr_of = np.divmod(pairs[hit], len(self.pr_total))
        idtp = _max_matching_total(gt_of, pr_of, counts[hit])
        return _idf1_result(idtp, int(self.pr_total.sum()) - idtp, int(self.gt_total.sum()) - idtp)

    def matches(self) -> tuple[np.ndarray, ...]:
        """The second pass, run once: it releases the kept IoU entries.
        Returns one key (gt index * number of pred ids + pred index) and the
        IoU of each matched pair with non-zero IoU, in frame order, and the
        number of boxes of each gt id and each pred id."""
        pairs = self._pairs
        # each pair's shares added frame by frame, as a dense accumulation adds them
        potential = np.zeros(len(pairs))
        for _, _, key, _, share in self.overlaps:  # a pair occurs once in a frame
            potential[np.searchsorted(pairs, key)] += share
        keys, matched_iou = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        frames, self.overlaps = self.overlaps, []
        for shape, flat, key, v, _ in frames:
            pot = potential[np.searchsorted(pairs, key)]
            g, p = np.divmod(key, len(self.pr_total))
            score = np.zeros(shape)
            score.ravel()[flat] = pot / (self.gt_total[g] + self.pr_total[p] - pot) * v
            rows, cols = linear_sum_assignment(-score)
            ious = np.zeros(shape)
            ious.ravel()[flat] = v
            ious = ious[rows, cols]
            hit = ious > 0  # a zero-IoU pair is no match at any alpha
            keys.append(key[np.searchsorted(flat, rows[hit] * shape[1] + cols[hit])])
            matched_iou.append(ious[hit])
        return np.concatenate(keys), np.concatenate(matched_iou), self.gt_total, self.pr_total

    def hota_counts(self) -> np.ndarray:
        """The (6, alphas) float64 rows tp, fn, fp, ass_sum, assre_sum and
        asspr_sum, per alpha in HOTA_ALPHAS."""
        keys, matched_iou, gt_total, pr_total = self.matches()
        n_pr_ids = len(pr_total)
        pairs = _distinct(keys.copy())
        inverse = np.searchsorted(pairs, keys)
        # a match counts at the first `level` alphas, those with IoU >= alpha - eps
        level = np.searchsorted(np.array(HOTA_ALPHAS) - _EPS, matched_iou, side="right")
        n_levels = len(HOTA_ALPHAS) + 1
        # per_level[j, m]: matches of pair j at level n_levels - 1 - m, as
        # exact floats; summed from the left in place, column m then holds
        # tpa, the matches that count at the m-th alpha from the top
        bins = inverse * n_levels + (n_levels - 1 - level)
        per_level = np.bincount(bins, weights=np.ones(len(bins)), minlength=len(pairs) * n_levels)
        per_level = per_level.reshape(len(pairs), n_levels)
        tpa = np.cumsum(per_level, axis=1, out=per_level)[:, :-1]
        gt_n = gt_total[pairs // n_pr_ids].astype(np.float64)[:, None]  # tpa + fna
        pr_n = pr_total[pairs % n_pr_ids].astype(np.float64)[:, None]  # tpa + fpa
        # each sum adds over the pairs in pair order; the products are made
        # in one buffer
        q = gt_n + pr_n - tpa
        sums = []
        for den in (q, gt_n, pr_n):  # ass_sum, assre_sum, asspr_sum
            np.divide(tpa, den, out=q)
            q *= tpa
            sums.append(q.sum(axis=0))
        tp = tpa.sum(axis=0)
        return np.array([tp, gt_total.sum() - tp, pr_total.sum() - tp, *sums])[:, ::-1]


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def clear_mot(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT accumulation with match carry-over."""
    _check_iou_threshold(iou_threshold)
    return _one_pass(gt, pred, partial(_Clear, iou_threshold))[0].result()


def idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> Idf1Result:
    """Identification F1: global trajectory-level bipartite assignment."""
    _check_iou_threshold(iou_threshold)
    return _one_pass(gt, pred, _Ids)[0].idf1(iou_threshold)


def hota(gt: TrackSet, pred: TrackSet) -> HotaResult:
    """HOTA with DetA/AssA decomposition, averaged over alpha: the TPs at
    alpha are the pairs of the one matching per frame with IoU >= alpha -
    eps."""
    counts = _one_pass(gt, pred, _Ids)[0].hota_counts()
    tp, fn, fp = counts[:3].astype(np.int64).tolist()
    ass_sum, assre_sum, asspr_sum = counts[3:].tolist()
    return HotaResult(**_hota_means(counts), tp=tp, fn=fn, fp=fp, ass_sum=ass_sum,
                      assre_sum=assre_sum, asspr_sum=asspr_sum)


_HOTA_FAMILY = ("hota", "deta", "assa", "detre", "detpr", "assre", "asspr")


def _hota_means(counts: np.ndarray) -> dict[str, float]:
    """The HOTA family from the (6, alphas) rows of ``_Ids.hota_counts``,
    each averaged over alpha; a ratio with a zero denominator is 0."""
    tp, fn, fp, ass_sum, assre_sum, asspr_sum = counts
    num = np.array([tp, ass_sum, tp, tp, assre_sum, asspr_sum])
    den = np.array([tp + fn + fp, tp, tp + fn, tp + fp, tp, tp])
    ratios = np.where(den > 0, num / np.maximum(den, 1), 0.0)  # DetA, AssA, DetRe, ..., AssPr
    means = np.vstack([np.sqrt(ratios[0] * ratios[1]), ratios]).mean(axis=1)
    return dict(zip(_HOTA_FAMILY, means.tolist()))


@dataclass
class ClassMetrics:
    mota: float | None = None
    motp: float | None = None
    idf1: float | None = None
    hota: float | None = None
    deta: float | None = None
    assa: float | None = None
    detre: float | None = None
    detpr: float | None = None
    assre: float | None = None
    asspr: float | None = None
    fp: int = 0
    fn: int = 0
    idsw: int = 0
    mt: int = 0
    ml: int = 0
    idtp: int = 0
    idfp: int = 0
    idfn: int = 0
    num_gt: int = 0


@dataclass
class EvalReport:
    per_class: dict[int, ClassMetrics]
    aggregate: ClassMetrics
    mmota: float
    midf1: float


def _class_metrics(clear: ClearMotResult, ident: Idf1Result, counts: np.ndarray) -> ClassMetrics:
    """A class's or the aggregate's metrics from its CLEAR and IDF1 results
    and its HOTA rows; one without ground truth keeps its scores None."""
    return ClassMetrics(clear.mota, clear.motp, ident.idf1, **(_hota_means(counts) if clear.num_gt else {}),
                        fp=clear.fp, fn=clear.fn, idsw=clear.idsw, mt=clear.mt, ml=clear.ml,
                        idtp=ident.idtp, idfp=ident.idfp, idfn=ident.idfn, num_gt=clear.num_gt)


def per_class_report(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> EvalReport:
    """Evaluate each class independently; the aggregate is the score of the
    classes' summed counts, with MOTP their matches' weighted mean.

    Classes appearing only in predictions contribute their false positives
    to the aggregate but are excluded from the mMOTA/mIDF1 class means.
    Raises when no class has a visible ground-truth box, as ``clear_mot``,
    ``idf1`` and ``hota`` do.
    """
    _check_iou_threshold(iou_threshold)
    classes = sorted(gt.class_ids() | pred.class_ids())
    parts = {}  # class -> (CLEAR result, IDF1 result, HOTA rows)
    for c in classes:
        gt_c, pr_c = (gt, pred) if len(classes) == 1 else (gt.restrict_class(c), pred.restrict_class(c))
        if gt_c.num_boxes():
            clear, ids = _one_pass(gt_c, pr_c, partial(_Clear, iou_threshold), _Ids)
            parts[c] = clear.result(), ids.idf1(iou_threshold), ids.hota_counts()
        else:  # predictions without any ground truth of this class: all FP, and no score
            fp = sum(map(len, pr_c.frames.values()))
            counts = np.zeros((6, len(HOTA_ALPHAS)))
            counts[2] = fp
            parts[c] = ClearMotResult(None, None, fp, 0, 0, 0, 0, 0, 0), Idf1Result(None, 0, fp, 0), counts
    scored = [(clear, ident) for clear, ident, _ in parts.values() if clear.num_gt]
    if not scored:
        raise ValueError("ground truth has no visible objects")
    clears, idents, counts = zip(*parts.values())
    clear_counts = zip(*[(r.fp, r.fn, r.idsw, r.mt, r.ml, r.num_gt, r.num_matches) for r in clears])
    sum_iou = sum(r.motp * r.num_matches for r in clears if r.num_matches)
    ident_counts = zip(*[(r.idtp, r.idfp, r.idfn) for r in idents])
    aggregate = _class_metrics(_clear_result(*map(sum, clear_counts), sum_iou),
                               _idf1_result(*map(sum, ident_counts)), sum(counts))
    return EvalReport({c: _class_metrics(*p) for c, p in parts.items()}, aggregate,
                      float(np.mean([r.mota for r, _ in scored])), float(np.mean([r.idf1 for _, r in scored])))
