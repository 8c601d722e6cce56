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
- Every evaluation is one pass over the frames. Each side's classes and
  ids are read once, into each entry's index among the side's sorted
  distinct (class, id) pairs: one id in two classes is two identities.
  Each frame splits into cells, the boxes of one class in frame order; a
  cell's IoU matrix is computed once, handed to CLEAR and to the identity
  store that IDF1 and HOTA read, and dropped. Both keep their counts per
  class, and a class's pairs stay contiguous in (gt id, pred id) order, so
  each class gets the matrices, solves and sums it would get alone.
  ``per_class_report`` runs both; ``clear_mot``, ``idf1`` and ``hota`` run
  one, with every box in one class.
- One scorer serves every class and the aggregate: ``_clear_result``
  (MOTA, MOTP), ``_idf1_result`` (IDF1) and ``_hota_means`` (the HOTA
  family, of every class and the aggregate in one call). The aggregate is
  the score of its classes' summed counts, its MOTP their matches'
  weighted mean. A class without visible ground truth keeps a row whose
  scores are None.
- CLEAR matches the whole cell when no gt box in it has a previous match.
- The identity store keeps each cell's non-zero IoUs, their shares of
  HOTA's alignment sums and their pair keys (gt index * number of pred ids
  + pred index); a pair or a cell that never overlaps keeps nothing. Sums
  and counts on the sorted overlapping pairs are one bincount each, in
  cell order, to the bits of a dense accumulation. IDF1 counts, per pair,
  the kept IoUs at or above its threshold (every threshold is above 0);
  HOTA matches each kept cell, reads its matches from the kept entries,
  and counts TPs and association terms per pair and alpha, as TrackEval does.
- IDF1 needs only the largest total, which every optimum shares: each gt
  id keeps the best of the pred ids that only it scores (and each pred id
  likewise), a pair then alone in its row and its column is taken, and the
  solver runs on the rest, compacted to its rows and columns.
- CLEAR and HOTA choose which pairs match, so they solve the full cost
  matrix of every cell, CLEAR of what its carry-over leaves.
- Every solve goes through ``linear_sum_assignment`` below, the one solver
  entry, which tests and the benchmark's tracer replace. It imports scipy's
  solver at its first call, so tracking, synthesis and training never load
  scipy.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain, pairwise
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

_EPS = np.finfo(np.float64).eps
_ALPHA_FLOORS = np.array(HOTA_ALPHAS) - _EPS  # TrackEval keeps matches with IoU >= alpha - eps
_obj_id = attrgetter("obj_id")
_class_id = attrgetter("class_id")
_box = attrgetter("box")


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


@dataclass
class ClearMotResult:
    mota: float | None  # None for a report's class without visible ground truth
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
    idf1: float | None  # None for a report's class without visible ground truth
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
    # per alpha in HOTA_ALPHAS, as hota() reports them
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
    maximizing total IoU. Returns (gt rows, pred columns) in row order."""
    admissible = overlaps >= threshold
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


def _dense(frames: list[list[ObjectEntry]], by_class: bool) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's index into the sorted distinct (class, id) pairs of
    ``frames``, in frame order, and the class of each pair; every entry is
    in class 0 unless ``by_class``. Each class and id is read once."""
    n = sum(map(len, frames))
    ids = np.fromiter(map(_obj_id, chain.from_iterable(frames)), np.int64, n)
    cls = np.fromiter(map(_class_id, chain.from_iterable(frames)), np.int64, n) if by_class else np.zeros(n, int)
    by_pair = np.lexsort((ids, cls))
    cls, ids = cls[by_pair], ids[by_pair]
    new = np.ones(n, dtype=bool)
    new[1:] = (cls[1:] != cls[:-1]) | (ids[1:] != ids[:-1])
    index = np.empty(n, dtype=np.int64)
    index[by_pair] = np.cumsum(new) - 1
    return index, cls[new]


def _one_pass(gt: TrackSet, pred: TrackSet, by_class: bool, *accumulators) -> list:
    """Stream visible ground truth and all predictions once, cell by cell
    in sorted frame order. Each accumulator is built from the class index
    of each gt index, the box counts of each gt and pred index and of each
    class on either side, and takes (class index, gt indices, pred
    indices, IoU matrix) of each cell with boxes on both sides. Without
    ``by_class`` every box is in one class. Returns the sorted classes,
    then the accumulators."""
    order = sorted(set(gt.frames) | set(pred.frames))
    gts = [[e for e in gt.frames.get(f, ()) if e.visible] for f in order]
    prs = [pred.frames.get(f, []) for f in order]
    (gi, g_cls), (pi, p_cls) = _dense(gts, by_class), _dense(prs, by_class)
    if len(gi) == 0:
        raise ValueError("ground truth has no visible objects")
    # a class whose ground truth is all invisible still gets its row
    hidden = [e.class_id for v in gt.frames.values() for e in v if not e.visible] if by_class else []
    classes = _distinct(np.concatenate((g_cls, p_cls, np.array(hidden, int))))
    g_class, p_class = np.searchsorted(classes, g_cls), np.searchsorted(classes, p_cls)
    totals = np.bincount(gi, minlength=len(g_class)), np.bincount(pi, minlength=len(p_class))
    n_boxes = [np.bincount(c, t, len(classes)).astype(int).tolist() for c, t in zip((g_class, p_class), totals)]
    accs = [make(g_class, *totals, *n_boxes) for make in accumulators]
    g0 = p0 = 0
    for g, p in zip(gts, prs):
        gi_f, pi_f = gi[g0:g0 + len(g)], pi[p0:p0 + len(p)]
        g0, p0 = g0 + len(g), p0 + len(p)
        gk, pk = g_class[gi_f], p_class[pi_f]
        gb, pb = box_array(map(_box, g)), box_array(map(_box, p))
        for k in np.bincount(np.concatenate((gk, pk)), minlength=len(classes)).nonzero()[0].tolist():
            gr, pr = (gk == k).nonzero()[0], (pk == k).nonzero()[0]
            if len(gr) and len(pr):
                overlaps = iou_matrix(gb.take(gr, 0), pb.take(pr, 0))
                for acc in accs:
                    acc.add(k, gi_f[gr], pi_f[pr], overlaps)
    return [classes.tolist(), *accs]


class _Clear:
    """CLEAR-MOT accumulation with match carry-over."""

    def __init__(self, iou_threshold: float, gt_class: np.ndarray, gt_total: np.ndarray, pr_total: np.ndarray,
                 gt_boxes: list[int], pr_boxes: list[int]):
        self.threshold = iou_threshold
        self.gt_class, self.presence, self.gt_boxes, self.pr_boxes = gt_class, gt_total, gt_boxes, pr_boxes
        self.last_match = np.full(len(gt_class), -1)  # gt index -> most recent matched pred index
        self.slot = np.full(len(pr_total), -1)  # pred index -> position in the current frame
        self.covered = np.zeros(len(gt_class), dtype=np.int64)
        self.idsw, self.sum_iou = [0] * len(gt_boxes), [0.0] * len(gt_boxes)  # per class

    def add(self, k: int, gi: np.ndarray, pi: np.ndarray, overlaps: np.ndarray) -> None:
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
        else:  # nothing to carry over: the whole cell is matched
            rows, cols = _match(overlaps, self.threshold)
        self.sum_iou[k] = _sequential_sum(overlaps[rows, cols], self.sum_iou[k])

        gids, pids = gi[rows], pi[cols]
        prev = self.last_match[gids]
        self.idsw[k] += int(np.count_nonzero((prev >= 0) & (prev != pids)))
        self.last_match[gids] = pids
        self.covered[gids] += 1

    def results(self) -> list[ClearMotResult]:
        ratio = self.covered / self.presence
        matches, mt, ml = (np.bincount(self.gt_class, w, len(self.gt_boxes)).astype(np.int64).tolist()
                           for w in (self.covered, ratio >= 0.8, ratio <= 0.2))
        return [_clear_result(p - m, g - m, *rest, g, m, u) for p, g, m, u, *rest in
                zip(self.pr_boxes, self.gt_boxes, matches, self.sum_iou, self.idsw, mt, ml)]


def _clear_result(fp: int, fn: int, idsw: int, mt: int, ml: int, num_gt: int, num_matches: int,
                  sum_iou: float) -> ClearMotResult:
    """MOTA and MOTP from CLEAR's counts and the matches' summed IoU; both
    are None without ground truth."""
    mota = 1.0 - (fn + fp + idsw) / num_gt if num_gt else None
    motp = (sum_iou / num_matches if num_matches else 0.0) if num_gt else None
    return ClearMotResult(mota, motp, fp, fn, idsw, mt, ml, num_gt, num_matches)


def _idf1_result(idtp: int, idfp: int, idfn: int) -> Idf1Result:
    """IDF1 from the identity counts; None without ground truth."""
    denom = idtp + 0.5 * idfn + 0.5 * idfp
    return Idf1Result(idtp / denom if idtp + idfn else None, idtp, idfp, idfn)


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
    each gt and pred id, and each cell's non-zero IoUs with their shares
    of HOTA's alignment sums. HOTA's matching is TrackEval's: a pre-pass
    sums, per (gt id, pred id) pair, IoU / (row sum + column sum - IoU)
    over all frames, which gives the alignment score A = sum / (n_gt_id +
    n_pred_id - sum); then each cell is matched once, maximizing the total
    A * IoU."""

    def __init__(self, gt_class: np.ndarray, gt_total: np.ndarray, pr_total: np.ndarray,
                 gt_boxes: list[int], pr_boxes: list[int]):
        self.gt_total, self.pr_total, self.gt_boxes, self.pr_boxes = gt_total, pr_total, gt_boxes, pr_boxes
        self.starts = np.searchsorted(gt_class, np.arange(len(gt_boxes) + 1))  # each class's first gt index
        # per cell: (IoU matrix shape, [flat positions, pair keys], [IoU, share])
        self.overlaps = []

    def add(self, k: int, gi: np.ndarray, pi: np.ndarray, ious: np.ndarray) -> None:
        flat = np.flatnonzero(ious)
        if not len(flat):  # no pair for IDF1 to count, no match at any alpha
            return
        r, c = np.divmod(flat, len(pi))
        v = ious.ravel()[flat]
        share = v / (ious.sum(axis=1)[r] + ious.sum(axis=0)[c] - v)
        self.overlaps.append((ious.shape, np.array((flat, gi[r] * len(self.pr_total) + pi[c])), np.array((v, share))))

    def _joined(self, part: int, row: int) -> np.ndarray:
        """Row ``row`` of every kept cell's part ``part`` (see ``__init__``), in cell order."""
        return np.concatenate([cell[part][row] for cell in self.overlaps] or [np.zeros(0, dtype=np.int64)])

    @cached_property
    def _pairs(self) -> np.ndarray:
        """The sorted distinct pair keys of the kept entries."""
        return _distinct(self._joined(1, 1))

    def idf1(self, iou_threshold: float) -> list[Idf1Result]:
        """IDF1 of each class from the per-pair counts of kept IoUs at or
        above the threshold; call it before ``matches``, which drops them."""
        pairs = self._pairs
        above = self._joined(1, 1)[self._joined(2, 0) >= iou_threshold]
        counts = np.bincount(np.searchsorted(pairs, above), minlength=len(pairs))
        hit = counts > 0
        gt_of, pr_of = np.divmod(pairs[hit], len(self.pr_total))
        counts = counts[hit]
        spans = pairwise(np.searchsorted(gt_of, self.starts).tolist())
        idtp = [_max_matching_total(gt_of[a:b], pr_of[a:b], counts[a:b]) for a, b in spans]
        return [_idf1_result(t, p - t, g - t) for t, g, p in zip(idtp, self.gt_boxes, self.pr_boxes)]

    def matches(self) -> tuple[np.ndarray, ...]:
        """The second pass, run once: it drops the kept entries when done.
        Returns the key and the IoU of each matched pair with non-zero IoU,
        in cell order, and the box count of each gt and pred index."""
        pairs = self._pairs
        # each pair's shares added frame by frame, as a dense accumulation
        # adds them: bincount adds a bin's weights in input order, from 0.0
        potential = np.bincount(np.searchsorted(pairs, self._joined(1, 1)), self._joined(2, 1), len(pairs))
        keys, matched_iou = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        for shape, (flat, key), (v, _) in self.overlaps:
            pot = potential[np.searchsorted(pairs, key)]
            g, p = np.divmod(key, len(self.pr_total))
            score = np.zeros(shape)
            score.ravel()[flat] = pot / (self.gt_total[g] + self.pr_total[p] - pot) * v
            rows, cols = linear_sum_assignment(-score)
            at = rows * shape[1] + cols  # a match is a kept entry: a zero-IoU pair is no match at any alpha
            kept = np.minimum(np.searchsorted(flat, at), len(flat) - 1)
            kept = kept[flat[kept] == at]
            keys.append(key[kept])
            matched_iou.append(v[kept])
        self.overlaps = []
        return np.concatenate(keys), np.concatenate(matched_iou), self.gt_total, self.pr_total

    def hota_counts(self) -> np.ndarray:
        """The (classes, 6, alphas) float64 rows tp, fn, fp, ass_sum,
        assre_sum and asspr_sum of each class, per alpha in HOTA_ALPHAS."""
        keys, matched_iou, gt_total, pr_total = self.matches()
        pairs = _distinct(keys.copy())
        # a match counts at the first `level` alphas, those with IoU >= alpha - eps
        level = np.searchsorted(_ALPHA_FLOORS, matched_iou, side="right")
        n_levels = len(HOTA_ALPHAS) + 1
        per_level = np.bincount(np.searchsorted(pairs, keys) * n_levels + level, minlength=len(pairs) * n_levels)
        # tpa[j, a]: the matches of pair j above level a, those that count at the a-th alpha
        tpa = np.ascontiguousarray(per_level.reshape(len(pairs), n_levels)[:, :0:-1].cumsum(axis=1)[:, ::-1], float)
        del per_level  # the sums below peak without it
        gt_of, pr_of = np.divmod(pairs, len(pr_total))
        gt_n = gt_total[gt_of].astype(np.float64)[:, None]  # tpa + fna
        pr_n = pr_total[pr_of].astype(np.float64)[:, None]  # tpa + fpa
        spans = list(pairwise(np.searchsorted(gt_of, self.starts).tolist()))  # each class's pairs
        # each class's sums add over its pairs in pair order; the products
        # are made in one buffer
        q = gt_n + pr_n - tpa
        sums = []
        for den in (q, gt_n, pr_n):  # ass_sum, assre_sum, asspr_sum
            np.divide(tpa, den, out=q)
            q *= tpa
            sums.append([q[a:b].sum(axis=0) for a, b in spans])
        tps = [tpa[a:b].sum(axis=0) for a, b in spans]
        return np.array([[tp, g - tp, p - tp, *rest] for tp, g, p, *rest in
                         zip(tps, self.gt_boxes, self.pr_boxes, *sums)])


def _check_iou_threshold(iou_threshold: float) -> None:
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def clear_mot(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT accumulation with match carry-over."""
    _check_iou_threshold(iou_threshold)
    return _one_pass(gt, pred, False, partial(_Clear, iou_threshold))[1].results()[0]


def idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> Idf1Result:
    """Identification F1: global trajectory-level bipartite assignment."""
    _check_iou_threshold(iou_threshold)
    return _one_pass(gt, pred, False, _Ids)[1].idf1(iou_threshold)[0]


def hota(gt: TrackSet, pred: TrackSet) -> HotaResult:
    """HOTA with DetA/AssA decomposition, averaged over alpha: the TPs at
    alpha are the pairs of the one matching per frame with IoU >= alpha -
    eps."""
    counts = _one_pass(gt, pred, False, _Ids)[1].hota_counts()
    tp, fn, fp = counts[0, :3].astype(np.int64).tolist()
    ass_sum, assre_sum, asspr_sum = counts[0, 3:].tolist()
    return HotaResult(**_hota_means(counts)[0], tp=tp, fn=fn, fp=fp, ass_sum=ass_sum,
                      assre_sum=assre_sum, asspr_sum=asspr_sum)


_HOTA_FAMILY = ("hota", "deta", "detre", "detpr", "assa", "assre", "asspr")  # _hota_means' row order


def _hota_means(counts: np.ndarray) -> list[dict[str, float]]:
    """The HOTA family of each (6, alphas) block of ``counts``, as
    ``_Ids.hota_counts`` gives them, each averaged over alpha; a ratio with
    a zero denominator is 0, which is its numerator over 1."""
    tp, fn, fp = counts[:, 0:1], counts[:, 1:2], counts[:, 2:3]
    ratios = np.empty((len(counts), 7, counts.shape[2]))
    det = np.concatenate((tp + fn + fp, tp + fn, tp + fp), axis=1)
    np.divide(tp, np.maximum(det, 1, out=det), out=ratios[:, 1:4])  # DetA, DetRe, DetPr
    np.divide(counts[:, 3:], np.maximum(tp, 1), out=ratios[:, 4:])  # AssA, AssRe, AssPr
    np.sqrt(ratios[:, 1] * ratios[:, 4], out=ratios[:, 0])
    means = np.add.reduce(ratios, axis=2) / counts.shape[2]  # what ndarray.mean computes
    return [dict(zip(_HOTA_FAMILY, m)) for m in means.tolist()]


@dataclass
class ClassMetrics:
    mota: float | None
    motp: float | None
    idf1: float | None
    hota: float | None
    deta: float | None
    assa: float | None
    detre: float | None
    detpr: float | None
    assre: float | None
    asspr: float | None
    fp: int
    fn: int
    idsw: int
    mt: int
    ml: int
    idtp: int
    idfp: int
    idfn: int
    num_gt: int


@dataclass
class EvalReport:
    per_class: dict[int, ClassMetrics]
    aggregate: ClassMetrics
    mmota: float
    midf1: float


def _class_metrics(clear: ClearMotResult, ident: Idf1Result, means: dict[str, float]) -> ClassMetrics:
    """A class's or the aggregate's metrics from its CLEAR and IDF1 results
    and its HOTA family; one without ground truth keeps its scores None."""
    return ClassMetrics(clear.mota, clear.motp, ident.idf1, **(means if clear.num_gt else dict.fromkeys(_HOTA_FAMILY)),
                        fp=clear.fp, fn=clear.fn, idsw=clear.idsw, mt=clear.mt, ml=clear.ml,
                        idtp=ident.idtp, idfp=ident.idfp, idfn=ident.idfn, num_gt=clear.num_gt)


def per_class_report(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> EvalReport:
    """Evaluate each class independently, in one pass over the frames; the
    aggregate is the score of the classes' summed counts, with MOTP their
    matches' weighted mean.

    Classes appearing only in predictions contribute their false positives
    to the aggregate but are excluded from the mMOTA/mIDF1 class means.
    Raises when no class has a visible ground-truth box, as ``clear_mot``,
    ``idf1`` and ``hota`` do.
    """
    _check_iou_threshold(iou_threshold)
    classes, clear, ids = _one_pass(gt, pred, True, partial(_Clear, iou_threshold), _Ids)
    clears, idents, counts = clear.results(), ids.idf1(iou_threshold), ids.hota_counts()
    clear_counts = zip(*[(r.fp, r.fn, r.idsw, r.mt, r.ml, r.num_gt, r.num_matches) for r in clears])
    sum_iou = sum(r.motp * r.num_matches for r in clears if r.num_matches)
    ident_counts = zip(*[(r.idtp, r.idfp, r.idfn) for r in idents])
    *means, total = _hota_means(np.concatenate((counts, sum(counts)[None])))
    aggregate = _class_metrics(_clear_result(*map(sum, clear_counts), sum_iou),
                               _idf1_result(*map(sum, ident_counts)), total)
    scored = np.array([[r.mota for r in clears if r.num_gt], [r.idf1 for r in idents if r.idf1 is not None]])
    mmota, midf1 = (np.add.reduce(scored, axis=1) / scored.shape[1]).tolist()  # np.mean's sums, without its overhead
    return EvalReport({c: _class_metrics(*p) for c, *p in zip(classes, clears, idents, means)}, aggregate, mmota, midf1)
