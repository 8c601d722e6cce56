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
- ``per_class_report`` makes one pass per class. Each frame's entries
  become dense gt and pred id indices (sorted id order) and (N, 4) box
  arrays once; its IoU matrix is computed once, handed to two per-frame
  accumulators (CLEAR, and the identity store that IDF1 and HOTA read)
  and dropped. ``clear_mot``, ``idf1`` and ``hota`` each run the pass with
  one accumulator.
- The identity store keeps each frame's non-zero IoUs and sums HOTA's
  alignment scores. IDF1 counts, per (gt id, pred id) pair, the kept IoUs
  at or above its threshold; every threshold is above 0, so no pair it
  counts was dropped. HOTA then matches each frame, keeps each matched
  pair as an integer pair key and its IoU, and counts the TPs and
  association terms per pair and alpha, as TrackEval does.
- A CLEAR matching whose admissible pairs already form a matching is read
  off without a solver call; it is the unique optimum. Every other matching
  solves the full cost matrix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from scipy.optimize import linear_sum_assignment

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

    def visible_frames(self) -> dict[int, list[ObjectEntry]]:
        return {
            f: [e for e in entries if e.visible]
            for f, entries in self.frames.items()
        }

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
        return sum(len(e) for e in self.visible_frames().values())


@dataclass
class ClearMotResult:
    mota: float
    motp: float
    fp: int
    fn: int
    idsw: int
    mt: int
    ml: int
    num_gt: int
    num_matches: int


@dataclass
class Idf1Result:
    idf1: float
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
    tp: list[int] = field(default_factory=list)
    fn: list[int] = field(default_factory=list)
    fp: list[int] = field(default_factory=list)
    ass_sum: list[float] = field(default_factory=list)
    assre_sum: list[float] = field(default_factory=list)
    asspr_sum: list[float] = field(default_factory=list)


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


def _frames(gt: TrackSet, pred: TrackSet) -> tuple[Iterator[tuple[np.ndarray, ...]], int, int]:
    """Visible ground truth and all predictions, streamed as arrays in sorted
    frame order: per frame (gt indices, gt boxes, pred indices, pred boxes),
    with ids mapped to dense indices in sorted id order. Returns the stream
    and the numbers of distinct gt and pred ids."""
    order = sorted(set(gt.frames) | set(pred.frames))
    gts = [[e for e in gt.frames.get(f, ()) if e.visible] for f in order]
    prs = [pred.frames.get(f, []) for f in order]
    gt_ids = np.unique([e.obj_id for entries in gts for e in entries])
    if len(gt_ids) == 0:
        raise ValueError("undefined MOTA denominator: ground truth contains no objects")
    pr_ids = np.unique([e.obj_id for entries in prs for e in entries])

    def arrays(entries, ids):
        return (np.searchsorted(ids, [e.obj_id for e in entries]),
                box_array(e.box for e in entries))

    stream = (arrays(g, gt_ids) + arrays(p, pr_ids) for g, p in zip(gts, prs))
    return stream, len(gt_ids), len(pr_ids)


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
        # carry over surviving correspondences; two gt ids can share a
        # last-matched pred id, and the first in frame order keeps it
        self.slot[pi] = np.arange(len(pi))
        prev = self.last_match[gi]
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
        self.num_matches += len(rows)
        self.sum_iou = _sequential_sum(overlaps[rows, cols], self.sum_iou)

        gids, pids = gi[rows], pi[cols]
        prev = self.last_match[gids]
        self.idsw += int(np.count_nonzero((prev >= 0) & (prev != pids)))
        self.last_match[gids] = pids
        self.covered[gids] += 1

    def result(self) -> ClearMotResult:
        ratio = self.covered / self.presence
        mt = int(np.count_nonzero(ratio >= 0.8))
        ml = int(np.count_nonzero(ratio <= 0.2))
        num_gt = int(self.presence.sum())
        fn, fp = num_gt - self.num_matches, self.n_pr_boxes - self.num_matches
        mota = 1.0 - (fn + fp + self.idsw) / num_gt
        motp = self.sum_iou / self.num_matches if self.num_matches else 0.0
        return ClearMotResult(mota, motp, fp, fn, self.idsw, mt, ml, num_gt, self.num_matches)


class _Ids:
    """The identity store that IDF1 and HOTA both read: the box count of
    each gt and pred id, and each frame's non-zero IoUs. HOTA's matching is
    TrackEval's: a pre-pass sums, per (gt id, pred id) pair, IoU / (row
    sum + column sum - IoU) over all frames, which gives the alignment
    score A = sum / (n_gt_id + n_pred_id - sum); then each frame is matched
    once, maximizing the total A * IoU.
    """

    def __init__(self, n_gt_ids: int, n_pr_ids: int):
        self.gt_total = np.zeros(n_gt_ids, dtype=np.int64)
        self.pr_total = np.zeros(n_pr_ids, dtype=np.int64)
        self.potential = np.zeros((n_gt_ids, n_pr_ids))
        self.overlaps = []  # (gi, pi, rows, cols, IoU) of each frame's non-zero IoUs

    def add(self, gi: np.ndarray, pi: np.ndarray, ious: np.ndarray | None) -> None:
        self.gt_total[gi] += 1
        self.pr_total[pi] += 1
        if ious is None:
            return
        r, c = np.nonzero(ious)
        v = ious[r, c]
        # ids are unique within a frame, so no pair repeats in the update
        self.potential[gi[r], pi[c]] += v / (ious.sum(axis=1)[r] + ious.sum(axis=0)[c] - v)
        self.overlaps.append((gi, pi, r, c, v))

    def idf1(self, iou_threshold: float) -> Idf1Result:
        """IDF1 from the kept IoUs; call it before ``hota``, which releases them."""
        shape = (len(self.gt_total), len(self.pr_total))
        keys = [(gi[r] * shape[1] + pi[c])[v >= iou_threshold] for gi, pi, r, c, v in self.overlaps]
        keys = np.concatenate([np.zeros(0, dtype=np.int64), *keys])
        w = np.bincount(keys, minlength=shape[0] * shape[1]).reshape(shape)
        idtp = 0
        if w.any():
            rows, cols = linear_sum_assignment(-w)
            idtp = int(w[rows, cols].sum())
        idfn, idfp = int(self.gt_total.sum()) - idtp, int(self.pr_total.sum()) - idtp
        denom = idtp + 0.5 * idfn + 0.5 * idfp
        score = idtp / denom if denom else 0.0
        return Idf1Result(score, idtp, idfp, idfn)

    def matches(self) -> tuple[np.ndarray, ...]:
        """The second pass, run once: it releases the kept IoU entries.
        Returns one key (gt index * number of pred ids + pred index) and the
        IoU of each matched pair with non-zero IoU, in frame order, and the
        number of boxes of each gt id and each pred id."""
        keys, matched_iou = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
        frames, self.overlaps = self.overlaps, []
        for gi, pi, r, c, v in frames:
            g, p = gi[r], pi[c]
            pot = self.potential[g, p]
            score = np.zeros((len(gi), len(pi)))
            score[r, c] = pot / (self.gt_total[g] + self.pr_total[p] - pot) * v
            rows, cols = linear_sum_assignment(-score)
            ious = np.zeros_like(score)
            ious[r, c] = v
            ious = ious[rows, cols]
            hit = ious > 0  # a zero-IoU pair is no match at any alpha
            keys.append(gi[rows[hit]] * len(self.pr_total) + pi[cols[hit]])
            matched_iou.append(ious[hit])
        return np.concatenate(keys), np.concatenate(matched_iou), self.gt_total, self.pr_total

    def hota(self) -> HotaResult:
        keys, matched_iou, gt_total, pr_total = self.matches()
        n_pr_ids = len(pr_total)
        pairs, inverse = np.unique(keys, return_inverse=True)
        # a match counts at the first `level` alphas, those with IoU >= alpha - eps
        level = np.searchsorted(np.array(HOTA_ALPHAS) - _EPS, matched_iou, side="right")
        n_levels = len(HOTA_ALPHAS) + 1
        per_level = np.bincount(inverse * n_levels + level, minlength=len(pairs) * n_levels)
        # tpa[k, j]: matches of pair j that count at alpha k (level above k)
        tpa = per_level.reshape(len(pairs), n_levels)[:, ::-1].cumsum(axis=1)[:, -2::-1].T
        gt_n = gt_total[pairs // n_pr_ids]  # tpa + fna
        pr_n = pr_total[pairs % n_pr_ids]  # tpa + fpa
        tp = tpa.sum(axis=1)
        raw = {
            "tp": tp.tolist(),
            "fn": (gt_total.sum() - tp).tolist(),
            "fp": (pr_total.sum() - tp).tolist(),
            "ass_sum": (tpa * (tpa / (gt_n + pr_n - tpa))).sum(axis=1).tolist(),
            "assre_sum": (tpa * (tpa / gt_n)).sum(axis=1).tolist(),
            "asspr_sum": (tpa * (tpa / pr_n)).sum(axis=1).tolist(),
        }
        return HotaResult(**_hota_means(**raw), **raw)


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
    return _one_pass(gt, pred, _Ids)[0].hota()


def _hota_means(tp, fn, fp, ass_sum, assre_sum, asspr_sum) -> dict[str, float]:
    """The HOTA family from per-alpha counts and association sums, each
    averaged over alpha; a ratio with a zero denominator is 0."""
    tp, fn, fp, ass_sum, assre_sum, asspr_sum = np.array(
        [tp, fn, fp, ass_sum, assre_sum, asspr_sum], dtype=np.float64)
    num = np.array([tp, ass_sum, tp, tp, assre_sum, asspr_sum])
    den = np.array([tp + fn + fp, tp, tp + fn, tp + fp, tp, tp])
    ratios = np.where(den > 0, num / np.maximum(den, 1), 0.0)  # DetA, AssA, DetRe, ..., AssPr
    means = np.vstack([np.sqrt(ratios[0] * ratios[1]), ratios]).mean(axis=1)
    return dict(zip(("hota", "deta", "assa", "detre", "detpr", "assre", "asspr"), means.tolist()))


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
    mmota: float | None
    midf1: float | None


def per_class_report(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> EvalReport:
    """Evaluate each class independently and aggregate by summing counts.

    Classes appearing only in predictions contribute their false positives
    to the aggregate but are excluded from the mMOTA/mIDF1 class means.
    """
    _check_iou_threshold(iou_threshold)
    classes = sorted(gt.class_ids() | pred.class_ids())
    per_class: dict[int, ClassMetrics] = {}
    motas, idf1s = [], []
    agg = ClassMetrics()
    # per alpha: tp, fn, fp, ass_sum, assre_sum, asspr_sum summed over classes
    hota_raw = np.zeros((6, len(HOTA_ALPHAS)))
    sum_iou_weighted = 0.0
    total_matches = 0

    for c in classes:
        gt_c, pr_c = gt.restrict_class(c), pred.restrict_class(c)
        cm = per_class[c] = ClassMetrics(num_gt=gt_c.num_boxes())
        if cm.num_gt == 0:
            # predictions without any ground truth of this class: all FP
            cm.fp = cm.idfp = sum(len(v) for v in pr_c.frames.values())
            hota_raw[2] += cm.fp
        else:
            clear, ids = _one_pass(gt_c, pr_c, partial(_Clear, iou_threshold), _Ids)
            clear, ident, h = clear.result(), ids.idf1(iou_threshold), ids.hota()
            cm.mota, cm.motp = clear.mota, clear.motp
            cm.fp, cm.fn, cm.idsw = clear.fp, clear.fn, clear.idsw
            cm.mt, cm.ml = clear.mt, clear.ml
            cm.idf1, cm.idtp, cm.idfp, cm.idfn = ident.idf1, ident.idtp, ident.idfp, ident.idfn
            cm.hota, cm.deta, cm.assa = h.hota, h.deta, h.assa
            cm.detre, cm.detpr, cm.assre, cm.asspr = h.detre, h.detpr, h.assre, h.asspr
            motas.append(clear.mota)
            idf1s.append(ident.idf1)
            hota_raw += [h.tp, h.fn, h.fp, h.ass_sum, h.assre_sum, h.asspr_sum]
            sum_iou_weighted += clear.motp * clear.num_matches
            total_matches += clear.num_matches
        for key in ("num_gt", "fp", "fn", "idsw", "mt", "ml", "idtp", "idfp", "idfn"):
            setattr(agg, key, getattr(agg, key) + getattr(cm, key))

    if agg.num_gt > 0:
        agg.mota = 1.0 - (agg.fn + agg.fp + agg.idsw) / agg.num_gt
        agg.motp = sum_iou_weighted / total_matches if total_matches else 0.0
        denom = agg.idtp + 0.5 * agg.idfn + 0.5 * agg.idfp
        agg.idf1 = agg.idtp / denom if denom else 0.0
        for key, value in _hota_means(*hota_raw).items():
            setattr(agg, key, value)

    mmota = float(np.mean(motas)) if motas else None
    midf1 = float(np.mean(idf1s)) if idf1s else None
    return EvalReport(per_class, agg, mmota, midf1)
