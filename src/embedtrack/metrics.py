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
- Each metric turns a class's entries into per-frame id and (N, 4) box
  arrays once, with ids mapped to dense indices in sorted id order.
- It streams the frames in order and computes one IoU matrix per frame,
  dropped after that frame. CLEAR reads its carried-over pairs from it.
  HOTA keeps only its non-zero entries for a second pass: the first pass
  sums the alignment scores, the second makes the one matching per frame.
- Pairs are counted by id index: IDF1 adds each frame's overlapping pairs
  into a (gt id, pred id) weight matrix with ``np.add.at``; HOTA keeps each
  matched pair once, as an integer pair key and its IoU, counts each
  alpha's TPs per pair from the IoUs, and sums the association terms over
  pairs, as TrackEval does.
- A CLEAR matching whose admissible pairs already form a matching is read
  off without a solver call; it is the unique optimum. Every other matching
  solves the full cost matrix.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from .geometry import BoundingBox, iou_matrix

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


@dataclass(frozen=True)
class ObjectEntry:
    """One object in one frame."""

    obj_id: int
    class_id: int
    box: BoundingBox
    visible: bool = True


class TrackSet:
    """Per-frame object lists, for ground truth or predictions."""

    def __init__(self):
        self.frames: dict[int, list[ObjectEntry]] = {}

    def add(self, frame: int, entry: ObjectEntry) -> None:
        bucket = self.frames.setdefault(frame, [])
        if any(e.obj_id == entry.obj_id for e in bucket):
            raise ValueError(f"duplicate object id {entry.obj_id} in frame {frame}")
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
    # per-alpha raw material, used for count-sum aggregation across classes
    alphas: tuple = HOTA_ALPHAS
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


def _sequential_sum(values: np.ndarray, start: float = 0.0) -> float:
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
        boxes = [(e.box.x1, e.box.y1, e.box.x2, e.box.y2) for e in entries]
        return (np.searchsorted(ids, [e.obj_id for e in entries]),
                np.array(boxes, dtype=np.float64).reshape(-1, 4))

    stream = (arrays(g, gt_ids) + arrays(p, pr_ids) for g, p in zip(gts, prs))
    return stream, len(gt_ids), len(pr_ids)


def clear_mot(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT accumulation with match carry-over."""
    frames, n_gt_ids, n_pr_ids = _frames(gt, pred)
    last_match = np.full(n_gt_ids, -1)  # gt index -> most recent matched pred index
    slot = np.full(n_pr_ids, -1)  # pred index -> position in the current frame
    gt_presence = np.zeros(n_gt_ids, dtype=np.int64)
    gt_covered = np.zeros(n_gt_ids, dtype=np.int64)
    fp = fn = idsw = 0
    num_matches = 0
    sum_iou = 0.0

    for gi, gb, pi, pb in frames:
        gt_presence[gi] += 1
        if len(gi) == 0 or len(pi) == 0:
            fn += len(gi)
            fp += len(pi)
            continue
        overlaps = iou_matrix(gb, pb)
        # carry over surviving correspondences; two gt ids can share a
        # last-matched pred id, and the first in frame order keeps it
        slot[pi] = np.arange(len(pi))
        prev = last_match[gi]
        carried = np.where(prev >= 0, slot[prev], -1)
        slot[pi] = -1
        rows = np.flatnonzero(carried >= 0)
        cols = carried[rows]
        kept = overlaps[rows, cols] >= iou_threshold
        rows, cols = rows[kept], cols[kept]
        first = np.sort(np.unique(cols, return_index=True)[1])
        rows, cols = rows[first], cols[first]

        rem_gt = np.setdiff1d(np.arange(len(gi)), rows)
        rem_pr = np.setdiff1d(np.arange(len(pi)), cols)
        if len(rem_gt) and len(rem_pr):
            r, c = _match(overlaps[np.ix_(rem_gt, rem_pr)], iou_threshold)
            rows = np.concatenate((rows, rem_gt[r]))
            cols = np.concatenate((cols, rem_pr[c]))
        num_matches += len(rows)
        sum_iou = _sequential_sum(overlaps[rows, cols], sum_iou)

        gids, pids = gi[rows], pi[cols]
        prev = last_match[gids]
        idsw += int(np.count_nonzero((prev >= 0) & (prev != pids)))
        last_match[gids] = pids
        gt_covered[gids] += 1
        fn += len(gi) - len(rows)
        fp += len(pi) - len(rows)

    ratio = gt_covered / gt_presence
    mt = int(np.count_nonzero(ratio >= 0.8))
    ml = int(np.count_nonzero(ratio <= 0.2))
    num_gt = int(gt_presence.sum())
    mota = 1.0 - (fn + fp + idsw) / num_gt
    motp = sum_iou / num_matches if num_matches else 0.0
    return ClearMotResult(mota, motp, fp, fn, idsw, mt, ml, num_gt, num_matches)


def idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> Idf1Result:
    """Identification F1: global trajectory-level bipartite assignment."""
    frames, n_gt_ids, n_pr_ids = _frames(gt, pred)
    n_gt_boxes = n_pr_boxes = 0
    # frames where both are present and overlap at least iou_threshold,
    # per (gt id, pred id)
    w = np.zeros((n_gt_ids, n_pr_ids))
    for gi, gb, pi, pb in frames:
        n_gt_boxes += len(gi)
        n_pr_boxes += len(pi)
        if len(gi) and len(pi):
            r, c = np.nonzero(iou_matrix(gb, pb) >= iou_threshold)
            np.add.at(w, (gi[r], pi[c]), 1.0)
    idtp = 0
    if w.any():
        rows, cols = linear_sum_assignment(-w)
        idtp = int(w[rows, cols].sum())

    idfn = n_gt_boxes - idtp
    idfp = n_pr_boxes - idtp
    denom = idtp + 0.5 * idfn + 0.5 * idfp
    score = idtp / denom if denom else 0.0
    return Idf1Result(score, idtp, idfp, idfn)


def _hota_matches(gt: TrackSet, pred: TrackSet) -> tuple[np.ndarray, ...]:
    """HOTA's matching as TrackEval computes it: a pre-pass sums, per
    (gt id, pred id) pair, IoU / (row sum + column sum - IoU) over all
    frames, which gives the alignment score A = sum / (n_gt_id + n_pred_id
    - sum); then each frame is matched once, maximizing the total A * IoU.

    Returns one key (gt index * number of pred ids + pred index) and the IoU
    of each matched pair with non-zero IoU, in frame order, and the number
    of boxes of each gt id and each pred id.
    """
    frames, n_gt_ids, n_pr_ids = _frames(gt, pred)
    gt_total = np.zeros(n_gt_ids, dtype=np.int64)
    pr_total = np.zeros(n_pr_ids, dtype=np.int64)
    potential = np.zeros((n_gt_ids, n_pr_ids))
    # per frame with both sides present: (gt indices, pred indices, rows,
    # cols, IoU) of its non-zero IoU entries
    overlaps = []
    for gi, gb, pi, pb in frames:
        gt_total[gi] += 1
        pr_total[pi] += 1
        if len(gi) == 0 or len(pi) == 0:
            continue
        ious = iou_matrix(gb, pb)
        r, c = np.nonzero(ious)
        v = ious[r, c]
        # ids are unique within a frame, so no pair repeats in the update
        potential[gi[r], pi[c]] += v / (ious.sum(axis=1)[r] + ious.sum(axis=0)[c] - v)
        overlaps.append((gi, pi, r, c, v))

    keys, matched_iou = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    for gi, pi, r, c, v in overlaps:
        g, p = gi[r], pi[c]
        pot = potential[g, p]
        score = np.zeros((len(gi), len(pi)))
        score[r, c] = pot / (gt_total[g] + pr_total[p] - pot) * v
        rows, cols = linear_sum_assignment(-score)
        ious = np.zeros_like(score)
        ious[r, c] = v
        ious = ious[rows, cols]
        hit = ious > 0  # a zero-IoU pair is no match at any alpha
        keys.append(gi[rows[hit]] * n_pr_ids + pi[cols[hit]])
        matched_iou.append(ious[hit])
    return np.concatenate(keys), np.concatenate(matched_iou), gt_total, pr_total


def hota(gt: TrackSet, pred: TrackSet) -> HotaResult:
    """HOTA with DetA/AssA decomposition, averaged over alpha: the TPs at
    alpha are the pairs of the one matching per frame with IoU >= alpha -
    eps."""
    keys, matched_iou, gt_total, pr_total = _hota_matches(gt, pred)
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


def _hota_means(tp, fn, fp, ass_sum, assre_sum, asspr_sum) -> dict[str, float]:
    """The HOTA family from per-alpha counts and association sums, each
    averaged over alpha; a ratio with a zero denominator is 0."""
    tp, fn, fp, ass_sum, assre_sum, asspr_sum = np.array(
        [tp, fn, fp, ass_sum, assre_sum, asspr_sum], dtype=np.float64)

    def ratio(num, den):
        return np.where(den > 0, num / np.maximum(den, 1), 0.0)

    deta = ratio(tp, tp + fn + fp)
    assa = ratio(ass_sum, tp)
    return {
        "hota": float(np.mean(np.sqrt(deta * assa))),
        "deta": float(np.mean(deta)),
        "assa": float(np.mean(assa)),
        "detre": float(np.mean(ratio(tp, tp + fn))),
        "detpr": float(np.mean(ratio(tp, tp + fp))),
        "assre": float(np.mean(ratio(assre_sum, tp))),
        "asspr": float(np.mean(ratio(asspr_sum, tp))),
    }


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
    classes = sorted(gt.class_ids() | pred.class_ids())
    per_class: dict[int, ClassMetrics] = {}
    motas, idf1s = [], []
    agg = ClassMetrics()
    # per alpha: tp, fn, fp, ass_sum, assre_sum, asspr_sum summed over classes
    hota_raw = np.zeros((6, len(HOTA_ALPHAS)))
    sum_iou_weighted = 0.0
    total_matches = 0

    for c in classes:
        gt_c = gt.restrict_class(c)
        pr_c = pred.restrict_class(c)
        cm = ClassMetrics()
        n_gt = gt_c.num_boxes()
        cm.num_gt = n_gt
        if n_gt == 0:
            # predictions without any ground truth of this class: all FP
            cm.fp = sum(len(v) for v in pr_c.frames.values())
            cm.idfp = cm.fp
            agg.fp += cm.fp
            agg.idfp += cm.idfp
            hota_raw[2] += cm.fp
            per_class[c] = cm
            continue
        clear = clear_mot(gt_c, pr_c, iou_threshold)
        ident = idf1(gt_c, pr_c, iou_threshold)
        h = hota(gt_c, pr_c)
        cm.mota, cm.motp = clear.mota, clear.motp
        cm.fp, cm.fn, cm.idsw = clear.fp, clear.fn, clear.idsw
        cm.mt, cm.ml = clear.mt, clear.ml
        cm.idf1, cm.idtp, cm.idfp, cm.idfn = ident.idf1, ident.idtp, ident.idfp, ident.idfn
        cm.hota, cm.deta, cm.assa = h.hota, h.deta, h.assa
        cm.detre, cm.detpr, cm.assre, cm.asspr = h.detre, h.detpr, h.assre, h.asspr
        per_class[c] = cm
        motas.append(clear.mota)
        idf1s.append(ident.idf1)

        agg.num_gt += n_gt
        agg.fp += clear.fp
        agg.fn += clear.fn
        agg.idsw += clear.idsw
        agg.mt += clear.mt
        agg.ml += clear.ml
        agg.idtp += ident.idtp
        agg.idfp += ident.idfp
        agg.idfn += ident.idfn
        hota_raw += [h.tp, h.fn, h.fp, h.ass_sum, h.assre_sum, h.asspr_sum]
        sum_iou_weighted += clear.motp * clear.num_matches
        total_matches += clear.num_matches

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
