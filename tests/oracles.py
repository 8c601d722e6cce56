"""Independent reference implementations, deliberately written with plain
loops.

The metric oracles enumerate matchings explicitly instead of calling an
assignment solver. The contrastive-loss oracles are the per-key-sample
loops that the matrix-form losses in ``embedtrack.contrastive`` replaced:
one Python iteration per key row, hard negatives chosen by a full stable
argsort, gradients scattered with ``np.add.at``. The trainer oracles are
the loops that stacked calls of the loss kernel replaced: a kernel call per
consecutive-frame pair, and two per perturbed embedding entry. The
association oracles are the per-object tracker that the array-resident
``embedtrack.tracker`` replaced: candidate matrices stacked every frame
from its own ``Track`` and ``Backdrop`` records (embedding, last box and
frames as fields), a Python greedy claim loop, per-box NMS and the
two-pass softmax, which is also the dense masked kernel that the listed
pairs' bi-softmax (``similarity._pair_bisoftmax``) must equal bit for bit;
with them comes the per-negative IoU binning of ``sample_batch``. The
detection-file oracles are a line-by-line reader and a per-value writer of
format v2, which pack and unpack each embedding value with ``struct``:
the references for the chunked ``embedtrack.formats`` reader and its
per-frame writer. The ``separate_*`` metrics are the
evaluation that ``per_class_report``'s one pass replaced: one run per class
and metric, each converting every frame and computing its IoU matrix on
its own. The world oracle is the per-detection ``synth.generate`` that the
per-frame arrays replaced. The geometry oracles are the scalar ``iou`` with the
box ``area`` it needs and the dense ``center_distance_matrix``, whose
mask ``within_oracle`` is: the references for ``iou_matrix`` and for the
pairs that ``pairs_within``'s sweep lists, and called by no code of the
package. ``visible_frames`` gives the metric oracles each frame's
visible ground truth, and ``class_ids``, ``restrict_class`` and
``num_boxes`` give ``separate_per_class_report`` its classes, one class
of a track set and its visible box count.
"""

import itertools
import struct
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from embedtrack.contrastive import (
    _FD_STEP,
    IGNORED,
    NEGATIVE,
    POSITIVE,
    VARIANTS,
    LossConfig,
    RegionSample,
    _loss_total,
)
from embedtrack.formats import FormatError
from embedtrack.geometry import BoundingBox, iou_matrix
from embedtrack.metrics import (
    _EPS,
    HOTA_ALPHAS,
    ClassMetrics,
    ClearMotResult,
    EvalReport,
    HotaResult,
    Idf1Result,
    ObjectEntry,
    TrackSet,
    _sequential_sum,
)
from embedtrack.similarity import cosine_matrix, validate_embeddings
from embedtrack.synth import (
    _BOX_SIZE_RANGE,
    _DISTRACTOR_SCORE_RANGE,
    _FP_SCORE_RANGE,
    _SCORE_RANGE,
    _TAU,
    Scenario,
    WorldConfig,
    _margin,
    place_prototypes,
)
from embedtrack.tracker import (
    _BETA_MATCH,
    _BETA_MERGE,
    _MERGE_RADIUS,
    _MERGE_WINDOW,
    Detection,
    TrackerConfig,
)

NEG_INF = -np.inf


def area(b: BoundingBox) -> float:
    return b.width * b.height


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes, one at a time. Returns 0.0
    when the union is degenerate (never NaN)."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = area(a) + area(b) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def visible_frames(ts: TrackSet) -> dict[int, list[ObjectEntry]]:
    """Each frame's visible entries; a frame with none keeps an empty list."""
    return {f: [e for e in entries if e.visible] for f, entries in ts.frames.items()}


def class_ids(ts: TrackSet) -> set[int]:
    """The classes of every entry, visible or not."""
    return {e.class_id for entries in ts.frames.values() for e in entries}


def restrict_class(ts: TrackSet, class_id: int) -> TrackSet:
    """The entries of one class; a frame with none is left out."""
    # ids are already unique per frame here, so the entries skip add()
    out = TrackSet()
    for f, entries in ts.frames.items():
        kept = [e for e in entries if e.class_id == class_id]
        if kept:
            out.frames[f] = kept
    return out


def num_boxes(ts: TrackSet) -> int:
    """The number of visible entries."""
    return sum(e.visible for entries in ts.frames.values() for e in entries)


def pairwise_iou(gts, prs):
    return np.array([[iou(g.box, p.box) for p in prs] for g in gts]).reshape(
        len(gts), len(prs)
    )


def all_matchings(n_gt, n_pr):
    """Every maximal injective matching as a list of (gt_idx, pred_idx)."""
    if n_gt == 0 or n_pr == 0:
        yield []
        return
    if n_gt <= n_pr:
        for cols in itertools.permutations(range(n_pr), n_gt):
            yield list(enumerate(cols))
    else:
        for rows in itertools.permutations(range(n_gt), n_pr):
            yield [(r, j) for j, r in enumerate(rows)]


def best_matching(overlaps, threshold):
    """Enumerate matchings; keep only pairs at or above the threshold and
    maximize their total IoU. Returns the winning pair list.
    """
    best_total = None
    best_pairs = []
    for m in all_matchings(*overlaps.shape):
        pairs = [(i, j) for i, j in m if overlaps[i, j] >= threshold]
        total = sum(overlaps[i, j] for i, j in pairs)
        if best_total is None or total > best_total:
            best_total = total
            best_pairs = pairs
    return best_pairs


def clear_oracle(gt: TrackSet, pred: TrackSet, iou_threshold=0.5):
    gt_frames = visible_frames(gt)
    pr_frames = pred.frames
    num_gt = sum(len(v) for v in gt_frames.values())
    frames = sorted(set(gt_frames) | set(pr_frames))

    last = {}
    fp = fn = idsw = 0
    num_matches = 0
    sum_iou = 0.0
    presence = defaultdict(int)
    covered = defaultdict(int)

    for f in frames:
        gts = gt_frames.get(f, [])
        prs = pr_frames.get(f, [])
        for g in gts:
            presence[g.obj_id] += 1
        overlaps = pairwise_iou(gts, prs)
        matched = {}
        used = set()
        for i, g in enumerate(gts):
            pid = last.get(g.obj_id)
            if pid is None:
                continue
            js = [j for j, p in enumerate(prs) if p.obj_id == pid]
            if not js or js[0] in used:
                continue
            j = js[0]
            if overlaps[i, j] >= iou_threshold:
                matched[i] = j
                used.add(j)
                num_matches += 1
                sum_iou += overlaps[i, j]
        rem_g = [i for i in range(len(gts)) if i not in matched]
        rem_p = [j for j in range(len(prs)) if j not in used]
        if rem_g and rem_p:
            sub = overlaps[np.ix_(rem_g, rem_p)]
            for r, c in best_matching(sub, iou_threshold):
                i, j = rem_g[r], rem_p[c]
                matched[i] = j
                used.add(j)
                num_matches += 1
                sum_iou += overlaps[i, j]
        for i, j in matched.items():
            gid, pid = gts[i].obj_id, prs[j].obj_id
            if gid in last and last[gid] != pid:
                idsw += 1
            last[gid] = pid
            covered[gid] += 1
        fn += len(gts) - len(matched)
        fp += len(prs) - len(used)

    mt = ml = 0
    for gid, present in presence.items():
        ratio = covered.get(gid, 0) / present
        if ratio >= 0.8:
            mt += 1
        elif ratio <= 0.2:
            ml += 1
    mota = 1.0 - (fn + fp + idsw) / num_gt
    motp = sum_iou / num_matches if num_matches else 0.0
    return dict(mota=mota, motp=motp, fp=fp, fn=fn, idsw=idsw, mt=mt, ml=ml,
                num_gt=num_gt, num_matches=num_matches)


def idf1_oracle(gt: TrackSet, pred: TrackSet, iou_threshold=0.5):
    gt_frames = visible_frames(gt)
    pr_frames = pred.frames
    n_gt = sum(len(v) for v in gt_frames.values())
    n_pr = sum(len(v) for v in pr_frames.values())

    overlap = defaultdict(int)
    for f in set(gt_frames) & set(pr_frames):
        for g in gt_frames[f]:
            for p in pr_frames[f]:
                if iou(g.box, p.box) >= iou_threshold:
                    overlap[(g.obj_id, p.obj_id)] += 1

    gt_ids = sorted({g.obj_id for v in gt_frames.values() for g in v})
    pr_ids = sorted({p.obj_id for v in pr_frames.values() for p in v})
    # pad with None so every gt id can stay unassigned
    slots = list(pr_ids) + [None] * len(gt_ids)
    idtp = 0
    for assignment in itertools.permutations(slots, len(gt_ids)):
        total = sum(
            overlap.get((g, p), 0) for g, p in zip(gt_ids, assignment) if p is not None
        )
        idtp = max(idtp, total)
    idfn = n_gt - idtp
    idfp = n_pr - idtp
    denom = idtp + 0.5 * idfn + 0.5 * idfp
    score = idtp / denom if denom else 0.0
    return dict(idf1=score, idtp=idtp, idfp=idfp, idfn=idfn)


def partial_matchings(n_gt, n_pr, row=0, used=frozenset()):
    """Every injective partial matching as a list of (gt_idx, pred_idx),
    the empty one included."""
    if row == n_gt:
        yield []
        return
    yield from partial_matchings(n_gt, n_pr, row + 1, used)
    for j in range(n_pr):
        if j not in used:
            for rest in partial_matchings(n_gt, n_pr, row + 1, used | {j}):
                yield [(row, j)] + rest


HOTA_KEYS = ("hota", "deta", "assa", "detre", "detpr", "assre", "asspr")
HOTA_EPS = np.finfo(float).eps  # a match counts at alpha when IoU >= alpha - eps
TIE_TOLERANCE = 1e-12  # matching totals this close are tied optima


def hota_from_matches(matches, gt_count, pr_count):
    """HOTA sub-metrics from a list of (gt id, pred id, IoU) matches."""
    n_gt = sum(gt_count.values())
    n_pr = sum(pr_count.values())
    per_alpha = defaultdict(list)
    for alpha in HOTA_ALPHAS:
        tp_pairs = [(g, p) for g, p, v in matches if v >= alpha - HOTA_EPS]
        pair_count = defaultdict(int)
        for pair in tp_pairs:
            pair_count[pair] += 1
        n_tp = len(tp_pairs)
        n_fn = n_gt - n_tp
        n_fp = n_pr - n_tp
        ass = assre = asspr = 0.0
        for g, p in tp_pairs:
            tpa = pair_count[(g, p)]
            fna = gt_count[g] - tpa
            fpa = pr_count[p] - tpa
            ass += tpa / (tpa + fna + fpa)
            assre += tpa / (tpa + fna)
            asspr += tpa / (tpa + fpa)
        deta = n_tp / (n_tp + n_fn + n_fp) if (n_tp + n_fn + n_fp) else 0.0
        assa = ass / n_tp if n_tp else 0.0
        per_alpha["hota"].append(float(np.sqrt(deta * assa)))
        per_alpha["deta"].append(deta)
        per_alpha["assa"].append(assa)
        per_alpha["detre"].append(n_tp / (n_tp + n_fn) if (n_tp + n_fn) else 0.0)
        per_alpha["detpr"].append(n_tp / (n_tp + n_fp) if (n_tp + n_fp) else 0.0)
        per_alpha["assre"].append(assre / n_tp if n_tp else 0.0)
        per_alpha["asspr"].append(asspr / n_tp if n_tp else 0.0)
    return {key: float(np.mean(per_alpha[key])) for key in HOTA_KEYS}


def hota_oracle(gt: TrackSet, pred: TrackSet):
    """Every value HOTA can take under its published definition (Luiten et
    al., IJCV 2021, as TrackEval computes it), one dict per distinct value.

    The alignment score of a (gt id, pred id) pair is potential / (gt count
    + pred count - potential), where the potential sums IoU / (row sum +
    column sum - IoU) over the frames. Each frame takes a partial matching
    that maximizes the total alignment-weighted IoU; the enumeration keeps
    every tied optimum, and each combination of per-frame optima gives one
    value.
    """
    gt_frames = visible_frames(gt)
    pr_frames = pred.frames
    gt_count = defaultdict(int)
    pr_count = defaultdict(int)
    potential = defaultdict(float)
    per_frame = []
    for f in sorted(set(gt_frames) | set(pr_frames)):
        gts = gt_frames.get(f, [])
        prs = pr_frames.get(f, [])
        for g in gts:
            gt_count[g.obj_id] += 1
        for p in prs:
            pr_count[p.obj_id] += 1
        overlaps = pairwise_iou(gts, prs)
        for i, g in enumerate(gts):
            for j, p in enumerate(prs):
                v = overlaps[i, j]
                if v > 0:
                    union = sum(overlaps[i, :]) + sum(overlaps[:, j]) - v
                    potential[(g.obj_id, p.obj_id)] += v / union
        per_frame.append((gts, prs, overlaps))
    align = {
        (g, p): pot / (gt_count[g] + pr_count[p] - pot)
        for (g, p), pot in potential.items()
    }

    # per frame, each optimal matching as its sorted (gt id, pred id, IoU)
    # pairs; zero-IoU pairs count at no alpha and are left out
    optima = []
    for gts, prs, overlaps in per_frame:
        scored = []
        for m in partial_matchings(len(gts), len(prs)):
            pairs = [(gts[i].obj_id, prs[j].obj_id, overlaps[i, j])
                     for i, j in m if overlaps[i, j] > 0]
            total = sum(align[(g, p)] * v for g, p, v in pairs)
            scored.append((total, tuple(sorted(pairs))))
        best = max(total for total, _ in scored)
        optima.append(sorted({pairs for total, pairs in scored
                              if total >= best - TIE_TOLERANCE}))

    values = []
    for choice in itertools.product(*optima):
        value = hota_from_matches([m for pairs in choice for m in pairs], gt_count, pr_count)
        if value not in values:
            values.append(value)
    return values


def hota_in_oracle(got, values, tol=1e-12) -> bool:
    """Whether every HOTA sub-metric of ``got`` (a HotaResult or a dict) is
    within ``tol`` of one value the oracle allows."""
    get = got.get if isinstance(got, dict) else lambda key: getattr(got, key)
    return any(all(abs(get(key) - want[key]) <= tol for key in HOTA_KEYS) for want in values)


def random_instance(rng, max_ids=4, max_frames=5):
    """A small random gt/pred pair; half the time predictions are jittered
    copies of the ground truth with occasional id swaps, otherwise fully
    random clutter."""
    from embedtrack.geometry import BoundingBox

    n_frames = int(rng.integers(1, max_frames + 1))
    n_ids = int(rng.integers(1, max_ids + 1))
    perturbed = rng.random() < 0.5
    gt = TrackSet()
    pred = TrackSet()

    def rand_box():
        x = rng.uniform(0, 60)
        y = rng.uniform(0, 60)
        w = rng.uniform(8, 25)
        h = rng.uniform(8, 25)
        return BoundingBox(x, y, x + w, y + h)

    any_visible = False
    for f in range(n_frames):
        used_pred_ids = set()
        for i in range(n_ids):
            if rng.random() > 0.8:
                continue
            visible = rng.random() < 0.85
            any_visible |= visible
            box = rand_box()
            gt.add(f, ObjectEntry(i, 0, box, visible))
            if perturbed and visible and rng.random() < 0.75:
                pid = i if rng.random() > 0.2 else int(rng.integers(n_ids + 2))
                if pid in used_pred_ids:
                    continue
                used_pred_ids.add(pid)
                c = box.as_array() + rng.normal(0, 3.0, size=4)
                x1, x2 = sorted((c[0], c[2]))
                y1, y2 = sorted((c[1], c[3]))
                pred.add(f, ObjectEntry(pid, 0, BoundingBox(x1, y1, x2, y2)))
        n_extra = int(rng.integers(0, 3)) if not perturbed else int(rng.random() < 0.3)
        for _ in range(n_extra):
            pid = int(rng.integers(n_ids + 3))
            if pid in used_pred_ids:
                continue
            used_pred_ids.add(pid)
            pred.add(f, ObjectEntry(pid, 0, rand_box()))
    if not any_visible:
        gt.add(0, ObjectEntry(99, 0, rand_box(), True))
    return gt, pred


def embed_value_and_grad_oracle(
    positivity: np.ndarray,
    key_emb: np.ndarray,
    ref_emb: np.ndarray,
    variant: str,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Embedding loss with analytic gradients w.r.t. both embedding sets.

    Per key sample with P positives and negatives N (all non-positive
    reference samples), the accumulated form is
    log[1 + sum_{p,n} exp(v.k_n - v.k_p)], which factorizes as
    log(1 + exp(lse(-a) + lse(b))) over positive dots a and negative dots
    b; gradients follow from softmax weights over the pair terms. The
    single-positive variant averages the per-positive InfoNCE losses, the
    naive multi-positive variant sums them. Result is the mean over key
    samples that have at least one positive.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}")
    V = key_emb.shape[0]
    g_key = np.zeros_like(key_emb)
    g_ref = np.zeros_like(ref_emb)
    dots = key_emb @ ref_emb.T  # (V, K)
    active = [i for i in range(V) if positivity[i].any()]
    if not active:
        raise ValueError("batch has no positive pairs")
    total = 0.0
    inv_n = 1.0 / len(active)
    for i in active:
        pos = np.flatnonzero(positivity[i])
        neg = np.flatnonzero(~positivity[i])
        v = key_emb[i]
        a = dots[i, pos]  # positive dots
        if neg.size == 0:
            continue  # log(1 + 0) = 0, zero gradient
        b = dots[i, neg]  # negative dots
        bmax = b.max()
        eb = np.exp(b - bmax)
        if variant == "accumulated_multi":
            amin = a.min()
            ea = np.exp(amin - a)  # exp(-a) shifted by the dominant term
            # L = log(1 + exp(lse(-a) + lse(b)))
            z = (bmax - amin) + np.log(ea.sum()) + np.log(eb.sum())
            L = np.logaddexp(0.0, z)
            w = np.exp(z - L)  # total pair weight, = S / (1 + S)
            pa = ea / ea.sum()  # softmax over -a
            pb = eb / eb.sum()  # softmax over b
            row_p = w * pa  # sum_n w_pn per positive p
            col_n = w * pb  # sum_p w_pn per negative n
            total += inv_n * L
            g_key[i] += inv_n * (col_n @ ref_emb[neg] - row_p @ ref_emb[pos])
            g_ref[neg] += inv_n * np.outer(col_n, v)
            g_ref[pos] -= inv_n * np.outer(row_p, v)
        else:
            # per-positive InfoNCE: L_p = log(1 + sum_n exp(b_n - a_p))
            lse_b = bmax + np.log(eb.sum())
            Lp = np.logaddexp(0.0, lse_b - a)  # (|P|,)
            wp = np.exp(lse_b - a - Lp)  # per-positive total negative weight
            pb = eb / eb.sum()
            scale = inv_n / pos.size if variant == "single_positive" else inv_n
            total += scale * Lp.sum()
            col_n = wp.sum() * pb  # sum over p of w_pn per negative n
            g_key[i] += scale * (col_n @ ref_emb[neg] - wp @ ref_emb[pos])
            g_ref[neg] += scale * np.outer(col_n, v)
            g_ref[pos] -= scale * np.outer(wp, v)
    return float(total), g_key, g_ref


def aux_pairs_oracle(
    positivity: np.ndarray,
    cos: np.ndarray,
    neg_ratio: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All positive pairs plus the neg_ratio x |positives| hardest negatives
    (highest cosine). Returns (rows, cols, targets)."""
    pi, pj = np.nonzero(positivity)
    if pi.size == 0:
        raise ValueError("batch has no positive pairs")
    ni, nj = np.nonzero(~positivity)
    n_hard = min(ni.size, neg_ratio * pi.size)
    order = np.argsort(-cos[ni, nj], kind="stable")[:n_hard]
    rows = np.concatenate([pi, ni[order]])
    cols = np.concatenate([pj, nj[order]])
    targets = np.concatenate([np.ones(pi.size), np.zeros(n_hard)])
    return rows, cols, targets


def cosine_and_norms_oracle(key_emb: np.ndarray, ref_emb: np.ndarray):
    kn = np.linalg.norm(key_emb, axis=1)
    rn = np.linalg.norm(ref_emb, axis=1)
    if np.any(kn == 0) or np.any(rn == 0):
        raise ValueError("zero-norm embedding in auxiliary loss")
    cos = (key_emb / kn[:, None]) @ (ref_emb / rn[:, None]).T
    return cos, kn, rn


def aux_value_and_grad_oracle(
    positivity: np.ndarray,
    key_emb: np.ndarray,
    ref_emb: np.ndarray,
    neg_ratio: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Auxiliary L2 loss (cos - c)^2 with analytic gradients; mean over all
    positive pairs and the hard-mined negatives."""
    cos, kn, rn = cosine_and_norms_oracle(key_emb, ref_emb)
    rows, cols, targets = aux_pairs_oracle(positivity, cos, neg_ratio)
    c = cos[rows, cols]
    resid = c - targets
    value = float(np.mean(resid**2))
    g_key = np.zeros_like(key_emb)
    g_ref = np.zeros_like(ref_emb)
    coef = 2.0 * resid / rows.size
    inv_prod = 1.0 / (kn[rows] * rn[cols])
    dk = coef[:, None] * (ref_emb[cols] * inv_prod[:, None]
                          - (c / kn[rows] ** 2)[:, None] * key_emb[rows])
    dr = coef[:, None] * (key_emb[rows] * inv_prod[:, None]
                          - (c / rn[cols] ** 2)[:, None] * ref_emb[cols])
    np.add.at(g_key, rows, dk)
    np.add.at(g_ref, cols, dr)
    return value, g_key, g_ref


def aux_selection_margin_oracle(positivity, key_emb, ref_emb, neg_ratio=3):
    """Cosine gap at the hard-negative cutoff from a full descending sort."""
    cos, _, _ = cosine_and_norms_oracle(key_emb, ref_emb)
    pi, pj = np.nonzero(positivity)
    ni, nj = np.nonzero(~positivity)
    n_hard = min(ni.size, neg_ratio * pi.size)
    if n_hard == ni.size:
        return float("inf")
    vals = np.sort(cos[ni, nj])[::-1]
    return float(vals[n_hard - 1] - vals[n_hard])


def positivity_oracle(key, ref):
    """Key x reference positivity from a double loop over the samples."""
    pos = np.zeros((len(key), len(ref)), dtype=bool)
    for i, ks in enumerate(key):
        if ks.polarity != POSITIVE:
            continue
        for j, rs in enumerate(ref):
            if rs.polarity == POSITIVE and rs.identity == ks.identity:
                pos[i, j] = True
    return pos


def loss_total_oracle(positivity, key_emb, ref_emb, cfg: LossConfig | None = None):
    """gamma1 * embedding loss + gamma2 * auxiliary loss from the per-row
    references, with a constituent skipped when its weight is zero. The
    auxiliary loss keeps three hard negatives per positive pair."""
    cfg = cfg or LossConfig()
    value = 0.0
    g_key = np.zeros_like(key_emb)
    g_ref = np.zeros_like(ref_emb)
    if cfg.gamma1 > 0:
        v, gk, gr = embed_value_and_grad_oracle(positivity, key_emb, ref_emb, cfg.variant)
        value += cfg.gamma1 * v
        g_key += cfg.gamma1 * gk
        g_ref += cfg.gamma1 * gr
    if cfg.gamma2 > 0:
        v, gk, gr = aux_value_and_grad_oracle(positivity, key_emb, ref_emb, 3)
        value += cfg.gamma2 * v
        g_key += cfg.gamma2 * gk
        g_ref += cfg.gamma2 * gr
    return value, (g_key, g_ref)


def optimize_embeddings_oracle(problem, cfg, steps, lr, rng_seed):
    """``optimize_embeddings`` with one kernel call per consecutive-frame
    pair, visited in the seed-shuffled order, the gradient accumulated pair
    by pair."""
    rng = np.random.default_rng(rng_seed)
    params = np.array(problem.params, dtype=np.float64)
    trace = []
    m = len(problem.batch.key)
    n = int(problem.frame.max(initial=0))
    pairs = [(slice(t * m, (t + 1) * m), slice((t + 1) * m, (t + 2) * m)) for t in range(n)]
    for step in range(steps):
        order = rng.permutation(n)
        grad = np.zeros_like(params)
        total = 0.0
        for t in order:
            key, ref = pairs[t]
            value, (gk, gr) = _loss_total(problem.batch.positivity, params[key], params[ref], cfg)
            total += float(value) / n
            grad[key] += gk / n
            grad[ref] += gr / n
        if not np.isfinite(total) or total > 1e9:
            raise RuntimeError(f"embedding optimization diverged at step {step} (loss={total})")
        trace.append((step, total))
        params -= lr * grad
    return params, trace


def finite_difference_gradient_oracle(positivity, key_emb, ref_emb, cfg):
    """Central differences with two kernel calls per embedding entry, the
    entry moved in place and put back."""
    key_emb, ref_emb = key_emb.copy(), ref_emb.copy()
    grads = []
    for base in (key_emb, ref_emb):
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            orig = base[idx]
            base[idx] = orig + _FD_STEP
            up, _ = _loss_total(positivity, key_emb, ref_emb, cfg)
            base[idx] = orig - _FD_STEP
            down, _ = _loss_total(positivity, key_emb, ref_emb, cfg)
            base[idx] = orig
            g[idx] = (up - down) / (2 * _FD_STEP)
        grads.append(g)
    return tuple(grads)


def stable_softmax_oracle(logits: np.ndarray, axis: int) -> np.ndarray:
    """Softmax with per-slice max subtraction; fully masked slices give 0."""
    finite_max = np.max(
        np.where(np.isfinite(logits), logits, -np.inf), axis=axis, keepdims=True
    )
    # slices with no finite entry: shift by 0, exp(-inf) = 0 handles the rest
    shift = np.where(np.isfinite(finite_max), finite_max, 0.0)
    with np.errstate(invalid="ignore"):
        e = np.exp(logits - shift)
    e = np.where(np.isfinite(logits), e, 0.0)
    denom = np.sum(e, axis=axis, keepdims=True)
    out = np.zeros_like(e)
    np.divide(e, denom, out=out, where=denom > 0)
    return out


def masked_bisoftmax_oracle(dets: np.ndarray, cands: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Bi-softmax with inadmissible (detection, candidate) pairs removed
    before normalization.

    ``allowed`` is an (N, M) boolean mask; disallowed pairs get -inf
    logits so each softmax normalizes over admissible pairs only.
    Entries whose pair is disallowed, and rows/columns with no admissible
    pair at all, come back as 0.
    """
    n = validate_embeddings(dets, name="detection embeddings")
    m = validate_embeddings(cands, dim=n.shape[1], name="candidate embeddings")
    if n.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("bi-softmax requires at least one detection and one candidate")
    allowed = np.asarray(allowed, dtype=bool)
    if allowed.shape != (n.shape[0], m.shape[0]):
        raise ValueError(f"mask shape {allowed.shape} does not match ({n.shape[0]}, {m.shape[0]})")
    logits = n @ m.T
    logits = np.where(allowed, logits, NEG_INF)
    return 0.5 * (stable_softmax_oracle(logits, axis=1) + stable_softmax_oracle(logits, axis=0))


def iou_matrix_oracle(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) arrays of xyxy boxes.

    Returns an (N, M) float64 matrix. Degenerate unions give 0.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ix1 = np.maximum(a[:, None, 0], b[None, :, 0])
    iy1 = np.maximum(a[:, None, 1], b[None, :, 1])
    ix2 = np.minimum(a[:, None, 2], b[None, :, 2])
    iy2 = np.minimum(a[:, None, 3], b[None, :, 3])
    iw = np.clip(ix2 - ix1, 0.0, None)
    ih = np.clip(iy2 - iy1, 0.0, None)
    inter = iw * ih
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0)
    return out


def nms_oracle(
    dets: list[tuple[BoundingBox, float, int]],
    iou_threshold: float,
    class_agnostic: bool = False,
) -> list[int]:
    """Greedy non-maximum suppression over (box, score, class_id) triples.

    Suppression is intra-class by default; with ``class_agnostic=True`` a
    kept box suppresses overlapping boxes of any class (inter-class NMS).
    Returns indices into ``dets`` in descending score order; score ties
    break toward the lower input index.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    if not dets:
        return []
    scores = np.array([d[1] for d in dets], dtype=np.float64)
    if not np.all(np.isfinite(scores)):
        raise ValueError("nms requires finite scores")
    # stable sort keeps lower input index first among equal scores
    order = np.argsort(-scores, kind="stable")
    boxes = np.stack([d[0].as_array() for d in dets])
    classes = np.array([d[2] for d in dets])
    overlaps = iou_matrix_oracle(boxes, boxes)

    keep: list[int] = []
    suppressed = np.zeros(len(dets), dtype=bool)
    for i in order:
        if suppressed[i]:
            continue
        keep.append(int(i))
        mask = overlaps[i] > iou_threshold
        if not class_agnostic:
            mask &= classes == classes[i]
        mask[i] = False
        suppressed |= mask
    return keep


@dataclass
class Track:
    """Persistent identity with a momentum-smoothed embedding."""

    track_id: int
    class_id: int
    embedding: np.ndarray
    last_box: BoundingBox
    last_active_frame: int
    created_frame: int
    history: list[tuple[int, BoundingBox, float]] = field(default_factory=list)


@dataclass
class Backdrop:
    """Unmatched detection kept as a matching candidate for a few frames."""

    embedding: np.ndarray
    box: BoundingBox
    class_id: int
    frame: int


@dataclass
class OracleTrackerState:
    """Mutable per-sequence state; one instance per video."""

    tracks: dict[int, Track] = field(default_factory=dict)
    retired: dict[int, Track] = field(default_factory=dict)
    backdrops: list[Backdrop] = field(default_factory=list)
    next_id: int = 1
    frame: int | None = None


def center_distance_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise center distance between two (N, 4) / (M, 4) arrays of xyxy
    boxes, as an (N, M) float64 matrix, by the float operations of
    ``geometry.center_distance``, so each entry equals the scalar result
    exactly."""
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ax, ay = 0.5 * (a[:, 0] + a[:, 2]), 0.5 * (a[:, 1] + a[:, 3])
    bx, by = 0.5 * (b[:, 0] + b[:, 2]), 0.5 * (b[:, 1] + b[:, 3])
    return np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :])


def within_oracle(boxes_a: list[BoundingBox], boxes_b: list[BoundingBox], radius: float) -> np.ndarray:
    """(N, M) mask of box pairs whose centers are at most ``radius`` apart."""
    a = np.array([(x.x1, x.y1, x.x2, x.y2) for x in boxes_a], dtype=np.float64)
    b = np.array([(x.x1, x.y1, x.x2, x.y2) for x in boxes_b], dtype=np.float64)
    return ~(center_distance_matrix(a, b) > radius)


def candidate_pools_oracle(state: OracleTrackerState, frame_index: int, cfg: TrackerConfig):
    """Tracks inactive at most memory_frames and backdrops at most
    backdrop_frames old, as parallel candidate arrays."""
    tracks = [
        t for t in state.tracks.values()
        if frame_index - t.last_active_frame <= cfg.memory_frames
    ]
    backdrops = [
        b for b in state.backdrops if frame_index - b.frame <= cfg.backdrop_frames
    ]
    return tracks, backdrops


def step_oracle(
    state: OracleTrackerState,
    frame_index: int,
    detections: list[Detection],
    cfg: TrackerConfig,
) -> list[tuple[int, Detection]]:
    """One association step.

    Pipeline: confidence floor, class-agnostic duplicate-removal NMS,
    similarity against tracks-within-memory plus live backdrops (class and
    distance masking applied pre-softmax), then greedy claiming in
    descending score order: match a free track, or be consumed by a
    backdrop, or start a new track (score above beta_new), or become a
    backdrop. Finally expired tracks and backdrops are purged.
    """
    if state.frame is not None and frame_index <= state.frame:
        raise ValueError(
            f"frame index must increase monotonically ({frame_index} after {state.frame})"
        )
    state.frame = frame_index

    dets = [d for d in detections if d.score >= cfg.det_confidence]
    if dets:
        keep = nms_oracle(
            [(d.box, d.score, d.class_id) for d in dets],
            cfg.nms_threshold,
            class_agnostic=True,
        )
        dets = [dets[i] for i in sorted(keep)]

    tracks, backdrops = candidate_pools_oracle(state, frame_index, cfg)
    n_tracks = len(tracks)

    # best candidate and its similarity per detection (-inf: no candidate)
    best = [0] * len(dets)
    best_conf = [-np.inf] * len(dets)
    if dets and (tracks or backdrops):
        det_emb = np.stack([d.embedding for d in dets])
        cand_emb = np.stack([t.embedding for t in tracks] + [b.embedding for b in backdrops])
        det_cls = np.array([d.class_id for d in dets])
        cand_cls = np.array([t.class_id for t in tracks] + [b.class_id for b in backdrops])
        allowed = det_cls[:, None] == cand_cls[None, :]
        if cfg.distance_gate is not None:
            cand_boxes = [t.last_box for t in tracks] + [b.box for b in backdrops]
            allowed &= within_oracle([d.box for d in dets], cand_boxes, cfg.distance_gate)
        if cfg.similarity_metric == "bisoftmax":
            sim = masked_bisoftmax_oracle(det_emb, cand_emb, allowed)
        else:
            sim = cosine_matrix(det_emb, cand_emb)
            sim = np.where(allowed, sim, -np.inf)
        best_j = np.argmax(sim, axis=1)
        best = best_j.tolist()
        best_conf = sim[np.arange(len(dets)), best_j].tolist()

    # greedy in descending detection score, ties by input index
    matches: list[tuple[int, Detection]] = []
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed: set[int] = set()
    m = cfg.momentum
    for i in order:
        det = dets[i]
        handled = False
        if best_conf[i] > _BETA_MATCH and det.score > cfg.beta_obj:
            j = best[i]
            if j < n_tracks:
                track = tracks[j]
                if track.track_id not in claimed:
                    # the momentum_update blend; both sides were validated
                    # when their Detection was built
                    track.embedding = m * det.embedding + (1.0 - m) * track.embedding
                    track.last_box = det.box
                    track.last_active_frame = frame_index
                    track.history.append((frame_index, det.box, det.score))
                    claimed.add(track.track_id)
                    matches.append((track.track_id, det))
                    handled = True
            else:
                handled = True  # consumed by a backdrop: no track touched
        if not handled:
            if det.score > cfg.beta_new:
                track = Track(
                    track_id=state.next_id,
                    class_id=det.class_id,
                    embedding=det.embedding.copy(),
                    last_box=det.box,
                    last_active_frame=frame_index,
                    created_frame=frame_index,
                    history=[(frame_index, det.box, det.score)],
                )
                state.tracks[track.track_id] = track
                state.next_id += 1
                claimed.add(track.track_id)
                matches.append((track.track_id, det))
            else:
                state.backdrops.append(
                    Backdrop(det.embedding.copy(), det.box, det.class_id, frame_index)
                )

    # purge expired state
    for tid in [
        tid for tid, t in state.tracks.items()
        if frame_index - t.last_active_frame > cfg.memory_frames
    ]:
        state.retired[tid] = state.tracks.pop(tid)
    state.backdrops = [
        b for b in state.backdrops if frame_index - b.frame <= cfg.backdrop_frames
    ]

    if cfg.merge:
        merge_tracklets_oracle(state)

    matches.sort(key=lambda p: p[0])
    return matches


def merge_tracklets_oracle(state: OracleTrackerState) -> OracleTrackerState:
    """Fold recently created tracks into matching vanished tracks.

    A track created within the last _MERGE_WINDOW frames may be absorbed
    by an inactive track of its class that was last active before the
    young track was created, whose bi-softmax match score exceeds
    _BETA_MERGE and whose last box lies within _MERGE_RADIUS pixels. Each
    vanished track absorbs at most one young track (best score wins); the
    young ID is retired and its history relabeled.
    """
    if state.frame is None:
        return state
    now = state.frame
    young = [
        t for t in state.tracks.values()
        if now - t.created_frame <= _MERGE_WINDOW and t.last_active_frame == now
    ]
    vanished = [t for t in state.tracks.values() if t.last_active_frame < now]
    if not young or not vanished:
        return state

    y_emb = np.stack([t.embedding for t in young])
    v_emb = np.stack([t.embedding for t in vanished])
    y_cls = np.array([t.class_id for t in young])
    v_cls = np.array([t.class_id for t in vanished])
    y_created = np.array([t.created_frame for t in young])
    v_last = np.array([t.last_active_frame for t in vanished])
    # a track that overlaps the vanished one in time would give one ID two
    # boxes in a frame
    allowed = (
        (y_cls[:, None] == v_cls[None, :])
        & (y_created[:, None] > v_last[None, :])
        & within_oracle([t.last_box for t in young], [t.last_box for t in vanished], _MERGE_RADIUS)
    )
    if not allowed.any():
        return state
    sim = masked_bisoftmax_oracle(y_emb, v_emb, allowed)

    # best young per vanished track, in descending score, ties by (i, j):
    # nonzero lists pairs row-major and the sort is stable
    ii, jj = np.nonzero(sim > _BETA_MERGE)
    order = np.argsort(-sim[ii, jj], kind="stable")
    used_young: set[int] = set()
    used_vanished: set[int] = set()
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if i in used_young or j in used_vanished:
            continue
        used_young.add(i)
        used_vanished.add(j)
        yt, vt = young[i], vanished[j]
        vt.history.extend(yt.history)
        vt.history.sort(key=lambda h: h[0])
        vt.embedding = yt.embedding.copy()
        vt.last_box = yt.last_box
        vt.last_active_frame = yt.last_active_frame
        del state.tracks[yt.track_id]
    return state


def assign_samples_oracle(regions, gts) -> list[RegionSample]:
    """``contrastive.assign_samples`` one region at a time, each labelled
    from its own row of the region x ground-truth IoU matrix."""
    if not gts:
        return [RegionSample(r, None, NEGATIVE, 0.0) for r in regions]
    overlaps = iou_matrix_oracle([r.as_array() for r in regions], [g.as_array() for g, _ in gts])
    out: list[RegionSample] = []
    for i, region in enumerate(regions):
        best = int(np.argmax(overlaps[i]))  # argmax takes the first max: lower gt index
        miou = float(overlaps[i, best])
        if miou > 0.7:
            out.append(RegionSample(region, gts[best][1], POSITIVE, miou))
        elif miou < 0.3:
            out.append(RegionSample(region, None, NEGATIVE, miou))
        else:
            out.append(RegionSample(region, None, IGNORED, miou))
    return out


def iou_balanced_draw_oracle(
    negatives: list[int],
    max_ious: np.ndarray,
    count: int,
    n_bins: int,
    upper: float,
    rng: np.random.Generator,
) -> list[int]:
    """Round-robin draw across equal-width IoU bins over [0, upper)."""
    edges = np.linspace(0.0, upper, n_bins + 1)
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for idx in negatives:
        b = min(int(np.searchsorted(edges, max_ious[idx], side="right")) - 1, n_bins - 1)
        b = max(b, 0)
        bins[b].append(idx)
    for b in bins:
        rng.shuffle(b)
    drawn: list[int] = []
    while len(drawn) < count:
        nonempty = [b for b in bins if b]
        if not nonempty:
            break
        for b in nonempty:
            if len(drawn) >= count:
                break
            drawn.append(b.pop())
    return drawn


def finish_oracle(state: OracleTrackerState, cfg: TrackerConfig):
    """``Tracker.finish`` on an oracle state: live and retired histories,
    interpolated if configured."""
    histories = {t.track_id: list(t.history) for t in state.retired.values()}
    histories.update({t.track_id: list(t.history) for t in state.tracks.values()})
    if cfg.interpolate:
        histories = interpolate_tracks_oracle(histories)
    return histories


def interpolate_tracks_oracle(histories):
    """``tracker.interpolate_tracks`` one inserted frame at a time: frame
    ``prev + k`` of a gap gets the ``BoundingBox`` of the blend at weight
    k / gap and the mean score of the gap's two ends."""
    out = {}
    for tid, hist in histories.items():
        hist = sorted(hist, key=lambda h: h[0])
        filled = []
        for prev, cur in zip(hist, hist[1:]):
            filled.append(prev)
            gap = cur[0] - prev[0]
            if gap > 1:
                a, b = prev[1].as_array(), cur[1].as_array()
                score = 0.5 * (prev[2] + cur[2])
                for k in range(1, gap):
                    w = k / gap
                    filled.append((prev[0] + k, BoundingBox(*((1 - w) * a + w * b)), score))
        if hist:
            filled.append(hist[-1])
        out[tid] = filled
    return out


def place_prototypes_oracle(n: int, dim: int, rng: np.random.Generator,
                            iters: int = 200, eta: float = 0.1) -> np.ndarray:
    """Prototype placement with a fixed step size: the loop that
    ``synth.place_prototypes`` ran before it learnt to back off from a step
    that raises the repulsion energy."""
    p = rng.standard_normal((n, dim))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    for _ in range(iters):
        sim = p @ p.T
        np.fill_diagonal(sim, 0.0)
        p = p - eta * (sim @ p)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
    return p


# ``synth.generate`` one object at a time, the reference for its per-frame
# arrays: one ``BoundingBox`` and ``Detection`` built and checked per object,
# each embedding normalized by ``np.linalg.norm`` of its own row. Each object
# draws its values one call at a time from the stream of their kind, so its
# draw sits where its row sits in ``generate``'s block.


def _jitter_box_oracle(box: BoundingBox, sigma: float, rng: np.random.Generator) -> BoundingBox:
    c = box.as_array() + sigma * rng.standard_normal(4)
    x1, x2 = sorted((c[0], c[2]))
    y1, y2 = sorted((c[1], c[3]))
    return BoundingBox(x1, y1, x2, y2)


def _noisy_embedding_oracle(proto: np.ndarray, sigma_e: float, rng: np.random.Generator) -> np.ndarray:
    e = proto + sigma_e * rng.standard_normal(proto.shape)
    norm = np.linalg.norm(e)
    if norm == 0.0:
        e = proto
        norm = 1.0
    return _TAU * e / norm


def positions_oracle(cfg: WorldConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """``synth._positions`` one frame at a time: the same draws, each
    frame's centres from start + t * velocity, then the border fold."""
    w, h = cfg.image_size
    margin = _BOX_SIZE_RANGE[1]
    lo, hi = np.array([margin, margin]), np.array([w - margin, h - margin])
    start = rng.uniform(lo, hi, size=(n, 2))
    pos = np.zeros((n, cfg.n_frames, 2))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    vel = cfg.speed * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    for t in range(cfg.n_frames):
        pos[:, t] = start + t * vel
    span = hi - lo
    folded = np.abs(np.mod(pos - lo, 2 * span) - span)
    return lo + np.minimum(folded, span)


def generate_oracle(cfg: WorldConfig, prototypes: np.ndarray | None = None) -> Scenario:
    """``synth.generate`` one object at a time, each drawing its values from
    the stream of their kind in the order of ``generate``'s blocks."""
    rng = np.random.default_rng(cfg.seed)
    n_proto = cfg.n_identities + cfg.n_distractors
    if prototypes is None:
        prototypes = place_prototypes(n_proto, cfg.dim, cfg.min_margin, rng)
    else:
        prototypes = np.asarray(prototypes, dtype=np.float64)
        if prototypes.shape != (n_proto, cfg.dim):
            raise ValueError(
                f"prototypes must have shape ({n_proto}, {cfg.dim}), got {prototypes.shape}"
            )
        norms = np.linalg.norm(prototypes, axis=1, keepdims=True)
        if (bad := np.flatnonzero(~((norms > 0) & (norms < np.inf)))).size:
            raise ValueError(f"prototype row {bad[0]} is zero or not finite")
        prototypes = prototypes / norms
        if (margin := _margin(prototypes)) < cfg.min_margin:
            raise ValueError(f"prototypes have margin {margin:.4f}, below min_margin {cfg.min_margin}")
    if cfg.n_distractors and cfg.distractor_affinity > 0:
        a = cfg.distractor_affinity
        prototypes = prototypes.copy()
        for d in range(cfg.n_distractors):
            j = cfg.n_identities + d
            target = prototypes[d % cfg.n_identities]
            mixed = a * target + (1.0 - a) * prototypes[j]
            prototypes[j] = mixed / np.linalg.norm(mixed)

    sizes = rng.uniform(*_BOX_SIZE_RANGE, size=(n_proto, 2))
    centers = positions_oracle(cfg, n_proto, rng)
    classes = np.arange(cfg.n_identities) % cfg.n_classes

    occluded: dict[int, set[int]] = {}
    for ident, first, last in cfg.occlusions:
        for t in range(first, last + 1):
            occluded.setdefault(t, set()).add(ident)

    def box_at(i: int, t: int) -> BoundingBox:
        cx, cy = centers[i, t]
        w2, h2 = sizes[i] / 2.0
        return BoundingBox(cx - w2, cy - h2, cx + w2, cy + h2)

    gt = TrackSet()
    detections: dict[int, list[Detection]] = {}
    det_identity: dict[int, list[int | None]] = {}
    img_w, img_h = cfg.image_size
    fn, jitter, score, noise, fp = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(5))

    for t in range(cfg.n_frames):
        dets: list[Detection] = []
        idents: list[int | None] = []
        hidden = occluded.get(t, set())
        for i in range(cfg.n_identities):
            box = box_at(i, t)
            visible = i not in hidden
            gt.add(t, ObjectEntry(i, int(classes[i]), box, visible))
            # every identity draws from each stream, seen or not
            missed = fn.random() < cfg.fn_rate
            jittered = _jitter_box_oracle(box, cfg.jitter_sigma, jitter)
            p = float(score.uniform(*_SCORE_RANGE))
            e = _noisy_embedding_oracle(prototypes[i], cfg.sigma_e, noise)
            if visible and not missed:
                dets.append(Detection(box=jittered, class_id=int(classes[i]), score=p, embedding=e))
                idents.append(i)
        for d in range(cfg.n_distractors):
            j = cfg.n_identities + d
            dets.append(
                Detection(
                    box=box_at(j, t),
                    class_id=int(classes[d % cfg.n_identities]),
                    score=float(score.uniform(*_DISTRACTOR_SCORE_RANGE)),
                    embedding=_noisy_embedding_oracle(prototypes[j], cfg.sigma_e, noise),
                )
            )
            idents.append(None)
        # every slot draws; then each kind of false-positive value in turn,
        # one false positive after another
        n_fp = sum(fp.random() < cfg.fp_rate for _ in range(cfg.n_identities))
        centers_fp = [fp.uniform([50, 50], [img_w - 50, img_h - 50]) for _ in range(n_fp)]
        halves = [fp.uniform(*_BOX_SIZE_RANGE, size=2) / 2.0 for _ in range(n_fp)]
        embeddings = [fp.standard_normal(cfg.dim) for _ in range(n_fp)]
        fp_classes = [int(fp.integers(cfg.n_classes)) for _ in range(n_fp)]
        for (cx, cy), (w2, h2), e, c in zip(centers_fp, halves, embeddings, fp_classes):
            dets.append(
                Detection(
                    box=BoundingBox(cx - w2, cy - h2, cx + w2, cy + h2),
                    class_id=c,
                    score=float(fp.uniform(*_FP_SCORE_RANGE)),
                    embedding=_TAU * e / np.linalg.norm(e),
                )
            )
            idents.append(None)
        detections[t] = dets
        det_identity[t] = idents
    return Scenario(gt, detections, det_identity, prototypes, cfg)


# Detection format v2, one value at a time: each embedding value is the
# hex of its own little-endian float64 bytes, packed and unpacked by struct
_DET_HEADER = "# embedtrack-detections v2 dim="


def _fmt(x: float) -> str:
    return repr(float(x))


def write_detections_oracle(fp, frames: dict[int, list[Detection]], dim: int) -> None:
    """Write per-frame detections in frame order."""
    fp.write(f"{_DET_HEADER}{dim}\n")
    for f in sorted(frames):
        for d in frames[f]:
            if d.embedding.shape[0] != dim:
                raise ValueError(
                    f"embedding dimension {d.embedding.shape[0]} does not match header dim {dim}"
                )
            b = d.box
            row = [str(f), str(d.class_id), _fmt(d.score),
                   _fmt(b.x1), _fmt(b.y1), _fmt(b.x2), _fmt(b.y2)]
            row.append("".join(struct.pack("<d", float(v)).hex() for v in d.embedding))
            fp.write(" ".join(row) + "\n")


def _embedding_oracle(field: str, dim: int) -> np.ndarray:
    if len(field) != 16 * dim:
        raise ValueError(f"embedding field has {len(field)} characters, expected {16 * dim} hex digits")
    for c in field:
        if c not in "0123456789abcdef":
            raise ValueError("embedding field holds a character other than 0-9 and a-f")
    values = [struct.unpack("<d", bytes.fromhex(field[i:i + 16]))[0] for i in range(0, len(field), 16)]
    return np.array(values, dtype=np.float64)


def read_detections_oracle(fp) -> tuple[int, dict[int, list[Detection]]]:
    """Parse a detection file; returns (dim, frame -> detections)."""
    header = fp.readline().strip()
    if header.startswith("# embedtrack-detections v1 "):
        raise FormatError("line 1: this is a v1 detection file, which is no longer read; "
                          "regenerate it with `embedtrack synth`")
    if not header.startswith(_DET_HEADER):
        raise FormatError("line 1: missing or invalid detection-file header")
    try:
        dim = int(header[len(_DET_HEADER):])
    except ValueError:
        raise FormatError("line 1: invalid dimension in header") from None
    if dim < 1:
        raise FormatError("line 1: invalid dimension in header")
    frames: dict[int, list[Detection]] = {}
    last_frame = None
    for lineno, line in enumerate(fp, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 8:
            raise FormatError(f"line {lineno}: expected 8 fields, got {len(parts)}")
        try:
            frame = int(parts[0])
            class_id = int(parts[1])
            score = float(parts[2])
            box = BoundingBox(*(float(p) for p in parts[3:7]))
            det = Detection(box, class_id, score, _embedding_oracle(parts[7], dim))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if last_frame is not None and frame < last_frame:
            raise FormatError(f"line {lineno}: frame indices must be non-decreasing")
        last_frame = frame
        frames.setdefault(frame, []).append(det)
    return dim, frames


# The per-metric evaluation that the one shared pass per class in
# ``embedtrack.metrics`` replaced, verbatim apart from the names: each
# metric builds its own frame arrays and IoU matrices, and each solve runs
# on the full matrix: CLEAR's through ``separate_match``, IDF1's on the
# dense (gt id, pred id) count matrix, HOTA's on each frame's score matrix.


def separate_match(overlaps: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
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


def separate_frames(gt: TrackSet, pred: TrackSet) -> tuple[Iterator[tuple[np.ndarray, ...]], int, int]:
    """Visible ground truth and all predictions, streamed as arrays in sorted
    frame order: per frame (gt indices, gt boxes, pred indices, pred boxes),
    with ids mapped to dense indices in sorted id order. Returns the stream
    and the numbers of distinct gt and pred ids."""
    order = sorted(set(gt.frames) | set(pred.frames))
    gts = [[e for e in gt.frames.get(f, ()) if e.visible] for f in order]
    prs = [pred.frames.get(f, []) for f in order]
    gt_ids = np.unique([e.obj_id for entries in gts for e in entries])
    if len(gt_ids) == 0:
        raise ValueError("ground truth has no visible objects")
    pr_ids = np.unique([e.obj_id for entries in prs for e in entries])

    def arrays(entries, ids):
        boxes = [(e.box.x1, e.box.y1, e.box.x2, e.box.y2) for e in entries]
        return (np.searchsorted(ids, [e.obj_id for e in entries]),
                np.array(boxes, dtype=np.float64).reshape(-1, 4))

    stream = (arrays(g, gt_ids) + arrays(p, pr_ids) for g, p in zip(gts, prs))
    return stream, len(gt_ids), len(pr_ids)


def separate_clear_mot(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> ClearMotResult:
    """CLEAR-MOT accumulation with match carry-over."""
    frames, n_gt_ids, n_pr_ids = separate_frames(gt, pred)
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
            r, c = separate_match(overlaps[np.ix_(rem_gt, rem_pr)], iou_threshold)
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


def separate_idf1(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> Idf1Result:
    """Identification F1: global trajectory-level bipartite assignment."""
    frames, n_gt_ids, n_pr_ids = separate_frames(gt, pred)
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


def separate_hota_matches(gt: TrackSet, pred: TrackSet) -> tuple[np.ndarray, ...]:
    """HOTA's matching as TrackEval computes it: a pre-pass sums, per
    (gt id, pred id) pair, IoU / (row sum + column sum - IoU) over all
    frames, which gives the alignment score A = sum / (n_gt_id + n_pred_id
    - sum); then each frame is matched once, maximizing the total A * IoU.

    Returns one key (gt index * number of pred ids + pred index) and the IoU
    of each matched pair with non-zero IoU, in frame order, and the number
    of boxes of each gt id and each pred id.
    """
    frames, n_gt_ids, n_pr_ids = separate_frames(gt, pred)
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


def separate_hota(gt: TrackSet, pred: TrackSet) -> HotaResult:
    """HOTA with DetA/AssA decomposition, averaged over alpha: the TPs at
    alpha are the pairs of the one matching per frame with IoU >= alpha -
    eps."""
    keys, matched_iou, gt_total, pr_total = separate_hota_matches(gt, pred)
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
    return HotaResult(**separate_hota_means(**raw), **raw)


def separate_hota_means(tp, fn, fp, ass_sum, assre_sum, asspr_sum) -> dict[str, float]:
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


def _blank_row() -> ClassMetrics:
    """A row to fill in: its ten scores None, its nine counts 0."""
    return ClassMetrics(*[None] * 10, *[0] * 9)


def separate_per_class_report(gt: TrackSet, pred: TrackSet, iou_threshold: float = 0.5) -> EvalReport:
    """Evaluate each class independently and aggregate by summing counts.

    Classes appearing only in predictions contribute their false positives
    to the aggregate but are excluded from the mMOTA/mIDF1 class means.
    """
    classes = sorted(class_ids(gt) | class_ids(pred))
    per_class: dict[int, ClassMetrics] = {}
    motas, idf1s = [], []
    agg = _blank_row()
    # per alpha: tp, fn, fp, ass_sum, assre_sum, asspr_sum summed over classes
    hota_raw = np.zeros((6, len(HOTA_ALPHAS)))
    sum_iou_weighted = 0.0
    total_matches = 0

    for c in classes:
        gt_c = restrict_class(gt, c)
        pr_c = restrict_class(pred, c)
        cm = _blank_row()
        n_gt = num_boxes(gt_c)
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
        clear = separate_clear_mot(gt_c, pr_c, iou_threshold)
        ident = separate_idf1(gt_c, pr_c, iou_threshold)
        h = separate_hota(gt_c, pr_c)
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
        for key, value in separate_hota_means(*hota_raw).items():
            setattr(agg, key, value)

    mmota = float(np.mean(motas)) if motas else None
    midf1 = float(np.mean(idf1s)) if idf1s else None
    return EvalReport(per_class, agg, mmota, midf1)
