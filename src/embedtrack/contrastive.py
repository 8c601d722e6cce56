"""Quasi-dense sample assignment and the contrastive embedding objective.

Region samples from a key/reference frame pair are matched densely: every
key sample against every reference sample, positive iff both are assigned
to the same ground-truth instance. Three embedding-loss variants are
supported (single-positive InfoNCE, its naive multi-positive sum, and the
accumulated multi-positive form), plus an auxiliary L2 loss on cosine
similarity. Gradients are analytic; a finite-difference helper is provided
for checking them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import BoundingBox, box_array, iou_matrix
from .similarity import validate_embeddings

__all__ = [
    "POSITIVE",
    "NEGATIVE",
    "IGNORED",
    "RegionSample",
    "SampleBatch",
    "LossConfig",
    "assign_samples",
    "sample_batch",
    "loss_total",
    "finite_difference_gradient",
    "aux_selection_margin",
    "IndexedBatch",
    "ToyProblem",
    "make_toy_problem",
    "optimize_embeddings",
    "cross_frame_nn_accuracy",
]

POSITIVE = "positive"
NEGATIVE = "negative"
IGNORED = "ignored"

VARIANTS = ("single_positive", "naive_multi", "accumulated_multi")

# reference negatives are drawn round-robin from _N_IOU_BINS equal-width
# bins over [0, _NEG_IOU_UPPER)
_N_IOU_BINS, _NEG_IOU_UPPER = 3, 0.3
_FD_STEP = 1e-5  # of the central differences in finite_difference_gradient
_TOY_INIT_SCALE = 0.1  # of the toy problem's random initial embeddings


@dataclass
class RegionSample:
    """A region proposal labeled against ground truth."""

    box: BoundingBox
    identity: int | None
    polarity: str
    max_iou: float
    embedding: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.polarity not in (POSITIVE, NEGATIVE, IGNORED):
            raise ValueError(f"unknown polarity {self.polarity!r}")
        if self.polarity == POSITIVE and self.identity is None:
            raise ValueError("positive sample requires an identity")
        if self.polarity == NEGATIVE and self.identity is not None:
            raise ValueError("negative sample must not carry an identity")


@dataclass
class SampleBatch:
    """Key/reference samples with their pairwise positivity matrix."""

    key: list[RegionSample]
    ref: list[RegionSample]
    positivity: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        codes: dict = {}  # identity -> dense code shared by both frames, -1 if not positive
        key, ref = (
            np.array([codes.setdefault(s.identity, len(codes)) if s.polarity == POSITIVE else -1
                      for s in samples], dtype=np.intp) for samples in (self.key, self.ref))
        self.positivity = (key[:, None] == ref[None, :]) & (key[:, None] >= 0)

    def embeddings(self) -> tuple[np.ndarray, np.ndarray]:
        """Stack the per-sample embeddings into (V, D) and (K, D) arrays."""
        if any(s.embedding is None for s in self.key + self.ref):
            raise ValueError("batch has samples without embeddings")
        return (
            np.stack([s.embedding for s in self.key]).astype(np.float64),
            np.stack([s.embedding for s in self.ref]).astype(np.float64),
        )


@dataclass
class LossConfig:
    """Weights and variant selection for the total objective."""

    gamma1: float = 0.25
    gamma2: float = 1.0
    aux_neg_ratio: int = 3
    variant: str = "accumulated_multi"

    def __post_init__(self) -> None:
        for name in ("gamma1", "gamma2"):
            if not 0.0 <= getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        if not isinstance(self.aux_neg_ratio, (int, np.integer)) or self.aux_neg_ratio < 0:
            raise ValueError(f"aux_neg_ratio must be an int >= 0, got {self.aux_neg_ratio!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")


def assign_samples(
    regions: Sequence[BoundingBox],
    gts: Sequence[tuple[BoundingBox, int]],
    alpha1: float = 0.7,
    alpha2: float = 0.3,
) -> list[RegionSample]:
    """Label regions positive/negative/ignored by max IoU against ground truth.

    A region is positive (with the identity of its best-overlapping ground
    truth) if max IoU > alpha1, negative if max IoU < alpha2, ignored in
    between. IoU ties break toward the lower ground-truth index. With no
    ground truths every region is negative with max_iou 0.
    """
    if alpha2 > alpha1:
        raise ValueError(f"alpha2 ({alpha2}) must not exceed alpha1 ({alpha1})")
    if not gts:
        return [RegionSample(r, None, NEGATIVE, 0.0) for r in regions]
    overlaps = iou_matrix(box_array(regions), box_array(g[0] for g in gts))
    out: list[RegionSample] = []
    for i, region in enumerate(regions):
        best = int(np.argmax(overlaps[i]))  # argmax takes the first max: lower gt index
        miou = float(overlaps[i, best])
        if miou > alpha1:
            out.append(RegionSample(region, gts[best][1], POSITIVE, miou))
        elif miou < alpha2:
            out.append(RegionSample(region, None, NEGATIVE, miou))
        else:
            out.append(RegionSample(region, None, IGNORED, miou))
    return out


def _iou_balanced_draw(
    negatives: list[int],
    max_ious: np.ndarray,
    count: int,
    n_bins: int,
    upper: float,
    rng: np.random.Generator,
) -> list[int]:
    """Round-robin draw across equal-width IoU bins over [0, upper)."""
    edges = np.linspace(0.0, upper, n_bins + 1)
    which = np.searchsorted(edges, max_ious[negatives], side="right") - 1
    bins: list[list[int]] = [[] for _ in range(n_bins)]
    for idx, b in zip(negatives, np.clip(which, 0, n_bins - 1).tolist()):
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


def sample_batch(
    key_samples: Sequence[RegionSample],
    ref_samples: Sequence[RegionSample],
    rng_seed: int,
    sizes: tuple[int, int] = (128, 256),
) -> SampleBatch:
    """Subsample labeled regions into a training batch.

    Key samples are drawn uniformly from all non-ignored candidates.
    Reference positives, half the batch, are drawn uniformly; reference
    negatives use IoU-balanced sampling (equal-width bins over [0, 0.3),
    round-robin across non-empty bins). Partial fill is allowed when a
    pool is short. Deterministic under a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    v_size, k_size = sizes

    key_pool = [s for s in key_samples if s.polarity != IGNORED]
    ref_pos = [i for i, s in enumerate(ref_samples) if s.polarity == POSITIVE]
    ref_neg = [i for i, s in enumerate(ref_samples) if s.polarity == NEGATIVE]
    key_pos_count = sum(1 for s in key_pool if s.polarity == POSITIVE)
    if key_pos_count == 0 or not ref_pos:
        raise ValueError("batch has no positive pairs")

    key_idx = rng.permutation(len(key_pool))[:v_size]
    keys = [key_pool[i] for i in sorted(key_idx)]

    n_pos = min(len(ref_pos), round(k_size / 2))
    pos_idx = list(rng.permutation(np.array(ref_pos))[:n_pos])

    n_neg = min(len(ref_neg), k_size - n_pos)
    max_ious = np.array([s.max_iou for s in ref_samples])
    neg_idx = _iou_balanced_draw(ref_neg, max_ious, n_neg, _N_IOU_BINS, _NEG_IOU_UPPER, rng)

    refs = [ref_samples[i] for i in sorted(int(i) for i in pos_idx + neg_idx)]
    return SampleBatch(key=keys, ref=refs)


# ---------------------------------------------------------------------------
# Losses and gradients
# ---------------------------------------------------------------------------


def _embed_value_and_grad(
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
    samples that have at least one positive. All rows at once: one (V, K)
    pair-weight matrix W gives the gradients W @ ref_emb and W.T @ key_emb.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown loss variant {variant!r}")
    active = positivity.any(axis=1)
    if not active.any():
        raise ValueError("batch has no positive pairs")
    inv_n = 1.0 / np.count_nonzero(active)
    # A row with no negative has loss log(1 + 0) = 0: it counts in n, adds nothing.
    live = np.flatnonzero(active & ~positivity.all(axis=1))
    pos = positivity[live]
    v = key_emb[live]
    dots = v @ ref_emb.T  # (rows, K)
    bmax = dots.max(axis=1, where=~pos, initial=-np.inf)
    eb = np.exp(dots - bmax[:, None], out=np.zeros_like(dots), where=~pos)
    sb = eb.sum(axis=1)  # eb / sb: softmax over negative dots, 0 on positives
    if variant == "accumulated_multi":
        amin = dots.min(axis=1, where=pos, initial=np.inf)
        ea = np.exp(amin[:, None] - dots, out=np.zeros_like(dots), where=pos)
        sa = ea.sum(axis=1)
        # L = log(1 + exp(lse(-a) + lse(b)))
        z = (bmax - amin) + np.log(sa) + np.log(sb)
        L = np.logaddexp(0.0, z)
        w = np.exp(z - L)  # total pair weight, = S / (1 + S)
        total = inv_n * L.sum()
        # sum_p w_pn per negative n minus sum_n w_pn per positive p
        W = (inv_n * w / sb)[:, None] * eb - (inv_n * w / sa)[:, None] * ea
    else:
        # per-positive InfoNCE: L_p = log(1 + sum_n exp(b_n - a_p))
        x = (bmax + np.log(sb))[:, None] - dots
        Lp = np.logaddexp(0.0, x, out=np.zeros_like(dots), where=pos)
        wp = np.exp(x - Lp, out=np.zeros_like(dots), where=pos)  # per-positive negative weight
        scale = inv_n / (pos.sum(axis=1, keepdims=True) if variant == "single_positive" else 1)
        total = (scale * Lp).sum()
        W = scale * (wp.sum(axis=1, keepdims=True) / sb[:, None] * eb - wp)
    g_key = np.zeros_like(key_emb)
    g_key[live] = W @ ref_emb
    return float(total), g_key, W.T @ v


def _hardest(vals: np.ndarray, n: int) -> np.ndarray:
    """Indices of the n largest values, largest first and ties by lower
    index: np.argsort(-vals, kind="stable")[:n] without sorting the rest."""
    if n == 0:
        return np.zeros(0, dtype=np.intp)
    keys = -vals
    cut = np.partition(keys, n - 1)[n - 1]
    above = np.flatnonzero(keys < cut)
    ties = np.flatnonzero(keys == cut)[: n - above.size]
    sel = np.concatenate([above, ties])
    return sel[np.argsort(keys[sel], kind="stable")]


def _aux_pairs(
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
    order = _hardest(cos[ni, nj], n_hard)
    rows = np.concatenate([pi, ni[order]])
    cols = np.concatenate([pj, nj[order]])
    targets = np.concatenate([np.ones(pi.size), np.zeros(n_hard)])
    return rows, cols, targets


def _cosine_and_norms(key_emb: np.ndarray, ref_emb: np.ndarray):
    kn = np.linalg.norm(key_emb, axis=1)
    rn = np.linalg.norm(ref_emb, axis=1)
    if np.any(kn == 0) or np.any(rn == 0):
        raise ValueError("zero-norm embedding in auxiliary loss")
    cos = (key_emb / kn[:, None]) @ (ref_emb / rn[:, None]).T
    return cos, kn, rn


def _aux_value_and_grad(
    positivity: np.ndarray,
    key_emb: np.ndarray,
    ref_emb: np.ndarray,
    neg_ratio: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Auxiliary L2 loss (cos - c)^2 with analytic gradients; mean over all
    positive pairs and the hard-mined negatives. The selected pairs are
    unique, so their coefficients scatter into dense (V, K) matrices."""
    cos, kn, rn = _cosine_and_norms(key_emb, ref_emb)
    rows, cols, targets = _aux_pairs(positivity, cos, neg_ratio)
    c = cos[rows, cols]
    resid = c - targets
    value = float(np.mean(resid**2))
    coef = 2.0 * resid / rows.size
    A, B = np.zeros((2,) + cos.shape)
    A[rows, cols] = coef / (kn[rows] * rn[cols])
    B[rows, cols] = coef * c
    g_key = A @ ref_emb - (B.sum(axis=1) / kn**2)[:, None] * key_emb
    g_ref = A.T @ key_emb - (B.sum(axis=0) / rn**2)[:, None] * ref_emb
    return value, g_key, g_ref


def aux_selection_margin(batch: SampleBatch, embeddings=None, neg_ratio: int = 3) -> float:
    """Cosine gap at the hard-negative cutoff of the auxiliary loss.

    The aux loss is non-smooth where the hard-negative selection changes;
    finite-difference gradient checks should only run where this margin is
    comfortably positive. Returns inf when no negative is excluded.
    """
    key_emb, ref_emb = embeddings if embeddings is not None else batch.embeddings()
    cos, _, _ = _cosine_and_norms(key_emb, ref_emb)
    n_pos = np.count_nonzero(batch.positivity)
    vals = cos[~batch.positivity]
    n_hard = min(vals.size, neg_ratio * n_pos)
    if n_hard == vals.size:
        return float("inf")
    # (n_hard+1)-th and n_hard-th largest; at n_hard == 0 the latter wraps to the smallest
    k = [vals.size - 1 - n_hard, vals.size - 1 - (n_hard - 1) % vals.size]
    part = np.partition(vals, k)
    return float(part[k[1]] - part[k[0]])


def _check_embeddings(batch: SampleBatch, embeddings):
    if embeddings is None:
        key_emb, ref_emb = batch.embeddings()
    else:
        key_emb, ref_emb = embeddings
    key_emb = validate_embeddings(key_emb, name="key embeddings")
    ref_emb = validate_embeddings(ref_emb, dim=key_emb.shape[1], name="ref embeddings")
    if key_emb.shape[0] != len(batch.key) or ref_emb.shape[0] != len(batch.ref):
        raise ValueError("embedding counts do not match batch sizes")
    return key_emb, ref_emb


def loss_total(
    batch: SampleBatch,
    embeddings=None,
    cfg: LossConfig | None = None,
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Weighted total loss and its analytic gradient w.r.t. all embeddings.

    Returns (value, (d/d key_embeddings, d/d ref_embeddings)). The detector
    term of the full objective is out of scope here, so the total is
    gamma1 * embedding loss + gamma2 * auxiliary loss. Constituents with a
    zero weight are skipped entirely.
    """
    key_emb, ref_emb = _check_embeddings(batch, embeddings)
    return _loss_total(batch.positivity, key_emb, ref_emb, cfg or LossConfig())


def _loss_total(
    positivity: np.ndarray, key_emb: np.ndarray, ref_emb: np.ndarray, cfg: LossConfig
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """``loss_total`` on embeddings that ``_check_embeddings`` accepted."""
    value = 0.0
    g_key = np.zeros_like(key_emb)
    g_ref = np.zeros_like(ref_emb)
    if cfg.gamma1 > 0:
        v, gk, gr = _embed_value_and_grad(positivity, key_emb, ref_emb, cfg.variant)
        value += cfg.gamma1 * v
        g_key += cfg.gamma1 * gk
        g_ref += cfg.gamma1 * gr
    if cfg.gamma2 > 0:
        v, gk, gr = _aux_value_and_grad(positivity, key_emb, ref_emb, cfg.aux_neg_ratio)
        value += cfg.gamma2 * v
        g_key += cfg.gamma2 * gk
        g_ref += cfg.gamma2 * gr
    return value, (g_key, g_ref)


def finite_difference_gradient(
    batch: SampleBatch,
    embeddings,
    cfg: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of loss_total, the independent oracle
    for the analytic gradients. The embeddings are checked once; each
    perturbed evaluation skips the check."""
    key_emb, ref_emb = _check_embeddings(batch, embeddings)
    grads = []
    for base in (key_emb, ref_emb):
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            orig = base[idx]
            base[idx] = orig + _FD_STEP
            up, _ = _loss_total(batch.positivity, key_emb, ref_emb, cfg)
            base[idx] = orig - _FD_STEP
            down, _ = _loss_total(batch.positivity, key_emb, ref_emb, cfg)
            base[idx] = orig
            g[idx] = (up - down) / (2 * _FD_STEP)
        grads.append(g)
    return tuple(grads)


# ---------------------------------------------------------------------------
# Desk-scale embedding optimization
# ---------------------------------------------------------------------------


@dataclass
class IndexedBatch:
    """A sample batch whose embeddings live in a shared parameter matrix."""

    batch: SampleBatch
    key_ids: np.ndarray
    ref_ids: np.ndarray


@dataclass
class ToyProblem:
    """A small multi-frame world for optimizing embeddings directly."""

    params: np.ndarray  # (n_samples, D) free embedding parameters
    batches: list[IndexedBatch]
    identity: np.ndarray  # (n_samples,) instance id per sample
    frame: np.ndarray  # (n_samples,) frame index per sample


def make_toy_problem(
    n_identities: int,
    n_frames: int,
    dim: int,
    seed: int,
) -> ToyProblem:
    """Build consecutive-frame batches where every identity appears once
    per frame; embeddings start as small random vectors."""
    if n_identities < 2:
        raise ValueError("need at least two identities for negatives to exist")
    rng = np.random.default_rng(seed)
    n_samples = n_identities * n_frames
    params = _TOY_INIT_SCALE * rng.standard_normal((n_samples, dim))
    identity = np.tile(np.arange(n_identities), n_frames)
    frame = np.repeat(np.arange(n_frames), n_identities)
    unit = BoundingBox(0, 0, 1, 1)

    def frame_samples(t: int) -> list[RegionSample]:
        return [
            RegionSample(unit, int(i), POSITIVE, 1.0)
            for i in range(n_identities)
        ]

    batches = []
    for t in range(n_frames - 1):
        b = SampleBatch(key=frame_samples(t), ref=frame_samples(t + 1))
        key_ids = np.arange(n_identities) + t * n_identities
        ref_ids = np.arange(n_identities) + (t + 1) * n_identities
        batches.append(IndexedBatch(b, key_ids, ref_ids))
    return ToyProblem(params, batches, identity, frame)


def optimize_embeddings(
    problem: ToyProblem,
    cfg: LossConfig,
    steps: int,
    lr: float,
    rng_seed: int = 0,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Plain gradient descent on the total loss, embeddings as free
    parameters.

    Each step visits every batch in a seed-shuffled order, accumulates the
    mean gradient into the shared parameter matrix and takes one descent
    step. Deterministic under a fixed seed. Raises on divergence (loss
    above 1e9 or non-finite), naming the step.
    """
    rng = np.random.default_rng(rng_seed)
    params = problem.params.copy()
    trace: list[tuple[int, float]] = []
    n = len(problem.batches)
    for step in range(steps):
        order = rng.permutation(n)
        grad = np.zeros_like(params)
        total = 0.0
        for bi in order:
            ib = problem.batches[bi]
            emb = (params[ib.key_ids], params[ib.ref_ids])
            value, (gk, gr) = loss_total(ib.batch, emb, cfg)
            total += value / n
            np.add.at(grad, ib.key_ids, gk / n)
            np.add.at(grad, ib.ref_ids, gr / n)
        if not np.isfinite(total) or total > 1e9:
            raise RuntimeError(f"embedding optimization diverged at step {step} (loss={total})")
        trace.append((step, total))
        params -= lr * grad
    return params, trace


def cross_frame_nn_accuracy(
    params: np.ndarray,
    identity: np.ndarray,
    frame: np.ndarray,
) -> float:
    """Fraction of samples whose cosine nearest neighbor in the next frame
    shares their identity."""
    frames = np.unique(frame)
    norm = np.linalg.norm(params, axis=1, keepdims=True)
    unit = params / np.where(norm > 0, norm, 1.0)
    correct = 0
    total = 0
    for t in frames[:-1]:
        cur = np.flatnonzero(frame == t)
        nxt = np.flatnonzero(frame == t + 1)
        if nxt.size == 0:
            continue
        sim = unit[cur] @ unit[nxt].T
        nearest = nxt[np.argmax(sim, axis=1)]
        correct += int(np.sum(identity[cur] == identity[nearest]))
        total += cur.size
    return correct / total if total else 0.0
