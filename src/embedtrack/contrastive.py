"""Quasi-dense sample assignment and the contrastive embedding objective.

Region samples from a key/reference frame pair are matched densely: every
key sample against every reference sample, positive iff both are assigned
to the same ground-truth instance. Three embedding-loss variants are
supported (single-positive InfoNCE, its naive multi-positive sum, and the
accumulated multi-positive form), plus an auxiliary L2 loss on cosine
similarity. Gradients are analytic; a finite-difference helper is provided
for checking them.

The loss kernels take a stack of pairs: (..., V, D) key and (..., K, D)
reference embeddings that share one (V, K) positivity, scored slice by
slice in one call. ``loss_total`` passes one pair, ``optimize_embeddings``
every consecutive-frame pair of a step, and ``finite_difference_gradient``
its perturbed copies of one pair.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .config import check_fields, check_range
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
    "ToyProblem",
    "make_toy_problem",
    "optimize_embeddings",
    "cross_frame_nn_accuracy",
]

POSITIVE = "positive"
NEGATIVE = "negative"
IGNORED = "ignored"

VARIANTS = ("single_positive", "naive_multi", "accumulated_multi")

# a region is positive above _ALPHA1 max IoU with ground truth, negative below _ALPHA2
_ALPHA1, _ALPHA2 = 0.7, 0.3
_BATCH_SIZES = (128, 256)  # key and reference samples drawn per batch
# reference negatives are drawn round-robin from _N_IOU_BINS equal-width
# bins over [0, _NEG_IOU_UPPER)
_N_IOU_BINS, _NEG_IOU_UPPER = 3, 0.3
_FD_STEP = 1e-5  # of the central differences in finite_difference_gradient
# floats of embeddings and (V, K) cells that one stacked call of
# finite_difference_gradient scores: its temporaries stay near those of one
# large loss_total call
_FD_STACK_FLOATS = 2**16
_TOY_INIT_SCALE = 0.1  # of the toy problem's random initial embeddings
_AUX_NEG_RATIO = 3  # hardest negatives the auxiliary loss keeps per positive pair


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


@dataclass(frozen=True)
class LossConfig:
    """Weights and variant selection for the total objective."""

    gamma1: float = 0.25
    gamma2: float = 1.0
    variant: str = "accumulated_multi"

    def __post_init__(self) -> None:
        check_fields(self)
        check_range(self, ("gamma1", "gamma2"), lambda v: 0.0 <= v < np.inf, "finite and >= 0")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")


def assign_samples(
    regions: Sequence[BoundingBox],
    gts: Sequence[tuple[BoundingBox, int]],
) -> list[RegionSample]:
    """Label regions positive/negative/ignored by max IoU against ground truth.

    A region is positive (with the identity of its best-overlapping ground
    truth) if max IoU > 0.7, negative if max IoU < 0.3, ignored in
    between. IoU ties break toward the lower ground-truth index. With no
    ground truths every region is negative with max_iou 0.
    """
    if not gts:
        return [RegionSample(r, None, NEGATIVE, 0.0) for r in regions]
    overlaps = iou_matrix(box_array(regions), box_array(g[0] for g in gts))
    best = overlaps.argmax(axis=1)  # argmax takes the first max: lower gt index
    miou = overlaps.max(axis=1)
    band = 1 + (miou > _ALPHA1) - (miou < _ALPHA2)  # 0, 1, 2: negative, ignored, positive
    return [RegionSample(r, gts[b][1] if k == 2 else None, (NEGATIVE, IGNORED, POSITIVE)[k], m)
            for r, b, k, m in zip(regions, best.tolist(), band.tolist(), miou.tolist())]


def _iou_balanced_draw(
    negatives: list[int],
    max_ious: np.ndarray,
    count: int,
    n_bins: int,
    upper: float,
    rng: np.random.Generator,
) -> list[int]:
    """Round-robin draw across equal-width IoU bins over [0, upper): each
    bin is shuffled, then round r pops the r-th last entry of every bin
    that still has one, bins in order."""
    edges = np.linspace(0.0, upper, n_bins + 1)
    negatives = np.asarray(negatives, dtype=np.intp)
    which = np.clip(np.searchsorted(edges, max_ious[negatives], side="right") - 1, 0, n_bins - 1)
    bins = [negatives[which == b] for b in range(n_bins)]
    for b in bins:
        rng.shuffle(b)
    rounds = np.concatenate([np.arange(b.size)[::-1] for b in bins])
    order = np.lexsort((np.repeat(np.arange(n_bins), [b.size for b in bins]), rounds))
    return np.concatenate(bins)[order][:count].tolist()


def sample_batch(
    key_samples: Sequence[RegionSample],
    ref_samples: Sequence[RegionSample],
    rng_seed: int,
) -> SampleBatch:
    """Subsample labeled regions into a training batch of at most 128 key
    and 256 reference samples.

    Key samples are drawn uniformly from all non-ignored candidates.
    Reference positives, half the batch, are drawn uniformly; reference
    negatives use IoU-balanced sampling (equal-width bins over [0, 0.3),
    round-robin across non-empty bins). Partial fill is allowed when a
    pool is short. Deterministic under a fixed seed.
    """
    rng = np.random.default_rng(rng_seed)
    v_size, k_size = _BATCH_SIZES

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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Embedding loss with analytic gradients w.r.t. both embedding sets,
    for a stack of (..., V, D) key and (..., K, D) reference embeddings
    that share one (V, K) positivity. Returns the (...) losses and the
    gradients in the shapes of the embeddings.

    Per key sample with P positives and negatives N (all non-positive
    reference samples), the accumulated form is
    log[1 + sum_{p,n} exp(v.k_n - v.k_p)], which factorizes as
    log(1 + exp(lse(-a) + lse(b))) over positive dots a and negative dots
    b; gradients follow from softmax weights over the pair terms. The
    single-positive variant averages the per-positive InfoNCE losses, the
    naive multi-positive variant sums them. Result is the mean over key
    samples that have at least one positive. All rows at once: one (V, K)
    pair-weight matrix W per slice gives the gradients W @ ref_emb and
    W.T @ key_emb. The row sets come from the positivity, once per call.
    """
    active = positivity.any(axis=1)
    inv_n = 1.0 / np.count_nonzero(active)
    # A row with no negative has loss log(1 + 0) = 0: it counts in n, adds nothing.
    live = np.flatnonzero(active & ~positivity.all(axis=1))
    pos = positivity[live]
    # take, not key_emb[..., live, :]: that index puts the stack axis innermost,
    # and matmul then sums a slice in another order than on the slice alone
    v = key_emb.take(live, axis=-2)
    dots = v @ ref_emb.swapaxes(-1, -2)  # (..., rows, K)
    bmax = dots.max(axis=-1, where=~pos, initial=-np.inf)
    eb = np.exp(dots - bmax[..., None], out=np.zeros_like(dots), where=~pos)
    sb = eb.sum(axis=-1)  # eb / sb: softmax over negative dots, 0 on positives
    if variant == "accumulated_multi":
        amin = dots.min(axis=-1, where=pos, initial=np.inf)
        ea = np.exp(amin[..., None] - dots, out=np.zeros_like(dots), where=pos)
        sa = ea.sum(axis=-1)
        # L = log(1 + exp(lse(-a) + lse(b)))
        z = (bmax - amin) + np.log(sa) + np.log(sb)
        L = np.logaddexp(0.0, z)
        w = np.exp(z - L)  # total pair weight, = S / (1 + S)
        total = inv_n * L.sum(axis=-1)
        # sum_p w_pn per negative n minus sum_n w_pn per positive p
        W = (inv_n * w / sb)[..., None] * eb - (inv_n * w / sa)[..., None] * ea
    else:
        # per-positive InfoNCE: L_p = log(1 + sum_n exp(b_n - a_p))
        x = (bmax + np.log(sb))[..., None] - dots
        Lp = np.logaddexp(0.0, x, out=np.zeros_like(dots), where=pos)
        wp = np.exp(x - Lp, out=np.zeros_like(dots), where=pos)  # per-positive negative weight
        scale = inv_n / (pos.sum(axis=1, keepdims=True) if variant == "single_positive" else 1)
        total = (scale * Lp).reshape(dots.shape[:-2] + (pos.size,)).sum(axis=-1)
        W = scale * (wp.sum(axis=-1, keepdims=True) / sb[..., None] * eb - wp)
    g_key = np.zeros_like(key_emb)
    g_key[..., live, :] = W @ ref_emb
    return total, g_key, W.swapaxes(-1, -2) @ v


def _hardest(vals: np.ndarray, n: int) -> np.ndarray:
    """Per row of vals (..., N), the indices of its n largest values,
    largest first and ties by lower index:
    np.argsort(-vals, axis=-1, kind="stable")[..., :n] without sorting the rest."""
    if n == 0:
        return np.zeros(vals.shape[:-1] + (0,), dtype=np.intp)
    keys = -vals
    cut = np.partition(keys, n - 1, axis=-1)[..., n - 1 : n]
    above, ties = keys < cut, keys == cut
    spare = n - np.count_nonzero(above, axis=-1, keepdims=True)  # places left for ties
    if (np.count_nonzero(ties, axis=-1, keepdims=True) > spare).any():
        ties &= np.cumsum(ties, axis=-1) <= spare  # the lowest-index ties fill them
    sel = np.nonzero(above | ties)[-1].reshape(vals.shape[:-1] + (n,))
    order = np.argsort(np.take_along_axis(keys, sel, axis=-1), axis=-1, kind="stable")
    return np.take_along_axis(sel, order, axis=-1)


def _aux_pairs(
    positivity: np.ndarray,
    cos: np.ndarray,
    neg_ratio: int,
) -> tuple[np.ndarray, np.ndarray]:
    """All positive pairs plus the neg_ratio x |positives| hardest negatives
    (highest cosine) of each (V, K) slice of cos (..., V, K). Returns
    (cells, targets): the pairs as (..., pairs) flat indices into a slice's
    V x K cells, row-major, positives first; and the (pairs,) targets."""
    pos = np.flatnonzero(positivity)
    neg = np.flatnonzero(~positivity)
    n_hard = min(neg.size, neg_ratio * pos.size)
    lead = cos.shape[:-2]
    hard = neg[_hardest(cos.reshape(lead + (positivity.size,))[..., neg], n_hard)]
    cells = np.concatenate([np.broadcast_to(pos, lead + pos.shape), hard], axis=-1)
    targets = np.concatenate([np.ones(pos.size), np.zeros(n_hard)])
    return cells, targets


def _cosine_and_norms(key_emb: np.ndarray, ref_emb: np.ndarray):
    """(..., V, K) cosines of each slice and the (..., V), (..., K) norms."""
    kn = np.linalg.norm(key_emb, axis=-1)
    rn = np.linalg.norm(ref_emb, axis=-1)
    if np.any(kn == 0) or np.any(rn == 0):
        raise ValueError("zero-norm embedding in auxiliary loss")
    cos = (key_emb / kn[..., None]) @ (ref_emb / rn[..., None]).swapaxes(-1, -2)
    return cos, kn, rn


def _aux_value_and_grad(
    positivity: np.ndarray,
    key_emb: np.ndarray,
    ref_emb: np.ndarray,
    neg_ratio: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Auxiliary L2 loss (cos - c)^2 with analytic gradients; mean over all
    positive pairs and the hard-mined negatives. Stacks as
    _embed_value_and_grad does. The selected pairs are unique, so their
    coefficients scatter into dense (..., V, K) matrices."""
    cos, kn, rn = _cosine_and_norms(key_emb, ref_emb)
    cells, targets = _aux_pairs(positivity, cos, neg_ratio)
    flat = cos.shape[:-2] + (positivity.size,)
    c = np.take_along_axis(cos.reshape(flat), cells, axis=-1)
    resid = c - targets
    value = np.mean(resid**2, axis=-1)
    coef = 2.0 * resid / cells.shape[-1]
    rows, cols = np.divmod(cells, cos.shape[-1])
    norms = np.take_along_axis(kn, rows, axis=-1) * np.take_along_axis(rn, cols, axis=-1)
    A, B = np.zeros((2,) + cos.shape)
    np.put_along_axis(A.reshape(flat), cells, coef / norms, axis=-1)
    np.put_along_axis(B.reshape(flat), cells, coef * c, axis=-1)
    g_key = A @ ref_emb - (B.sum(axis=-1) / kn**2)[..., None] * key_emb
    g_ref = A.swapaxes(-1, -2) @ key_emb - (B.sum(axis=-2) / rn**2)[..., None] * ref_emb
    return value, g_key, g_ref


def aux_selection_margin(batch: SampleBatch, embeddings, neg_ratio: int) -> float:
    """Cosine gap at the hard-negative cutoff of the auxiliary loss.

    The aux loss is non-smooth where the hard-negative selection changes;
    finite-difference gradient checks should only run where this margin is
    comfortably positive. Returns inf when no negative is excluded.
    """
    key_emb, ref_emb = embeddings
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


def _check_embeddings(batch: SampleBatch, embeddings, cfg: LossConfig):
    """The one check of the loss entries: the embeddings fit the batch, and
    a loss term that is weighted has a positive pair to score."""
    key_emb, ref_emb = embeddings
    key_emb = validate_embeddings(key_emb, name="key embeddings")
    ref_emb = validate_embeddings(ref_emb, dim=key_emb.shape[1], name="ref embeddings")
    if key_emb.shape[0] != len(batch.key) or ref_emb.shape[0] != len(batch.ref):
        raise ValueError("embedding counts do not match batch sizes")
    if (cfg.gamma1 > 0 or cfg.gamma2 > 0) and not batch.positivity.any():
        raise ValueError("batch has no positive pairs")
    return key_emb, ref_emb


def loss_total(
    batch: SampleBatch, embeddings, cfg: LossConfig
) -> tuple[float, tuple[np.ndarray, np.ndarray]]:
    """Weighted total loss and its analytic gradient w.r.t. all embeddings.

    Returns (value, (d/d key_embeddings, d/d ref_embeddings)). The detector
    term of the full objective is out of scope here, so the total is
    gamma1 * embedding loss + gamma2 * auxiliary loss. Constituents with a
    zero weight are skipped entirely.
    """
    key_emb, ref_emb = _check_embeddings(batch, embeddings, cfg)
    value, grads = _loss_total(batch.positivity, key_emb, ref_emb, cfg)
    return float(value), grads


def _loss_total(
    positivity: np.ndarray, key_emb: np.ndarray, ref_emb: np.ndarray, cfg: LossConfig
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """``loss_total`` on embeddings that ``_check_embeddings`` accepted, for
    a stack of (..., V, D) key and (..., K, D) reference embeddings that
    share one (V, K) positivity: the (...) values and both gradients. Each
    slice gets the bits of a call on that slice alone."""
    value = np.zeros(key_emb.shape[:-2])
    g_key = np.zeros_like(key_emb)
    g_ref = np.zeros_like(ref_emb)
    if cfg.gamma1 > 0:
        v, gk, gr = _embed_value_and_grad(positivity, key_emb, ref_emb, cfg.variant)
        value += cfg.gamma1 * v
        g_key += cfg.gamma1 * gk
        g_ref += cfg.gamma1 * gr
    if cfg.gamma2 > 0:
        v, gk, gr = _aux_value_and_grad(positivity, key_emb, ref_emb, _AUX_NEG_RATIO)
        value += cfg.gamma2 * v
        g_key += cfg.gamma2 * gk
        g_ref += cfg.gamma2 * gr
    return value, (g_key, g_ref)


def finite_difference_gradient(
    batch: SampleBatch, embeddings, cfg: LossConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference gradient of loss_total, the independent oracle
    for the analytic gradients. The embeddings are checked once; the
    perturbed evaluations skip the check and run as stacks: each entry of
    a chunk is moved up in one slice and down in another, and a stack holds
    at most _FD_STACK_FLOATS floats."""
    key_emb, ref_emb = _check_embeddings(batch, embeddings, cfg)
    chunk = max(1, _FD_STACK_FLOATS // (2 * (key_emb.size + ref_emb.size + batch.positivity.size)))
    grads = []
    for moved, base in enumerate((key_emb, ref_emb)):
        g = np.empty(base.size)
        for start in range(0, base.size, chunk):
            idx = np.arange(start, min(start + chunk, base.size))
            n = idx.size
            stacks = [np.repeat(e[None], 2 * n, axis=0) for e in (key_emb, ref_emb)]
            entries = stacks[moved].reshape(2 * n, base.size)  # a view: writes move the stack
            entries[np.arange(n), idx] = base.flat[idx] + _FD_STEP
            entries[np.arange(n, 2 * n), idx] = base.flat[idx] - _FD_STEP
            value, _ = _loss_total(batch.positivity, *stacks, cfg)
            g[idx] = (value[:n] - value[n:]) / (2 * _FD_STEP)
        grads.append(g.reshape(base.shape))
    return tuple(grads)


# ---------------------------------------------------------------------------
# Desk-scale embedding optimization
# ---------------------------------------------------------------------------


@dataclass
class ToyProblem:
    """A small multi-frame world for optimizing embeddings directly: each pair
    of consecutive frames is ``batch`` over frame t's and t+1's rows of ``params``."""

    params: np.ndarray  # (n_samples, D) free embedding parameters, frame-major
    batch: SampleBatch
    identity: np.ndarray  # (n_samples,) instance id per sample
    frame: np.ndarray  # (n_samples,) frame index per sample


def make_toy_problem(
    n_identities: int,
    n_frames: int,
    dim: int,
    seed: int,
) -> ToyProblem:
    """Build the consecutive-frame batch where every identity appears once
    per frame; embeddings start as small random vectors."""
    if n_identities < 2:
        raise ValueError("need at least two identities for negatives to exist")
    rng = np.random.default_rng(seed)
    n_samples = n_identities * n_frames
    params = _TOY_INIT_SCALE * rng.standard_normal((n_samples, dim))
    identity = np.tile(np.arange(n_identities), n_frames)
    frame = np.repeat(np.arange(n_frames), n_identities)
    unit = BoundingBox(0, 0, 1, 1)
    samples = [RegionSample(unit, i, POSITIVE, 1.0) for i in range(n_identities)]
    return ToyProblem(params, SampleBatch(key=samples, ref=samples), identity, frame)


def optimize_embeddings(
    problem: ToyProblem,
    cfg: LossConfig,
    steps: int,
    lr: float,
    rng_seed: int,
) -> tuple[np.ndarray, list[tuple[int, float]]]:
    """Plain gradient descent on the total loss, embeddings as free
    parameters.

    Each step scores every consecutive-frame pair in one stacked kernel
    call, sums the mean loss in a seed-shuffled pair order, accumulates the
    mean gradient into the parameter matrix and takes one descent step.
    Deterministic under a fixed seed. Each pair is checked once, before the
    first step. Raises on divergence (loss above 1e9 or non-finite), naming
    the step.
    """
    rng = np.random.default_rng(rng_seed)
    params = np.array(problem.params, dtype=np.float64)
    trace: list[tuple[int, float]] = []
    m = len(problem.batch.key)  # rows per frame
    n = int(problem.frame.max(initial=0))  # consecutive-frame pairs
    rows = [params[t * m:(t + 1) * m] for t in range(n + 1)]  # per frame
    for key, ref in zip(rows, rows[1:]):
        _check_embeddings(problem.batch, (key, ref), cfg)
    frames = params[: (n + 1) * m].reshape(n + 1, m, params.shape[1])  # a view: steps move params
    for step in range(steps):
        order = rng.permutation(n)
        value, (gk, gr) = _loss_total(problem.batch.positivity, frames[:-1], frames[1:], cfg)
        shares = (value / n).tolist()
        total = 0.0
        for t in order:  # the trace's bits depend on this order
            total += shares[t]
        if not np.isfinite(total) or total > 1e9:
            raise RuntimeError(f"embedding optimization diverged at step {step} (loss={total})")
        trace.append((step, total))
        # each frame is the key of one pair and the reference of the one before
        grad = np.zeros_like(frames)
        grad[:-1] += gk / n
        grad[1:] += gr / n
        frames -= lr * grad
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
