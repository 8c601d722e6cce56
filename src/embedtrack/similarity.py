"""Inference-time similarity between detection and candidate embeddings.

Two metrics: plain cosine similarity and the bi-directional softmax that
averages a detections-over-candidates softmax with a candidates-over-
detections softmax, so a high score requires mutual nearest-neighborhood.
Bi-softmax operates on raw (unnormalized) dot products; cosine normalizes.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "validate_embeddings",
    "cosine_matrix",
    "masked_bisoftmax",
]

NEG_INF = -np.inf
# _pair_bisoftmax gathers its pairs' rows this many (pair, dimension)
# entries at a time: a 64 KB gather reuses the allocator's free memory,
# where whole (K, D) gathers map fresh pages each call (2x slower at 421
# pairs of D = 64, 4x at 2,600) and take 550 MB at 976 x 1100 pairs
_GATHER_ENTRIES = 8192


def validate_embeddings(emb: np.ndarray, dim: int | None = None, name: str = "embeddings") -> np.ndarray:
    """Coerce to a (N, D) float64 array and check finiteness and dimension."""
    arr = np.asarray(emb, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"{name} must be a 2-D array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contain non-finite values")
    if dim is not None and arr.shape[1] != dim:
        raise ValueError(f"{name} have dimension {arr.shape[1]}, expected {dim}")
    return arr


def cosine_matrix(dets: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """(N, M) cosine similarity between detection and candidate embeddings.

    Raises on zero-norm vectors, naming the offending side and row.
    """
    n = validate_embeddings(dets, name="detection embeddings")
    m = validate_embeddings(cands, dim=n.shape[1], name="candidate embeddings")
    n_norm = np.linalg.norm(n, axis=1)
    m_norm = np.linalg.norm(m, axis=1)
    for norms, label in ((n_norm, "detection"), (m_norm, "candidate")):
        bad = np.flatnonzero(norms == 0)
        if bad.size:
            raise ValueError(f"zero-norm {label} embedding at index {bad[0]}")
    return (n / n_norm[:, None]) @ (m / m_norm[:, None]).T


def _stable_softmax(logits: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax of finite logits along ``axis`` in numpy's arithmetic: each
    slice less its max, exponentiated, over its sum as ``np.sum`` adds it.
    Written to ``out`` when given, which may be ``logits`` itself."""
    e = np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _listed_softmax(x: np.ndarray, seg: np.ndarray, n_seg: int) -> np.ndarray:
    """The softmax of the finite values ``x`` within each of ``n_seg``
    segments, ``seg`` naming each value's: each value less its segment's
    max, exponentiated, over its segment's sum, which one ``bincount``
    adds up one value at a time in the order the values are listed."""
    top = np.full(n_seg, NEG_INF)
    np.maximum.at(top, seg, x)
    e = np.exp(x - top[seg])
    e /= np.bincount(seg, e, n_seg)[seg]
    return e


def _bisoftmax(n: np.ndarray, m: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """The one bi-softmax kernel, on checked float64 (N, D) and (M, D)
    arrays with N, M >= 1 and an (N, M) boolean mask or None: the mean of
    the row-wise and the column-wise softmax of the raw dot-product logits
    of the admitted pairs, and 0 at every other pair. When every pair is
    admitted and every logit is finite it is dense, in numpy's arithmetic
    (a BLAS product and numpy sums); otherwise it is ``_pair_bisoftmax``
    over the admitted pairs in row-major order, scattered into the result."""
    if allowed is None or allowed.all():
        logits = n @ m.T
        if np.isfinite(logits).all():
            row = _stable_softmax(logits, axis=1)
            row += _stable_softmax(logits, axis=0, out=logits)
            row *= 0.5
            return row
    if allowed is None:
        allowed = np.ones((len(n), len(m)), dtype=bool)
    sim, i, j = _pair_bisoftmax(n, m, *np.nonzero(allowed))
    out = np.zeros(allowed.shape)
    out[i, j] = sim
    return out


def _pair_bisoftmax(n: np.ndarray, m: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The bi-softmax over the listed pairs (i, j) only, on checked arrays:
    the listed pairs whose logit is finite, and their similarities. Each
    logit is the dot product of the pair's two rows, as ``np.einsum`` sums
    it; the row-wise softmax is ``_listed_softmax`` over each detection's
    pairs and the column-wise one over each candidate's, both in the order
    the pairs are listed; a similarity is the mean of the two."""
    x, block = np.empty(len(i)), max(1, _GATHER_ENTRIES // n.shape[1])
    for s in range(0, len(i), block):
        k = slice(s, s + block)
        np.einsum("kd,kd->k", n.take(i[k], axis=0), m.take(j[k], axis=0), out=x[k])
    finite = np.isfinite(x)
    if not finite.all():
        x, i, j = x[finite], i[finite], j[finite]
    sim = _listed_softmax(x, i, len(n))
    sim += _listed_softmax(x, j, len(m))
    sim *= 0.5
    return sim, i, j


def _listed_best(sim: np.ndarray, i: np.ndarray, j: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Per row of ``n``: the column of its largest listed similarity, ties
    to the lowest column, as ``np.argmax`` picks in a dense row, and that
    similarity; a row with no pair gets column 0 and -inf. ``i`` must not
    descend."""
    top = np.full(n, NEG_INF)
    np.maximum.at(top, i, sim)
    hit = np.flatnonzero(sim == top[i])
    rows, first = np.unique(i[hit], return_index=True)
    best = np.zeros(n, dtype=np.intp)
    if rows.size:
        best[rows] = np.minimum.reduceat(j[hit], first)
    return best, top


def masked_bisoftmax(
    dets: np.ndarray, cands: np.ndarray, allowed: np.ndarray | None = None
) -> np.ndarray:
    """(N, M) bi-directional softmax similarity: the mean of the row-wise
    softmax (over candidates) and the column-wise softmax (over detections)
    of the raw dot products.

    ``allowed`` is an optional (N, M) boolean mask; each softmax
    normalizes over the admitted pairs whose logit is finite only. Entries
    whose pair is disallowed or whose logit overflows, and rows/columns
    with no such pair at all, come back as 0. ``_bisoftmax`` states which
    arithmetic runs when.
    """
    n = validate_embeddings(dets, name="detection embeddings")
    m = validate_embeddings(cands, dim=n.shape[1], name="candidate embeddings")
    if n.shape[0] == 0 or m.shape[0] == 0:
        raise ValueError("bi-softmax requires at least one detection and one candidate")
    if allowed is not None:
        allowed = np.asarray(allowed, dtype=bool)
        if allowed.shape != (n.shape[0], m.shape[0]):
            raise ValueError(
                f"mask shape {allowed.shape} does not match ({n.shape[0]}, {m.shape[0]})"
            )
    return _bisoftmax(n, m, allowed)
