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


def _stable_softmax(logits: np.ndarray, axis: int, out: np.ndarray | None = None,
                    finite: np.ndarray | None = None) -> np.ndarray:
    """Softmax with per-slice max subtraction over the finite entries; the
    other entries, and slices with no finite entry, give 0. Written to
    ``out`` when given, which may be ``logits`` itself. ``finite`` is
    ``np.isfinite(logits)`` when the caller already has it. With a
    non-finite entry, the finite ones are listed and take
    ``_listed_softmax``, with the same bits."""
    if finite is None:
        finite = np.isfinite(logits)
    if not finite.all():
        i, j = np.nonzero(finite)
        x = logits[i, j]
        e = np.empty_like(logits) if out is None else out
        e.fill(0.0)
        e[i, j] = _listed_softmax(x, i, j, logits.shape, axis)
        return e
    e = np.subtract(logits, logits.max(axis=axis, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def _listed_softmax(x: np.ndarray, i: np.ndarray, j: np.ndarray, shape: tuple[int, int],
                    axis: int) -> np.ndarray:
    """The softmax along ``axis`` of a ``shape`` array that holds the
    finite values ``x`` at the listed pairs (i, j) and -inf elsewhere, at
    the pairs: the bits of the dense softmax. ``i`` must not descend.

    Max and exp do not depend on order; a sum does. numpy sums a strided
    axis element by element in row order, as ``bincount`` sums pairs whose
    rows ascend, and the zeros it adds are exact. It sums a contiguous axis
    (a row, or the one column of an (N, 1) array) pairwise, with a grouping
    set by the entries' positions: a slice with three entries or more is
    summed dense, over a row of zeros that holds them.
    """
    seg, pos = (i, j) if axis == 1 else (j, i)
    n_seg, length = shape[1 - axis], shape[axis]
    top = np.full(n_seg, NEG_INF)
    np.maximum.at(top, seg, x)
    e = np.exp(x - top[seg])
    denom = np.bincount(seg, e, n_seg)
    if axis == 1 or shape[1] == 1:
        wide = np.bincount(seg, minlength=n_seg) >= 3
        k = np.flatnonzero(wide[seg])
        if k.size:
            slot = np.cumsum(wide) - 1
            dense = np.zeros((slot[-1] + 1, length))
            dense[slot[seg[k]], pos[k]] = e[k]
            denom[wide] = dense.sum(axis=1)
    e /= denom[seg]
    return e


def _bisoftmax(n: np.ndarray, m: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """The one bi-softmax kernel, on checked float64 (N, D) and (M, D)
    arrays with N, M >= 1 and an (N, M) boolean mask or None: raw
    dot-product logits, pairs outside ``allowed`` set to -inf, then the
    mean of the row-wise and the column-wise softmax. It is dense when
    every pair is admitted and every logit is finite; otherwise each
    softmax takes the listed admitted pairs, as ``_pair_bisoftmax`` does."""
    logits = n @ m.T
    if allowed is not None and not allowed.all():
        logits[~allowed] = NEG_INF
    finite = np.isfinite(logits)
    row = _stable_softmax(logits, axis=1, finite=finite)
    row += _stable_softmax(logits, axis=0, out=logits, finite=finite)
    row *= 0.5
    return row


def _pair_bisoftmax(n: np.ndarray, m: np.ndarray, i: np.ndarray,
                    j: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_bisoftmax`` over the listed pairs (i, j) only, on checked arrays,
    with ``i`` not descending: the admitted pairs whose logit is finite, and
    their similarities, with the bits of the dense kernel's entries. The
    logits are entries of the one product ``n @ m.T``: a per-pair dot
    product could round otherwise."""
    x = (n @ m.T)[i, j]
    finite = np.isfinite(x)
    if not finite.all():
        x, i, j = x[finite], i[finite], j[finite]
    shape = (len(n), len(m))
    sim = _listed_softmax(x, i, j, shape, 1)
    sim += _listed_softmax(x, i, j, shape, 0)
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

    ``allowed`` is an optional (N, M) boolean mask; disallowed pairs get
    -inf logits so each softmax normalizes over admissible pairs only.
    Entries whose pair is disallowed, and rows/columns with no admissible
    pair at all, come back as 0. Without a mask every entry is in (0, 1].
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
