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
    ``np.isfinite(logits)`` when the caller already has it."""
    if finite is None:
        finite = np.isfinite(logits)
    if not finite.all():
        logits = np.where(finite, logits, NEG_INF)
    shift = logits.max(axis=axis, keepdims=True)
    shift[shift == NEG_INF] = 0.0  # exp(-inf) = 0 handles such a slice
    e = np.subtract(logits, shift, out=out)
    np.exp(e, out=e)
    denom = e.sum(axis=axis, keepdims=True)
    denom[denom == 0.0] = 1.0  # a slice with no finite entry is all zeros
    e /= denom
    return e


def _bisoftmax(n: np.ndarray, m: np.ndarray, allowed: np.ndarray | None) -> np.ndarray:
    """The one bi-softmax kernel, on checked float64 (N, D) and (M, D)
    arrays with N, M >= 1 and an (N, M) boolean mask or None: raw
    dot-product logits, pairs outside ``allowed`` set to -inf, then the
    mean of the row-wise and the column-wise softmax."""
    logits = n @ m.T
    if allowed is not None and not allowed.all():
        logits[~allowed] = NEG_INF
    finite = np.isfinite(logits)
    row = _stable_softmax(logits, axis=1, finite=finite)
    row += _stable_softmax(logits, axis=0, out=logits, finite=finite)
    row *= 0.5
    return row


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
