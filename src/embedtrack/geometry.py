"""Axis-aligned bounding box arithmetic: IoU, center distance, NMS.

Boxes are (x1, y1, x2, y2) in continuous image coordinates, origin
top-left, no "+1" pixel convention. Zero-area boxes are legal, negative
extents are not. ``box_array`` is the one conversion from ``BoundingBox``
objects to an (N, 4) array, and ``boxes_from_array`` the one conversion
back; the matrix functions and ``nms`` take such arrays.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain
from math import isfinite
from operator import attrgetter

import numpy as np

__all__ = [
    "BoundingBox",
    "box_array",
    "boxes_from_array",
    "iou_matrix",
    "center_distance",
    "pairs_within",
    "nms",
]


@dataclass(frozen=True, slots=True)
class BoundingBox:
    """Axis-aligned box with x2 >= x1 and y2 >= y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not all((isfinite(self.x1), isfinite(self.y1), isfinite(self.x2), isfinite(self.y2))):
            raise ValueError(f"box coordinates must be finite: {self}")
        if self.x2 < self.x1 or self.y2 < self.y1:
            raise ValueError(f"box has negative extent: {self}")

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        return cls(x, y, x + w, y + h)


_xyxy = attrgetter("x1", "y1", "x2", "y2")
# BoundingBox's slot setters: they store a field past the frozen __setattr__
# and __post_init__, for coordinates that boxes_from_array has checked
_BOX_SLOTS = tuple(getattr(BoundingBox, name).__set__ for name in ("x1", "y1", "x2", "y2"))


def box_array(boxes: Iterable[BoundingBox]) -> np.ndarray:
    """The (N, 4) float64 array of xyxy coordinates of ``boxes``, one row
    per box in order; (0, 4) for no boxes."""
    boxes = list(boxes)
    coords = chain.from_iterable(map(_xyxy, boxes))
    return np.fromiter(coords, dtype=np.float64, count=4 * len(boxes)).reshape(-1, 4)


def boxes_from_array(xyxy: np.ndarray) -> list[BoundingBox]:
    """The ``BoundingBox`` of each row of an (N, 4) array of xyxy
    coordinates, with Python float fields.

    The array is checked once, under the rules of ``BoundingBox``, and the
    boxes are then built without checking each one again. When a row breaks
    a rule, every box is built through the constructor, so the first bad
    row raises the constructor's message.
    """
    a = np.asarray(xyxy, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 4:
        raise ValueError(f"boxes must be an (N, 4) array, got shape {a.shape}")
    rows = a.tolist()
    if not (np.isfinite(a).all() and (a[:, 2] >= a[:, 0]).all() and (a[:, 3] >= a[:, 1]).all()):
        return [BoundingBox(*r) for r in rows]
    set_x1, set_y1, set_x2, set_y2 = _BOX_SLOTS
    out = []
    for x1, y1, x2, y2 in rows:
        box = object.__new__(BoundingBox)
        set_x1(box, x1)
        set_y1(box, y1)
        set_x2(box, x2)
        set_y2(box, y2)
        out.append(box)
    return out


def _pair_iou(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """IoU of each row pair ``a[k]``, ``b[k]`` of two (K, 4) float64 arrays
    of xyxy boxes; degenerate unions give 0."""
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0)


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise IoU between two (N, 4) / (M, 4) arrays of xyxy boxes.

    Returns an (N, M) float64 matrix. Degenerate unions give 0.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    iw = np.minimum(a[:, None, 2], b[None, :, 2]) - np.maximum(a[:, None, 0], b[None, :, 0])
    out = np.zeros(iw.shape)
    # only pairs that overlap along x can have a nonzero IoU
    hit = np.flatnonzero(iw > 0.0)
    i, j = np.divmod(hit, len(b))
    out.ravel()[hit] = _pair_iou(a.take(i, axis=0), b.take(j, axis=0))
    return out


def _x_overlapping_pairs(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unordered pairs (i, j) of rows of an (N, 4) box array, each once,
    that include every pair whose x extents overlap (``min(x2) > max(x1)``).
    A sweep in order of x1: a box pairs with each later box whose x1 lies
    below its x2."""
    by_x1 = np.argsort(boxes[:, 0], kind="stable")
    x1 = boxes[by_x1, 0]
    rank = np.arange(len(x1))
    count = np.maximum(np.searchsorted(x1, boxes[by_x1, 2], side="left") - rank - 1, 0)
    p = np.repeat(rank, count)
    # q runs over p + 1 .. p + count[p] for each p
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(count) - count, count)
    return by_x1[p], by_x1[q]


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    ax, ay = a.center
    bx, by = b.center
    return float(np.hypot(ax - bx, ay - by))


def _centers(boxes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    b = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    return 0.5 * (b[:, 0] + b[:, 2]), 0.5 * (b[:, 1] + b[:, 3])


def pairs_within(boxes_a: np.ndarray, boxes_b: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (i, j) of rows of two box arrays whose centers are at most
    ``radius`` apart: ``not np.hypot(dx, dy) > radius``, with the center
    differences dx and dy made by the float operations of
    ``center_distance``, so (i, j) is listed exactly when
    ``not center_distance(a_i, b_j) > radius``. ``i`` ascends; the pairs of
    one row of ``a`` come in the x order of the centers of ``b``.

    A sweep: each center of ``a`` meets the window of ``b``'s centers,
    sorted by x, that lie within the radius along x, widened far beyond the
    rounding of ``ax - bx`` (an infinite bound takes the whole window). A
    pair with |dx| or |dy| above the radius is then ruled out without
    ``np.hypot``: a faithfully rounded hypot is never below either leg.
    """
    ax, ay = _centers(boxes_a)
    bx, by = _centers(boxes_b)
    by_x = np.argsort(bx, kind="stable")
    sorted_x = bx[by_x]
    pad = radius + 1e-9 * (np.abs(ax) + radius)
    with np.errstate(invalid="ignore"):
        lo = np.searchsorted(sorted_x, np.fmax(ax - pad, -np.inf), side="left")
        hi = np.searchsorted(sorted_x, np.fmin(ax + pad, np.inf), side="right")
    count = hi - lo
    i = np.repeat(np.arange(len(ax)), count)
    # window slot lo[i] + k for the k-th pair of row i
    j = by_x[np.arange(len(i)) + np.repeat(lo - np.cumsum(count) + count, count)]
    dx, dy = ax[i] - bx[j], ay[i] - by[j]
    keep = ~((np.abs(dx) > radius) | (np.abs(dy) > radius))
    k = np.flatnonzero(keep)
    keep[k] = ~(np.hypot(dx[k], dy[k]) > radius)
    return i[keep], j[keep]


def nms(boxes: np.ndarray, scores: np.ndarray, iou_threshold: float) -> list[int]:
    """Greedy class-agnostic non-maximum suppression over an (N, 4) array
    of xyxy boxes and their (N,) scores: a kept box suppresses every
    lower-ranked box whose IoU with it exceeds ``iou_threshold``.

    Returns indices into ``boxes`` in descending score order; score ties
    break toward the lower input index.
    """
    if not 0.0 <= iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in [0, 1], got {iou_threshold}")
    boxes = np.asarray(boxes, dtype=np.float64).reshape(-1, 4)
    scores = np.asarray(scores, dtype=np.float64)
    if not len(scores):
        return []
    if not np.all(np.isfinite(scores)):
        raise ValueError("nms requires finite scores")
    # stable sort keeps lower input index first among equal scores
    order = np.argsort(-scores, kind="stable")
    i, j = _x_overlapping_pairs(boxes)
    over = _pair_iou(boxes.take(i, axis=0), boxes.take(j, axis=0)) > iou_threshold
    if not over.any():
        return order.tolist()
    i, j = i[over], j[over]
    # each overlapping pair both ways, grouped by its first box: box k
    # overlaps the boxes near[start[k]:start[k + 1]]
    first = np.concatenate([i, j])
    by_first = np.argsort(first, kind="stable")
    near = np.concatenate([j, i])[by_first].tolist()
    start = np.searchsorted(first[by_first], np.arange(len(boxes) + 1))

    # The overlap relation is symmetric, so a kept box is never suppressed
    # later, and a box that overlaps no other box is kept and suppresses
    # nothing: only the boxes with an overlap need the greedy pass.
    suppressed: set[int] = set()
    has_overlap = start[1:] > start[:-1]
    start = start.tolist()
    for k in order[has_overlap[order]].tolist():
        if k not in suppressed:
            suppressed.update(near[start[k]:start[k + 1]])
    keep = np.ones(len(boxes), dtype=bool)
    keep[list(suppressed)] = False
    return order[keep[order]].tolist()
