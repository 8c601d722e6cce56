"""Axis-aligned bounding box arithmetic: IoU, center distance, NMS.

Boxes are (x1, y1, x2, y2) in continuous image coordinates, origin
top-left, no "+1" pixel convention. Zero-area boxes are legal, negative
extents are not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BoundingBox",
    "iou",
    "iou_matrix",
    "center_distance",
    "center_distance_matrix",
    "nms",
]


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box with x2 >= x1 and y2 >= y1."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self) -> None:
        if not all(np.isfinite([self.x1, self.y1, self.x2, self.y2])):
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
    def area(self) -> float:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.y1, self.x2, self.y2], dtype=np.float64)

    @classmethod
    def from_xywh(cls, x: float, y: float, w: float, h: float) -> "BoundingBox":
        return cls(x, y, x + w, y + h)


def iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes. Returns 0.0 when the union
    is degenerate (never NaN)."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    if iw <= 0.0 or ih <= 0.0:
        return 0.0
    inter = iw * ih
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def iou_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
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


def center_distance(a: BoundingBox, b: BoundingBox) -> float:
    """Euclidean distance between box centers, in pixels."""
    ax, ay = a.center
    bx, by = b.center
    return float(np.hypot(ax - bx, ay - by))


def center_distance_matrix(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """Pairwise center distance between two (N, 4) / (M, 4) arrays of xyxy
    boxes, as an (N, M) float64 matrix.

    Uses the same float operations as ``center_distance``, so each entry
    equals the scalar result exactly.
    """
    a = np.asarray(boxes_a, dtype=np.float64).reshape(-1, 4)
    b = np.asarray(boxes_b, dtype=np.float64).reshape(-1, 4)
    ax, ay = 0.5 * (a[:, 0] + a[:, 2]), 0.5 * (a[:, 1] + a[:, 3])
    bx, by = 0.5 * (b[:, 0] + b[:, 2]), 0.5 * (b[:, 1] + b[:, 3])
    return np.hypot(ax[:, None] - bx[None, :], ay[:, None] - by[None, :])


def nms(
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
    overlaps = iou_matrix(boxes, boxes)

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
