"""File formats: detection-with-embedding text files and MOT-style
comma-separated track files.

The detection format is line-oriented text with an explicit header
declaring the format version and embedding dimension, so files are
diffable and stream without loading:

    # embedtrack-detections v1 dim=32
    <frame> <class_id> <score> <x1> <y1> <x2> <y2> <e0> ... <eD-1>

Track/GT files follow the de-facto MOT layout, one object per line:

    frame,id,x,y,w,h,conf,class_id,visibility

Reals are serialized with shortest round-trip precision; write-then-read
reproduces records exactly.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Mapping
from contextlib import contextmanager

import numpy as np

from .geometry import BoundingBox
from .metrics import ObjectEntry, TrackSet
from .tracker import Detection

__all__ = [
    "FormatError",
    "atomic_write",
    "write_detections",
    "read_detections",
    "write_mot",
    "read_mot",
    "trackset_to_mot_rows",
]

DET_HEADER_PREFIX = "# embedtrack-detections v1 dim="


class FormatError(ValueError):
    """Malformed input file; message carries the line number."""


@contextmanager
def atomic_write(path: str):
    """Write to a temp file in the target directory, then rename."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fp:
            yield fp
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(x: float) -> str:
    return repr(float(x))


def write_detections(fp, frames: dict[int, list[Detection]], dim: int) -> None:
    """Write per-frame detections in frame order."""
    fp.write(f"{DET_HEADER_PREFIX}{dim}\n")
    for f in sorted(frames):
        for d in frames[f]:
            if d.embedding.shape[0] != dim:
                raise ValueError(
                    f"embedding dimension {d.embedding.shape[0]} does not match header dim {dim}"
                )
            b = d.box
            row = [str(f), str(d.class_id), _fmt(d.score),
                   _fmt(b.x1), _fmt(b.y1), _fmt(b.x2), _fmt(b.y2)]
            row.extend(_fmt(v) for v in d.embedding)
            fp.write(" ".join(row) + "\n")


def read_detections(fp) -> tuple[int, dict[int, list[Detection]]]:
    """Parse a detection file; returns (dim, frame -> detections)."""
    header = fp.readline().strip()
    if not header.startswith(DET_HEADER_PREFIX):
        raise FormatError("line 1: missing or invalid detection-file header")
    try:
        dim = int(header[len(DET_HEADER_PREFIX):])
    except ValueError:
        raise FormatError("line 1: invalid dimension in header") from None
    frames: dict[int, list[Detection]] = {}
    last_frame = None
    for lineno, line in enumerate(fp, start=2):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 7 + dim:
            raise FormatError(
                f"line {lineno}: expected {7 + dim} fields, got {len(parts)}"
            )
        try:
            frame = int(parts[0])
            class_id = int(parts[1])
            score = float(parts[2])
            box = BoundingBox(*(float(p) for p in parts[3:7]))
            emb = np.array([float(p) for p in parts[7:]], dtype=np.float64)
            det = Detection(box, class_id, score, emb)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if last_frame is not None and frame < last_frame:
            raise FormatError(f"line {lineno}: frame indices must be non-decreasing")
        last_frame = frame
        frames.setdefault(frame, []).append(det)
    return dim, frames


def trackset_to_mot_rows(ts: TrackSet, conf: float = 1.0,
                         scores: Mapping[tuple[int, int], float] | None = None) -> list[str]:
    """MOT rows in frame order. The confidence column holds
    ``scores[(frame, obj_id)]`` when ``scores`` is given, else ``conf``."""
    rows = []
    for f in sorted(ts.frames):
        for e in ts.frames[f]:
            b = e.box
            rows.append(
                ",".join([
                    str(f), str(e.obj_id),
                    _fmt(b.x1), _fmt(b.y1), _fmt(b.width), _fmt(b.height),
                    _fmt(conf if scores is None else scores[f, e.obj_id]), str(e.class_id),
                    _fmt(1.0 if e.visible else 0.0),
                ])
            )
    return rows


def write_mot(fp, ts: TrackSet, conf: float = 1.0,
              scores: Mapping[tuple[int, int], float] | None = None) -> None:
    for row in trackset_to_mot_rows(ts, conf, scores):
        fp.write(row + "\n")


def read_mot(fp) -> TrackSet:
    """Parse a MOT-style file into a TrackSet.

    The visibility column maps to the entry's visible flag (> 0 means
    visible); prediction files written by this package always carry 1.0.
    """
    ts = TrackSet()
    for lineno, line in enumerate(fp, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split(",")
        if len(parts) < 6:
            raise FormatError(f"line {lineno}: expected at least 6 comma-separated fields")
        try:
            frame = int(parts[0])
            obj_id = int(parts[1])
            x, y, w, h = (float(p) for p in parts[2:6])
            class_id = int(parts[7]) if len(parts) > 7 else 0
            visibility = float(parts[8]) if len(parts) > 8 else 1.0
            if w < 0 or h < 0:
                raise ValueError("negative box extent")
            entry = ObjectEntry(obj_id, class_id, BoundingBox.from_xywh(x, y, w, h),
                                visible=visibility > 0)
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        ts.add(frame, entry)
    return ts
