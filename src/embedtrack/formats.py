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
reproduces records exactly, but for MOT scores, which are not read.

The detection reader streams the file in chunks of ``CHUNK_LINES`` lines
and never holds the whole text. Each chunk is parsed by one ``np.loadtxt``
call with a structured dtype (integer frame and class, float score, box and
embedding columns); the field count and non-decreasing frames, also across
the chunk boundary, are checked per column. Each value is checked once, by
the ``BoundingBox`` and ``Detection`` constructors. A chunk that numpy
cannot parse, that fails a check or whose values a constructor rejects is
read again line by line, and that loop decides what is accepted and names
the offending line in its ``FormatError``.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from itertools import islice

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
]

DET_HEADER_PREFIX = "# embedtrack-detections v1 dim="
CHUNK_LINES = 2048


class FormatError(ValueError):
    """Malformed input file; message carries the line number."""


@contextmanager
def atomic_write(path: str):
    """Write to a temp file in the target directory, then rename; the file
    gets the mode ``open(path, "w")`` would: the old file's, or 0o666 less the umask."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as fp:
            yield fp
        try:
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)
        except FileNotFoundError:
            os.umask(umask := os.umask(0))
            os.chmod(tmp, 0o666 & ~umask)
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
        rows = []
        for d in frames[f]:
            if d.embedding.shape[0] != dim:
                raise ValueError(
                    f"embedding dimension {d.embedding.shape[0]} does not match header dim {dim}"
                )
            b = d.box
            reals = [float(d.score), float(b.x1), float(b.y1), float(b.x2), float(b.y2)]
            reals += d.embedding.tolist()
            # a list's repr joins the repr of each float with ", " in one call
            rows.append(f"{f} {d.class_id} " + repr(reals)[1:-1].replace(",", ""))
        if rows:
            fp.write("\n".join(rows) + "\n")


def _row_dtype(dim: int) -> np.dtype:
    return np.dtype([("frame", np.int64), ("class_id", np.int64), ("score", np.float64),
                     ("box", np.float64, (4,)), ("emb", np.float64, (dim,))])


def _parse_chunk(lines: list[str], dim: int, last_frame: int | None) -> np.ndarray | None:
    """The chunk's detection rows as a structured array, or None when numpy
    cannot parse them or their frames decrease."""
    rows = [line for line in lines if (s := line.lstrip()) and s[0] != "#"]
    # the first row's field count bounds the size of what loadtxt allocates;
    # loadtxt itself rejects any later row with another count
    if not rows or len(rows[0].split()) != 7 + dim:
        return None
    try:
        a = np.loadtxt(rows, dtype=_row_dtype(dim), comments=None, ndmin=1)
    except ValueError:
        return None
    frame = a["frame"]
    ok = (frame[1:] >= frame[:-1]).all() and (last_frame is None or frame[0] >= last_frame)
    return a if ok else None


def _add_rows(a: np.ndarray, frames: dict[int, list[Detection]]) -> int:
    """Add the detections of parsed chunk rows to ``frames``; returns the
    last frame index, or raises the ValueError of a constructor that rejects
    a value. Each detection gets its own copy of its embedding row: row
    views would keep one large array per chunk alive, placed in fresh pages
    rather than in freed small blocks (14 MB more peak RSS reading a 49 MB
    file after a world of that size was freed)."""
    for f, c, s, b, e in zip(a["frame"].tolist(), a["class_id"].tolist(),
                             a["score"].tolist(), a["box"].tolist(), a["emb"]):
        frames.setdefault(f, []).append(Detection(BoundingBox(*b), c, s, e.copy()))
    return f


def _read_lines(lines: list[str], lineno: int, dim: int,
                frames: dict[int, list[Detection]], last_frame: int | None) -> int | None:
    """Read ``lines``, the first of which is line ``lineno`` of the file,
    one at a time into ``frames``; returns the last frame index read."""
    for lineno, line in enumerate(lines, start=lineno):
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
    return last_frame


def read_detections(fp) -> tuple[int, dict[int, list[Detection]]]:
    """Parse a detection file; returns (dim, frame -> detections)."""
    header = fp.readline().strip()
    if not header.startswith(DET_HEADER_PREFIX):
        raise FormatError("line 1: missing or invalid detection-file header")
    try:
        dim = int(header[len(DET_HEADER_PREFIX):])
    except ValueError:
        dim = 0
    if dim < 1:
        raise FormatError("line 1: invalid dimension in header")
    frames: dict[int, list[Detection]] = {}
    last_frame = None
    lineno = 2
    while lines := list(islice(fp, CHUNK_LINES)):
        a = _parse_chunk(lines, dim, last_frame)
        if a is None:
            last_frame = _read_lines(lines, lineno, dim, frames, last_frame)
        else:
            try:
                last_frame = _add_rows(a, frames)
            except ValueError:
                # the line loop meets the same value and names its line; the
                # rows already added never reach the caller
                _read_lines(lines, lineno, dim, {}, last_frame)
                raise
        lineno += len(lines)
        del lines, a  # the next chunk is read without this one alive
    return dim, frames


def write_mot(fp, ts: TrackSet) -> None:
    """Write MOT rows in frame order; the confidence column holds each
    entry's score."""
    for f in sorted(ts.frames):
        for e in ts.frames[f]:
            b = e.box
            fp.write(",".join([
                str(f), str(e.obj_id),
                _fmt(b.x1), _fmt(b.y1), _fmt(b.width), _fmt(b.height),
                _fmt(e.score), str(e.class_id), _fmt(1.0 if e.visible else 0.0),
            ]) + "\n")


def read_mot(fp) -> TrackSet:
    """Parse a MOT-style file into a TrackSet.

    The visibility column maps to the entry's visible flag (> 0 means
    visible, and a non-finite value is an error); prediction files written
    by this package always carry 1.0.
    The confidence column is not read: entries carry score 1.0.
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
            if not np.isfinite(visibility):
                raise ValueError(f"non-finite visibility {parts[8].strip()}")
            if w < 0 or h < 0:
                raise ValueError("negative box extent")
            ts.add(frame, ObjectEntry(obj_id, class_id, BoundingBox.from_xywh(x, y, w, h),
                                      visible=visibility > 0))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return ts
