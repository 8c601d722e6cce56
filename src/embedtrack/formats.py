"""File formats: detection-with-embedding text files and MOT-style
comma-separated track files.

The detection format is line-oriented text with an explicit header
declaring the format version and embedding dimension, so files are
diffable and stream without loading:

    # embedtrack-detections v2 dim=32
    <frame> <class_id> <score> <x1> <y1> <x2> <y2> <emb>

``<emb>`` is the bytes of the D little-endian float64 values as 16·D
lowercase hex digits. A v1 file, which wrote each embedding value as a
decimal, is refused at its header; ``embedtrack synth`` writes v2.

Track/GT files follow the de-facto MOT layout, one object per line:

    frame,id,x,y,w,h,conf,class_id,visibility

Reals are serialized with shortest round-trip precision; write-then-read
reproduces records exactly, but for MOT scores, which are not read.

The detection reader streams the file in chunks of ``CHUNK_LINES`` lines
and never holds the whole text. Each chunk's seven leading columns are
parsed by one ``np.loadtxt`` call with a structured dtype (integer frame
and class, float score and box), and its embedding fields by one
``bytes.fromhex`` and one ``np.frombuffer``; the field count, the digit
count and non-decreasing frames, also across the chunk boundary, are
checked per column. Each frame's rows of a chunk are then checked once, as
arrays, by ``tracker.detections_from_arrays`` under the rules of the
``BoundingBox`` and ``Detection`` constructors, the check that
``synth.generate`` also uses, which builds them into a ``tracker.Frame``. A
chunk that numpy cannot parse, that fails a check or whose values break a
rule is read again line by line, and that loop decides what is accepted
and names the offending line in its ``FormatError``. The reader returns
one ``Frame`` per frame: a frame whose rows span a chunk boundary, or that
the line loop read, is gathered from its detections by ``Frame``.
"""

from __future__ import annotations

import math
import os
import tempfile
from collections.abc import Sequence
from contextlib import contextmanager
from itertools import islice

import numpy as np

from .geometry import BoundingBox
from .metrics import ObjectEntry, TrackSet
from .tracker import Detection, Frame, detections_from_arrays

__all__ = [
    "FormatError",
    "atomic_write",
    "write_detections",
    "read_detections",
    "write_mot",
    "read_mot",
]

DET_HEADER_PREFIX = "# embedtrack-detections v2 dim="
CHUNK_LINES = 2048
_HEX_DIGITS = frozenset("0123456789abcdef")
# bytes.fromhex also takes A-F, which v2 does not; each other character that
# str.lower() would change fails bytes.fromhex, which sends the chunk to the
# line loop anyway
_UPPER_HEX_DIGITS = "ABCDEF"


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


def write_detections(fp, frames: dict[int, Sequence[Detection]], dim: int) -> None:
    """Write per-frame detections in frame order."""
    fp.write(f"{DET_HEADER_PREFIX}{dim}\n")
    width = 16 * dim
    for f in sorted(frames):
        dets = frames[f]
        if bad := [d.embedding.shape[0] for d in dets if d.embedding.shape[0] != dim]:
            raise ValueError(f"embedding dimension {bad[0]} does not match header dim {dim}")
        # the frame's embeddings as one hex string, sliced per row
        emb = np.array([d.embedding for d in dets], dtype="<f8").tobytes().hex()
        rows = []
        for i, d in enumerate(dets):
            b = d.box
            # a list's repr joins the repr of each float with ", " in one call
            reals = repr([float(d.score), float(b.x1), float(b.y1), float(b.x2), float(b.y2)])[1:-1]
            rows.append(f"{f} {d.class_id} {reals.replace(',', '')} {emb[i * width:(i + 1) * width]}\n")
        fp.write("".join(rows))


_HEAD_DTYPE = np.dtype([("frame", np.int64), ("class_id", np.int64), ("score", np.float64),
                        ("box", np.float64, (4,))])


def _parse_chunk(lines: list[str], dim: int,
                 last_frame: int | None) -> tuple[np.ndarray, np.ndarray] | None:
    """The chunk's detection rows as a structured array of their seven
    leading fields and an (N, dim) embedding array, or None when numpy
    cannot parse them, a field or digit count is off or their frames
    decrease."""
    rows = [line.rsplit(None, 1) for line in lines if (s := line.lstrip()) and s[0] != "#"]
    # the first row's field count bounds the size of what loadtxt allocates;
    # loadtxt itself rejects any later row with another count
    if not rows or len(rows[0][0].split()) != 7 or any(
            len(r) != 2 or len(r[1]) != 16 * dim for r in rows):
        return None
    # the tokens go once joined: 4.0 MB peak above the result reading a
    # 36k-row D=64 file, 6.2 MB with them alive
    heads, embs = zip(*rows)
    del rows
    hexes = "".join(embs)
    del embs
    if any(c in hexes for c in _UPPER_HEX_DIGITS):  # six substring scans
        return None
    try:
        head = np.loadtxt(heads, dtype=_HEAD_DTYPE, comments=None, ndmin=1)
        emb = np.frombuffer(bytes.fromhex(hexes), "<f8").reshape(len(heads), dim)
    except ValueError:
        return None
    frame = head["frame"]
    ok = (frame[1:] >= frame[:-1]).all() and (last_frame is None or frame[0] >= last_frame)
    return (head, emb) if ok else None


def _add_rows(head: np.ndarray, emb: np.ndarray, frames: dict[int, list[Detection]]) -> int:
    """Add the detections of parsed chunk rows to ``frames``, one frame's
    rows at a time through ``detections_from_arrays``, which copies their
    arrays out of the chunk into a ``Frame``; returns the last frame index,
    or raises the ValueError of the first row that breaks a rule."""
    frame = head["frame"]
    # frames do not decrease, so each frame's rows are one run
    cuts = (np.flatnonzero(frame[1:] != frame[:-1]) + 1).tolist()
    for lo, hi in zip([0, *cuts], [*cuts, len(head)]):
        rows, f = head[lo:hi], int(frame[lo])
        part = detections_from_arrays(rows["box"], rows["class_id"], rows["score"], emb[lo:hi])
        # a frame joined across the chunk boundary is a list until the end
        frames[f] = frames[f] + part if f in frames else part
    return int(frame[-1])


def _embedding(field: str, dim: int) -> np.ndarray:
    """The values of one row's embedding field."""
    if len(field) != 16 * dim:
        raise ValueError(f"embedding field has {len(field)} characters, expected {16 * dim} hex digits")
    if not _HEX_DIGITS.issuperset(field):
        raise ValueError("embedding field holds a character other than 0-9 and a-f")
    return np.frombuffer(bytes.fromhex(field), "<f8")


def _read_lines(lines: list[str], lineno: int, dim: int,
                frames: dict[int, list[Detection]], last_frame: int | None) -> int | None:
    """Read ``lines``, the first of which is line ``lineno`` of the file,
    one at a time into ``frames``; returns the last frame index read."""
    for lineno, line in enumerate(lines, start=lineno):
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
            det = Detection(box, class_id, score, _embedding(parts[7], dim))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
        if last_frame is not None and frame < last_frame:
            raise FormatError(f"line {lineno}: frame indices must be non-decreasing")
        last_frame = frame
        dets = frames.get(frame)
        if dets is None or isinstance(dets, Frame):  # a Frame does not grow
            dets = frames[frame] = list(dets or ())
        dets.append(det)
    return last_frame


def read_detections(fp) -> tuple[int, dict[int, Frame]]:
    """Parse a detection file; returns (dim, frame index -> its Frame)."""
    header = fp.readline().strip()
    if header.startswith("# embedtrack-detections v1 "):
        raise FormatError("line 1: this is a v1 detection file, which is no longer read; "
                          "regenerate it with `embedtrack synth`")
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
        parsed = _parse_chunk(lines, dim, last_frame)
        if parsed is None:
            last_frame = _read_lines(lines, lineno, dim, frames, last_frame)
        else:
            try:
                last_frame = _add_rows(*parsed, frames)
            except ValueError:
                # the line loop meets the same value and names its line; the
                # rows already added never reach the caller
                _read_lines(lines, lineno, dim, {}, last_frame)
                raise
        lineno += len(lines)
        del lines, parsed  # the next chunk is read without this one alive
    return dim, {f: dets if isinstance(dets, Frame) else Frame(dets) for f, dets in frames.items()}


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
            if not math.isfinite(visibility):
                raise ValueError(f"non-finite visibility {parts[8].strip()}")
            if w < 0 or h < 0:
                raise ValueError("negative box extent")
            ts.add(frame, ObjectEntry(obj_id, class_id, BoundingBox.from_xywh(x, y, w, h),
                                      visible=visibility > 0))
        except ValueError as exc:
            raise FormatError(f"line {lineno}: {exc}") from None
    return ts
