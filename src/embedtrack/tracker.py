"""Appearance-only tracking: duplicate removal, bi-softmax association,
track management with backdrops, and the optional post-processing steps
(tracklet merging, box interpolation) used on high-occlusion benchmarks.

Association is purely embedding-based: detections are scored against
track and backdrop embeddings with a bi-directional softmax and claimed
greedily in descending detection-score order. No motion model anywhere.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .config import TrackerConfig
# center_distance and masked_bisoftmax go uncalled here but stay: perfbench's
# tracer wraps the names this module holds, and each one must exist.
from .geometry import BoundingBox, box_array, boxes_from_array, centers_within, nms
from .geometry import center_distance  # noqa: F401
from .metrics import ObjectEntry, TrackSet
from .similarity import _bisoftmax, cosine_matrix, masked_bisoftmax, validate_embeddings  # noqa: F401

_BETA_MATCH = 0.5  # a detection matches its best candidate above this similarity
# merge_tracklets' window (frames), match score and radius (pixels)
_MERGE_WINDOW, _BETA_MERGE, _MERGE_RADIUS = 10, 0.5, 50.0

__all__ = [
    "Detection",
    "detections_from_arrays",
    "Track",
    "TrackerConfig",
    "TrackerState",
    "Tracker",
    "run_sequence",
    "momentum_update",
    "merge_tracklets",
    "interpolate_tracks",
]


@dataclass(frozen=True, slots=True)
class Detection:
    """One frame observation: box, class, confidence and embedding; frozen,
    and the embedding is a checked read-only float64 array that no caller's
    array aliases: the constructor's own copy, or a row of the frame's copy
    that ``detections_from_arrays`` makes."""

    box: BoundingBox
    class_id: int
    score: float
    embedding: np.ndarray

    def __post_init__(self) -> None:
        if isinstance(self.class_id, bool) or not isinstance(self.class_id, (int, np.integer)):
            raise ValueError(f"detection class_id must be an int, got {self.class_id!r}")
        if isinstance(self.score, (bool, np.bool_)) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")
        # a copy: a row view would keep a whole parsed chunk alive, in fresh
        # pages rather than freed small blocks (14 MB more peak RSS reading a
        # 49 MB detection file after a world of that size was freed); one
        # frame's block, as detections_from_arrays makes, stays small enough
        emb = np.array(self.embedding, dtype=np.float64)
        if emb.ndim != 1 or not emb.size:
            raise ValueError(
                f"detection embedding must be 1-D and non-empty, got shape {emb.shape}"
            )
        if not np.isfinite(emb).all():
            raise ValueError("detection embedding contains non-finite values")
        emb.flags.writeable = False
        object.__setattr__(self, "embedding", emb)


# Detection's slot setters: they store a field past the frozen __setattr__
# and __post_init__, for values that detections_from_arrays has checked
_DETECTION_SLOTS = tuple(getattr(Detection, name).__set__
                         for name in ("box", "class_id", "score", "embedding"))


def detections_from_arrays(boxes: np.ndarray, class_ids: np.ndarray, scores: np.ndarray,
                           embeddings: np.ndarray) -> list[Detection]:
    """One frame's detections from an (N, 4) array of xyxy boxes, N integer
    class ids, N scores and an (N, D) embedding array.

    Each array is checked once, under the rules of ``BoundingBox`` and
    ``Detection``, and the embeddings are copied into one read-only float64
    block of which each detection holds a row. When a row breaks a rule,
    every detection is built through the constructors, so the first bad row
    raises the constructor's message.
    """
    cls = np.asarray(class_ids)
    scores = np.asarray(scores)
    if scores.dtype != bool:  # a bool score stays one, for Detection to reject
        scores = scores.astype(np.float64, copy=False)
    emb = np.array(embeddings, dtype=np.float64)  # the frame's block; see Detection's copy
    n = len(cls)
    if cls.ndim != 1 or np.shape(boxes) != (n, 4) or scores.shape != (n,) or emb.shape[:1] != (n,):
        raise ValueError("a frame needs an (N, 4) box array and N class ids, scores and embedding "
                         f"rows, got shapes {np.shape(boxes)}, {cls.shape}, {scores.shape} and "
                         f"{emb.shape}")
    if not (cls.dtype.kind in "iu" and scores.dtype != bool and emb.ndim == 2 and emb.shape[1]
            and ((scores >= 0.0) & (scores <= 1.0)).all() and np.isfinite(emb).all()):
        return [Detection(BoundingBox(*b), c, s, e) for b, c, s, e in
                zip(np.asarray(boxes, dtype=np.float64).tolist(), cls.tolist(), scores.tolist(), emb)]
    emb.flags.writeable = False
    set_box, set_class, set_score, set_embedding = _DETECTION_SLOTS
    out = []
    for b, c, s, e in zip(boxes_from_array(boxes), cls.tolist(), scores.tolist(), emb):
        d = object.__new__(Detection)
        set_box(d, b)
        set_class(d, c)
        set_score(d, s)
        set_embedding(d, e)
        out.append(d)
    return out


@dataclass
class Track:
    """Persistent identity: id, class and (frame, box, score) history. A
    live track's association state is a row of ``TrackerState.live``."""

    track_id: int
    class_id: int
    history: list[tuple[int, BoundingBox, float]]


class _Rows:
    """Live tracks or backdrops as parallel arrays: row i holds the track
    id (-1 for a backdrop), embedding, class, box (a track's last one),
    frame (a track's last active one) and creation frame."""

    def __init__(self) -> None:
        empty = np.empty(0, dtype=np.int64)
        self.tid, self.cls, self.frame, self.created = empty, empty, empty, empty
        self.emb, self.box = np.empty((0, 0)), np.empty((0, 4))

    def __len__(self) -> int:
        return len(self.tid)

    def extend(self, tid: np.ndarray, emb: np.ndarray, cls: np.ndarray, box: np.ndarray,
               frame: int) -> None:
        """Append rows created at ``frame``."""
        if not len(tid):
            return
        frame = np.full(len(tid), frame, dtype=np.int64)
        self.tid, self.emb, self.cls = _stack(self.tid, tid), _stack(self.emb, emb), _stack(self.cls, cls)
        self.box, self.frame = _stack(self.box, box), _stack(self.frame, frame)
        self.created = _stack(self.created, frame.copy())  # a row's frame moves, its creation does not

    def select(self, keep: np.ndarray) -> None:
        """Keep the rows where the boolean ``keep`` is set."""
        if keep.all():
            return
        self.tid, self.cls = self.tid[keep], self.cls[keep]
        self.emb, self.box = self.emb.compress(keep, axis=0), self.box.compress(keep, axis=0)
        self.frame, self.created = self.frame[keep], self.created[keep]


@dataclass
class TrackerState:
    """Mutable per-sequence state; one instance per video.

    ``tracks`` and ``retired`` map ids to identity records. Association
    state is held once, in rows: ``live`` has one row per live track, in
    the order of ``tracks``, and ``backdrops`` one per backdrop. Only
    ``step`` and ``merge_tracklets`` add or remove tracks and rows.
    """

    tracks: dict[int, Track] = field(default_factory=dict)
    retired: dict[int, Track] = field(default_factory=dict)
    live: _Rows = field(default_factory=_Rows)
    backdrops: _Rows = field(default_factory=_Rows)
    next_id: int = 1
    frame: int | None = None


def _momentum(old: np.ndarray, new: np.ndarray, m: float) -> np.ndarray:
    """The momentum kernel, on checked arrays of one shape and m in [0, 1]."""
    return m * new + (1.0 - m) * old


def momentum_update(old: np.ndarray, new: np.ndarray, m: float) -> np.ndarray:
    """Exponential update m * new + (1 - m) * old, no renormalization;
    row by row for (N, D) inputs, a (D,) result for 1-D inputs."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    old_rows = validate_embeddings(old)
    new_rows = validate_embeddings(new, dim=old_rows.shape[1])
    if new_rows.shape != old_rows.shape:
        raise ValueError(f"momentum_update got {len(new_rows)} new rows for {len(old_rows)} old")
    out = _momentum(old_rows, new_rows, m)
    return out[0] if np.ndim(old) == 1 else out


class Tracker:
    """Stateful per-sequence tracker; feed frames in order via step()."""

    def __init__(self, config: TrackerConfig):
        self.config = config
        self.state = TrackerState()

    def step(self, frame_index: int, detections: list[Detection]) -> list[tuple[int, Detection]]:
        """Process one frame; returns the confirmed (track_id, detection)
        pairs for this frame."""
        return step(self.state, frame_index, detections, self.config)

    def finish(self) -> dict[int, list[tuple[int, BoundingBox, float]]]:
        """All track histories (live and retired), interpolated if
        configured."""
        state = self.state
        histories = {t.track_id: list(t.history) for t in (*state.retired.values(), *state.tracks.values())}
        if self.config.interpolate:
            histories = interpolate_tracks(histories)
        return histories


def run_sequence(frames: dict[int, list[Detection]], config: TrackerConfig) -> TrackSet:
    """Track a whole sequence: step a fresh Tracker over the frames in
    sorted order, then return its final histories as a TrackSet, added in
    (frame, track id) order, each entry carrying its box's score.

    With merging and interpolation off the histories hold exactly what
    step returned frame by frame, so this is the online output too.
    """
    tracker = Tracker(config)
    for f in sorted(frames):
        tracker.step(f, frames[f])
    state = tracker.state
    class_of = {t.track_id: t.class_id for t in (*state.retired.values(), *state.tracks.values())}
    # frame-major adds keep each TrackSet.add O(1)
    rows = sorted(((frame, tid, box, score) for tid, hist in tracker.finish().items()
                   for frame, box, score in hist), key=operator.itemgetter(0, 1))
    pred = TrackSet()
    for frame, tid, box, score in rows:
        pred.add(frame, ObjectEntry(tid, class_of[tid], box, score=score))
    return pred


def _stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows of ``a`` then those of ``b``; an empty one may have any
    row shape."""
    return b if not len(a) else a if not len(b) else np.concatenate([a, b])


def step(
    state: TrackerState,
    frame_index: int,
    detections: list[Detection],
    cfg: TrackerConfig,
) -> list[tuple[int, Detection]]:
    """One association step.

    Pipeline: purge of tracks inactive more than memory_frames and of
    backdrops older than backdrop_frames, confidence floor, class-agnostic
    duplicate-removal NMS, similarity against the remaining tracks plus
    backdrops (class and distance masking applied pre-softmax), then greedy
    claiming in descending score order: match a free track, or be consumed
    by a backdrop, or start a new track (score above beta_new), or become a
    backdrop. The frame is checked before any state changes.
    """
    if state.frame is not None and frame_index <= state.frame:
        raise ValueError(
            f"frame index must increase monotonically ({frame_index} after {state.frame})"
        )
    # each Detection checked itself; what is left spans the frame's detections
    live, backdrops = state.live, state.backdrops
    dims = {d.embedding.size for d in detections}
    held = live if len(live) else backdrops
    if len(held):
        dims.add(held.emb.shape[1])
    if len(dims) > 1:
        raise ValueError(f"frame {frame_index}: embedding dimensions {sorted(dims)} differ "
                         "among its detections and the tracker's rows")
    try:
        emb = np.array([d.embedding for d in detections] or np.empty((0, 0)), dtype=np.float64)
    except ValueError:  # embeddings of one size but not one shape
        emb = None
    if emb is None or emb.ndim != 2:
        # numpy lets a read-only array be reshaped in place
        raise ValueError(f"frame {frame_index}: detection embeddings must be 1-D, got shapes "
                         f"{sorted({d.embedding.shape for d in detections})}")
    if cfg.similarity_metric == "cosine" and not emb.any(axis=1).all():
        raise ValueError(f"frame {frame_index}: cosine similarity needs non-zero embeddings")
    state.frame = frame_index

    # purge expired state: every row left is a candidate
    expired = frame_index - live.frame > cfg.memory_frames
    if expired.any():
        for tid in live.tid[expired].tolist():
            state.retired[tid] = state.tracks.pop(tid)
        live.select(~expired)
    backdrops.select(frame_index - backdrops.frame <= cfg.backdrop_frames)

    scores = np.array([d.score for d in detections], dtype=np.float64)
    idx = np.flatnonzero(scores >= cfg.det_confidence)  # rows of the frame's arrays
    matches: list[tuple[int, Detection]] = []
    if len(idx):
        det_box = box_array(detections[i].box for i in idx.tolist())
        keep = np.sort(nms(det_box, scores[idx], cfg.nms_threshold))
        idx, det_box = idx[keep], det_box[keep]
        n, dets = len(idx), [detections[i] for i in idx.tolist()]
        scores, det_emb = scores[idx], emb[idx]
        det_cls = np.array([d.class_id for d in dets])

        n_tracks = len(live)  # candidates: live tracks, then backdrops
        # best candidate and its similarity per detection (-inf: no candidate)
        best = np.zeros(n, dtype=np.intp)
        best_conf = np.full(n, -np.inf)
        if n_tracks or len(backdrops):
            cand_emb = _stack(live.emb, backdrops.emb)
            allowed = det_cls[:, None] == _stack(live.cls, backdrops.cls)[None, :]
            if cfg.distance_gate is not None:
                allowed &= centers_within(det_box, _stack(live.box, backdrops.box), cfg.distance_gate)
            if cfg.similarity_metric == "bisoftmax":
                sim = _bisoftmax(det_emb, cand_emb, allowed)
            else:
                sim = cosine_matrix(det_emb, cand_emb)
                sim = np.where(allowed, sim, -np.inf)
            best = np.argmax(sim, axis=1)
            best_conf = sim[np.arange(n), best]

        # greedy in descending detection score, ties by input index: the
        # first eligible detection that picks a track claims it; one that
        # picks a backdrop is consumed by it; the rest start a track or
        # become backdrops
        order = np.argsort(-scores, kind="stable")
        o_best, o_score = best[order], scores[order]
        eligible = (best_conf[order] > _BETA_MATCH) & (o_score > cfg.beta_obj)
        to_track = np.flatnonzero(eligible & (o_best < n_tracks))
        won = np.zeros(n, dtype=bool)
        won[to_track[np.unique(o_best[to_track], return_index=True)[1]]] = True
        free = ~(won | (eligible & (o_best >= n_tracks)))
        spawn = free & (o_score > cfg.beta_new)

        # matched tracks: one momentum update of their rows
        di, rows = order[won], o_best[won]
        if rows.size:
            live.emb[rows] = _momentum(live.emb.take(rows, axis=0), det_emb.take(di, axis=0),
                                       cfg.momentum)
            live.box[rows] = det_box.take(di, axis=0)
            live.frame[rows] = frame_index
            for i, tid in zip(di.tolist(), live.tid[rows].tolist()):
                det = dets[i]
                state.tracks[tid].history.append((frame_index, det.box, det.score))
                matches.append((tid, det))

        si = order[spawn]
        tids = np.arange(state.next_id, state.next_id + len(si))
        live.extend(tids, det_emb.take(si, axis=0), det_cls[si], det_box.take(si, axis=0),
                    frame_index)
        for tid, i in zip(tids.tolist(), si.tolist()):
            det = dets[i]
            state.tracks[tid] = Track(tid, det.class_id, [(frame_index, det.box, det.score)])
            matches.append((tid, det))
        state.next_id += len(si)

        bi = order[free & ~spawn]
        backdrops.extend(np.full(len(bi), -1), det_emb.take(bi, axis=0), det_cls[bi],
                         det_box.take(bi, axis=0), frame_index)

    if cfg.merge:
        merge_tracklets(state)

    matches.sort(key=operator.itemgetter(0))
    return matches


def merge_tracklets(state: TrackerState) -> TrackerState:
    """Fold recently created tracks into matching vanished tracks.

    A track created within the last _MERGE_WINDOW frames may be absorbed
    by an inactive track of its class that was last active before the
    young track was created, whose bi-softmax match score exceeds
    _BETA_MERGE and whose last box lies within _MERGE_RADIUS pixels. Each
    vanished track absorbs at most one young track (best score wins),
    taking over its history and its row's embedding, box and frame; the
    young ID is dropped, not retired.
    """
    now = state.frame
    rows = state.live
    young = np.flatnonzero((now - rows.created <= _MERGE_WINDOW) & (rows.frame == now))
    vanished = np.flatnonzero(rows.frame < now)
    if not young.size or not vanished.size:
        return state

    # a track that overlaps the vanished one in time would give one ID two
    # boxes in a frame
    allowed = (
        (rows.cls[young][:, None] == rows.cls[vanished][None, :])
        & (rows.created[young][:, None] > rows.frame[vanished][None, :])
        & centers_within(rows.box[young], rows.box[vanished], _MERGE_RADIUS)
    )
    if not allowed.any():
        return state
    sim = _bisoftmax(rows.emb[young], rows.emb[vanished], allowed)

    # best young per vanished track, in descending score, ties by (i, j):
    # nonzero lists pairs row-major and the sort is stable
    ii, jj = np.nonzero(sim > _BETA_MERGE)
    order = np.argsort(-sim[ii, jj], kind="stable")
    used_young: set[int] = set()
    used_vanished: set[int] = set()
    keep = np.ones(len(rows), dtype=bool)
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if i in used_young or j in used_vanished:
            continue
        used_young.add(i)
        used_vanished.add(j)
        y, v = young[i], vanished[j]
        history = state.tracks[rows.tid[v].item()].history
        # created[young] > frame[vanished] keeps the joined history in frame order
        history.extend(state.tracks.pop(rows.tid[y].item()).history)
        rows.emb[v], rows.box[v], rows.frame[v] = rows.emb[y], rows.box[y], rows.frame[y]
        keep[y] = False
    rows.select(keep)
    return state


def interpolate_tracks(
    histories: dict[int, list[tuple[int, BoundingBox, float]]],
) -> dict[int, list[tuple[int, BoundingBox, float]]]:
    """Fill frame gaps inside each track with linearly interpolated boxes.

    Inserted entries get the mean score of the two endpoints. Gaps at
    track boundaries are left alone.
    """
    out: dict[int, list[tuple[int, BoundingBox, float]]] = {}
    for tid, hist in histories.items():
        hist = sorted(hist, key=lambda h: h[0])
        filled: list[tuple[int, BoundingBox, float]] = []
        for prev, cur in zip(hist, hist[1:]):
            filled.append(prev)
            gap = cur[0] - prev[0]
            if gap > 1:
                w = np.arange(1, gap)[:, None] / gap
                boxes = boxes_from_array((1 - w) * prev[1].as_array() + w * cur[1].as_array())
                score = 0.5 * (prev[2] + cur[2])
                filled.extend((prev[0] + k, box, score) for k, box in enumerate(boxes, 1))
        if hist:
            filled.append(hist[-1])
        out[tid] = filled
    return out
