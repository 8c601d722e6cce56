"""Appearance-only tracking: duplicate removal, bi-softmax association,
track management with backdrops, and the optional post-processing steps
(tracklet merging, box interpolation) used on high-occlusion benchmarks.

Association is purely embedding-based: detections are scored against
track and backdrop embeddings with a bi-directional softmax and claimed
greedily in descending detection-score order. No motion model anywhere.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np

# center_distance stays importable from this module: perfbench's tracer
# wraps the names this module holds, and every one of them must exist.
from .geometry import BoundingBox, box_array, center_distance, centers_within, nms  # noqa: F401
from .metrics import ObjectEntry, TrackSet
from .similarity import cosine_matrix, masked_bisoftmax, validate_embeddings

__all__ = [
    "Detection",
    "Track",
    "Backdrop",
    "MergeConfig",
    "TrackerConfig",
    "TrackerState",
    "Tracker",
    "run_sequence",
    "momentum_update",
    "merge_tracklets",
    "interpolate_tracks",
]


@dataclass
class Detection:
    """One frame observation: box, class, confidence and embedding."""

    box: BoundingBox
    class_id: int
    score: float
    embedding: np.ndarray

    def __post_init__(self) -> None:
        if not math.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValueError(
                f"detection embedding must be 1-D, got shape {self.embedding.shape}"
            )
        if not np.isfinite(self.embedding).all():
            raise ValueError("detection embedding contains non-finite values")


@dataclass
class Track:
    """Persistent identity with a momentum-smoothed embedding."""

    track_id: int
    class_id: int
    embedding: np.ndarray
    last_box: BoundingBox
    last_active_frame: int
    created_frame: int
    history: list[tuple[int, BoundingBox, float]] = field(default_factory=list)


@dataclass
class Backdrop:
    """Unmatched detection kept as a matching candidate for a few frames."""

    embedding: np.ndarray
    box: BoundingBox
    class_id: int
    frame: int


@dataclass
class MergeConfig:
    """Near-online tracklet merging parameters (window, score, distance)."""

    t: int = 10
    beta_merge: float = 0.5
    d_merge: float = 50.0

    def __post_init__(self) -> None:
        if self.t < 0:
            raise ValueError(f"merge t must be >= 0, got {self.t}")
        if not 0.0 <= self.beta_merge <= 1.0:
            raise ValueError(f"beta_merge must be in [0, 1], got {self.beta_merge}")
        if not self.d_merge >= 0.0:
            raise ValueError(f"d_merge must be >= 0, got {self.d_merge}")


@dataclass
class TrackerConfig:
    """All association and track-management thresholds.

    Defaults follow the BDD100K benchmark profile; other profiles ship as
    data files in embedtrack.profiles.
    """

    beta_obj: float = 0.35
    beta_match: float = 0.5
    beta_new: float = 0.5
    memory_frames: int = 10  # inactive tracks kept this many frames (K)
    backdrop_frames: int = 1  # backdrop lifetime in frames (L)
    momentum: float = 0.8
    nms_threshold: float = 0.65
    det_confidence: float = 0.1
    similarity_metric: str = "bisoftmax"  # or "cosine" (ablation only)
    duplicate_removal: bool = True
    distance_gate: float | None = None
    merge: MergeConfig | None = None
    interpolate: bool = False

    def __post_init__(self) -> None:
        for name in ("beta_obj", "beta_match", "beta_new", "momentum", "nms_threshold", "det_confidence"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.memory_frames < 0 or self.backdrop_frames < 0:
            raise ValueError("memory_frames and backdrop_frames must be >= 0")
        if self.distance_gate is not None and not self.distance_gate >= 0.0:
            raise ValueError(f"distance_gate must be >= 0, got {self.distance_gate}")
        if self.similarity_metric not in ("bisoftmax", "cosine"):
            raise ValueError(f"unknown similarity metric {self.similarity_metric!r}")
        if self.beta_new < self.beta_obj:
            warnings.warn(
                f"beta_new ({self.beta_new}) < beta_obj ({self.beta_obj}); "
                "low-confidence detections may spawn tracks",
                stacklevel=2,
            )


class _Rows:
    """Tracks or backdrops as parallel arrays: row i holds the embedding,
    class, box (the last one for a track), frame (the last active one for
    a track) and creation frame of ``objs[i]``."""

    def __init__(self, objs: list, emb: np.ndarray, cls: np.ndarray, box: np.ndarray,
                 frame: np.ndarray, created: np.ndarray):
        self.objs, self.emb, self.cls, self.box = objs, emb, cls, box
        self.frame, self.created = frame, created

    @classmethod
    def of(cls, objs: list, box_attr: str, frame_attr: str, created_attr: str) -> "_Rows":
        if not objs:
            empty = np.empty(0, dtype=np.int64)
            return cls([], np.empty((0, 0)), empty, np.empty((0, 4)), empty, empty)
        return cls(
            objs,
            np.array([o.embedding for o in objs], dtype=np.float64),
            np.array([o.class_id for o in objs]),
            box_array(getattr(o, box_attr) for o in objs),
            np.array([getattr(o, frame_attr) for o in objs], dtype=np.int64),
            np.array([getattr(o, created_attr) for o in objs], dtype=np.int64),
        )

    def mirrors(self, objs) -> bool:
        """Whether ``objs`` are exactly the objects these rows describe."""
        return len(objs) == len(self.objs) and all(map(operator.is_, objs, self.objs))

    def extend(self, objs: list, emb: np.ndarray, cls: np.ndarray, box: np.ndarray,
               frame: int) -> None:
        """Append rows created at ``frame``."""
        if not objs:
            return
        frame = np.full(len(objs), frame, dtype=np.int64)
        created = frame.copy()
        if self.objs:
            emb = np.concatenate([self.emb, emb])
            cls = np.concatenate([self.cls, cls])
            box = np.concatenate([self.box, box])
            frame = np.concatenate([self.frame, frame])
            created = np.concatenate([self.created, created])
        else:
            # the new objects hold views of emb, and step writes rows in place
            emb = emb.copy()
        self.objs = self.objs + objs
        self.emb, self.cls, self.box, self.frame, self.created = emb, cls, box, frame, created

    def select(self, keep: np.ndarray) -> None:
        """Keep the rows where the boolean ``keep`` is set."""
        if keep.all():
            return
        self.objs = [self.objs[i] for i in np.flatnonzero(keep)]
        self.emb, self.cls = self.emb.compress(keep, axis=0), self.cls[keep]
        self.box = self.box.compress(keep, axis=0)
        self.frame, self.created = self.frame[keep], self.created[keep]


@dataclass
class TrackerState:
    """Mutable per-sequence state; one instance per video.

    ``step`` and ``merge_tracklets`` keep the live tracks and backdrops as
    arrays too, row for row in the order of ``tracks`` and ``backdrops``.
    Tracks or backdrops added or removed by other code are picked up: the
    arrays are rebuilt when they no longer describe the same objects. A
    field of a live ``Track`` changed in place by other code is not.
    """

    tracks: dict[int, Track] = field(default_factory=dict)
    retired: dict[int, Track] = field(default_factory=dict)
    backdrops: list[Backdrop] = field(default_factory=list)
    next_id: int = 1
    frame: int | None = None
    _track_rows: _Rows | None = field(default=None, init=False, repr=False, compare=False)
    _backdrop_rows: _Rows | None = field(default=None, init=False, repr=False, compare=False)


def _rows(state: TrackerState) -> tuple[_Rows, _Rows]:
    """The state's track and backdrop arrays, rebuilt where stale."""
    tracks, backdrops = state._track_rows, state._backdrop_rows
    if tracks is None or not tracks.mirrors(state.tracks.values()):
        tracks = state._track_rows = _Rows.of(
            list(state.tracks.values()), "last_box", "last_active_frame", "created_frame")
    if backdrops is None or not backdrops.mirrors(state.backdrops):
        backdrops = state._backdrop_rows = _Rows.of(list(state.backdrops), "box", "frame", "frame")
    return tracks, backdrops


def momentum_update(old: np.ndarray, new: np.ndarray, m: float) -> np.ndarray:
    """Exponential update m * new + (1 - m) * old, no renormalization;
    row by row for (N, D) inputs, a (D,) result for 1-D inputs."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    old_rows = validate_embeddings(old)
    new_rows = validate_embeddings(new, dim=old_rows.shape[1])
    if new_rows.shape != old_rows.shape:
        raise ValueError(f"momentum_update got {len(new_rows)} new rows for {len(old_rows)} old")
    out = m * new_rows + (1.0 - m) * old_rows
    return out[0] if np.ndim(old) == 1 else out


class Tracker:
    """Stateful per-sequence tracker; feed frames in order via step()."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.state = TrackerState()

    def step(self, frame_index: int, detections: list[Detection]) -> list[tuple[int, Detection]]:
        """Process one frame; returns the confirmed (track_id, detection)
        pairs for this frame."""
        return step(self.state, frame_index, detections, self.config)

    def finish(self) -> dict[int, list[tuple[int, BoundingBox, float]]]:
        """All track histories (live and retired), interpolated if
        configured."""
        histories = {t.track_id: list(t.history) for t in self.state.retired.values()}
        histories.update({t.track_id: list(t.history) for t in self.state.tracks.values()})
        if self.config.interpolate:
            histories = interpolate_tracks(histories)
        return histories


def run_sequence(frames: dict[int, list[Detection]], config: TrackerConfig | None = None) -> TrackSet:
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


def _gather(parts: list[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """Rows ``idx`` of each ``(array, idx)`` part, stacked in order; an
    array is used as it is when all its rows are taken."""
    parts = [a if len(idx) == len(a) else a.take(idx, axis=0) for a, idx in parts if len(idx)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def step(
    state: TrackerState,
    frame_index: int,
    detections: list[Detection],
    cfg: TrackerConfig,
) -> list[tuple[int, Detection]]:
    """One association step.

    Pipeline: confidence floor, class-agnostic duplicate-removal NMS,
    similarity against tracks-within-memory plus live backdrops (class and
    distance masking applied pre-softmax), then greedy claiming in
    descending score order: match a free track, or be consumed by a
    backdrop, or start a new track (score above beta_new), or become a
    backdrop. Finally expired tracks and backdrops are purged.
    """
    if state.frame is not None and frame_index <= state.frame:
        raise ValueError(
            f"frame index must increase monotonically ({frame_index} after {state.frame})"
        )
    state.frame = frame_index
    tracks, backdrops = _rows(state)

    dets = [d for d in detections if d.score >= cfg.det_confidence]
    n = len(dets)
    matches: list[tuple[int, Detection]] = []
    if n:
        scores = np.array([d.score for d in dets], dtype=np.float64)
        det_box = box_array(d.box for d in dets)
        if cfg.duplicate_removal:
            keep = nms(det_box, scores, cfg.nms_threshold)
            if len(keep) < n:
                keep.sort()
                dets, n = [dets[i] for i in keep], len(keep)
                scores, det_box = scores[keep], det_box[keep]
        det_cls = np.array([d.class_id for d in dets])
        det_emb = np.array([d.embedding for d in dets])

        # candidates: tracks inactive at most memory_frames, then backdrops
        # at most backdrop_frames old
        cand_t = np.flatnonzero(frame_index - tracks.frame <= cfg.memory_frames)
        cand_b = np.flatnonzero(frame_index - backdrops.frame <= cfg.backdrop_frames)
        n_tracks = len(cand_t)
        # best candidate and its similarity per detection (-inf: no candidate)
        best = np.zeros(n, dtype=np.intp)
        best_conf = np.full(n, -np.inf)
        if n_tracks or len(cand_b):
            cand_emb = _gather([(tracks.emb, cand_t), (backdrops.emb, cand_b)])
            cand_cls = _gather([(tracks.cls, cand_t), (backdrops.cls, cand_b)])
            allowed = det_cls[:, None] == cand_cls[None, :]
            if cfg.distance_gate is not None:
                cand_box = _gather([(tracks.box, cand_t), (backdrops.box, cand_b)])
                allowed &= centers_within(det_box, cand_box, cfg.distance_gate)
            if cfg.similarity_metric == "bisoftmax":
                sim = masked_bisoftmax(det_emb, cand_emb, allowed)
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
        eligible = (best_conf[order] > cfg.beta_match) & (o_score > cfg.beta_obj)
        to_track = np.flatnonzero(eligible & (o_best < n_tracks))
        won = np.zeros(n, dtype=bool)
        won[to_track[np.unique(o_best[to_track], return_index=True)[1]]] = True
        free = ~(won | (eligible & (o_best >= n_tracks)))
        spawn = free & (o_score > cfg.beta_new)

        # Matched tracks: one momentum update of their rows. Tracks and
        # backdrops made here hold views of this frame's arrays; purge gives
        # a retired track a copy, so no old frame's array stays alive.
        di, rows = order[won], cand_t[o_best[won]]
        if rows.size:
            blend = momentum_update(tracks.emb.take(rows, axis=0), det_emb.take(di, axis=0),
                                    cfg.momentum)
            tracks.emb[rows] = blend
            tracks.box[rows] = det_box.take(di, axis=0)
            tracks.frame[rows] = frame_index
            for i, r, emb in zip(di.tolist(), rows.tolist(), blend):
                det, track = dets[i], tracks.objs[r]
                track.embedding = emb
                track.last_box = det.box
                track.last_active_frame = frame_index
                track.history.append((frame_index, det.box, det.score))
                matches.append((track.track_id, det))

        si = order[spawn].tolist()
        emb = det_emb.take(si, axis=0)
        born = [
            Track(
                track_id=state.next_id + k,
                class_id=dets[i].class_id,
                embedding=e,
                last_box=dets[i].box,
                last_active_frame=frame_index,
                created_frame=frame_index,
                history=[(frame_index, dets[i].box, dets[i].score)],
            )
            for k, (i, e) in enumerate(zip(si, emb))
        ]
        tracks.extend(born, emb, det_cls[si], det_box.take(si, axis=0), frame_index)
        for i, track in zip(si, born):
            state.tracks[track.track_id] = track
            matches.append((track.track_id, dets[i]))
        state.next_id += len(born)

        bi = order[free & ~spawn].tolist()
        emb = det_emb.take(bi, axis=0)
        backdrops.extend(
            [Backdrop(e, dets[i].box, dets[i].class_id, frame_index) for i, e in zip(bi, emb)],
            emb, det_cls[bi], det_box.take(bi, axis=0), frame_index,
        )

    # purge expired state
    expired = frame_index - tracks.frame > cfg.memory_frames
    if expired.any():
        for r in np.flatnonzero(expired).tolist():
            track = tracks.objs[r]
            track.embedding = track.embedding.copy()
            state.retired[track.track_id] = state.tracks.pop(track.track_id)
        tracks.select(~expired)
    backdrops.select(frame_index - backdrops.frame <= cfg.backdrop_frames)
    state.backdrops = list(backdrops.objs)

    if cfg.merge is not None:
        merge_tracklets(state, cfg.merge)

    matches.sort(key=operator.itemgetter(0))
    return matches


def merge_tracklets(state: TrackerState, merge: MergeConfig) -> TrackerState:
    """Fold recently created tracks into matching vanished tracks.

    A track created within the last t frames may be absorbed by an
    inactive track of its class that was last active before the young
    track was created, whose bi-softmax match score exceeds beta_merge and
    whose last box lies within d_merge pixels. Each vanished track absorbs
    at most one young track (best score wins); the young ID is retired and
    its history relabeled.
    """
    if state.frame is None:
        return state
    now = state.frame
    rows, _ = _rows(state)
    young = np.flatnonzero((now - rows.created <= merge.t) & (rows.frame == now))
    vanished = np.flatnonzero(rows.frame < now)
    if not young.size or not vanished.size:
        return state

    # a track that overlaps the vanished one in time would give one ID two
    # boxes in a frame
    allowed = (
        (rows.cls[young][:, None] == rows.cls[vanished][None, :])
        & (rows.created[young][:, None] > rows.frame[vanished][None, :])
        & centers_within(rows.box[young], rows.box[vanished], merge.d_merge)
    )
    if not allowed.any():
        return state
    sim = masked_bisoftmax(rows.emb[young], rows.emb[vanished], allowed)

    # best young per vanished track, in descending score, ties by (i, j):
    # nonzero lists pairs row-major and the sort is stable
    ii, jj = np.nonzero(sim > merge.beta_merge)
    order = np.argsort(-sim[ii, jj], kind="stable")
    used_young: set[int] = set()
    used_vanished: set[int] = set()
    keep = np.ones(len(rows.objs), dtype=bool)
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if i in used_young or j in used_vanished:
            continue
        used_young.add(i)
        used_vanished.add(j)
        y, v = young[i], vanished[j]
        yt, vt = rows.objs[y], rows.objs[v]
        vt.history.extend(yt.history)
        vt.history.sort(key=lambda h: h[0])
        vt.embedding = yt.embedding.copy()
        vt.last_box = yt.last_box
        vt.last_active_frame = yt.last_active_frame
        rows.emb[v], rows.box[v], rows.frame[v] = rows.emb[y], rows.box[y], rows.frame[y]
        keep[y] = False
        del state.tracks[yt.track_id]
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
                a, b = prev[1].as_array(), cur[1].as_array()
                score = 0.5 * (prev[2] + cur[2])
                for k in range(1, gap):
                    w = k / gap
                    box = BoundingBox(*((1 - w) * a + w * b))
                    filled.append((prev[0] + k, box, score))
        if hist:
            filled.append(hist[-1])
        out[tid] = filled
    return out
