"""Appearance-only tracking: duplicate removal, bi-softmax association,
track management with backdrops, and the optional post-processing steps
(tracklet merging, box interpolation) used on high-occlusion benchmarks.

Association is purely embedding-based: detections are scored against
track and backdrop embeddings with a bi-directional softmax and claimed
greedily in descending detection-score order. No motion model anywhere.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, asdict

import numpy as np

# center_distance stays importable from this module: perfbench's tracer
# wraps the names this module holds, and every one of them must exist.
from .geometry import BoundingBox, center_distance, center_distance_matrix, nms  # noqa: F401
from .similarity import cosine_matrix, masked_bisoftmax, validate_embeddings

__all__ = [
    "Detection",
    "Track",
    "Backdrop",
    "MergeConfig",
    "TrackerConfig",
    "TrackerState",
    "Tracker",
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
        if not np.isfinite(self.score) or not 0.0 <= self.score <= 1.0:
            raise ValueError(f"detection score must be in [0, 1], got {self.score}")
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValueError(
                f"detection embedding must be 1-D, got shape {self.embedding.shape}"
            )
        if not np.all(np.isfinite(self.embedding)):
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
    same_class_only: bool = True
    similarity_metric: str = "bisoftmax"  # or "cosine" (ablation only)
    duplicate_removal: bool = True
    distance_gate: float | None = None
    merge: MergeConfig | None = None
    interpolate: bool = False

    def __post_init__(self) -> None:
        for name in ("beta_obj", "beta_match", "beta_new"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.memory_frames < 0 or self.backdrop_frames < 0:
            raise ValueError("memory_frames and backdrop_frames must be >= 0")
        if not 0.0 <= self.momentum <= 1.0:
            raise ValueError(f"momentum must be in [0, 1], got {self.momentum}")
        if self.similarity_metric not in ("bisoftmax", "cosine"):
            raise ValueError(f"unknown similarity metric {self.similarity_metric!r}")
        if self.beta_new < self.beta_obj:
            warnings.warn(
                f"beta_new ({self.beta_new}) < beta_obj ({self.beta_obj}); "
                "low-confidence detections may spawn tracks",
                stacklevel=2,
            )

    def get_params(self) -> dict:
        return asdict(self)


@dataclass
class TrackerState:
    """Mutable per-sequence state; one instance per video."""

    tracks: dict[int, Track] = field(default_factory=dict)
    retired: dict[int, Track] = field(default_factory=dict)
    backdrops: list[Backdrop] = field(default_factory=list)
    next_id: int = 1
    frame: int | None = None


def momentum_update(old: np.ndarray, new: np.ndarray, m: float) -> np.ndarray:
    """Exponential update m * new + (1 - m) * old, no renormalization."""
    if not 0.0 <= m <= 1.0:
        raise ValueError(f"momentum must be in [0, 1], got {m}")
    old = validate_embeddings(old)[0]
    new = validate_embeddings(new, dim=old.shape[0])[0]
    return m * new + (1.0 - m) * old


class Tracker:
    """Stateful per-sequence tracker; feed frames in order via step()."""

    def __init__(self, config: TrackerConfig | None = None):
        self.config = config or TrackerConfig()
        self.state = TrackerState()

    def get_params(self) -> dict:
        return self.config.get_params()

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


def _within(boxes_a: list[BoundingBox], boxes_b: list[BoundingBox], radius: float) -> np.ndarray:
    """(N, M) mask of box pairs whose centers are at most ``radius`` apart."""
    a = np.array([(x.x1, x.y1, x.x2, x.y2) for x in boxes_a], dtype=np.float64)
    b = np.array([(x.x1, x.y1, x.x2, x.y2) for x in boxes_b], dtype=np.float64)
    return ~(center_distance_matrix(a, b) > radius)


def _candidate_pools(state: TrackerState, frame_index: int, cfg: TrackerConfig):
    """Tracks inactive at most memory_frames and backdrops at most
    backdrop_frames old, as parallel candidate arrays."""
    tracks = [
        t for t in state.tracks.values()
        if frame_index - t.last_active_frame <= cfg.memory_frames
    ]
    backdrops = [
        b for b in state.backdrops if frame_index - b.frame <= cfg.backdrop_frames
    ]
    return tracks, backdrops


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

    dets = [d for d in detections if d.score >= cfg.det_confidence]
    if dets and cfg.duplicate_removal:
        keep = nms(
            [(d.box, d.score, d.class_id) for d in dets],
            cfg.nms_threshold,
            class_agnostic=True,
        )
        dets = [dets[i] for i in sorted(keep)]

    tracks, backdrops = _candidate_pools(state, frame_index, cfg)
    n_tracks = len(tracks)

    # best candidate and its similarity per detection (-inf: no candidate)
    best = [0] * len(dets)
    best_conf = [-np.inf] * len(dets)
    if dets and (tracks or backdrops):
        det_emb = np.stack([d.embedding for d in dets])
        cand_emb = np.stack([t.embedding for t in tracks] + [b.embedding for b in backdrops])
        allowed = np.ones((len(dets), len(cand_emb)), dtype=bool)
        if cfg.same_class_only:
            det_cls = np.array([d.class_id for d in dets])
            cand_cls = np.array([t.class_id for t in tracks] + [b.class_id for b in backdrops])
            allowed &= det_cls[:, None] == cand_cls[None, :]
        if cfg.distance_gate is not None:
            cand_boxes = [t.last_box for t in tracks] + [b.box for b in backdrops]
            allowed &= _within([d.box for d in dets], cand_boxes, cfg.distance_gate)
        if cfg.similarity_metric == "bisoftmax":
            sim = masked_bisoftmax(det_emb, cand_emb, allowed)
        else:
            sim = cosine_matrix(det_emb, cand_emb)
            sim = np.where(allowed, sim, -np.inf)
        best_j = np.argmax(sim, axis=1)
        best = best_j.tolist()
        best_conf = sim[np.arange(len(dets)), best_j].tolist()

    # greedy in descending detection score, ties by input index
    matches: list[tuple[int, Detection]] = []
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    claimed: set[int] = set()
    m = cfg.momentum
    for i in order:
        det = dets[i]
        handled = False
        if best_conf[i] > cfg.beta_match and det.score > cfg.beta_obj:
            j = best[i]
            if j < n_tracks:
                track = tracks[j]
                if track.track_id not in claimed:
                    # the momentum_update blend; both sides were validated
                    # when their Detection was built
                    track.embedding = m * det.embedding + (1.0 - m) * track.embedding
                    track.last_box = det.box
                    track.last_active_frame = frame_index
                    track.history.append((frame_index, det.box, det.score))
                    claimed.add(track.track_id)
                    matches.append((track.track_id, det))
                    handled = True
            else:
                handled = True  # consumed by a backdrop: no track touched
        if not handled:
            if det.score > cfg.beta_new:
                track = Track(
                    track_id=state.next_id,
                    class_id=det.class_id,
                    embedding=det.embedding.copy(),
                    last_box=det.box,
                    last_active_frame=frame_index,
                    created_frame=frame_index,
                    history=[(frame_index, det.box, det.score)],
                )
                state.tracks[track.track_id] = track
                state.next_id += 1
                claimed.add(track.track_id)
                matches.append((track.track_id, det))
            else:
                state.backdrops.append(
                    Backdrop(det.embedding.copy(), det.box, det.class_id, frame_index)
                )

    # purge expired state
    for tid in [
        tid for tid, t in state.tracks.items()
        if frame_index - t.last_active_frame > cfg.memory_frames
    ]:
        state.retired[tid] = state.tracks.pop(tid)
    state.backdrops = [
        b for b in state.backdrops if frame_index - b.frame <= cfg.backdrop_frames
    ]

    if cfg.merge is not None:
        merge_tracklets(state, cfg.merge)

    matches.sort(key=lambda p: p[0])
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
    young = [
        t for t in state.tracks.values()
        if now - t.created_frame <= merge.t and t.last_active_frame == now
    ]
    vanished = [t for t in state.tracks.values() if t.last_active_frame < now]
    if not young or not vanished:
        return state

    y_emb = np.stack([t.embedding for t in young])
    v_emb = np.stack([t.embedding for t in vanished])
    y_cls = np.array([t.class_id for t in young])
    v_cls = np.array([t.class_id for t in vanished])
    y_created = np.array([t.created_frame for t in young])
    v_last = np.array([t.last_active_frame for t in vanished])
    # a track that overlaps the vanished one in time would give one ID two
    # boxes in a frame
    allowed = (
        (y_cls[:, None] == v_cls[None, :])
        & (y_created[:, None] > v_last[None, :])
        & _within([t.last_box for t in young], [t.last_box for t in vanished], merge.d_merge)
    )
    if not allowed.any():
        return state
    sim = masked_bisoftmax(y_emb, v_emb, allowed)

    # best young per vanished track, in descending score, ties by (i, j):
    # nonzero lists pairs row-major and the sort is stable
    ii, jj = np.nonzero(sim > merge.beta_merge)
    order = np.argsort(-sim[ii, jj], kind="stable")
    used_young: set[int] = set()
    used_vanished: set[int] = set()
    for i, j in zip(ii[order].tolist(), jj[order].tolist()):
        if i in used_young or j in used_vanished:
            continue
        used_young.add(i)
        used_vanished.add(j)
        yt, vt = young[i], vanished[j]
        vt.history.extend(yt.history)
        vt.history.sort(key=lambda h: h[0])
        vt.embedding = yt.embedding.copy()
        vt.last_box = yt.last_box
        vt.last_active_frame = yt.last_active_frame
        del state.tracks[yt.track_id]
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
