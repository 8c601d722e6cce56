"""Deterministic synthetic tracking worlds.

Generates ground-truth trajectories, identity-conditioned embeddings and
noisy detections from a single seeded config, so association quality,
metric behavior and ablation directions can all be checked at desk scale.
Noise knobs mirror the common failure modes of appearance tracking:
occlusion spans, box jitter, embedding noise, random false positives and
persistent low-confidence distractors.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .geometry import BoundingBox
from .metrics import ObjectEntry, TrackSet
from .tracker import Detection, Tracker, TrackerConfig

__all__ = [
    "WorldConfig",
    "Scenario",
    "place_prototypes",
    "generate",
    "subsample",
    "iou_baseline_track",
    "oracle_tracks",
    "track_scenario",
]


@dataclass
class WorldConfig:
    """Knobs for one synthetic world."""

    n_identities: int = 10
    n_frames: int = 100
    n_classes: int = 1
    image_size: tuple[float, float] = (1000.0, 1000.0)
    motion: str = "linear"  # static | linear | random_walk
    speed: float = 3.0  # pixels per frame, linear motion
    walk_sigma: float = 2.0
    box_size_range: tuple[float, float] = (40.0, 80.0)
    dim: int = 32
    tau: float = 10.0  # logit temperature: embeddings are tau * unit vectors
    min_margin: float = 0.05  # required 1 - max cross-prototype cosine
    sigma_e: float = 0.0  # embedding noise before renormalization
    fp_rate: float = 0.0  # per-identity per-frame random false-positive rate
    fn_rate: float = 0.0
    jitter_sigma: float = 0.0  # box coordinate noise, pixels
    score_range: tuple[float, float] = (0.85, 0.99)
    fp_score_range: tuple[float, float] = (0.2, 0.7)
    n_distractors: int = 0  # persistent low-score clutter objects
    distractor_score_range: tuple[float, float] = (0.15, 0.45)
    distractor_affinity: float = 0.0  # 0 = independent clutter, near 1 = lookalike of a real identity
    occlusions: list[tuple[int, int, int]] = field(default_factory=list)  # (identity, first, last)
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("fp_rate", "fn_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        if self.sigma_e < 0 or self.jitter_sigma < 0 or self.walk_sigma < 0:
            raise ValueError("noise sigmas must be >= 0")
        if self.motion not in ("static", "linear", "random_walk"):
            raise ValueError(f"unknown motion model {self.motion!r}")


@dataclass
class Scenario:
    """Ground truth plus derived noisy detections.

    det_identity carries the true identity per detection (None for false
    positives / distractors) for diagnosis only; the tracker never sees it.
    """

    gt: TrackSet
    detections: dict[int, list[Detection]]
    det_identity: dict[int, list[int | None]]
    prototypes: np.ndarray
    config: WorldConfig


def place_prototypes(n: int, dim: int, min_margin: float, rng: np.random.Generator,
                     iters: int = 200, eta: float = 0.1) -> np.ndarray:
    """Unit-norm prototypes spread by cosine repulsion.

    Iteratively pushes each vector away from the others (descent on the
    sum of squared pairwise cosines) with a fixed budget, then verifies
    the achieved separation. Raises when the requested margin cannot be
    met for this identity count and dimension.
    """
    p = rng.standard_normal((n, dim))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    for _ in range(iters):
        sim = p @ p.T
        np.fill_diagonal(sim, 0.0)
        p = p - eta * (sim @ p)
        p /= np.linalg.norm(p, axis=1, keepdims=True)
    sim = p @ p.T
    np.fill_diagonal(sim, -1.0)
    achieved = 1.0 - float(sim.max())
    if n > 1 and achieved < min_margin:
        raise ValueError(
            f"cannot separate {n} prototypes on a {dim}-dimensional sphere "
            f"with margin {min_margin} (achieved {achieved:.4f})"
        )
    return p


def _jitter_box(box: BoundingBox, sigma: float, rng: np.random.Generator) -> BoundingBox:
    if sigma == 0.0:
        return box
    c = box.as_array() + rng.normal(0.0, sigma, size=4)
    x1, x2 = sorted((c[0], c[2]))
    y1, y2 = sorted((c[1], c[3]))
    return BoundingBox(x1, y1, x2, y2)


def _noisy_embedding(proto: np.ndarray, sigma_e: float, tau: float,
                     rng: np.random.Generator) -> np.ndarray:
    e = proto + (rng.normal(0.0, sigma_e, size=proto.shape) if sigma_e > 0 else 0.0)
    norm = np.linalg.norm(e)
    if norm == 0.0:
        e = proto
        norm = 1.0
    return tau * e / norm


def _positions(cfg: WorldConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Center trajectories, shape (n, n_frames, 2), reflected at borders."""
    w, h = cfg.image_size
    margin = cfg.box_size_range[1]
    lo, hi = np.array([margin, margin]), np.array([w - margin, h - margin])
    start = rng.uniform(lo, hi, size=(n, 2))
    pos = np.zeros((n, cfg.n_frames, 2))
    if cfg.motion == "static":
        pos[:] = start[:, None, :]
    elif cfg.motion == "linear":
        theta = rng.uniform(0, 2 * np.pi, size=n)
        vel = cfg.speed * np.stack([np.cos(theta), np.sin(theta)], axis=1)
        for t in range(cfg.n_frames):
            pos[:, t] = start + t * vel
    else:  # random_walk
        steps = rng.normal(0.0, cfg.walk_sigma, size=(n, cfg.n_frames, 2))
        steps[:, 0] = 0.0
        pos = start[:, None, :] + np.cumsum(steps, axis=1)
    # reflect into [lo, hi] (triangle-wave fold)
    span = hi - lo
    folded = np.abs(np.mod(pos - lo, 2 * span) - span)
    return lo + np.minimum(folded, span)


def generate(cfg: WorldConfig, prototypes: np.ndarray | None = None) -> Scenario:
    """Build a scenario: pure function of the config (which owns the seed).

    Prototypes are normally placed by repulsion; passing them explicitly
    (e.g. identity means from a trained embedding space) skips placement
    but not the margin check.
    """
    rng = np.random.default_rng(cfg.seed)
    n_proto = cfg.n_identities + cfg.n_distractors
    if prototypes is None:
        prototypes = place_prototypes(n_proto, cfg.dim, cfg.min_margin, rng)
    else:
        prototypes = np.asarray(prototypes, dtype=np.float64)
        if prototypes.shape != (n_proto, cfg.dim):
            raise ValueError(
                f"prototypes must have shape ({n_proto}, {cfg.dim}), got {prototypes.shape}"
            )
        prototypes = prototypes / np.linalg.norm(prototypes, axis=1, keepdims=True)
    if cfg.n_distractors and cfg.distractor_affinity > 0:
        # lookalike clutter: pull each distractor prototype toward a real one
        a = cfg.distractor_affinity
        prototypes = prototypes.copy()
        for d in range(cfg.n_distractors):
            j = cfg.n_identities + d
            target = prototypes[d % cfg.n_identities]
            mixed = a * target + (1.0 - a) * prototypes[j]
            prototypes[j] = mixed / np.linalg.norm(mixed)

    sizes = rng.uniform(*cfg.box_size_range, size=(n_proto, 2))
    centers = _positions(cfg, n_proto, rng)
    classes = np.arange(cfg.n_identities) % cfg.n_classes

    occluded: dict[int, set[int]] = {}
    for ident, first, last in cfg.occlusions:
        for t in range(first, last + 1):
            occluded.setdefault(t, set()).add(ident)

    def box_at(i: int, t: int) -> BoundingBox:
        cx, cy = centers[i, t]
        w2, h2 = sizes[i] / 2.0
        return BoundingBox(cx - w2, cy - h2, cx + w2, cy + h2)

    gt = TrackSet()
    detections: dict[int, list[Detection]] = {}
    det_identity: dict[int, list[int | None]] = {}
    img_w, img_h = cfg.image_size

    for t in range(cfg.n_frames):
        dets: list[Detection] = []
        idents: list[int | None] = []
        hidden = occluded.get(t, set())
        for i in range(cfg.n_identities):
            box = box_at(i, t)
            visible = i not in hidden
            gt.add(t, ObjectEntry(i, int(classes[i]), box, visible))
            if not visible:
                continue
            if cfg.fn_rate > 0 and rng.random() < cfg.fn_rate:
                continue
            dets.append(
                Detection(
                    box=_jitter_box(box, cfg.jitter_sigma, rng),
                    class_id=int(classes[i]),
                    score=float(rng.uniform(*cfg.score_range)),
                    embedding=_noisy_embedding(prototypes[i], cfg.sigma_e, cfg.tau, rng),
                )
            )
            idents.append(i)
        for d in range(cfg.n_distractors):
            j = cfg.n_identities + d
            dets.append(
                Detection(
                    box=box_at(j, t),
                    class_id=int(classes[d % cfg.n_identities]),
                    score=float(rng.uniform(*cfg.distractor_score_range)),
                    embedding=_noisy_embedding(prototypes[j], cfg.sigma_e, cfg.tau, rng),
                )
            )
            idents.append(None)
        if cfg.fp_rate > 0:
            for _ in range(cfg.n_identities):
                if rng.random() >= cfg.fp_rate:
                    continue
                cx, cy = rng.uniform([50, 50], [img_w - 50, img_h - 50])
                w2, h2 = rng.uniform(*cfg.box_size_range, size=2) / 2.0
                e = rng.standard_normal(cfg.dim)
                dets.append(
                    Detection(
                        box=BoundingBox(cx - w2, cy - h2, cx + w2, cy + h2),
                        class_id=int(rng.integers(cfg.n_classes)),
                        score=float(rng.uniform(*cfg.fp_score_range)),
                        embedding=cfg.tau * e / np.linalg.norm(e),
                    )
                )
                idents.append(None)
        detections[t] = dets
        det_identity[t] = idents
    return Scenario(gt, detections, det_identity, prototypes, cfg)


def subsample(scenario: Scenario, keep_every_k: int) -> Scenario:
    """Keep frames 0, k, 2k, ...; frame indices are renumbered densely."""
    if keep_every_k < 1:
        raise ValueError("keep_every_k must be >= 1")
    if keep_every_k == 1:
        return scenario
    kept = sorted(f for f in scenario.detections if f % keep_every_k == 0)
    gt = TrackSet()
    detections: dict[int, list[Detection]] = {}
    det_identity: dict[int, list[int | None]] = {}
    for new_f, old_f in enumerate(kept):
        for e in scenario.gt.frames.get(old_f, []):
            gt.add(new_f, e)
        detections[new_f] = scenario.detections[old_f]
        det_identity[new_f] = scenario.det_identity[old_f]
    cfg = replace(scenario.config, n_frames=len(kept))
    return Scenario(gt, detections, det_identity, scenario.prototypes, cfg)


def iou_baseline_track(scenario: Scenario, iou_match_threshold: float = 0.3,
                       min_score: float = 0.5) -> TrackSet:
    """Location-only baseline: greedy IoU matching against the previous
    frame's boxes; unmatched detections start new tracks. Used as the
    motion/location reference in frame-rate ablations."""
    from .geometry import iou_matrix as _ioum

    pred = TrackSet()
    prev: list[tuple[int, BoundingBox]] = []  # (track_id, last box)
    next_id = 1
    for f in sorted(scenario.detections):
        dets = [d for d in scenario.detections[f] if d.score >= min_score]
        assigned: list[tuple[int, Detection]] = []
        used: set[int] = set()
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        if prev and dets:
            overlaps = _ioum(
                np.stack([dets[i].box.as_array() for i in range(len(dets))]),
                np.stack([b.as_array() for _, b in prev]),
            )
        for i in order:
            tid = None
            if prev and dets:
                masked = overlaps[i].copy()
                masked[list(used)] = -1.0
                j = int(np.argmax(masked))
                if masked[j] >= iou_match_threshold:
                    tid = prev[j][0]
                    used.add(j)
            if tid is None:
                tid = next_id
                next_id += 1
            assigned.append((tid, dets[i]))
        for tid, d in assigned:
            pred.add(f, ObjectEntry(tid, d.class_id, d.box))
        prev = [(tid, d.box) for tid, d in assigned]
    return pred


def oracle_tracks(scenario: Scenario, min_score: float = 0.5) -> TrackSet:
    """Tracking-oracle predictions: detections associated by their true
    identities; false positives each get a fresh singleton track."""
    pred = TrackSet()
    next_fp_id = 10_000_000
    for f in sorted(scenario.detections):
        for d, ident in zip(scenario.detections[f], scenario.det_identity[f]):
            if d.score < min_score:
                continue
            if ident is None:
                tid = next_fp_id
                next_fp_id += 1
            else:
                tid = ident + 1
            pred.add(f, ObjectEntry(tid, d.class_id, d.box))
    return pred


def track_scenario(scenario: Scenario, config: TrackerConfig | None = None) -> TrackSet:
    """Run the appearance tracker over a scenario and collect predictions."""
    tracker = Tracker(config)
    pred = TrackSet()
    for f in sorted(scenario.detections):
        for tid, det in tracker.step(f, scenario.detections[f]):
            pred.add(f, ObjectEntry(tid, det.class_id, det.box))
    cfg = tracker.config
    if cfg.merge is not None or cfg.interpolate:
        # merging relabels IDs after the fact: take what the tracker holds
        class_of = {t.track_id: t.class_id for t in tracker.state.retired.values()}
        class_of.update({t.track_id: t.class_id for t in tracker.state.tracks.values()})
        pred = TrackSet()
        for tid, hist in tracker.finish().items():
            for frame, box, _score in hist:
                pred.add(frame, ObjectEntry(tid, class_of[tid], box))
    return pred
