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

from .config import _from_dict
from .geometry import BoundingBox, box_array, iou_matrix
from .metrics import ObjectEntry, TrackSet
from .tracker import Detection

__all__ = [
    "WorldConfig",
    "Scenario",
    "place_prototypes",
    "generate",
    "subsample",
    "iou_baseline_track",
    "oracle_tracks",
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
        for name, low in (("dim", 1), ("n_classes", 1), ("n_identities", 1),
                          ("n_distractors", 0), ("n_frames", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)}")
        for name in ("speed", "min_margin"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 < self.tau < np.inf:
            raise ValueError(f"tau must be finite and > 0, got {self.tau}")
        for name in ("fp_rate", "fn_rate", "distractor_affinity"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {v}")
        for name in ("sigma_e", "jitter_sigma", "walk_sigma"):
            v = getattr(self, name)
            if not 0.0 <= v < np.inf:
                raise ValueError(f"noise sigmas must be finite and >= 0, got {name}={v}")
        if self.motion not in ("static", "linear", "random_walk"):
            raise ValueError(f"unknown motion model {self.motion!r}")
        for name, top in (("score_range", 1.0), ("fp_score_range", 1.0),
                          ("distractor_score_range", 1.0), ("box_size_range", np.inf)):
            lo, hi = getattr(self, name)
            if not 0.0 <= lo <= hi <= top:
                raise ValueError(f"{name} must satisfy 0 <= low <= high <= {top}, got {(lo, hi)}")
        # centres reflect one largest box size inside each border; false
        # positives are centred 50 pixels inside
        twice, least = 2 * self.box_size_range[1], (100.0 if self.fp_rate > 0 else 0.0)
        if not all(twice < side < np.inf and side >= least for side in self.image_size):
            raise ValueError("image_size sides must be finite, more than twice box_size_range[1] and "
                             f"at least 100 if fp_rate > 0, got {self.image_size}")
        if not all(0 <= i < self.n_identities and first <= last for i, first, last in self.occlusions):
            raise ValueError("occlusions need 0 <= identity < n_identities and first <= last "
                             f"in each (identity, first, last), got {self.occlusions}")

    @classmethod
    def from_dict(cls, data) -> "WorldConfig":
        """A world from a JSON document; unknown keys and values of the
        wrong type raise ValueError."""
        return _from_dict(cls, data, "world config")


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


# rise in the sum of squared prototype cosines that makes a repulsion step an
# overshoot; converging runs rise by at most about 6e-14 from step to step
_ENERGY_TOLERANCE = 1e-9
_REPULSION_STEPS, _REPULSION_ETA = 200, 0.1  # step budget, first step size
# the least detection score of the IoU baseline and the oracle, and the
# baseline's least IoU with a box of the previous frame
_MIN_SCORE, _BASELINE_MATCH_IOU = 0.5, 0.3


def _margin(unit: np.ndarray) -> float:
    """1 minus the largest cosine between two unit-norm rows; inf for fewer than two rows."""
    return 1.0 - float((unit @ unit.T)[~np.eye(len(unit), dtype=bool)].max(initial=-np.inf))


def place_prototypes(n: int, dim: int, min_margin: float, rng: np.random.Generator) -> np.ndarray:
    """Unit-norm prototypes spread by cosine repulsion.

    Iteratively pushes each vector away from the others (descent on the
    sum of squared pairwise cosines) with a fixed budget, then verifies
    the achieved separation. A step that raises that sum by more than
    ``_ENERGY_TOLERANCE`` overshot: it is dropped and retried with half
    the step size. Raises when the requested margin cannot be met for this
    identity count and dimension.
    """
    p = rng.standard_normal((n, dim))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    sim = p @ p.T
    np.fill_diagonal(sim, 0.0)
    energy = float(np.vdot(sim, sim))
    eta = _REPULSION_ETA
    for _ in range(_REPULSION_STEPS):
        q = p - eta * (sim @ p)
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        q_sim = q @ q.T
        np.fill_diagonal(q_sim, 0.0)
        q_energy = float(np.vdot(q_sim, q_sim))
        if q_energy > energy + _ENERGY_TOLERANCE:
            eta *= 0.5
            continue
        p, sim, energy = q, q_sim, q_energy
    achieved = _margin(p)
    if achieved < min_margin:
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
    but not the checks: each row needs a finite non-zero norm, and the
    normalized rows must meet ``cfg.min_margin``.
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
        norms = np.linalg.norm(prototypes, axis=1, keepdims=True)
        if (bad := np.flatnonzero(~((norms > 0) & (norms < np.inf)))).size:
            raise ValueError(f"prototype row {bad[0]} is zero or not finite")
        prototypes = prototypes / norms
        if (margin := _margin(prototypes)) < cfg.min_margin:
            raise ValueError(f"prototypes have margin {margin:.4f}, below min_margin {cfg.min_margin}")
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


def iou_baseline_track(scenario: Scenario) -> TrackSet:
    """Location-only baseline: greedy IoU matching against the previous
    frame's boxes; unmatched detections start new tracks. Used as the
    motion/location reference in frame-rate ablations."""
    pred = TrackSet()
    prev: list[tuple[int, BoundingBox]] = []  # (track_id, last box)
    next_id = 1
    for f in sorted(scenario.detections):
        dets = [d for d in scenario.detections[f] if d.score >= _MIN_SCORE]
        assigned: list[tuple[int, Detection]] = []
        used: set[int] = set()
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        if prev and dets:
            overlaps = iou_matrix(box_array(d.box for d in dets), box_array(b for _, b in prev))
        for i in order:
            tid = None
            if prev and dets:
                masked = overlaps[i].copy()
                masked[list(used)] = -1.0
                j = int(np.argmax(masked))
                if masked[j] >= _BASELINE_MATCH_IOU:
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


def oracle_tracks(scenario: Scenario) -> TrackSet:
    """Tracking-oracle predictions: detections associated by their true
    identities; false positives each get a fresh singleton track."""
    pred = TrackSet()
    next_fp_id = 10_000_000
    for f in sorted(scenario.detections):
        for d, ident in zip(scenario.detections[f], scenario.det_identity[f]):
            if d.score < _MIN_SCORE:
                continue
            if ident is None:
                tid = next_fp_id
                next_fp_id += 1
            else:
                tid = ident + 1
            pred.add(f, ObjectEntry(tid, d.class_id, d.box))
    return pred
