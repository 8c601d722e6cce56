"""Deterministic synthetic tracking worlds.

Generates ground-truth trajectories, identity-conditioned embeddings and
noisy detections from a single seeded config, so association quality,
metric behavior and ablation directions can all be checked at desk scale.
Noise knobs mirror the common failure modes of appearance tracking:
occlusion spans, box jitter, embedding noise, random false positives and
persistent low-confidence distractors.

``generate`` builds a world one frame at a time, drawing each kind of
per-frame value as one block from its own random stream, then computing
the frame's boxes, embeddings, scores and classes as arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .config import check_fields, check_range
from .geometry import BoundingBox, box_array, boxes_from_array, iou_matrix
from .metrics import ObjectEntry, TrackSet
from .tracker import Detection, Frame, detections_from_arrays

__all__ = [
    "WorldConfig",
    "Scenario",
    "place_prototypes",
    "generate",
    "subsample",
    "iou_baseline_track",
    "oracle_tracks",
]

_BOX_SIZE_RANGE = (40.0, 80.0)  # of box widths and heights, pixels


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for one synthetic world; frozen, so a variant comes from ``replace``."""

    n_identities: int = 10
    n_frames: int = 100
    n_classes: int = 1
    image_size: tuple[float, float] = (1000.0, 1000.0)
    speed: float = 3.0  # pixels per frame
    dim: int = 32
    min_margin: float = 0.05  # required 1 - max cross-prototype cosine
    sigma_e: float = 0.0  # embedding noise before renormalization
    fp_rate: float = 0.0  # per-identity per-frame random false-positive rate
    fn_rate: float = 0.0
    jitter_sigma: float = 0.0  # box coordinate noise, pixels
    n_distractors: int = 0  # persistent low-score clutter objects
    distractor_affinity: float = 0.0  # 0 = independent clutter, near 1 = lookalike of a real identity
    # (identity, first, last) ints; a list, tuple or array of such entries, held as tuples
    occlusions: tuple[tuple[int, int, int], ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        check_fields(self)
        check_range(self, ("dim", "n_classes", "n_identities"), lambda v: v >= 1, ">= 1")
        check_range(self, ("n_distractors", "n_frames", "seed"), lambda v: v >= 0, ">= 0")
        check_range(self, ("speed", "min_margin"), lambda v: -np.inf < v < np.inf, "finite")
        check_range(self, ("fp_rate", "fn_rate", "distractor_affinity"), lambda v: 0.0 <= v <= 1.0,
                    "in [0, 1]")
        check_range(self, ("sigma_e", "jitter_sigma"), lambda v: 0.0 <= v < np.inf, "finite and >= 0")
        # centres reflect one largest box size inside each border; false
        # positives are centred 50 pixels inside, which this leaves room for
        least = 2 * _BOX_SIZE_RANGE[1]
        if not all(least < side < np.inf for side in self.image_size):
            raise ValueError(f"image_size sides must be finite and more than {least:g}, "
                             f"got {self.image_size}")
        if not all(0 <= o[0] < self.n_identities and o[1] <= o[2] for o in self.occlusions):
            raise ValueError("occlusions need (identity, first, last) ints with 0 <= identity "
                             f"< n_identities and first <= last, got {self.occlusions!r}")


@dataclass
class Scenario:
    """Ground truth plus derived noisy detections.

    ``detections`` holds one ``Frame`` per frame index. det_identity
    carries the true identity per detection (None for false positives /
    distractors) for diagnosis only; the tracker never sees it.
    """

    gt: TrackSet
    detections: dict[int, Frame]
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
# embedding norm (the logit temperature: embeddings are _TAU * unit vectors)
# and the detection score ranges of identities, false positives and distractors
_TAU = 10.0
_SCORE_RANGE, _FP_SCORE_RANGE, _DISTRACTOR_SCORE_RANGE = (0.85, 0.99), (0.2, 0.7), (0.15, 0.45)


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


def _row_norms(e: np.ndarray) -> np.ndarray:
    """Each row's norm as an (N, 1) column, to the bit ``np.linalg.norm``
    of the row alone, ``sqrt(row.dot(row))``; ``axis=1`` sums in another order."""
    return np.sqrt(e[:, None, :] @ e[:, :, None])[:, 0]


def _positions(cfg: WorldConfig, n: int, rng: np.random.Generator) -> np.ndarray:
    """Center trajectories, shape (n, n_frames, 2): straight lines at
    ``cfg.speed`` in a random direction, reflected at borders."""
    w, h = cfg.image_size
    margin = _BOX_SIZE_RANGE[1]
    lo, hi = np.array([margin, margin]), np.array([w - margin, h - margin])
    start = rng.uniform(lo, hi, size=(n, 2))
    theta = rng.uniform(0, 2 * np.pi, size=n)
    vel = cfg.speed * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    pos = start[:, None] + np.arange(cfg.n_frames)[:, None] * vel[:, None]
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

    The seed's generator places the prototypes and draws the box sizes and
    trajectories. Each frame then draws one block from each of five
    streams spawned from ``SeedSequence(cfg.seed)``, whatever the knob
    values: a false-negative value per identity, four jitter values per
    identity, a score per identity then per distractor, a noise row per
    identity and distractor, and a value per false-positive slot followed
    by the centres, sizes, embeddings, classes and scores of the slots
    below ``fp_rate``. Seen identities and distractors take their rows; the
    frame is computed from them as arrays, and ``detections_from_arrays``
    checks them and builds the frame's ``Frame``.
    """
    rng = np.random.default_rng(cfg.seed)
    n_id = cfg.n_identities
    n_proto = n_id + cfg.n_distractors
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
        mixed = a * prototypes[np.arange(cfg.n_distractors) % n_id] + (1.0 - a) * prototypes[n_id:]
        prototypes = np.concatenate([prototypes[:n_id], mixed / _row_norms(mixed)])

    sizes = rng.uniform(*_BOX_SIZE_RANGE, size=(n_proto, 2))
    # xyxy corners of every identity and distractor box, (n_frames, n_proto, 4)
    centers = _positions(cfg, n_proto, rng).transpose(1, 0, 2)
    half = sizes / 2.0
    corners = np.concatenate([centers - half, centers + half], axis=2)
    # a distractor takes the class of the identity it may imitate
    classes = np.arange(n_proto) % n_id % cfg.n_classes
    gt_classes = classes[:n_id].tolist()

    occluded = np.zeros((cfg.n_frames, n_id), dtype=bool)  # spans are clipped to frames >= 0
    for ident, first, last in cfg.occlusions:
        occluded[max(first, 0):max(last + 1, 0), ident] = True

    gt = TrackSet()
    detections: dict[int, Frame] = {}
    det_identity: dict[int, list[int | None]] = {}
    img_w, img_h = cfg.image_size
    fp_low, fp_high = (50.0, 50.0), (img_w - 50.0, img_h - 50.0)  # false-positive centres
    # one stream per kind of per-frame draw: a new kind takes a new child and
    # moves no existing draw, and no knob moves the draws of another kind
    fn, jitter, score, noise, fp = map(np.random.default_rng, np.random.SeedSequence(cfg.seed).spawn(5))

    for t in range(cfg.n_frames):
        # ids 0..n_id-1 are unique, so the entries skip TrackSet.add
        gt.frames[t] = [ObjectEntry(i, c, box, not h) for i, (c, box, h) in
                        enumerate(zip(gt_classes, boxes_from_array(corners[t, :n_id]), occluded[t].tolist()))]
        # each identity and distractor draws a row of every block; the seen
        # identities and the distractors take theirs
        seen = np.flatnonzero(~occluded[t] & (fn.random(n_id) >= cfg.fn_rate))
        rows = np.concatenate([seen, np.arange(n_id, n_proto)])  # prototype row per detection
        c = corners[t, :n_id] + cfg.jitter_sigma * jitter.standard_normal((n_id, 4))
        c = np.concatenate([np.minimum(c[:, :2], c[:, 2:]), np.maximum(c[:, :2], c[:, 2:])], axis=1)
        boxes = np.concatenate([c, corners[t, n_id:]])[rows]
        scores = np.concatenate([score.uniform(*_SCORE_RANGE, n_id),
                                 score.uniform(*_DISTRACTOR_SCORE_RANGE, cfg.n_distractors)])[rows]
        proto = prototypes[rows]
        e = proto + cfg.sigma_e * noise.standard_normal((n_proto, cfg.dim))[rows]
        norm = _row_norms(e)
        if (zero := np.flatnonzero(norm == 0.0)).size:
            e[zero], norm[zero] = proto[zero], 1.0
        n_fp = np.count_nonzero(fp.random(n_id) < cfg.fp_rate)
        fp_center = fp.uniform(fp_low, fp_high, size=(n_fp, 2))
        fp_half = fp.uniform(*_BOX_SIZE_RANGE, size=(n_fp, 2)) / 2.0
        fp_e = fp.standard_normal((n_fp, cfg.dim))
        cls = np.concatenate([classes[rows], fp.integers(cfg.n_classes, size=n_fp)])
        scores = np.concatenate([scores, fp.uniform(*_FP_SCORE_RANGE, size=n_fp)])
        boxes = np.concatenate([boxes, np.concatenate([fp_center - fp_half, fp_center + fp_half], axis=1)])
        emb = np.concatenate([_TAU * e / norm, _TAU * fp_e / _row_norms(fp_e)])
        detections[t] = detections_from_arrays(boxes, cls, scores, emb)
        det_identity[t] = seen.tolist() + [None] * (cfg.n_distractors + n_fp)
    return Scenario(gt, detections, det_identity, prototypes, cfg)


def subsample(scenario: Scenario, keep_every_k: int) -> Scenario:
    """Keep frames 0, k, 2k, ...; frame indices are renumbered densely, and
    each kept ``Frame`` is shared with ``scenario``."""
    if keep_every_k < 1:
        raise ValueError("keep_every_k must be >= 1")
    if keep_every_k == 1:
        return scenario
    kept = sorted(f for f in scenario.detections if f % keep_every_k == 0)
    gt = TrackSet()
    detections: dict[int, Frame] = {}
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
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        if prev and dets:
            overlaps = iou_matrix(box_array(d.box for d in dets), box_array(b for _, b in prev))
        for i in order:
            tid = None
            if prev and dets:
                j = int(np.argmax(overlaps[i]))
                if overlaps[i, j] >= _BASELINE_MATCH_IOU:
                    tid = prev[j][0]
                    overlaps[:, j] = -1.0  # claimed: below any IoU for every later row
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
