"""Desk-scale experiment harnesses: gradient checking against finite
differences, and the ablation sweep comparing similarity metrics,
backdrops, duplicate removal, loss variants, frame subsampling and the
IoU baseline on synthetic scenarios.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .contrastive import (
    _AUX_NEG_RATIO,
    LossConfig,
    RegionSample,
    SampleBatch,
    POSITIVE,
    NEGATIVE,
    VARIANTS,
    aux_selection_margin,
    cross_frame_nn_accuracy,
    finite_difference_gradient,
    loss_total,
    make_toy_problem,
    optimize_embeddings,
)
from .geometry import BoundingBox
from .metrics import per_class_report
from .synth import (
    WorldConfig,
    generate,
    iou_baseline_track,
    subsample,
)
from .tracker import TrackerConfig, run_sequence

__all__ = [
    "random_batch",
    "GradCheckResult",
    "gradient_check",
    "SWEEP_KEYS",
    "parse_sweep",
    "synth_tracker_config",
    "standard_noisy_world",
    "run_ablation",
    "ABLATION_COLUMNS",
]


def random_batch(v: int, k: int, dim: int, rng: np.random.Generator) -> SampleBatch:
    """A random labeled batch over three identities with standard normal
    embeddings, guaranteed to contain at least one positive pair."""
    unit = BoundingBox(0, 0, 1, 1)

    def samples(count: int) -> list[RegionSample]:
        out = []
        for _ in range(count):
            if rng.random() < 0.6:
                out.append(RegionSample(unit, int(rng.integers(3)), POSITIVE, 1.0,
                                        rng.standard_normal(dim)))
            else:
                out.append(RegionSample(unit, None, NEGATIVE, float(rng.uniform(0, 0.3)),
                                        rng.standard_normal(dim)))
        return out

    for _ in range(100):
        batch = SampleBatch(key=samples(v), ref=samples(k))
        if batch.positivity.any():
            return batch
    raise RuntimeError("failed to draw a batch with positive pairs")


@dataclass
class GradCheckResult:
    max_rel_error: float
    n_batches: int
    passed: bool


def gradient_check(
    dims: tuple[int, ...] = (4, 16, 64),
    v: int = 6,
    k: int = 10,
    n_batches: int = 50,
    seed: int = 0,
    tolerance: float = 1e-6,
    corrupt: bool = False,
) -> GradCheckResult:
    """Compare analytic gradients of the default total loss to central
    finite differences over random batches.

    Relative error uses max(|analytic|, |numeric|, 1e-3) as denominator so
    near-zero components are judged on an absolute scale. Batches where
    the hard-negative selection of the auxiliary loss sits within 1e-3 of
    its cutoff are redrawn: the loss is non-smooth there and finite
    differences are not a valid oracle at such points.

    The check passes when the worst relative error over all batches is
    below ``tolerance``, which must be finite and > 0. ``corrupt``
    perturbs the analytic gradient before comparison; it exists as a
    negative control for the checker itself.
    """
    for name, value in (("dims", min(dims, default=0)), ("v", v), ("k", k), ("n_batches", n_batches)):
        if value < 1:
            raise ValueError(f"gradient_check {name} must be >= 1, got {value}")
    if not (math.isfinite(tolerance) and tolerance > 0):
        raise ValueError(f"gradient_check tolerance must be finite and > 0, got {tolerance}")
    cfg = LossConfig()
    rng = np.random.default_rng(seed)
    worst = 0.0
    checked = 0
    while checked < n_batches:
        dim = dims[checked % len(dims)]
        batch = random_batch(v, k, dim, rng)
        emb = batch.embeddings()
        if aux_selection_margin(batch, emb, _AUX_NEG_RATIO) < 1e-3:
            continue
        _, (gk, gr) = loss_total(batch, emb, cfg)
        if corrupt:
            gk = gk + 1e-3
        fk, fr = finite_difference_gradient(batch, emb, cfg)
        for a, f in ((gk, fk), (gr, fr)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), 1e-3)
            worst = max(worst, float(np.max(np.abs(a - f) / denom)))
        checked += 1
    return GradCheckResult(worst, checked, worst < tolerance)


# ---------------------------------------------------------------------------
# Ablation sweep
# ---------------------------------------------------------------------------

SWEEP_KEYS = {
    "metric": ("bisoftmax", "cosine"),
    "backdrops": ("on", "off"),
    "duplicate_removal": ("on", "off"),
    "loss": VARIANTS,
    "subsample": None,  # positive integers
    "baseline": ("appearance", "iou"),
}

ABLATION_COLUMNS = [*SWEEP_KEYS, "seed", "mota", "idf1", "hota", "idsw", "nn_acc"]

# A row runs each key it does not sweep at the key's first value; the first
# positive integer is 1, and an unswept loss trains nothing.
_FIRST_VALUES = {key: values[0] if values else "1" for key, values in SWEEP_KEYS.items()}

# the synth_tracker_config fields that each tracker arm sets
_CONFIG_ARMS = {
    ("metric", "cosine"): {"similarity_metric": "cosine"},
    ("backdrops", "off"): {"backdrop_frames": 0},
    ("duplicate_removal", "off"): {"nms_threshold": 1.0},  # no IoU exceeds 1.0: NMS keeps every box
}


def parse_sweep(spec: str) -> dict[str, list[str]]:
    """Parse "key=v1,v2 key2=v3" into an ordered sweep dict, validating
    keys and values before any run; a repeated key or value is refused."""
    sweep: dict[str, list[str]] = {}
    for token in spec.split():
        if "=" not in token:
            raise ValueError(f"malformed sweep token {token!r} (expected key=v1,v2)")
        key, _, values = token.partition("=")
        if key not in SWEEP_KEYS:
            raise ValueError(f"unknown sweep key {key!r}; known: {sorted(SWEEP_KEYS)}")
        if key in sweep:
            raise ValueError(f"sweep key {key!r} given twice")
        vals = [v for v in values.split(",") if v]
        if not vals:
            raise ValueError(f"sweep key {key!r} has no values")
        allowed = SWEEP_KEYS[key]
        same = str if allowed else int  # subsample 01 is subsample 1
        for i, val in enumerate(vals):
            if allowed is not None and val not in allowed:
                raise ValueError(f"invalid value {val!r} for sweep key {key!r}")
            if allowed is None and (not val.isdigit() or int(val) < 1):
                raise ValueError(f"sweep key {key!r} takes positive integers, got {val!r}")
            if same(val) in map(same, vals[:i]):
                raise ValueError(f"sweep key {key!r} repeats value {val!r}")
        sweep[key] = vals
    if not sweep:
        raise ValueError("empty sweep specification")
    return sweep


def synth_tracker_config(**overrides) -> TrackerConfig:
    """Tracker settings matched to the synthetic detection score ranges."""
    base = dict(
        beta_new=0.8,
        beta_obj=0.5,
        memory_frames=10,
        backdrop_frames=1,
        momentum=0.8,
        det_confidence=0.1,
        nms_threshold=0.65,
    )
    base.update(overrides)
    return TrackerConfig(**base)


def standard_noisy_world(seed: int = 0) -> WorldConfig:
    """The default scenario for ablation runs: enough embedding noise and
    clutter that plain cosine matching makes identity errors."""
    return WorldConfig(
        n_identities=12,
        n_frames=100,
        dim=16,
        speed=4.0,
        sigma_e=0.25,
        jitter_sigma=1.0,
        n_distractors=6,
        fp_rate=0.05,
        occlusions=[(0, 20, 24), (1, 30, 34), (2, 40, 44)],
        seed=seed,
    )


def _loss_trained_prototypes(world: WorldConfig, variant: str, seed: int) -> tuple[np.ndarray, float]:
    """Optimize a toy embedding problem under the given loss variant and
    return per-identity prototypes plus cross-frame NN accuracy."""
    problem = make_toy_problem(world.n_identities, n_frames=8, dim=world.dim, seed=seed)
    cfg = LossConfig(variant=variant)
    params, _ = optimize_embeddings(problem, cfg, steps=200, lr=0.5, rng_seed=seed)
    acc = cross_frame_nn_accuracy(params, problem.identity, problem.frame)
    protos = np.stack([
        params[problem.identity == i].mean(axis=0) for i in range(world.n_identities)
    ])
    norms = np.linalg.norm(protos, axis=1, keepdims=True)
    protos = protos / np.where(norms > 0, norms, 1.0)
    return protos, acc


def _run_row(world: WorldConfig, assignment: dict[str, str], seed: int) -> dict:
    """One CSV row: the assignment's arms on the world drawn from ``seed``."""
    settings = _FIRST_VALUES | assignment
    w = replace(world, seed=seed)
    prototypes, nn_acc = None, ""
    if "loss" in assignment:
        w = replace(w, n_distractors=0, min_margin=0.0)
        prototypes, acc = _loss_trained_prototypes(w, assignment["loss"], seed)
        nn_acc = f"{acc:.6f}"
    scenario = subsample(generate(w, prototypes=prototypes), int(settings["subsample"]))
    if settings["baseline"] == "iou":
        pred = iou_baseline_track(scenario)
    else:
        fields = {f: v for item in settings.items() for f, v in _CONFIG_ARMS.get(item, {}).items()}
        pred = run_sequence(scenario.detections, synth_tracker_config(**fields))
    agg = per_class_report(scenario.gt, pred).aggregate
    return {**{k: assignment.get(k, "-") for k in SWEEP_KEYS}, "seed": seed, "mota": f"{agg.mota:.6f}",
            "idf1": f"{agg.idf1:.6f}", "hota": f"{agg.hota:.6f}", "idsw": str(agg.idsw), "nn_acc": nn_acc}


def run_ablation(sweep: dict[str, list[str]], seeds: list[int], world: WorldConfig | None = None) -> list[dict]:
    """One result row per sweep-combination per seed, in deterministic
    order (cartesian product of the sweep values, then seeds)."""
    world = world or standard_noisy_world()
    return [_run_row(world, dict(zip(sweep, combo)), seed)
            for combo in product(*sweep.values()) for seed in seeds]
