"""End-to-end acceptance suite.

Each test checks one verifiable property of the full system: analytic
gradients against finite differences, algebraic loss identities,
similarity invariants, perfect-input tracking, metric equivalence against
enumeration oracles, ablation directions, frame-rate robustness, CLI
determinism and association throughput.
"""

import json
import time

import numpy as np

from embedtrack.ablation import gradient_check, standard_noisy_world, synth_tracker_config
from embedtrack.cli import main
from embedtrack.contrastive import (
    LossConfig,
    cross_frame_nn_accuracy,
    loss_total,
    make_toy_problem,
    optimize_embeddings,
)
from embedtrack.geometry import BoundingBox
from embedtrack.metrics import clear_mot, hota, idf1, per_class_report
from embedtrack.similarity import _stable_softmax, masked_bisoftmax
from embedtrack.synth import (
    WorldConfig,
    generate,
    iou_baseline_track,
    subsample,
)
from embedtrack.tracker import Detection, Tracker, TrackerConfig, run_sequence
from oracles import clear_oracle, hota_in_oracle, hota_oracle, idf1_oracle, random_instance
from test_contrastive import random_labeled_batch


def test_analytic_gradients_match_finite_differences():
    start = time.perf_counter()
    result = gradient_check(dims=(4, 16, 64), n_batches=50, seed=0, tolerance=1e-6)
    elapsed = time.perf_counter() - start
    assert result.passed, f"max relative gradient error {result.max_rel_error:.3e}"
    assert result.n_batches == 50
    assert elapsed < 30.0, f"gradient check took {elapsed:.1f}s"


def test_single_positive_loss_equals_naive_formula():
    # the implementation computes log(1 + sum exp(b - a)); the definition
    # is -log(exp(a) / (exp(a) + sum exp(b))). Equal to within 1e-12.
    rng = np.random.default_rng(123)
    for _ in range(1000):
        b = random_labeled_batch(rng, v=3, k=6, dim=4)
        key_emb, ref_emb = b.embeddings()
        dots = key_emb @ ref_emb.T
        naive_terms = []
        for i in range(len(b.key)):
            ps = np.flatnonzero(b.positivity[i])
            if ps.size == 0:
                continue
            ns = np.flatnonzero(~b.positivity[i])
            per_pos = []
            for p in ps:
                denom = np.exp(dots[i, p]) + np.exp(dots[i, ns]).sum()
                per_pos.append(-np.log(np.exp(dots[i, p]) / denom))
            naive_terms.append(np.mean(per_pos))
        want = float(np.mean(naive_terms))
        got = loss_total(b, b.embeddings(), LossConfig(gamma1=1.0, gamma2=0.0, variant="single_positive"))[0]
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


def test_bidirectional_softmax_invariants():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n, m, d = rng.integers(1, 8), rng.integers(1, 8), 6
        a = rng.standard_normal((n, d))
        b = rng.standard_normal((m, d))
        sim = masked_bisoftmax(a, b)
        assert np.all(sim > 0.0) and np.all(sim <= 1.0)
        row, col = _stable_softmax(a @ b.T, axis=1), _stable_softmax(a @ b.T, axis=0)
        assert np.max(np.abs(row.sum(axis=1) - 1.0)) <= 1e-12
        assert np.max(np.abs(col.sum(axis=0) - 1.0)) <= 1e-12
        assert np.array_equal(sim, 0.5 * (row + col))
        # adding a constant to every dot product must not move the matrix
        c = float(rng.uniform(-20, 20))
        a2 = np.hstack([a, np.full((n, 1), 2.0)])
        b2 = np.hstack([b, np.full((m, 1), c / 2.0)])
        assert np.max(np.abs(masked_bisoftmax(a2, b2) - sim)) <= 1e-12
    single = masked_bisoftmax(rng.standard_normal((1, 6)), rng.standard_normal((1, 6)))
    assert single[0, 0] == 1.0


def test_perfect_detections_give_perfect_tracking():
    start = time.perf_counter()
    world = WorldConfig(n_identities=20, n_frames=200, dim=32, min_margin=0.05, seed=0)
    scenario = generate(world)
    # detections are exact ground-truth boxes; duplicate-removal NMS would
    # only delete genuinely overlapping objects, so a threshold of 1.0 keeps
    # every box
    cfg = synth_tracker_config(nms_threshold=1.0)
    pred = run_sequence(scenario.detections, cfg)
    rep = per_class_report(scenario.gt, pred)
    elapsed = time.perf_counter() - start
    assert rep.aggregate.mota == 1.0
    assert rep.aggregate.idf1 == 1.0
    assert rep.aggregate.idsw == 0
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_metrics_equal_enumeration_oracles():
    rng = np.random.default_rng(321)
    for _ in range(200):
        gt, pred = random_instance(rng, max_ids=4, max_frames=5)
        got = clear_mot(gt, pred)
        want = clear_oracle(gt, pred)
        assert (got.fp, got.fn, got.idsw, got.mt, got.ml) == (
            want["fp"], want["fn"], want["idsw"], want["mt"], want["ml"],
        )
        assert abs(got.mota - want["mota"]) <= 1e-12
        assert abs(got.motp - want["motp"]) <= 1e-12
        gi = idf1(gt, pred)
        wi = idf1_oracle(gt, pred)
        assert (gi.idtp, gi.idfp, gi.idfn) == (wi["idtp"], wi["idfp"], wi["idfn"])
        assert abs(gi.idf1 - wi["idf1"]) <= 1e-12
        assert hota_in_oracle(hota(gt, pred), hota_oracle(gt, pred))


def test_noisy_scenario_ablation_directions():
    """On the standard noisy scenario the relative similarity metric must
    beat plain cosine on IDF1, and backdrops must reduce identity switches
    (both as means over ten seeds)."""
    idf1_bis, idf1_cos = [], []
    idsw_on, idsw_off = [], []
    for seed in range(10):
        scenario = generate(standard_noisy_world(seed))
        for metric, sink in (("bisoftmax", idf1_bis), ("cosine", idf1_cos)):
            cfg = synth_tracker_config(similarity_metric=metric)
            rep = per_class_report(scenario.gt, run_sequence(scenario.detections, cfg))
            sink.append(rep.aggregate.idf1)
        for frames, sink in ((1, idsw_on), (0, idsw_off)):
            cfg = synth_tracker_config(backdrop_frames=frames)
            rep = per_class_report(scenario.gt, run_sequence(scenario.detections, cfg))
            sink.append(rep.aggregate.idsw)
    assert np.mean(idf1_bis) > np.mean(idf1_cos), (
        f"bisoftmax {np.mean(idf1_bis):.4f} vs cosine {np.mean(idf1_cos):.4f}"
    )
    assert np.mean(idsw_on) < np.mean(idsw_off), (
        f"idsw with backdrops {np.mean(idsw_on):.1f} vs without {np.mean(idsw_off):.1f}"
    )


def test_multi_positive_loss_matches_or_beats_single_positive():
    accs = {}
    for variant in ("single_positive", "accumulated_multi"):
        accs[variant] = []
        for seed in range(10):
            problem = make_toy_problem(8, n_frames=8, dim=16, seed=seed)
            params, _ = optimize_embeddings(
                problem, LossConfig(variant=variant), steps=200, lr=0.5,
                rng_seed=seed,
            )
            accs[variant].append(
                cross_frame_nn_accuracy(params, problem.identity, problem.frame)
            )
    paired = zip(accs["accumulated_multi"], accs["single_positive"])
    assert all(multi >= single for multi, single in paired)
    assert min(accs["accumulated_multi"]) >= 0.95


def test_appearance_tracking_robust_to_frame_rate():
    world = WorldConfig(n_identities=15, n_frames=300, dim=32, speed=4.0, seed=0)
    scenario = generate(world)
    cfg = synth_tracker_config()

    def scores(s):
        app = per_class_report(s.gt, run_sequence(s.detections, cfg)).aggregate.idf1
        loc = per_class_report(s.gt, iou_baseline_track(s)).aggregate.idf1
        return app, loc

    app_full, loc_full = scores(scenario)
    for k in (5, 30):
        app_k, loc_k = scores(subsample(scenario, k))
        app_drop = (app_full - app_k) / app_full
        loc_drop = (loc_full - loc_k) / loc_full
        assert app_drop < loc_drop, f"subsample {k}: {app_drop:.3f} vs {loc_drop:.3f}"
        if k == 30:
            assert loc_k < 0.2, f"location baseline idf1 {loc_k:.3f}"
            assert app_k > 0.8, f"appearance idf1 {app_k:.3f}"


def test_cli_outputs_are_byte_identical_across_runs(tmp_path):
    world = tmp_path / "world.json"
    world.write_text(json.dumps({
        "n_identities": 5, "n_frames": 20, "dim": 8,
        "sigma_e": 0.2, "fp_rate": 0.1, "jitter_sigma": 0.5,
    }))

    def run(tag):
        det = tmp_path / f"det_{tag}.txt"
        gt = tmp_path / f"gt_{tag}.txt"
        pred = tmp_path / f"pred_{tag}.txt"
        csv = tmp_path / f"abl_{tag}.csv"
        assert main(["--seed", "11", "synth", "--config", str(world),
                     "--detections", str(det), "--gt", str(gt)]) == 0
        assert main(["--seed", "11", "track", "--input", str(det),
                     "--output", str(pred)]) == 0
        assert main(["--seed", "11", "ablate",
                     "--sweep", "metric=bisoftmax,cosine backdrops=on,off",
                     "--seeds", "0,1", "--config", str(world),
                     "--output", str(csv)]) == 0
        return det.read_bytes(), pred.read_bytes(), csv.read_bytes()

    assert run("a") == run("b")


def test_association_throughput():
    rng = np.random.default_rng(0)
    dim = 256
    cfg = TrackerConfig(memory_frames=10_000, backdrop_frames=1,
                        det_confidence=0.0, nms_threshold=0.99)
    tracker = Tracker(cfg)
    tracks = []
    for _ in range(500):
        x, y = rng.uniform(0, 900, 2)
        tracks.append(Detection(BoundingBox(x, y, x + 50, y + 50), 0, 0.9,
                                rng.standard_normal(dim)))
    tracker.step(0, tracks)
    assert len(tracker.state.tracks) == 500

    n_frames = 50
    frames = []
    for f in range(1, 1 + n_frames):
        dets = []
        for _ in range(100):
            x, y = rng.uniform(0, 900, 2)
            dets.append(Detection(BoundingBox(x, y, x + 50, y + 50), 0, 0.9,
                                  rng.standard_normal(dim)))
        frames.append((f, dets))

    start = time.perf_counter()
    for f, dets in frames:
        tracker.step(f, dets)
    elapsed = time.perf_counter() - start
    assert len(tracker.state.tracks) + len(tracker.state.backdrops) >= 500
    fps = n_frames / elapsed
    assert fps >= 100.0, f"association ran at {fps:.1f} frames/s"
