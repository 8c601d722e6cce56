import dataclasses

import numpy as np
import pytest

from embedtrack.ablation import (
    _CONFIG_ARMS,
    ABLATION_COLUMNS,
    SWEEP_KEYS,
    gradient_check,
    parse_sweep,
    random_batch,
    run_ablation,
    standard_noisy_world,
    synth_tracker_config,
)
from embedtrack.metrics import per_class_report
from embedtrack.synth import WorldConfig, generate, iou_baseline_track, subsample
from embedtrack.tracker import TrackerConfig, run_sequence


class TestParseSweep:
    def test_basic(self):
        sweep = parse_sweep("metric=bisoftmax,cosine backdrops=on")
        assert sweep == {"metric": ["bisoftmax", "cosine"], "backdrops": ["on"]}

    def test_subsample_takes_integers(self):
        assert parse_sweep("subsample=1,5,30") == {"subsample": ["1", "5", "30"]}
        with pytest.raises(ValueError, match="positive integers"):
            parse_sweep("subsample=0")

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown sweep key"):
            parse_sweep("speed=1")

    def test_invalid_value(self):
        with pytest.raises(ValueError, match="invalid value"):
            parse_sweep("metric=euclidean")

    def test_malformed_token(self):
        with pytest.raises(ValueError, match="malformed sweep token"):
            parse_sweep("metric")

    @pytest.mark.parametrize("spec", ["metric=", "metric=,"])
    def test_key_without_values(self, spec):
        with pytest.raises(ValueError, match="sweep key 'metric' has no values"):
            parse_sweep(spec)

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="empty sweep"):
            parse_sweep("   ")


def test_every_config_arm_names_a_later_value_of_a_key_and_tracker_fields():
    # a mistyped key or value in the table would never apply; a key's first
    # value is what a row runs when it does not sweep the key
    fields = {f.name for f in dataclasses.fields(TrackerConfig)}
    for (key, value), arm in _CONFIG_ARMS.items():
        assert key in SWEEP_KEYS and value in (SWEEP_KEYS[key] or ())[1:], (key, value)
        assert arm and set(arm) <= fields, (key, value)
        synth_tracker_config(**arm)


class TestRandomBatch:
    def test_always_has_positive_pair(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            b = random_batch(4, 6, 8, rng)
            assert b.positivity.any()

    def test_raises_after_a_hundred_batches_without_a_positive_pair(self):
        class AllNegative:
            """A generator whose every sample comes out negative (0.9 >= 0.6)."""

            draws = 0

            def random(self):
                self.draws += 1
                return 0.9

            def uniform(self, low, high):
                return low

            def standard_normal(self, size):
                return np.ones(size)

            def integers(self, high):
                return 0

        rng = AllNegative()
        with pytest.raises(RuntimeError, match="failed to draw a batch with positive pairs"):
            random_batch(4, 6, 8, rng)
        assert rng.draws == 100 * (4 + 6)


class TestGradientCheck:
    def test_negative_control_fails(self):
        r = gradient_check(dims=(4,), v=4, k=6, n_batches=3, corrupt=True)
        assert not r.passed

    def test_small_run_passes(self):
        r = gradient_check(dims=(4, 8), v=4, k=6, n_batches=4)
        assert r.passed
        assert r.n_batches == 4

    @pytest.mark.parametrize("tolerance", [float("nan"), 0.0, -1.0, float("inf")])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        # nan failed correct gradients, inf passed any gradient
        with pytest.raises(ValueError, match="gradient_check tolerance must be finite and > 0"):
            gradient_check(dims=(4,), v=4, k=6, n_batches=1, tolerance=tolerance)


class TestRunAblation:
    def small_world(self):
        return WorldConfig(n_identities=3, n_frames=8, dim=8, seed=0)

    def test_row_per_combination_and_seed(self):
        rows = run_ablation({"metric": ["bisoftmax", "cosine"]}, [0, 1],
                            self.small_world())
        assert len(rows) == 4
        assert all(set(r) == set(ABLATION_COLUMNS) for r in rows)
        assert [r["metric"] for r in rows] == ["bisoftmax", "bisoftmax",
                                               "cosine", "cosine"]

    def test_unswept_keys_dashed(self):
        rows = run_ablation({"metric": ["cosine"]}, [0], self.small_world())
        assert rows[0]["loss"] == "-"
        assert rows[0]["nn_acc"] == ""

    def test_loss_sweep_reports_nn_accuracy(self):
        rows = run_ablation({"loss": ["accumulated_multi"]}, [0],
                            self.small_world())
        assert float(rows[0]["nn_acc"]) >= 0.9

    def test_deterministic(self):
        a = run_ablation({"metric": ["bisoftmax"]}, [0], self.small_world())
        b = run_ablation({"metric": ["bisoftmax"]}, [0], self.small_world())
        assert a == b

    def test_baseline_duplicate_removal_and_subsample_rows_equal_the_direct_pipeline(self):
        # crowded enough that duplicate removal drops true boxes: every arm moves a score
        world = WorldConfig(n_identities=5, n_frames=12, dim=8, image_size=(200.0, 200.0),
                            fp_rate=0.3, speed=5.0, seed=0)
        sweep = {"baseline": ["appearance", "iou"], "duplicate_removal": ["on", "off"],
                 "subsample": ["1", "2"]}
        rows = run_ablation(sweep, [0], world)
        assert [[r[k] for k in sweep] for r in rows] == [
            [b, d, k] for b in sweep["baseline"] for d in sweep["duplicate_removal"]
            for k in sweep["subsample"]]
        scores = {}
        for row in rows:
            scenario = subsample(generate(world), int(row["subsample"]))
            if row["baseline"] == "iou":
                pred = iou_baseline_track(scenario)
            else:
                nms = 0.65 if row["duplicate_removal"] == "on" else 1.0
                pred = run_sequence(scenario.detections, synth_tracker_config(nms_threshold=nms))
            agg = per_class_report(scenario.gt, pred).aggregate
            want = {"mota": f"{agg.mota:.6f}", "idf1": f"{agg.idf1:.6f}",
                    "hota": f"{agg.hota:.6f}", "idsw": str(agg.idsw)}
            assert row == {"metric": "-", "backdrops": "-", "loss": "-", "seed": 0,
                           "nn_acc": "", **{k: row[k] for k in sweep}, **want}
            scores[row["baseline"], row["duplicate_removal"], row["subsample"]] = want
        for k in sweep["subsample"]:
            # the IoU baseline runs no duplicate removal; the appearance tracker does
            assert scores["iou", "on", k] == scores["iou", "off", k]
            assert scores["appearance", "on", k] != scores["appearance", "off", k]
        for b in sweep["baseline"]:
            assert scores[b, "on", "1"] != scores[b, "on", "2"]

    def test_default_world_is_noisy(self):
        w = standard_noisy_world(0)
        assert w.sigma_e > 0
        assert w.n_distractors > 0
