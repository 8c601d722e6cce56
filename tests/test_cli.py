import json

import numpy as np
import pytest

from embedtrack.cli import EXIT_DATA, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, int_list, main
from embedtrack.config import PROFILE_NAMES, config_from_dict, load_profile
from embedtrack.tracker import MergeConfig


class TestProfiles:
    def test_all_profiles_load(self):
        for name in PROFILE_NAMES:
            cfg = load_profile(name)
            assert 0.0 <= cfg.beta_match <= 1.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            load_profile("kitti")

    def test_crowded_scene_profiles_enable_postprocessing(self):
        for name in ("mot17", "mot20"):
            cfg = load_profile(name)
            assert cfg.distance_gate is not None
            assert isinstance(cfg.merge, MergeConfig)
            assert cfg.interpolate

    def test_open_vocabulary_profile_disables_backdrops(self):
        assert load_profile("tao").backdrop_frames == 0

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown tracker config keys"):
            config_from_dict({"beta_matchh": 0.5})
        with pytest.raises(ValueError, match="unknown merge config keys"):
            config_from_dict({"merge": {"window": 3}})


@pytest.fixture
def scenario_files(tmp_path):
    world = {"n_identities": 4, "n_frames": 12, "dim": 8}
    cfg_path = tmp_path / "world.json"
    cfg_path.write_text(json.dumps(world))
    det = tmp_path / "det.txt"
    gt = tmp_path / "gt.txt"
    rc = main(["--seed", "5", "synth", "--config", str(cfg_path),
               "--detections", str(det), "--gt", str(gt)])
    assert rc == EXIT_OK
    return det, gt, tmp_path


class TestSynthCommand:
    def test_writes_both_files(self, scenario_files):
        det, gt, _ = scenario_files
        assert det.read_text().startswith("# embedtrack-detections v1 dim=8")
        assert len(gt.read_text().splitlines()) == 4 * 12

    def test_unknown_world_key_is_data_error(self, tmp_path):
        bad = tmp_path / "world.json"
        bad.write_text(json.dumps({"n_ids": 3}))
        rc = main(["synth", "--config", str(bad),
                   "--detections", str(tmp_path / "d"), "--gt", str(tmp_path / "g")])
        assert rc == EXIT_DATA


class TestTrackCommand:
    def test_pipeline_produces_scores(self, scenario_files, capsys):
        det, gt, tmp = scenario_files
        pred = tmp / "pred.txt"
        assert main(["track", "--input", str(det), "--output", str(pred)]) == EXIT_OK
        assert main(["eval", "--gt", str(gt), "--pred", str(pred),
                     "--machine"]) == EXIT_OK
        out = capsys.readouterr().out
        metrics = dict(
            line.split("=") for line in out.splitlines() if line.startswith("all.")
        )
        assert float(metrics["all.mota"]) == 1.0
        assert float(metrics["all.idf1"]) == 1.0

    def test_profile_and_overrides_compose(self, scenario_files, tmp_path):
        det, _, tmp = scenario_files
        overrides = tmp_path / "cfg.json"
        overrides.write_text(json.dumps({"det_confidence": 0.5}))
        pred = tmp / "pred2.txt"
        rc = main(["track", "--input", str(det), "--output", str(pred),
                   "--profile", "bdd100k", "--config", str(overrides)])
        assert rc == EXIT_OK

    def test_missing_input_is_data_error(self, tmp_path):
        rc = main(["track", "--input", str(tmp_path / "nope.txt"),
                   "--output", str(tmp_path / "out.txt")])
        assert rc == EXIT_DATA

    def test_directory_as_input_or_config_is_data_error(self, scenario_files, tmp_path):
        det, _, _ = scenario_files
        out = str(tmp_path / "o.txt")
        assert main(["track", "--input", str(tmp_path), "--output", out]) == EXIT_DATA
        assert main(["track", "--input", str(det), "--output", out,
                     "--config", str(tmp_path)]) == EXIT_DATA

    def test_unknown_profile_is_usage_error(self, scenario_files, tmp_path):
        det, _, _ = scenario_files
        rc = main(["track", "--input", str(det),
                   "--output", str(tmp_path / "o.txt"), "--profile", "kitti"])
        assert rc == EXIT_USAGE

    def test_bad_config_key_is_data_error(self, scenario_files, tmp_path):
        det, _, _ = scenario_files
        overrides = tmp_path / "cfg.json"
        overrides.write_text(json.dumps({"beta_whatever": 1}))
        rc = main(["track", "--input", str(det),
                   "--output", str(tmp_path / "o.txt"), "--config", str(overrides)])
        assert rc == EXIT_DATA


@pytest.mark.parametrize("profile", PROFILE_NAMES)
def test_track_output_evaluates_for_every_profile(tmp_path, profile):
    # occlusions and clutter make the crowded-scene profiles merge and
    # interpolate, the paths that once wrote unreadable rows
    world = {"n_identities": 6, "n_frames": 40, "dim": 16, "speed": 4.0,
             "sigma_e": 0.25, "jitter_sigma": 1.0, "fp_rate": 0.05,
             "occlusions": [[0, 10, 13], [1, 20, 23]]}
    cfg_path = tmp_path / "world.json"
    cfg_path.write_text(json.dumps(world))
    det, gt, pred = tmp_path / "det.txt", tmp_path / "gt.txt", tmp_path / "pred.txt"
    assert main(["--seed", "3", "synth", "--config", str(cfg_path),
                 "--detections", str(det), "--gt", str(gt)]) == EXIT_OK
    assert main(["track", "--input", str(det), "--output", str(pred),
                 "--profile", profile]) == EXIT_OK
    assert main(["eval", "--gt", str(gt), "--pred", str(pred)]) == EXIT_OK
    keys = [tuple(line.split(",")[:2]) for line in pred.read_text().splitlines()]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize("command,document,key", [
    ("track", {"merge": 5}, "merge config"),
    ("track", {"beta_obj": "x"}, "beta_obj"),
    ("track", {"memory_frames": None}, "memory_frames"),
    ("track", {"distance_gate": "50"}, "distance_gate"),
    ("track", {"merge": {"t": "a"}}, "merge.t"),
    ("track", [], "tracker config"),
    ("synth", [], "world config"),
    ("synth", {"image_size": 5}, "image_size"),
    ("synth", {"n_frames": "5"}, "n_frames"),
    ("synth", {"box_size_range": [1]}, "box_size_range"),
    ("synth", {"dim": 0}, "dim"),
    ("synth", {"n_distractors": -2}, "n_distractors"),
    ("ablate", {"n_frames": "5"}, "n_frames"),
    ("ablate", {"image_size": 5}, "image_size"),
])
def test_malformed_config_is_data_error(scenario_files, tmp_path, capsys, command, document, key):
    det, _, _ = scenario_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    out = str(tmp_path / "out")
    argv = {
        "track": ["track", "--input", str(det), "--output", out],
        "synth": ["synth", "--detections", out, "--gt", str(tmp_path / "gt")],
        "ablate": ["ablate", "--sweep", "metric=cosine", "--seeds", "0", "--output", out],
    }[command]
    capsys.readouterr()
    assert main(argv + ["--config", str(cfg)]) == EXIT_DATA
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("document,key", [
    ({"nms_threshold": 5}, "nms_threshold"),
    ({"det_confidence": 2}, "det_confidence"),
    ({"distance_gate": -1}, "distance_gate"),
    ({"merge": {"t": -5}}, "merge t"),
    ({"merge": {"beta_merge": 7}}, "beta_merge"),
    ({"merge": {"d_merge": -0.5}}, "d_merge"),
])
def test_out_of_range_config_is_data_error(scenario_files, tmp_path, capsys, document, key):
    det, _, _ = scenario_files
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(document))
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main(["track", "--input", str(det), "--output", str(out), "--config", str(cfg)]) == EXIT_DATA
    assert key in capsys.readouterr().err
    assert not out.exists()


class TestEvalCommand:
    def test_disjoint_ranges_warn(self, scenario_files, tmp_path, capsys):
        _, gt, _ = scenario_files
        shifted = tmp_path / "shifted.txt"
        rows = []
        for line in gt.read_text().splitlines():
            parts = line.split(",")
            parts[0] = str(int(parts[0]) + 1000)
            rows.append(",".join(parts))
        shifted.write_text("\n".join(rows) + "\n")
        assert main(["eval", "--gt", str(gt), "--pred", str(shifted)]) == EXIT_OK
        assert "disjoint" in capsys.readouterr().err

    def test_malformed_pred_is_data_error(self, scenario_files, tmp_path):
        _, gt, _ = scenario_files
        bad = tmp_path / "bad.txt"
        bad.write_text("0,1\n")
        assert main(["eval", "--gt", str(gt), "--pred", str(bad)]) == EXIT_DATA

    @pytest.mark.parametrize("iou", ["0", "-1", "nan", "1.5"])
    def test_iou_outside_unit_interval_is_data_error(self, scenario_files, capsys, iou):
        _, gt, _ = scenario_files
        capsys.readouterr()
        assert main(["eval", "--gt", str(gt), "--pred", str(gt), f"--iou={iou}"]) == EXIT_DATA
        assert "iou_threshold must be in (0, 1]" in capsys.readouterr().err


class TestAblateCommand:
    def test_small_sweep_writes_csv(self, tmp_path):
        world = tmp_path / "world.json"
        world.write_text(json.dumps({"n_identities": 3, "n_frames": 8, "dim": 8}))
        out = tmp_path / "ablation.csv"
        rc = main(["ablate", "--sweep", "metric=bisoftmax,cosine",
                   "--seeds", "0,1", "--config", str(world),
                   "--output", str(out)])
        assert rc == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0].startswith("metric,")
        assert len(lines) == 1 + 4  # header + 2 metrics x 2 seeds

    def test_invalid_sweep_is_data_error(self, tmp_path):
        rc = main(["ablate", "--sweep", "metric=magic",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_DATA

    def test_empty_seed_list_is_usage_error(self, tmp_path):
        rc = main(["ablate", "--sweep", "metric=cosine", "--seeds", "",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE


@pytest.mark.parametrize("argv,flag", [
    (["ablate", "--sweep", "metric=cosine", "--seeds", "a"], "--seeds"),
    (["ablate", "--sweep", "metric=cosine", "--seeds", "0,1.5"], "--seeds"),
    (["gradcheck", "--dims", "4,x"], "--dims"),
    (["--seed", "x", "gradcheck"], "--seed"),
])
def test_non_int_list_item_is_usage_error(tmp_path, capsys, argv, flag):
    if argv[0] == "ablate":
        argv = argv + ["--output", str(tmp_path / "x.csv")]
    assert main(argv) == EXIT_USAGE
    assert f"argument {flag}: invalid " in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_int_list_skips_empty_items():
    assert int_list("4,,16,") == (4, 16) and int_list("") == ()


class TestGradcheckCommand:
    def test_small_run_passes(self, capsys):
        rc = main(["gradcheck", "--dims", "4", "--batches", "3",
                   "--keys", "4", "--refs", "6"])
        assert rc == EXIT_OK
        assert capsys.readouterr().out.startswith("PASS")

    def test_corrupted_gradient_detected(self, capsys):
        rc = main(["gradcheck", "--dims", "4", "--batches", "3",
                   "--keys", "4", "--refs", "6", "--corrupt"])
        assert rc == EXIT_INVARIANT
        assert capsys.readouterr().out.startswith("FAIL")

    @pytest.mark.parametrize("flag,value,name", [
        ("--keys", "0", "v"), ("--refs", "0", "k"), ("--batches", "0", "n_batches"),
        ("--dims", "0", "dims"), ("--dims", "4,0", "dims"), ("--keys", "-1", "v"),
    ])
    def test_size_below_one_is_data_error(self, capsys, flag, value, name):
        rc = main(["gradcheck", "--dims", "4", "--batches", "3", "--keys", "4", "--refs", "6",
                   f"{flag}={value}"])
        assert rc == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"gradient_check {name} must be >= 1" in captured.err


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_missing_required_argument(self):
        assert main(["track", "--input", "x"]) == EXIT_USAGE
