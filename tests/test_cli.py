import contextlib
import dataclasses
import hashlib
import io
import json
import re
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from embedtrack.ablation import standard_noisy_world
from embedtrack.cli import EXIT_DATA, EXIT_INVARIANT, EXIT_OK, EXIT_USAGE, int_list, main
from embedtrack.config import PROFILE_NAMES, TrackerConfig, from_dict, load_profile


class TestProfiles:
    def test_all_profiles_load(self):
        for name in PROFILE_NAMES:
            cfg = load_profile(name)
            assert 0.0 <= cfg.beta_obj <= cfg.beta_new <= 1.0

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown profile"):
            load_profile("kitti")

    def test_crowded_scene_profiles_enable_postprocessing(self):
        for name in ("mot17", "mot20"):
            cfg = load_profile(name)
            assert cfg.distance_gate is not None
            assert cfg.merge is True
            assert cfg.interpolate

    def test_open_vocabulary_profile_disables_backdrops(self):
        assert load_profile("tao").backdrop_frames == 0

    def test_config_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown tracker config keys"):
            from_dict(TrackerConfig, {"beta_matchh": 0.5})
        # removed fields: the match score is a constant and a threshold of
        # 1.0 turns duplicate removal off
        for key in ("beta_match", "duplicate_removal"):
            with pytest.raises(ValueError, match=f"unknown tracker config keys: \\['{key}'\\]"):
                from_dict(TrackerConfig, {key: 0.5})
        with pytest.raises(ValueError, match="merge must be bool"):
            from_dict(TrackerConfig, {"merge": {"t": 3}})


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
        assert det.read_text().startswith("# embedtrack-detections v2 dim=8")
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


@st.composite
def tiny_worlds(draw):
    """A world document of a few identities and frames, with drawn
    embedding noise, false positives and occlusions. Identity 0 is never
    occluded, so every world has ground truth to score."""
    n_ids, n_frames = draw(st.integers(1, 4)), draw(st.integers(2, 12))
    frame = st.integers(0, n_frames - 1)
    occluded = st.tuples(st.integers(1, max(n_ids - 1, 1)), frame, frame)
    occlusions = draw(st.lists(occluded, max_size=3 if n_ids > 1 else 0))
    return {"n_identities": n_ids, "n_frames": n_frames, "dim": 8,
            "sigma_e": draw(st.floats(0.0, 0.5)), "fp_rate": draw(st.floats(0.0, 0.2)),
            "occlusions": [[i, min(a, b), max(a, b)] for i, a, b in occlusions]}


@settings(max_examples=10, deadline=None)
@given(tiny_worlds(), st.integers(0, 2**16))
def test_track_then_eval_for_every_profile_on_drawn_worlds(world, seed):
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path, det, gt, pred = (Path(tmp) / n for n in ("world.json", "det.txt", "gt.txt", "pred.txt"))
        cfg_path.write_text(json.dumps(world))
        assert main(["--seed", str(seed), "synth", "--config", str(cfg_path),
                     "--detections", str(det), "--gt", str(gt)]) == EXIT_OK
        for profile in PROFILE_NAMES:
            assert main(["track", "--input", str(det), "--output", str(pred),
                         "--profile", profile]) == EXIT_OK
            keys = [tuple(line.split(",")[:2]) for line in pred.read_text().splitlines()]
            assert len(keys) == len(set(keys))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--machine"]) == EXIT_OK
            scores = dict(line.split("=") for line in out.getvalue().splitlines() if line.startswith("all."))
            assert 0.0 <= float(scores["all.idf1"]) <= 1.0
            assert 0.0 <= float(scores["all.hota"]) <= 1.0


@pytest.mark.parametrize("command,document,key", [
    ("track", {"merge": 5}, "merge must be bool"),
    ("track", {"beta_obj": "x"}, "beta_obj"),
    ("track", {"memory_frames": None}, "memory_frames"),
    ("track", {"distance_gate": "50"}, "distance_gate"),
    ("track", {"merge": {"t": 10, "beta_merge": 0.5, "d_merge": 50.0}}, "merge must be bool"),
    ("track", [], "tracker config"),
    ("synth", [], "world config"),
    ("synth", {"image_size": 5}, "image_size"),
    ("synth", {"n_frames": "5"}, "n_frames"),
    ("synth", {"box_size_range": [1]}, "box_size_range"),
    ("synth", {"dim": 0}, "dim"),
    ("synth", {"n_distractors": -2}, "n_distractors"),
    ("ablate", {"n_frames": "5"}, "n_frames"),
    ("ablate", {"image_size": 5}, "image_size"),
    ("synth", {"motion": "linear"}, "unknown world config keys: ['motion']"),
    ("track", {"beta_match": 0.5}, "unknown tracker config keys: ['beta_match']"),
    ("track", {"duplicate_removal": False}, "unknown tracker config keys: ['duplicate_removal']"),
    # box sizes are a constant now
    ("synth", {"box_size_range": [40.0, 80.0]}, "unknown world config keys: ['box_size_range']"),
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


def test_world_document_seed_must_agree_with_the_seed_flag(tmp_path, capsys):
    world = {"n_identities": 3, "n_frames": 6, "dim": 8, "sigma_e": 0.2}
    seeded, unseeded = tmp_path / "seeded.json", tmp_path / "unseeded.json"
    seeded.write_text(json.dumps(dict(world, seed=5)))
    unseeded.write_text(json.dumps(world))

    def synth(det, *argv):
        return main([*argv, "--detections", str(det), "--gt", str(tmp_path / "gt.txt")])

    det, det_unseeded = tmp_path / "det.txt", tmp_path / "det-unseeded.txt"
    capsys.readouterr()
    # --seed defaults to 0, not the document's 5
    assert synth(det, "synth", "--config", str(seeded)) == EXIT_DATA and not det.exists()
    assert "world config seed 5 differs from --seed 0" in capsys.readouterr().err
    assert synth(det, "--seed", "5", "synth", "--config", str(seeded)) == EXIT_OK
    assert synth(det_unseeded, "--seed", "5", "synth", "--config", str(unseeded)) == EXIT_OK
    assert det.read_bytes() == det_unseeded.read_bytes()
    # ablate seeds each run from --seeds, whatever seed the document names
    out = tmp_path / "ablation.csv"
    assert main(["ablate", "--sweep", "metric=cosine", "--seeds", "1", "--config", str(seeded),
                 "--output", str(out)]) == EXIT_OK


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

    def test_iou_checked_before_the_files_are_opened(self, tmp_path, capsys):
        nope = str(tmp_path / "nope.txt")
        assert main(["eval", "--gt", nope, "--pred", nope, "--iou", "1.5"]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "iou_threshold must be in (0, 1], got 1.5" in err
        assert "nope.txt" not in err

    def test_machine_report_of_a_class_seen_only_in_predictions(self, tmp_path, capsys):
        # class 1 has a predicted box and no ground truth: its counts print,
        # its unset scores (MOTA, IDF1, HOTA, ...) do not
        gt, pred = tmp_path / "gt.txt", tmp_path / "pred.txt"
        gt.write_text("0,1,0,0,10,10,1,0,1\n1,1,0,0,10,10,1,0,1\n")
        pred.write_text("0,1,0,0,10,10,1,0,1\n1,1,0,0,10,10,1,0,1\n0,2,50,50,10,10,1,1,1\n")
        capsys.readouterr()
        assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--machine"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line for line in lines if line.startswith("class.1.")] == [
            "class.1.fp=1", "class.1.fn=0", "class.1.idsw=0", "class.1.mt=0", "class.1.ml=0",
            "class.1.idtp=0", "class.1.idfp=1", "class.1.idfn=0", "class.1.num_gt=0"]
        assert "class.0.mota=1.0" in lines and "all.fp=1" in lines

    def test_ground_truth_with_no_visible_object_is_data_error(self, tmp_path, capsys):
        # one identity, occluded in every frame; false positives give predictions
        world = tmp_path / "world.json"
        world.write_text(json.dumps({"n_identities": 1, "n_frames": 6, "dim": 4, "fp_rate": 1.0,
                                     "occlusions": [[0, 0, 5]]}))
        det, gt, pred = (str(tmp_path / name) for name in ("det.txt", "gt.txt", "pred.txt"))
        assert main(["synth", "--config", str(world), "--detections", det, "--gt", gt]) == EXIT_OK
        assert main(["track", "--input", det, "--output", pred]) == EXIT_OK
        assert Path(pred).read_text()
        capsys.readouterr()
        assert main(["eval", "--gt", gt, "--pred", pred, "--machine"]) == EXIT_DATA
        out, err = capsys.readouterr()
        assert out == "" and "error: ground truth has no visible objects" in err


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

    @pytest.mark.parametrize("sweep", ["metric=magic", "metric=cosine,cosine"])
    def test_invalid_sweep_is_data_error(self, tmp_path, sweep):
        rc = main(["ablate", "--sweep", sweep,
                   "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_DATA

    def test_empty_seed_list_is_usage_error(self, tmp_path):
        rc = main(["ablate", "--sweep", "metric=cosine", "--seeds", "",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE

    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        rc = main(["ablate", "--sweep", "metric=cosine", "--seeds", "0,1,0",
                   "--output", str(tmp_path / "x.csv")])
        assert rc == EXIT_USAGE
        assert "distinct seeds, got '0,1,0'" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    @pytest.mark.parametrize("tolerance", ["nan", "0", "-1", "inf"])
    def test_tolerance_not_finite_and_positive_is_data_error(self, capsys, tolerance):
        rc = main(["gradcheck", "--dims", "4", "--batches", "1", "--keys", "4", "--refs", "6",
                   f"--tolerance={tolerance}"])
        assert rc == EXIT_DATA
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "gradient_check tolerance must be finite and > 0" in captured.err


def readme_command_lines() -> list[list[str]]:
    """The ``embedtrack`` lines of the README's command-line block, with
    backslash continuations joined, split as a shell would."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"^## Command line\n\n```sh\n(.*?)^```", readme, re.S | re.M).group(1)
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("embedtrack ")]


def test_readme_command_lines_run(tmp_path, monkeypatch, capsys):
    # a renamed flag or a removed config key fails here, not in the docs
    commands = readme_command_lines()
    names = {argv[2] if argv[0] == "--seed" else argv[0] for argv in commands}
    assert names == {"synth", "track", "eval", "ablate", "gradcheck"}
    monkeypatch.chdir(tmp_path)
    Path("world.json").write_text(json.dumps({"n_identities": 4, "n_frames": 12, "dim": 8}))
    Path("overrides.json").write_text(json.dumps({"momentum": 0.5}))
    for argv in commands:
        assert main(argv) == EXIT_OK, (argv, capsys.readouterr().err)


class TestUsageErrors:
    def test_missing_subcommand(self):
        assert main([]) == EXIT_USAGE

    def test_missing_required_argument(self):
        assert main(["track", "--input", "x"]) == EXIT_USAGE


# sha256 of what the CLI writes on two worlds: the synth detection and
# ground-truth files, the track file of no profile and of each profile, and
# eval --machine's stdout on that track file. A change that moves one byte
# of synth, track or eval output on these worlds fails here. The detection
# digests are of format v2 files.
_DEFAULT_TRACK = ("fbefdcf2cde4997d80821e5b473e9cdc8cea998d94b650c701ca63fb3827cea4",
                  "7b39f229702f8166e9465b435c315177a1875958a99a762054512ad408800044")
_NOISY_FULL = ("265f6084c0368693271ab7c4034fb7f38aae0ae1451dceaf079db37242db8c91",
               "731cdb0f512afe4a13f4078dad524be4089e87ca14d423c36a50ffe69e51c4f8")
_NOISY_GATED = ("479543c95eead451a584d998a943c323e46999a6ad44b49e513bf22a218439b0",
                "aa91e68b01c74ed270b946593332eb63f5dbeda5a3be510ff228cd80e6ba5566")
DIGESTS = {
    # synth --seed 0, the default world
    "default": (0, None, "7c7040bcfee590aa6680ad04880899bdad2b7041cbc4e83ac5c5f946c4c96406",
                "685878dd6351885a9105625ddc0658b99e270fba486857c647678cce59e7c58b",
                dict.fromkeys([None, *PROFILE_NAMES], _DEFAULT_TRACK)),
    # standard_noisy_world(3) as a --config document, synth --seed 3
    "noisy": (3, standard_noisy_world(3), "bbe2d84be772651a69d7c0411ed92b897c5f368be0212749a87caf9736a0560f",
              "1b80793939cf93b829513103d45f5f1c5aca323586709045aba684e4d8af640d", {
                  None: _NOISY_FULL, "bdd100k": _NOISY_FULL,
                  "mot17": _NOISY_GATED, "mot20": _NOISY_GATED,
                  "dancetrack": ("b3e2881a0149a91128849d853ec2423f5fc03d7838844b605e2a846f7560f14b",
                                 "7d704939b418fc65ce1d37f8f0452460c9cebf100c83f49a082e9f69881d60d3"),
                  "waymo": ("1bf3e4140e41962cde5d944b98e4f0c806d15be7c316721e9b0f7b0aaf529c76",
                            "6ceead2810a81eaf3fb27853bb24f7b5e2f6aeec7e5b88385c758fbe459f70a1"),
                  "tao": ("2e6ceac21e2a9045aed2a5b11a05ef2f64f805b7547ca53149b8f6fd1119b3eb",
                          "54893bd93d21141150e53e915e6f076db427cc6182b617a6c7007cac1cc21461"),
              }),
}


@pytest.mark.parametrize("world", DIGESTS)
def test_cli_outputs_keep_their_digests(world, tmp_path, capsys):
    seed, config, det_digest, gt_digest, tracks = DIGESTS[world]
    assert set(tracks) == {None, *PROFILE_NAMES}

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    det, gt = tmp_path / "det.txt", tmp_path / "gt.txt"
    argv = ["--seed", str(seed), "synth", "--detections", str(det), "--gt", str(gt)]
    if config is not None:
        doc = dataclasses.asdict(config)  # occlusions become lists
        (tmp_path / "world.json").write_text(json.dumps(doc))
        argv += ["--config", str(tmp_path / "world.json")]
    assert main(argv) == EXIT_OK
    assert (sha(det.read_bytes()), sha(gt.read_bytes())) == (det_digest, gt_digest)
    got = {}
    for profile in tracks:
        pred = tmp_path / f"pred_{profile}.txt"
        assert main(["track", "--input", str(det), "--output", str(pred),
                     *(["--profile", profile] if profile else [])]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--machine"]) == EXIT_OK
        got[profile] = (sha(pred.read_bytes()), sha(capsys.readouterr().out.encode()))
    assert got == tracks


# sha256 of ablate's CSV for one seed of a small crowded world, per sweep;
# together the sweeps set every key and one loss, and each arm moves a score
_ABLATE_WORLD = {"n_identities": 5, "n_frames": 12, "dim": 8, "image_size": [200.0, 200.0],
                 "fp_rate": 0.3, "speed": 5.0}
ABLATE_DIGESTS = {
    "metric=bisoftmax,cosine backdrops=on,off":
        "a729dfc931a169c17e8394cd68f26d336077c41f100a69848024a32ef854170d",
    "duplicate_removal=on,off subsample=1,2":
        "0738977cfbedd948b60db6415d9b9cbec16d666f6fb1d9a6ed62f0b2ce96a60a",
    "baseline=appearance,iou":
        "d1530bb396fb5d7f8323e2bdedafbf5993ab3b747b453fe93d7d1dc7a65067e6",
    "loss=accumulated_multi metric=bisoftmax,cosine":
        "8016ad4f5881822eb76f3a470583414cf4b10ef1ffd140f7ae4b8b24f645c940",
}


@pytest.mark.parametrize("sweep", ABLATE_DIGESTS)
def test_ablate_output_keeps_its_digest(sweep, tmp_path):
    world, out = tmp_path / "world.json", tmp_path / "ablation.csv"
    world.write_text(json.dumps(_ABLATE_WORLD))
    assert main(["ablate", "--sweep", sweep, "--seeds", "0", "--config", str(world),
                 "--output", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == ABLATE_DIGESTS[sweep]
