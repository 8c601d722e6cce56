"""Tests of the benchmark itself: metric names, the percentile rule, the
output checks (with planted defects as negative controls) and the tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from embedtrack import config, synth, tracker  # noqa: E402
from embedtrack.geometry import BoundingBox  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- metric names ------------------------------------------------------------


def test_declared_metric_names_and_units_are_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]), m


def crowd_with_frames(n):
    wl = workloads.Crowd(0, "")
    wl.frames = dict.fromkeys(range(n), [])
    return wl


CROWD_SAMPLES = {"step/0000": [2e-3, 1e-3], "step/0001": [1e-3, 3e-3], "finish/0": [5e-4, 2.5e-4],
                 "eval/0000": [0.02, 0.01], "ref/000": [2e-3, 1e-3], "ref/001": [3e-3]}


def test_emitted_metrics_are_exactly_the_declared_ones():
    e2e = run.end_to_end(crowd_with_frames(4), CROWD_SAMPLES, setup_s=1.0)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert {k: u for k, (_v, u) in e2e.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert run.LAYER_UNITS == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in list(e2e) + list(run.LAYER_UNITS):
        assert NAME.match(name), name


# -- each replayed unit counts with its fastest time ---------------------------


def test_crowd_scales_its_clips_and_sampled_eval_to_the_sequence():
    got = crowd_with_frames(4).summarize(CROWD_SAMPLES)
    assert got["round_s"] == pytest.approx((1e-3 + 1e-3 + 2.5e-4) * 4 / 2 + 4 * 0.01)
    assert got["work_per_s"] == pytest.approx(2 / 2e-3)


def test_gated_scales_its_clips_to_the_sequence():
    wl = workloads.Gated(0, "")
    wl.n_frames = 300
    got = wl.summarize({"read/0": [0.05, 0.04], "step/0010": [0.02, 0.03], "step/0011": [0.03, 0.02],
                        "finish/0": [0.001]})
    assert got["round_s"] == pytest.approx((0.04 + 0.04 + 0.001) * 300 / 2)
    assert got["work_per_s"] == pytest.approx(2 / 0.04)


def test_train_scales_optimize_to_the_full_step_count():
    wl = workloads.Train(0, "")
    got = wl.summarize({"loss/00": [0.05, 0.04], "loss/01": [0.06], "optimize": [0.2, 0.1]})
    assert got["round_s"] == pytest.approx(0.1 * workloads.TOY_STEPS / workloads.OPT_UNIT_STEPS)
    assert got["work_per_s"] == pytest.approx(2 / 0.1)


def test_times_are_scaled_by_the_reference_work():
    # reference calls' fastest times 1 ms and 3 ms: mean 2 ms
    scale = run.REF_NOMINAL_S / 2e-3
    e2e = run.end_to_end(crowd_with_frames(4), CROWD_SAMPLES, setup_s=1.0)
    raw = crowd_with_frames(4).summarize(CROWD_SAMPLES)
    assert e2e["setup_s"][0] == 1.0  # set-up time is not scaled
    assert e2e["round_s"][0] == pytest.approx(raw["round_s"] * scale)
    assert e2e["work_per_s"][0] == pytest.approx(raw["work_per_s"] / scale)


def test_replayed_units_repeat_their_output():
    wl = workloads.Train(0, "")
    wl.setup()
    rep = workloads.Replay()
    for _ in range(2):
        rep.start_pass()
        wl.replay(rep)
    assert rep.problems == []
    assert {len(v) for v in rep.samples.values()} == {2}
    assert len(workloads.fastest(rep.samples, "ref/")) == workloads.REPLAY_BATCHES + 1


def test_replay_flags_a_unit_whose_output_changes():
    rep = workloads.Replay()
    rep.expect("eval/0005", (0.5, 0.4, 3))
    rep.expect("eval/0005", (0.5, 0.4, 3))
    assert rep.problems == []
    rep.expect("eval/0005", (0.5, 0.4, 4))
    assert rep.problems == ["replayed unit eval/0005 gave a different output"]


# -- percentile and sample-count rule ----------------------------------------


def test_nearest_rank():
    samples = [float(x) for x in range(1000, 0, -1)]
    assert workloads.nearest_rank(samples, 990) == 990.0
    assert workloads.nearest_rank(samples, 500) == 500.0
    assert workloads.nearest_rank([7.0], 990) == 7.0


@pytest.mark.parametrize("n, p10", [
    (10_000, 990),
    (1000, 990),  # exactly ten samples beyond p99
    (999, 980),
    (600, 980),
    (200, 950),
    (100, 900),
    (40, 750),
    (39, None),
])
def test_tail_needs_ten_samples_beyond_it(n, p10):
    got, value = workloads.tail_percentile([float(i) for i in range(n)])
    assert got == p10
    if p10 is None:
        assert value is None
    else:
        assert n - (-(-p10 * n // 1000)) >= 10


# -- output checks and their negative controls -------------------------------


def box(x=0.0):
    return BoundingBox(x, 0.0, x + 10.0, 10.0)


def test_clean_output_passes():
    assert workloads.check_output([(0, 1, 0, box()), (0, 2, 0, box(20)), (1, 1, 0, box(1))]) == []


def test_planted_duplicate_is_flagged():
    rows = [(0, 1, 0, box()), (1, 1, 0, box(1)), (1, 1, 0, box(2))]
    assert workloads.check_output(rows) == ["1 duplicate (frame, id) entries"]


def test_planted_non_finite_box_is_flagged():
    bad = box()
    object.__setattr__(bad, "x2", float("nan"))  # BoundingBox refuses NaN at construction
    assert workloads.check_output([(0, 1, 0, box(20)), (0, 2, 0, bad)]) == ["1 non-finite boxes"]


def test_corrupt_gradient_check_is_a_failed_operation():
    op, seconds = workloads.timed_gradient_check(seed=0, corrupt=True)
    assert not op.ok and "relative error" in op.reason
    assert seconds > 0


def test_mot_file_check_flags_numpy_reprs_and_duplicate_ids(tmp_path):
    path = tmp_path / "tracks.txt"
    path.write_text("0,1,1.0,2.0,3.0,4.0,1.0,0,1.0\n"
                    "0,1,1.0,2.0,3.0,4.0,1.0,0,1.0\n"
                    "1,1,np.float64(1.5),2.0,3.0,4.0,1.0,0,1.0\n")
    assert workloads.check_mot_file(str(path)) == [
        "1 duplicate (frame, id) rows",
        "1 rows with a non-numeric or non-finite field",
    ]


# -- tracer ------------------------------------------------------------------


def small_world():
    return synth.generate(synth.WorldConfig(n_identities=6, n_frames=12, dim=8, sigma_e=0.1, seed=3))


def test_tracer_counts_layers_and_restores_originals():
    originals = (tracker.step, tracker.center_distance, tracker.Tracker.finish)
    scenario = small_world()
    tr = tracing.Tracer()
    tracing.install_embedtrack(tr)
    tr.seq = "round-0"
    try:
        seq = workloads.track_sequence(config.load_profile("mot17"), scenario.detections)
    finally:
        tr.uninstall()
    assert (tracker.step, tracker.center_distance, tracker.Tracker.finish) == originals

    counts, spans, hot = tr.span_counts("round-0"), tr.span_totals("round-0"), tr.hot_totals("round-0")
    assert counts["tracker.step"] == 12
    assert counts["tracker.finish"] == 1
    assert hot["geometry.center_distance"][0] > 0
    assert hot["tracker.momentum_update"][0] == seq["counts"]["tracker.matches"]
    foreign = tr.foreign_time_under("round-0", "tracker.step")
    assert 0 < foreign < spans["tracker.step"]
    self_s = tr.self_times("round-0")
    assert 0 < self_s["tracker.step"] < spans["tracker.step"]


# -- the benchmark refuses to run without the program --------------------------


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(SPEC["command"] + ["--workload", "crowd", "--seed", "0", "--seconds", "1",
                                             "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
