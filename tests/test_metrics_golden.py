"""per_class_report pinned to exact values.

``golden_report.json`` holds the report of each case below as the
object-by-object evaluation (one IoU matrix per matching, per-pair Python
loops) computed it; the HOTA-family fields were pinned again when HOTA took
its published single-matching form, and the ``synth`` case again when the
synthetic world came to draw each kind of per-frame value from its own
stream. The per-frame array evaluation must reproduce every value with
``==``: a moved last digit fails. Every pinned case is also what the
class-by-class reference ``oracles.separate_per_class_report`` computes, and
regeneration refuses to write a case on which the two disagree. On the cases
small enough to enumerate, the pinned HOTA values are also ones the
brute-force oracle allows.
"""

import dataclasses
import json
import os

import numpy as np
import pytest

from embedtrack.ablation import synth_tracker_config
from embedtrack.geometry import BoundingBox
from embedtrack.metrics import ObjectEntry, TrackSet, per_class_report
from embedtrack.synth import WorldConfig, generate
from embedtrack.tracker import run_sequence
from oracles import (
    hota_in_oracle,
    hota_oracle,
    num_boxes,
    random_instance,
    restrict_class,
    separate_per_class_report,
)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_report.json")


def synth_case():
    """A crowded two-class world with clutter and occlusions, tracked with
    the synthetic tracker settings."""
    world = WorldConfig(
        n_identities=24,
        n_frames=50,
        n_classes=2,
        image_size=(400.0, 400.0),
        dim=16,
        sigma_e=0.25,
        jitter_sigma=2.0,
        fp_rate=0.05,
        fn_rate=0.05,
        n_distractors=6,
        distractor_affinity=0.5,
        occlusions=[(0, 5, 12), (3, 20, 30), (7, 31, 33)],
        seed=5,
    )
    scenario = generate(world)
    return scenario.gt, run_sequence(scenario.detections, synth_tracker_config())


def prediction_only_class_case():
    """Class 0 from a random instance; class 4 has predictions only."""
    gt, pred = random_instance(np.random.default_rng(31), max_ids=4, max_frames=5)
    for f in range(3):
        pred.add(f, ObjectEntry(40 + f, 4, BoundingBox(100.0 + f, 100.0, 130.0, 125.0)))
    pred.add(1, ObjectEntry(45, 4, BoundingBox(0.0, 0.0, 20.0, 20.0)))
    return gt, pred


def tie_case():
    """Exactly duplicated boxes on both sides, so every matching has ties."""
    a = BoundingBox(0.0, 0.0, 10.0, 10.0)
    b = BoundingBox(5.0, 0.0, 15.0, 10.0)
    gt, pred = TrackSet(), TrackSet()
    for f in range(6):
        gt.add(f, ObjectEntry(1, 0, a))
        gt.add(f, ObjectEntry(2, 0, a))
        gt.add(f, ObjectEntry(3, 0, b, visible=f != 2))
        pred.add(f, ObjectEntry(10 + f % 2, 0, a))
        pred.add(f, ObjectEntry(12, 0, a))
        pred.add(f, ObjectEntry(13 + f // 3, 0, b))
        pred.add(f, ObjectEntry(20, 0, a if f % 3 else b))
    return gt, pred


CASES = {
    "synth": synth_case,
    "prediction_only_class": prediction_only_class_case,
    "ties": tie_case,
}


def report_values(gt, pred, report=per_class_report) -> dict:
    rep = report(gt, pred)
    return {
        "aggregate": dataclasses.asdict(rep.aggregate),
        "per_class": {str(c): dataclasses.asdict(m) for c, m in rep.per_class.items()},
        "mmota": rep.mmota,
        "midf1": rep.midf1,
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN_PATH) as fp:
        return json.load(fp)


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_equals_golden_values(name, golden):
    got = report_values(*CASES[name]())
    want = golden[name]
    assert got["aggregate"] == want["aggregate"]
    assert got["per_class"] == want["per_class"]
    assert (got["mmota"], got["midf1"]) == (want["mmota"], want["midf1"])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_values_are_the_separate_references(name, golden):
    assert report_values(*CASES[name](), separate_per_class_report) == golden[name]


@pytest.mark.parametrize("name", ["prediction_only_class", "ties"])
def test_golden_hota_is_an_oracle_value(name, golden):
    gt, pred = CASES[name]()
    for c, want in golden[name]["per_class"].items():
        gt_c, pred_c = restrict_class(gt, int(c)), restrict_class(pred, int(c))
        if num_boxes(gt_c):
            assert hota_in_oracle(want, hota_oracle(gt_c, pred_c)), c


if __name__ == "__main__":
    # Regenerate the golden file. Only do this on purpose, with a reason.
    values = {}
    for name, make in sorted(CASES.items()):
        gt, pred = make()
        values[name] = report_values(gt, pred)
        if values[name] != report_values(gt, pred, separate_per_class_report):
            raise SystemExit(f"case {name!r}: per_class_report and the separate reference "
                             "disagree; nothing written")
    with open(GOLDEN_PATH, "w") as fp:
        json.dump(values, fp, indent=1, sort_keys=True)
        fp.write("\n")
