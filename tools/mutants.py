"""Negative controls for the rules of evaluation and association: one-line
mutants of ``src/embedtrack/`` (the metrics, the tracker, the bi-softmax,
NMS and the synthetic IoU baseline), each run against tier-1.

Each mutant is applied to a copy of the working tree in a temporary
directory, and tier-1 runs there with ``-x``. A mutant that a pin catches
first (the sha256 digests of CLI and ``ablate`` output, the golden report)
runs again with those pins deselected, so that it names the behavioural
test that states its rule. A mutant that no test catches is a rule without
a test, unless it is listed as equivalent, with the reason.

    python tools/mutants.py > mutants.json

Prints JSON: per mutant, caught or survived, the first failing test, and
the first failing test that is not a pin; progress goes to stderr. Exits 1
when a mutant that is not listed as equivalent survives. This script is not
part of tier-1; a run takes minutes, and each survivor costs a full tier-1
run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
METRICS = "src/embedtrack/metrics.py"
TRACKER = "src/embedtrack/tracker.py"

# (name, file, old text, new text, the rule the mutant breaks)
MUTANTS = [
    ("alpha_floor_without_eps", METRICS, "np.array(HOTA_ALPHAS) - _EPS", "np.array(HOTA_ALPHAS)",
     "HOTA keeps a match with IoU >= alpha - eps, as TrackEval does"),
    ("idf1_above_threshold", METRICS, "self._joined(2, 0) >= iou_threshold", "self._joined(2, 0) > iou_threshold",
     "IDF1 counts a frame of a pair with IoU at or above the threshold"),
    ("mostly_tracked_above", METRICS, "ratio >= 0.8", "ratio > 0.8",
     "MT: a gt id covered in at least 80 % of its frames"),
    ("clear_carry_above", METRICS, "overlaps[rows, cols] >= self.threshold", "overlaps[rows, cols] > self.threshold",
     "CLEAR carries a match over while its IoU stays at or above the threshold"),
    ("match_above", METRICS, "admissible = overlaps >= threshold", "admissible = overlaps > threshold",
     "CLEAR matches pairs with IoU at or above the threshold"),
    ("level_search_left", METRICS, 'matched_iou, side="right"', 'matched_iou, side="left"',
     "a match at IoU exactly alpha - eps counts at alpha"),
    ("share_without_overlap", METRICS, "ious.sum(axis=0)[c] - v)", "ious.sum(axis=0)[c])",
     "HOTA's alignment share is IoU / (row sum + column sum - IoU)"),
    ("matches_without_exact_hit", METRICS, "            kept = kept[flat[kept] == at]\n", "",
     "a solved pair with zero IoU is no match at any alpha"),
    ("idf1_with_eps", METRICS, "self._joined(2, 0) >= iou_threshold", "self._joined(2, 0) >= iou_threshold - _EPS",
     "IDF1 compares IoU with the threshold itself, not with threshold - eps as HOTA does"),
    ("clear_carry_with_eps", METRICS, "overlaps[rows, cols] >= self.threshold",
     "overlaps[rows, cols] >= self.threshold - _EPS",
     "CLEAR carries a match over only at IoU >= the threshold itself"),
    ("match_with_eps", METRICS, "admissible = overlaps >= threshold", "admissible = overlaps >= threshold - _EPS",
     "CLEAR matches only pairs with IoU >= the threshold itself"),
    ("match_score_at_beta", TRACKER, "(best_conf[order] > _BETA_MATCH)", "(best_conf[order] >= _BETA_MATCH)",
     "a detection matches its best candidate only above _BETA_MATCH"),
    ("memory_purge_at", TRACKER, "expired = frame_index - live.frame > cfg.memory_frames",
     "expired = frame_index - live.frame >= cfg.memory_frames",
     "a track inactive for memory_frames frames is still a candidate"),
    ("backdrop_age_below", TRACKER, "frame_index - backdrops.frame <= cfg.backdrop_frames",
     "frame_index - backdrops.frame < cfg.backdrop_frames",
     "a backdrop backdrop_frames frames old is still a candidate"),
    ("backdrops_consume_nothing", TRACKER, "free = ~(won | (eligible & (o_best >= n_tracks)))", "free = ~won",
     "a detection whose best candidate is a backdrop is consumed by it"),
    ("greedy_ties_to_higher_index", TRACKER, 'order = np.argsort(-scores, kind="stable")',
     'order = len(scores) - 1 - np.argsort(-scores[::-1], kind="stable")',
     "detections claim in descending score, ties by input index"),
    ("merge_at_created_frame", TRACKER, "(rows.created[young][:, None] > rows.frame[vanished][None, :])",
     "(rows.created[young][:, None] >= rows.frame[vanished][None, :])",
     "a young track merges only into a track last active before it was created"),
    ("merge_pairs_in_row_order", TRACKER, 'order = np.argsort(-sim[ii, jj], kind="stable")',
     "order = np.arange(len(ii))", "merge pairs are taken in descending score"),
    ("nms_at_threshold", "src/embedtrack/geometry.py", "boxes.take(j, axis=0)) > iou_threshold",
     "boxes.take(j, axis=0)) >= iou_threshold", "NMS suppresses a box only above the IoU threshold"),
    ("row_only_softmax", "src/embedtrack/similarity.py", "row += _stable_softmax(logits, axis=0, out=logits",
     "row += _stable_softmax(logits, axis=1, out=logits",
     "the bi-softmax is the mean of the row-wise and the column-wise softmax"),
    ("baseline_match_iou", "src/embedtrack/synth.py", "_MIN_SCORE, _BASELINE_MATCH_IOU = 0.5, 0.3",
     "_MIN_SCORE, _BASELINE_MATCH_IOU = 0.5, 0.25", "the IoU baseline links boxes with IoU above 0.3"),
    ("created_aliases_frame", TRACKER, "self.created = _stack(self.created, frame.copy())",
     "self.created = _stack(self.created, frame)", "a row's creation frame stays when its frame moves"),
    ("interpolated_score_from_prev", TRACKER, "score = 0.5 * (prev[2] + cur[2])", "score = prev[2]",
     "an interpolated entry scores the mean of its gap's two ends"),
    ("interpolated_weight_shifted", TRACKER, "w = np.arange(1, gap)[:, None] / gap",
     "w = np.arange(2, gap + 1)[:, None] / gap", "frame prev + k of a gap blends at weight k / gap"),
]

# mutants that cannot change behaviour, by name, with the reason
EQUIVALENT: dict[str, str] = {}

# tests that say an output moved, not which rule broke
PINS = (
    "tests/test_cli.py::test_cli_outputs_keep_their_digests",
    "tests/test_cli.py::test_ablate_output_keeps_its_digest",
    "tests/test_metrics_golden.py::test_report_equals_golden_values",
    "tests/test_metrics_golden.py::test_golden_values_are_the_separate_references",
)


def run_tier1(tree: Path, deselect: tuple[str, ...] = ()) -> str | None:
    """The first failing test of tier-1 with ``-x`` in ``tree``, or None
    when every test passes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", *(f"--deselect={d}" for d in deselect)]
    out = subprocess.run(argv, cwd=tree, env=env, capture_output=True, text=True).stdout
    failed = [line.split()[1] for line in out.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else None


def apply(tree: Path, path: str, old: str, new: str) -> None:
    target = tree / path
    text = target.read_text()
    if text.count(old) != 1:
        raise SystemExit(f"{path}: mutant text {old!r} occurs {text.count(old)} times, not once")
    target.write_text(text.replace(old, new))


def main() -> int:
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, old, new, rule in MUTANTS:
            tree = Path(tmp) / name
            skip = shutil.ignore_patterns(".git", "__pycache__", "*.egg-info", ".hypothesis", ".pytest_cache",
                                          ".perfbench_out")
            shutil.copytree(ROOT, tree, ignore=skip)
            apply(tree, path, old, new)
            first = run_tier1(tree)
            # deselecting tests that passed cannot move the first failure,
            # so only a mutant that a pin caught first runs again
            behavioural = run_tier1(tree, PINS) if first and first.startswith(PINS) else first
            results.append({"name": name, "file": path, "old": old, "new": new, "rule": rule,
                            "caught": first is not None, "first_failure": first,
                            "behavioural_failure": behavioural, "equivalent": EQUIVALENT.get(name)})
            shutil.rmtree(tree)
            print(f"{name}: {'caught by ' + first if first else 'survived'}", file=sys.stderr)
    json.dump(results, sys.stdout, indent=2)
    print()
    survivors = [r["name"] for r in results if not r["behavioural_failure"] and not r["equivalent"]]
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
