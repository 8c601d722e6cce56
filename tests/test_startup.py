"""Start-up cost: in a fresh interpreter, importing the package and
running the commands that solve no assignment (synth, track, gradcheck)
load numpy alone. scipy is loaded at the first assignment solve, by eval,
whose report is the same as in this process."""

import json
import os
import subprocess
import sys
from pathlib import Path

from embedtrack.cli import EXIT_OK, main

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import contextlib, io, json, sys

import embedtrack
loaded = {"import embedtrack": "scipy" in sys.modules}
from embedtrack.cli import main
loaded["import embedtrack.cli"] = "scipy" in sys.modules
world, det, gt, pred = sys.argv[1:]
codes = {}
for argv in (["synth", "--config", world, "--detections", det, "--gt", gt],
             ["track", "--input", det, "--output", pred, "--profile", "mot17"],
             ["gradcheck", "--batches", "1"],
             ["eval", "--gt", gt, "--pred", pred, "--machine"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        codes[argv[0]] = main(argv)
    loaded[argv[0]] = "scipy" in sys.modules
print(json.dumps({"codes": codes, "loaded": loaded, "report": out.getvalue()}))
"""


def test_scipy_loads_at_the_first_assignment_solve(tmp_path, capsys):
    world, det, gt, pred = (tmp_path / n for n in ("world.json", "det.txt", "gt.txt", "pred.txt"))
    world.write_text(json.dumps({"n_identities": 3, "n_frames": 10, "dim": 8, "sigma_e": 0.2}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(world), str(det), str(gt), str(pred)],
                          env=env, capture_output=True, text=True, check=True)
    got = json.loads(done.stdout)
    assert got["codes"] == {"synth": EXIT_OK, "track": EXIT_OK, "gradcheck": EXIT_OK, "eval": EXIT_OK}
    assert got["loaded"] == {
        "import embedtrack": False, "import embedtrack.cli": False,
        "synth": False, "track": False, "gradcheck": False, "eval": True}
    capsys.readouterr()
    assert main(["eval", "--gt", str(gt), "--pred", str(pred), "--machine"]) == EXIT_OK
    assert got["report"] == capsys.readouterr().out
