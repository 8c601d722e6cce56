"""Association cost against scene size: per-frame ``Tracker.step`` time on
worlds of constant density, from about 30 to about 980 detections a frame.

Each world holds n identities and n/5 lookalike distractors over 60 frames,
D=64, on a square image whose side grows with the square root of n, so
that the density stays that of 100 identities on 1000 x 1000 pixels (the
perfbench ``crowd`` world). Each world is tracked with
``ablation.synth_tracker_config()`` (dense association: no gate, merge or
interpolation) and with the ``mot17`` profile (50 px distance gate and
merging). A world's time is the sum of its frames' ``step`` times, each
the least of five runs, with one BLAS thread.

    PYTHONPATH=src python tools/assoc_scaling.py > scaling.json

Prints JSON: per world, the mean detections per frame and, per config, the
step time per frame in ms and per detection in microseconds. This script is
not part of tier-1; a run takes a few minutes.
"""

from __future__ import annotations

import json
import math
import os
import platform
import sys
import time

# one BLAS thread, as perfbench and the tests run; set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from embedtrack import ablation, config, synth, tracker  # noqa: E402

IDENTITIES = (25, 50, 100, 200, 400, 800)
FRAMES, DIM, REPEATS = 60, 64, 5


def world(n: int) -> synth.WorldConfig:
    side = 1000.0 * math.sqrt(n / 100)
    return synth.WorldConfig(n_identities=n, n_distractors=n // 5, distractor_affinity=0.5,
                             n_frames=FRAMES, dim=DIM, image_size=(side, side), sigma_e=0.15,
                             jitter_sigma=1.0, fp_rate=0.02, seed=n)


def step_seconds(cfg: tracker.TrackerConfig, frames: dict) -> float:
    """The summed ``step`` times of a run, each frame at its least time
    over REPEATS runs: every run does the same work on each frame, so a
    frame's least time leaves out what other processes took from it."""
    times = np.empty((REPEATS, len(frames)))
    for run in range(REPEATS):
        trk = tracker.Tracker(cfg)
        for k, f in enumerate(sorted(frames)):
            start = time.perf_counter()
            trk.step(f, frames[f])
            times[run, k] = time.perf_counter() - start
    return float(times.min(axis=0).sum())


def main() -> int:
    configs = {"dense": ablation.synth_tracker_config(), "mot17": config.load_profile("mot17")}
    rows = []
    for n in IDENTITIES:
        frames = synth.generate(world(n)).detections
        dets = sum(map(len, frames.values()))
        row = {"identities": n, "dets_per_frame": round(dets / len(frames), 1)}
        for name, cfg in configs.items():
            s = step_seconds(cfg, frames)
            row[name] = {"step_ms_per_frame": round(1e3 * s / len(frames), 3),
                         "us_per_det": round(1e6 * s / dets, 2)}
        rows.append(row)
        print(json.dumps(row), file=sys.stderr)
    json.dump({"machine": {"python": platform.python_version(), "numpy": np.__version__,
                           "cpu": platform.processor() or platform.machine()},
               "frames": FRAMES, "dim": DIM, "repeats": REPEATS, "worlds": rows}, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
