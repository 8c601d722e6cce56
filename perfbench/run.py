"""embedtrack benchmark.

    python3 perfbench/run.py --workload crowd|gated|train --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout. With ``--trace 0`` the last stdout line is a JSON object
holding every end-to-end metric of BENCHMARK.json; with ``--trace 1``
public functions of every layer are wrapped (see ``tracing.py``) and it
holds every per-layer metric instead. Lines before it are a readable table
with the headline metrics of the workload, and the environment record.
A fuller record goes to ``.perfbench_out/`` in the checkout.

Exit status 0 when a result was printed, 2 when the benchmark could not run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> int:
    """One BLAS thread, whatever the environment says, so every run uses
    the same setting and the one caller keeps to one core. Must run before
    numpy loads."""
    for var in BLAS_VARS:
        os.environ[var] = "1"
    return 1


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "embedtrack").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fp:
            for line in fp:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": blas_threads,
    }


MIN_PASSES = 5


def replay_passes(wl, seconds: float, tracer):
    """Closed loop: one replay pass after another until ``seconds`` have
    passed, and at least ``MIN_PASSES``. A traced run alternates untraced
    and traced passes, starting untraced and ending traced, with at least
    ``MIN_PASSES`` of each, so the tracing overhead is measured on the same
    units. Returns the untraced and the traced samples."""
    from workloads import Replay

    plain, traced = Replay(), Replay()
    traced.expected, traced.problems = plain.expected, plain.problems
    kinds = 2 if tracer else 1
    start = time.perf_counter()
    i = 0
    while True:
        on = tracer is not None and i % 2 == 1
        rep = traced if on else plain
        rep.start_pass()
        with tracing_on(tracer if on else None, f"replay-{i}"):
            wl.replay(rep)
        i += 1
        if time.perf_counter() - start >= seconds and i >= MIN_PASSES * kinds and i % kinds == 0:
            return plain, traced, i


@contextlib.contextmanager
def tracing_on(tracer, seq: str):
    """Wrap the layers for the duration of the block, recording into
    sequence ``seq``; does nothing when ``tracer`` is None."""
    if tracer is None:
        yield
        return
    from tracing import install_embedtrack

    install_embedtrack(tracer)
    tracer.seq = seq
    try:
        yield
    finally:
        tracer.uninstall()


REF_NOMINAL_S = 1.5e-3


def machine_scale(samples: dict[str, list[float]]) -> tuple[float, float]:
    """(reference seconds, scale): the mean fastest time of the reference
    work's calls in the run, and ``REF_NOMINAL_S`` over it. A time times
    the scale reads as on a machine that does the reference work in
    ``REF_NOMINAL_S``."""
    from workloads import fastest

    ref_s = statistics.mean(fastest(samples, "ref/"))
    return ref_s, REF_NOMINAL_S / ref_s


def end_to_end(wl, samples: dict[str, list[float]], setup_s: float) -> dict:
    """The gated metrics. Other tenants of a shared machine only ever slow a
    call down, so each replayed unit counts with its fastest time in the
    run, and the workload's ``summarize`` adds them up. The machine itself
    also runs faster or slower for minutes at a time, so ``round_s`` and
    ``work_per_s`` are scaled by the reference work's fastest time in the
    same passes. ``setup_s`` is as measured: scaling it by reference calls
    around the set-ups made it spread more, not less."""
    _ref_s, scale = machine_scale(samples)
    raw = wl.summarize(samples)
    return {"setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "round_s": (raw["round_s"] * scale, "s"),
            "work_per_s": (raw["work_per_s"] / scale, "1/s")}


def headline_table(wl, full, samples, setup_s, peak_rss_mb, attempted, failed) -> list[tuple[str, object, str, str]]:
    """The headline metrics of this workload as measured (not scaled),
    each with unit and note. Per-sequence figures come from the checked
    round; latency percentiles pool its samples with the replayed ones."""
    from workloads import SETUP_REPS, TOY_STEPS, tail_percentile

    rows = [
        ("setup_s", setup_s, "s", f"median of {SETUP_REPS} set-ups plus import"),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss"),
        ("failed_ops_share", failed / attempted, "share", f"{failed} failed of {attempted} operations"),
    ]
    prefix = "loss/" if wl.name == "train" else "step/"
    latency = full.step_ms + [x * 1e3 for k, v in samples.items() if k.startswith(prefix) for x in v]
    p10, tail = tail_percentile(latency)
    tail_note = (f"p{p10 / 10:g} of {len(latency)} samples" if p10 is not None
                 else f"no percentile has 10 of {len(latency)} samples beyond it")
    ex = full.extra
    if wl.name in ("crowd", "gated"):
        rows += [
            ("pipeline_s", ex["pipeline_s"], "s", "the checked sequence"),
            ("track_fps", len(full.step_ms) / ex["track_s"], "frames/s", "step over all frames plus finish()"),
            ("step_ms_p50", statistics.median(latency), "ms", f"{len(latency)} samples"),
            ("step_ms_p99", tail, "ms", tail_note),
            ("eval_s", ex.get("eval_s"), "s", "the checked sequence, if it passed"),
        ]
        for k, name in enumerate(("idf1", "hota", "idsw")):
            rows.append((name, full.quality[k] if full.quality else None,
                         "score" if k < 2 else "count", "the checked sequence, if it passed"))
    if wl.name == "train":
        rows += [
            ("loss_batches_per_s", len(latency) / (sum(latency) / 1e3), "batches/s",
             f"128 keys x 256 refs, D=256, {len(latency)} calls"),
            ("loss_ms_tail", tail, "ms", tail_note),
            ("train_steps_per_s", TOY_STEPS / ex["optimize_s"], "steps/s",
             f"optimize_embeddings, 12 ids x 8 frames, D=16, {TOY_STEPS} steps"),
            ("gradcheck_s", ex["gradcheck_s"], "s", "gradient_check dims=(4,16,64), 3 batches"),
        ]
    return rows


def per_layer(wl, tracer, full, setup_seqs, overhead, ref_s) -> dict:
    """Per-layer metrics of the traced full round (set-up layers: medians
    over the set-up repetitions), the tracing overhead on ``round_s``, and
    the reference work's mean fastest time."""
    seq = "round"
    spans, hot, counts = tracer.span_totals(seq), tracer.hot_totals(seq), tracer.span_counts(seq)

    def h(name, k):
        return hot.get(name, (0, 0.0, 0))[k]

    out = {
        "formats.read_detections_s": spans.get("formats.read_detections", 0.0),
        "formats.write_mot_s": spans.get("formats.write_mot", 0.0),
        "formats.read_mot_s": spans.get("formats.read_mot", 0.0),
        "tracker.step_s": spans.get("tracker.step", 0.0),
        "tracker.step_self_s": spans.get("tracker.step", 0.0) - tracer.foreign_time_under(seq, "tracker.step"),
        "tracker.finish_s": spans.get("tracker.finish", 0.0),
        "tracker.merge_s": spans.get("tracker.merge_tracklets", 0.0),
        "tracker.interpolate_s": spans.get("tracker.interpolate_tracks", 0.0),
        "tracker.momentum_update_calls": h("tracker.momentum_update", 0),
        "similarity.bisoftmax_s": spans.get("similarity.masked_bisoftmax", 0.0),
        "similarity.bisoftmax_calls": counts.get("similarity.masked_bisoftmax", 0),
        "similarity.cells": h("similarity.masked_bisoftmax#cells", 2),
        "similarity.validate_calls": h("similarity.validate_embeddings", 0),
        "geometry.center_distance_calls": h("geometry.center_distance", 0),
        "geometry.center_distance_s": h("geometry.center_distance", 1),
        "geometry.nms_s": spans.get("geometry.nms", 0.0),
        "geometry.iou_matrix_calls": h("geometry.iou_matrix", 0),
        "geometry.iou_cells": h("geometry.iou_matrix", 2),
        "metrics.clear_mot_s": spans.get("metrics.clear_mot", 0.0),
        "metrics.idf1_s": spans.get("metrics.idf1", 0.0),
        "metrics.hota_s": spans.get("metrics.hota", 0.0),
        "metrics.assignment_solves": h("metrics.linear_sum_assignment", 0),
        "metrics.assignment_s": h("metrics.linear_sum_assignment", 1),
        "contrastive.loss_total_s": h("contrastive.loss_total", 1),
        "contrastive.loss_total_calls": h("contrastive.loss_total", 0),
        "contrastive.pairs": h("contrastive.loss_total", 2),
        "contrastive.sample_batch_s": spans.get("contrastive.sample_batch", 0.0),
        "contrastive.fd_gradient_s": spans.get("contrastive.finite_difference_gradient", 0.0),
    }
    for key in ("tracker.dets_in", "tracker.matches", "tracker.tracks_spawned",
                "tracker.merges", "tracker.candidates_mean", "tracker.match_ratio"):
        out[key] = full.extra.get(key, 0)
    out["formats.bytes"] = getattr(wl, "det_bytes", 0) + full.extra.get("mot_bytes", 0)
    setup = [tracer.span_totals(s) for s in setup_seqs]
    out["synth.generate_s"] = statistics.median([s.get("synth.generate", 0.0) for s in setup])
    out["formats.write_detections_s"] = statistics.median([s.get("formats.write_detections", 0.0) for s in setup])
    out["synth.detections"] = getattr(wl, "n_detections", 0)
    out["trace.overhead_s"] = overhead["round_s"]
    out["trace.overhead_share"] = overhead["round_s"] / overhead["untraced_round_s"]
    out["machine.ref_ms"] = ref_s * 1e3
    return out


def quality_repeats(wl, seed: int, full) -> list[str]:
    """idf1, hota and idsw of the checked sequence must be identical across
    runs of the same seed on the same source tree."""
    if full.quality is None:
        return []
    store = OUT / "quality" / f"{wl.name}-{seed}-{src_digest()}.json"
    value = list(full.quality)
    if store.exists():
        before = json.loads(store.read_text())
        if before != value:
            return [f"quality {value} differs from an earlier run's {before}"]
    else:
        store.parent.mkdir(parents=True, exist_ok=True)
        store.write_text(json.dumps(value))
    return []


def unit_summary(samples: dict[str, list[float]]) -> dict:
    return {k: {"n": len(v), "min_s": min(v), "median_s": statistics.median(v)}
            for k, v in sorted(samples.items())}


def fmt(v) -> str:
    if v is None:
        return "n/a"
    if isinstance(v, int):
        return str(v)
    return f"{v:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("crowd", "gated", "train"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "embedtrack" / "__init__.py").is_file():
        print(f"perfbench: no embedtrack package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    blas_threads = pin_blas_threads()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import embedtrack
    import_s = time.perf_counter() - t0
    if Path(embedtrack.__file__).resolve().parent != (SRC / "embedtrack").resolve():
        print(f"perfbench: imported embedtrack from {embedtrack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        tracer = Tracer() if args.trace else None
        setup_times, setup_seqs = [], [f"setup-{rep}" for rep in range(workloads.SETUP_REPS)]
        for seq in setup_seqs:
            with tracing_on(tracer, seq):
                t = time.perf_counter()
                wl.setup()
                setup_times.append(time.perf_counter() - t)
        setup_s = import_s + statistics.median(setup_times)

        gc.collect()
        with tracing_on(tracer, "round"):
            full = wl.full_round()
        plain, traced, passes = replay_passes(wl, args.seconds, tracer)
        ops = list(full.ops)
        if hasattr(wl, "after_rounds"):
            with tracing_on(tracer, "cli"):
                ops += wl.after_rounds()
        attempted, failed = len(ops), sum(not op.ok for op in ops)
        problems = quality_repeats(wl, args.seed, full) + plain.problems

        env = environment(args.seed, blas_threads)
        e2e = end_to_end(wl, plain.samples, setup_s)
        table = headline_table(wl, full, plain.samples, setup_s, e2e["peak_rss_mb"][0], attempted, failed)
        record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
                  "env": env, "replay_passes": passes, "setup_times_s": setup_times,
                  "full_round": dict(full.extra, traced=bool(tracer)),
                  "units": unit_summary(plain.samples),
                  "raw": dict(wl.summarize(plain.samples), ref_s=machine_scale(plain.samples)[0]),
                  "headline_metrics": {n: {"value": v, "unit": u, "note": note} for n, v, u, note in table},
                  "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
                  "ops": [vars(op) for op in ops], "check_problems": problems}
        if tracer:
            e_on = end_to_end(wl, traced.samples, setup_s)
            overhead = {k: e_on[k][0] - e2e[k][0] for k in ("round_s", "work_per_s")}
            record["trace_overhead"] = overhead
            layer = per_layer(wl, tracer, full, setup_seqs, dict(overhead, untraced_round_s=e2e["round_s"][0]),
                              machine_scale(plain.samples)[0])
            record["per_layer"] = layer
            record["self_s"] = tracer.self_times("round")
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
            metrics_out = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in sorted(layer.items())}
        else:
            metrics_out = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
        (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(record, indent=1, default=str))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}: seed {args.seed}, checked round plus {passes} replay passes, "
          f"{attempted} operations, {failed} failed")
    for name, value, unit, note in table:
        print(f"  {name:<20} {fmt(value):>12} {unit:<9} {note}")
    for op in ops:
        if not op.ok:
            print(f"  FAILED {op.what}: {op.reason}")
    for p in problems:
        print(f"  CHECK {p}")
    print("# env " + json.dumps(env))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


LAYER_UNITS = {
    "synth.generate_s": "s", "synth.detections": "count",
    "formats.read_detections_s": "s", "formats.write_detections_s": "s",
    "formats.write_mot_s": "s", "formats.read_mot_s": "s", "formats.bytes": "B",
    "tracker.step_s": "s", "tracker.step_self_s": "s", "tracker.finish_s": "s",
    "tracker.merge_s": "s", "tracker.interpolate_s": "s",
    "tracker.momentum_update_calls": "count", "tracker.candidates_mean": "count",
    "tracker.dets_in": "count", "tracker.matches": "count", "tracker.tracks_spawned": "count",
    "tracker.merges": "count", "tracker.match_ratio": "share",
    "similarity.bisoftmax_s": "s", "similarity.bisoftmax_calls": "count",
    "similarity.cells": "count", "similarity.validate_calls": "count",
    "geometry.center_distance_calls": "count", "geometry.center_distance_s": "s",
    "geometry.nms_s": "s", "geometry.iou_matrix_calls": "count", "geometry.iou_cells": "count",
    "metrics.clear_mot_s": "s", "metrics.idf1_s": "s", "metrics.hota_s": "s",
    "metrics.assignment_solves": "count", "metrics.assignment_s": "s",
    "contrastive.loss_total_s": "s", "contrastive.loss_total_calls": "count",
    "contrastive.pairs": "count", "contrastive.sample_batch_s": "s",
    "contrastive.fd_gradient_s": "s",
    "trace.overhead_s": "s", "trace.overhead_share": "share",
    "machine.ref_ms": "ms",
}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(2)
