"""Command-line surface: track, eval, synth, ablate, gradcheck.

Exit codes: 0 success, 1 usage error, 2 data error, 3 invariant failure.
All commands honor --seed and are bit-reproducible under it; output files
are written atomically (temp file + rename).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time

import numpy as np

from . import ablation
from .config import PROFILE_NAMES, config_from_dict, load_profile
from .formats import FormatError, _fmt, atomic_write, read_detections, read_mot, write_detections, write_mot
from .metrics import EvalReport, per_class_report
from .synth import WorldConfig, generate, track_scenario
from .tracker import Tracker

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INVARIANT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


class Parser(argparse.ArgumentParser):
    """argparse with usage errors mapped to exit code 1."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise CliError(message, EXIT_USAGE)


def _load_tracker_config(args) -> "Tracker":
    if args.profile:
        cfg = load_profile(args.profile)
    else:
        cfg = config_from_dict({})
    if args.config:
        with open(args.config) as fp:
            overrides = json.load(fp)
        merged = dataclasses.asdict(cfg)
        merged.update(overrides)
        cfg = config_from_dict(merged)
    return Tracker(cfg)


def cmd_track(args) -> int:
    start = time.perf_counter()
    tracker = _load_tracker_config(args)
    try:
        with open(args.input) as fp:
            _, frames = read_detections(fp)
    except OSError as exc:
        raise CliError(str(exc), EXIT_DATA)
    rows: list[str] = []
    track_ids: set[int] = set()
    for f in sorted(frames):
        for tid, det in tracker.step(f, frames[f]):
            track_ids.add(tid)
            rows.append(_track_row(f, tid, det.box, det.score, det.class_id))
    # merging relabels IDs after the fact, so post-processed output is
    # written from what the tracker holds at the end
    if tracker.config.merge is not None or tracker.config.interpolate:
        rows = _finished_rows(tracker)
    with atomic_write(args.output) as fp:
        for row in rows:
            fp.write(row + "\n")
    elapsed = time.perf_counter() - start
    print(f"tracked {len(track_ids)} tracks in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def _track_row(frame: int, tid: int, box, score: float, class_id: int) -> str:
    """One MOT track row; the score goes in the confidence column."""
    return ",".join([
        str(frame), str(tid),
        _fmt(box.x1), _fmt(box.y1), _fmt(box.width), _fmt(box.height),
        _fmt(score), str(class_id), "1.0",
    ])


def _finished_rows(tracker: Tracker) -> list[str]:
    """Rows of ``tracker.finish()``, ordered by (frame, track id)."""
    class_of = {t.track_id: t.class_id for t in tracker.state.tracks.values()}
    class_of.update({t.track_id: t.class_id for t in tracker.state.retired.values()})
    out = [
        (frame, tid, box, score)
        for tid, hist in tracker.finish().items()
        for frame, box, score in hist
    ]
    out.sort(key=lambda r: (r[0], r[1]))
    return [_track_row(f, tid, box, score, class_of[tid]) for f, tid, box, score in out]


def _format_report(report: EvalReport) -> str:
    header = (
        f"{'class':>8} {'MOTA':>8} {'IDF1':>8} {'HOTA':>8} {'DetA':>8} {'AssA':>8} "
        f"{'FP':>6} {'FN':>6} {'IDSW':>5} {'MT':>4} {'ML':>4}"
    )

    def fmt(v):
        return f"{v:8.4f}" if v is not None else f"{'-':>8}"

    lines = [header]
    for c, m in sorted(report.per_class.items()):
        lines.append(
            f"{c:>8} {fmt(m.mota)} {fmt(m.idf1)} {fmt(m.hota)} {fmt(m.deta)} "
            f"{fmt(m.assa)} {m.fp:>6} {m.fn:>6} {m.idsw:>5} {m.mt:>4} {m.ml:>4}"
        )
    a = report.aggregate
    lines.append(
        f"{'all':>8} {fmt(a.mota)} {fmt(a.idf1)} {fmt(a.hota)} {fmt(a.deta)} "
        f"{fmt(a.assa)} {a.fp:>6} {a.fn:>6} {a.idsw:>5} {a.mt:>4} {a.ml:>4}"
    )
    if report.mmota is not None:
        lines.append(f"mMOTA={report.mmota:.4f} mIDF1={report.midf1:.4f}")
    return "\n".join(lines)


def _machine_report(report: EvalReport) -> str:
    lines = []

    def emit(prefix: str, m) -> None:
        for key in ("mota", "motp", "idf1", "hota", "deta", "assa", "detre",
                    "detpr", "assre", "asspr", "fp", "fn", "idsw", "mt", "ml",
                    "idtp", "idfp", "idfn", "num_gt"):
            v = getattr(m, key)
            if v is None:
                continue
            lines.append(f"{prefix}.{key}={v!r}" if isinstance(v, float) else f"{prefix}.{key}={v}")

    for c, m in sorted(report.per_class.items()):
        emit(f"class.{c}", m)
    emit("all", report.aggregate)
    if report.mmota is not None:
        lines.append(f"all.mmota={report.mmota!r}")
        lines.append(f"all.midf1={report.midf1!r}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    try:
        with open(args.gt) as fp:
            gt = read_mot(fp)
        with open(args.pred) as fp:
            pred = read_mot(fp)
    except OSError as exc:
        raise CliError(str(exc), EXIT_DATA)
    gt_frames = set(gt.frames)
    pred_frames = set(pred.frames)
    if gt_frames and pred_frames and not (gt_frames & pred_frames):
        print("warning: ground-truth and prediction frame ranges are disjoint; "
              "scores computed on their union", file=sys.stderr)
    report = per_class_report(gt, pred, iou_threshold=args.iou)
    print(_format_report(report))
    if args.machine:
        print(_machine_report(report))
    return EXIT_OK


def _world_from_args(args) -> WorldConfig:
    if args.config:
        with open(args.config) as fp:
            data = json.load(fp)
        valid = {f.name for f in dataclasses.fields(WorldConfig)}
        unknown = set(data) - valid
        if unknown:
            raise CliError(f"unknown world config keys: {sorted(unknown)}", EXIT_DATA)
        if "occlusions" in data:
            data["occlusions"] = [tuple(o) for o in data["occlusions"]]
        if "image_size" in data:
            data["image_size"] = tuple(data["image_size"])
        for key in ("box_size_range", "score_range", "fp_score_range",
                    "distractor_score_range"):
            if key in data:
                data[key] = tuple(data[key])
        cfg = WorldConfig(**data)
    else:
        cfg = WorldConfig()
    return dataclasses.replace(cfg, seed=args.seed)


def cmd_synth(args) -> int:
    world = _world_from_args(args)
    scenario = generate(world)
    with atomic_write(args.detections) as fp:
        write_detections(fp, scenario.detections, world.dim)
    with atomic_write(args.gt) as fp:
        write_mot(fp, scenario.gt)
    print(
        f"generated {world.n_frames} frames, {world.n_identities} identities",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_ablate(args) -> int:
    sweep = ablation.parse_sweep(args.sweep)
    seeds = [int(s) for s in args.seeds.split(",") if s]
    if not seeds:
        raise CliError("at least one seed required", EXIT_USAGE)
    world = None
    if args.config:
        world = _world_from_args(args)
    rows = ablation.run_ablation(sweep, seeds, world)
    with atomic_write(args.output) as fp:
        writer = csv.DictWriter(fp, fieldnames=ablation.ABLATION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    dims = tuple(int(d) for d in args.dims.split(","))
    result = ablation.gradient_check(
        dims=dims,
        v=args.keys,
        k=args.refs,
        n_batches=args.batches,
        seed=args.seed,
        tolerance=args.tolerance,
        corrupt=args.corrupt,
    )
    status = "PASS" if result.passed else "FAIL"
    print(
        f"{status}: max relative gradient error {result.max_rel_error:.3e} "
        f"over {result.n_batches} batches (tolerance {args.tolerance:.1e})"
    )
    return EXIT_OK if result.passed else EXIT_INVARIANT


def build_parser() -> Parser:
    parser = Parser(prog="embedtrack", description=__doc__)
    parser.add_argument("--seed", type=int, default=0, help="global RNG seed")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("track", help="associate a detection file into tracks")
    p.add_argument("--input", required=True, help="detection file with embeddings")
    p.add_argument("--output", required=True, help="MOT-format output file")
    p.add_argument("--profile", choices=PROFILE_NAMES, help="benchmark profile")
    p.add_argument("--config", help="JSON tracker-config overrides")
    p.set_defaults(func=cmd_track)

    p = sub.add_parser("eval", help="evaluate predictions against ground truth")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--iou", type=float, default=0.5)
    p.add_argument("--machine", action="store_true", help="also print key=value output")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("synth", help="generate a synthetic scenario")
    p.add_argument("--config", help="JSON world config")
    p.add_argument("--detections", required=True, help="output detection file")
    p.add_argument("--gt", required=True, help="output MOT ground-truth file")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("ablate", help="run an ablation sweep to CSV")
    p.add_argument("--sweep", required=True, help='e.g. "metric=bisoftmax,cosine backdrops=on,off"')
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seed list")
    p.add_argument("--config", help="JSON world config (default: standard noisy scenario)")
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="check analytic gradients vs finite differences")
    p.add_argument("--dims", default="4,16,64")
    p.add_argument("--keys", type=int, default=6, help="key samples per batch")
    p.add_argument("--refs", type=int, default=10, help="reference samples per batch")
    p.add_argument("--batches", type=int, default=50)
    p.add_argument("--tolerance", type=float, default=1e-6)
    p.add_argument("--corrupt", action="store_true", help=argparse.SUPPRESS)
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        np.random.seed(args.seed % (2**32))
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (FormatError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
