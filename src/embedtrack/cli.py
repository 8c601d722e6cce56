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

from . import ablation
from .config import PROFILE_NAMES, from_dict, load_profile
from .formats import atomic_write, read_detections, read_mot, write_detections, write_mot
from .metrics import EvalReport, _check_iou_threshold, per_class_report
from .synth import WorldConfig, generate
from .tracker import TrackerConfig, run_sequence

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


def int_list(text: str) -> tuple[int, ...]:
    """argparse type of a comma-separated int list; empty items are skipped."""
    return tuple(int(s) for s in text.split(",") if s)


def _read_config(path: str | None, cls, base=None):
    """``base`` with the fields of the JSON ``cls`` document at ``path``
    replaced, or a ``cls`` built from it alone; ``base`` without a path."""
    if not path:
        return base
    with open(path) as fp:
        return from_dict(cls, json.load(fp), base)


def cmd_track(args) -> int:
    start = time.perf_counter()
    cfg = _read_config(args.config, TrackerConfig,
                       load_profile(args.profile) if args.profile else TrackerConfig())
    with open(args.input) as fp:
        _, frames = read_detections(fp)
    pred = run_sequence(frames, cfg)
    with atomic_write(args.output) as fp:
        write_mot(fp, pred)
    elapsed = time.perf_counter() - start
    n_tracks = len({e.obj_id for entries in pred.frames.values() for e in entries})
    print(f"tracked {n_tracks} tracks in {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK


def _format_report(report: EvalReport) -> str:
    header = (
        f"{'class':>8} {'MOTA':>8} {'IDF1':>8} {'HOTA':>8} {'DetA':>8} {'AssA':>8} "
        f"{'FP':>6} {'FN':>6} {'IDSW':>5} {'MT':>4} {'ML':>4}"
    )

    def fmt(v):
        return f"{v:8.4f}" if v is not None else f"{'-':>8}"

    lines = [header]
    for c, m in [*sorted(report.per_class.items()), ("all", report.aggregate)]:
        lines.append(
            f"{c:>8} {fmt(m.mota)} {fmt(m.idf1)} {fmt(m.hota)} {fmt(m.deta)} "
            f"{fmt(m.assa)} {m.fp:>6} {m.fn:>6} {m.idsw:>5} {m.mt:>4} {m.ml:>4}"
        )
    lines.append(f"mMOTA={report.mmota:.4f} mIDF1={report.midf1:.4f}")
    return "\n".join(lines)


def _machine_report(report: EvalReport) -> str:
    lines = []

    def emit(prefix: str, m) -> None:
        for key in (f.name for f in dataclasses.fields(m)):
            v = getattr(m, key)
            if v is None:
                continue
            lines.append(f"{prefix}.{key}={v!r}" if isinstance(v, float) else f"{prefix}.{key}={v}")

    for c, m in sorted(report.per_class.items()):
        emit(f"class.{c}", m)
    emit("all", report.aggregate)
    lines.append(f"all.mmota={report.mmota!r}")
    lines.append(f"all.midf1={report.midf1!r}")
    return "\n".join(lines)


def cmd_eval(args) -> int:
    _check_iou_threshold(args.iou)
    with open(args.gt) as fp:
        gt = read_mot(fp)
    with open(args.pred) as fp:
        pred = read_mot(fp)
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
    """The --config or default world, seeded by --seed: a document's own seed must match."""
    world = _read_config(args.config, WorldConfig, WorldConfig(seed=args.seed))
    if world.seed != args.seed:
        raise CliError(f"world config seed {world.seed} differs from --seed {args.seed}", EXIT_DATA)
    return world


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
    if not args.seeds or len(set(args.seeds)) < len(args.seeds):  # a repeated seed would repeat its rows
        raise CliError(f"--seeds takes one or more distinct seeds, got {','.join(map(str, args.seeds))!r}", EXIT_USAGE)
    # each run is seeded from --seeds, whatever seed the document names
    world = _read_config(args.config, WorldConfig)
    rows = ablation.run_ablation(sweep, list(args.seeds), world)
    with atomic_write(args.output) as fp:
        writer = csv.DictWriter(fp, fieldnames=ablation.ABLATION_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    result = ablation.gradient_check(
        dims=args.dims,
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
    parser.add_argument("--seed", type=int, default=0, help="seed of the synth world and of gradcheck batches")
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
    p.add_argument("--seeds", type=int_list, default="0,1,2", help="comma-separated seed list")
    p.add_argument("--config", help="JSON world config (default: standard noisy scenario)")
    p.add_argument("--output", required=True, help="output CSV path")
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("gradcheck", help="check analytic gradients vs finite differences")
    p.add_argument("--dims", type=int_list, default="4,16,64", help="comma-separated dimensions")
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
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, OSError) as exc:  # FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
