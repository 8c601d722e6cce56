"""The three benchmark workloads and the checks on their outputs.

Each workload runs its *checked round* once (one whole sequence, or one
whole training round, every output checked), then *replay passes* of small
units of the same work in a closed loop: one caller in one process, the
next pass only when the previous one has returned. Each unit counts with
its fastest time over the passes (see ``Replay``). All calls into
embedtrack go through module attributes (``tracker.Tracker``,
``metrics.per_class_report``, ...) so that the tracer in ``tracing.py`` can
wrap them for a traced run.

- ``crowd``: a crowded world held in memory, tracked with
  ``ablation.synth_tracker_config()`` (no gate, merge or interpolation),
  then evaluated. Eval (the metrics layer) dominates; the distance gate is
  never called and no file is touched.
- ``gated``: a world of the same shape taken through the file path with
  the shipped ``mot17`` profile: distance gate, merging and interpolation.
  The geometry gate, tracker post-processing and the formats layer
  dominate. Once per run, outside the timed region, every profile is also
  taken through ``cli.main`` (synth, track, eval).
- ``train``: the contrastive layer alone, on large quasi-dense batches
  (vectorised throughput) and on many tiny batches (per-call overhead).
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment

from embedtrack import ablation, cli, config, contrastive, formats, metrics, synth, tracker
from embedtrack.geometry import BoundingBox

now = time.perf_counter

SETUP_REPS = 3


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One checked operation: a sequence, a CLI round trip, a loss call..."""

    what: str
    ok: bool
    reason: str = ""


@dataclass
class FullRound:
    """The checked round: the whole workload once, at full size.
    ``step_ms`` (or loss-call times on ``train``) feed the printed latency
    percentiles; ``extra`` holds raw timings and tracker counts."""

    ops: list[Op]
    step_ms: list[float]
    extra: dict = field(default_factory=dict)
    quality: tuple | None = None  # (idf1, hota, idsw) of a passing sequence


_REF_RNG = np.random.default_rng(7)
_REF_BOXES = [[BoundingBox(x, y, x + 40.0, y + 80.0) for x, y in _REF_RNG.uniform(0, 900, (70, 2)).tolist()]
              for _ in range(2)]
_REF_EMB = _REF_RNG.standard_normal((2, 70, 64))
_REF_VEC = _REF_RNG.standard_normal((2, 16))


def reference_work() -> int:
    """A fixed piece of work that uses nothing from embedtrack but does the
    kinds of work its layers do: a Python double loop over box objects, a
    similarity matrix with a softmax each way, a linear assignment, dict
    accumulation, and many numpy calls on tiny vectors. It never changes, so
    its fastest time gauges how fast the machine ran."""
    near = 0
    for a in _REF_BOXES[0]:
        for b in _REF_BOXES[1]:
            dx = (a.x1 + a.x2 - b.x1 - b.x2) / 2
            dy = (a.y1 + a.y2 - b.y1 - b.y2) / 2
            if dx * dx + dy * dy < 40000.0:
                near += 1
    sim = _REF_EMB[0] @ _REF_EMB[1].T
    rows = np.exp(sim - sim.max(axis=1, keepdims=True))
    rows /= rows.sum(axis=1, keepdims=True)
    cols = np.exp(sim - sim.max(axis=0, keepdims=True))
    cols /= cols.sum(axis=0, keepdims=True)
    both = 0.5 * (rows + cols)
    r, c = linear_sum_assignment(-both)
    acc: dict[int, float] = {}
    for i, j in zip(r.tolist(), c.tolist()):
        acc[i % 7] = acc.get(i % 7, 0.0) + float(both[i, j])
    v, w = _REF_VEC
    for _ in range(200):
        w = 0.9 * w + 0.1 * v
        acc[0] += float(np.dot(v, w)) / float(np.sqrt(np.dot(w, w)))
    return near + len(acc)


class Replay:
    """Fastest-time bookkeeping for the replayed units of a workload.

    A *unit* is a small piece of the round that gives the same result every
    time it runs (a frame of a tracking pass, the eval of one frame, one
    loss call...). Each replay pass runs every unit once and adds one time
    sample per unit key. Every later pass must reproduce the first pass's
    outputs exactly. Between units a workload calls
    ``tick``, which times ``reference_work``: those samples are replayed
    units like any other, keyed by their place in the pass."""

    def __init__(self) -> None:
        self.samples: dict[str, list[float]] = {}
        self.expected: dict[str, object] = {}
        self.problems: list[str] = []
        self._tick = 0

    def add(self, key: str, seconds: float) -> None:
        self.samples.setdefault(key, []).append(seconds)

    def start_pass(self) -> None:
        self._tick = 0

    def tick(self) -> None:
        t0 = now()
        reference_work()
        self.add(f"ref/{self._tick:03d}", now() - t0)
        self._tick += 1

    def expect(self, key: str, output) -> None:
        """Record ``output`` of unit ``key``; a later pass must repeat it."""
        if key not in self.expected:
            self.expected[key] = output
        elif self.expected[key] != output and len(self.problems) < 5:
            self.problems.append(f"replayed unit {key} gave a different output")


def fastest(samples: dict[str, list[float]], prefix: str) -> list[float]:
    """Each unit's fastest time, for the units whose key starts with
    ``prefix``, in key order."""
    return [min(v) for k, v in sorted(samples.items()) if k.startswith(prefix)]


def nearest_rank(samples: list[float], p10: int) -> float:
    """The p-th percentile by nearest rank, p given in tenths (990 = p99)."""
    ordered = sorted(samples)
    k = -(-p10 * len(ordered) // 1000)  # ceil(p * n / 100)
    return ordered[max(k, 1) - 1]


TAIL_LADDER = (990, 980, 950, 900, 750)


def tail_percentile(samples: list[float]) -> tuple[int | None, float | None]:
    """The highest of p99, p98, p95, p90 and p75 (in tenths) that has at
    least ten samples beyond it; (None, None) when even p75 has fewer."""
    n = len(samples)
    for p10 in TAIL_LADDER:
        k = -(-p10 * n // 1000)
        if n - k >= 10:
            return p10, nearest_rank(samples, p10)
    return None, None


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def check_output(rows) -> list[str]:
    """Problems in a tracker output given as (frame, track id, class, box)
    rows: more than one box per (frame, id), or a non-finite box."""
    seen: set[tuple[int, int]] = set()
    dup = bad = 0
    for frame, tid, _cls, box in rows:
        if (frame, tid) in seen:
            dup += 1
        seen.add((frame, tid))
        if not np.all(np.isfinite(box.as_array())):
            bad += 1
    problems = []
    if dup:
        problems.append(f"{dup} duplicate (frame, id) entries")
    if bad:
        problems.append(f"{bad} non-finite boxes")
    return problems


def check_quality(agg) -> list[str]:
    problems = []
    for name in ("idf1", "hota", "deta", "assa"):
        v = getattr(agg, name)
        if v is None or not 0.0 <= v <= 1.0:
            problems.append(f"{name}={v} outside [0, 1]")
    if agg.mota is None or not agg.mota <= 1.0:
        problems.append(f"mota={agg.mota} above 1")
    for name in ("idsw", "fp", "fn"):
        if getattr(agg, name) < 0:
            problems.append(f"{name} negative")
    return problems


def final_rows(trk, histories, step_rows):
    """The tracker's final output: the ``finish()`` histories when
    post-processing is on, otherwise what ``step`` returned frame by frame."""
    cfg = trk.config
    if cfg.merge is None and not cfg.interpolate:
        return step_rows
    class_of = {t.track_id: t.class_id for t in trk.state.retired.values()}
    class_of.update({t.track_id: t.class_id for t in trk.state.tracks.values()})
    rows = [
        (frame, tid, class_of[tid], box)
        for tid, hist in histories.items()
        for frame, box, _score in hist
    ]
    rows.sort(key=lambda r: (r[0], r[1]))
    return rows


def to_trackset(rows) -> metrics.TrackSet:
    ts = metrics.TrackSet()
    for frame, tid, cls, box in rows:
        ts.add(frame, metrics.ObjectEntry(tid, cls, box))
    return ts


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------


def crowded_world(seed: int) -> synth.WorldConfig:
    """100 identities and 20 lookalike distractors over 300 frames, D=64,
    with 20 occlusion spans placed by the seed (~36k detections)."""
    rng = np.random.default_rng([seed, 20])
    occlusions = []
    for _ in range(20):
        first = int(rng.integers(0, 280))
        occlusions.append((int(rng.integers(100)), first, first + int(rng.integers(5, 20))))
    return synth.WorldConfig(
        n_identities=100,
        n_distractors=20,
        distractor_affinity=0.5,
        n_frames=300,
        dim=64,
        sigma_e=0.15,
        jitter_sigma=1.0,
        fp_rate=0.02,
        occlusions=occlusions,
        seed=seed,
    )


def track_sequence(cfg, frames: dict) -> dict:
    """Run ``Tracker.step`` over every frame and ``finish()``; time each
    step and count what went in and came out, read from public state."""
    trk = tracker.Tracker(cfg)
    state = trk.state
    step_ms: list[float] = []
    rows = []
    dets_in = matches = spawned = merges = candidates = 0
    for f in sorted(frames):
        dets = frames[f]
        candidates += len(state.tracks) + len(state.backdrops)
        next_id = state.next_id
        known = len(state.tracks) + len(state.retired)
        t0 = now()
        out = trk.step(f, dets)
        step_ms.append((now() - t0) * 1e3)
        new = sum(1 for tid, _ in out if tid >= next_id)
        dets_in += len(dets)
        spawned += new
        matches += len(out) - new
        merges += known + new - len(state.tracks) - len(state.retired)
        rows.extend((f, tid, d.class_id, d.box) for tid, d in out)
    t0 = now()
    histories = trk.finish()
    finish_s = now() - t0
    rows = final_rows(trk, histories, rows)
    n = len(frames)
    return {
        "rows": rows,
        "step_ms": step_ms,
        "track_s": sum(step_ms) / 1e3 + finish_s,
        "finish_s": finish_s,
        "counts": {
            "tracker.dets_in": dets_in,
            "tracker.matches": matches,
            "tracker.tracks_spawned": spawned,
            "tracker.merges": merges,
            "tracker.candidates_mean": candidates / n if n else 0.0,
            "tracker.match_ratio": matches / dets_in if dets_in else 0.0,
        },
    }


def evaluate(gt, pred) -> tuple[list[str], tuple, float]:
    """Problems with the metrics, (idf1, hota, idsw) and the eval time."""
    t0 = now()
    agg = metrics.per_class_report(gt, pred).aggregate
    eval_s = now() - t0
    return check_quality(agg), (agg.idf1, agg.hota, agg.idsw), eval_s


def frame_trackset(ts: metrics.TrackSet, frame: int) -> metrics.TrackSet:
    """The entries of one frame of ``ts`` as a TrackSet of its own."""
    out = metrics.TrackSet()
    out.frames[frame] = list(ts.frames.get(frame, []))
    return out


def clip_starts(n_frames: int, clips: int, clip_len: int) -> list[int]:
    """First frames of ``clips`` clips of ``clip_len`` frames, centred on
    evenly spaced points of the sequence."""
    return [n_frames * (2 * c + 1) // (2 * clips) - clip_len // 2 for c in range(clips)]


def replay_clip(rep: Replay, c: int, cfg, frames: dict) -> None:
    """Track one clip with a fresh tracker: one unit per ``step`` and one
    for ``finish()``."""
    seq = track_sequence(cfg, frames)
    for f, ms in zip(sorted(frames), seq["step_ms"]):
        rep.add(f"step/{f:04d}", ms / 1e3)
    rep.add(f"finish/{c}", seq["finish_s"])
    rep.expect(f"clip/{c}", seq["rows"])


def clip_metrics(samples: dict[str, list[float]], n_frames: int) -> tuple[float, float]:
    """(seconds of the clips' reads, steps and ``finish()``, scaled from the
    clip frames to ``n_frames``; frames per second of ``Tracker.step``)."""
    step = fastest(samples, "step/")
    clips_s = sum(fastest(samples, "read/")) + sum(step) + sum(fastest(samples, "finish/"))
    return clips_s * n_frames / len(step), len(step) / sum(step)


CROWD_CLIPS, CROWD_CLIP_LEN = 3, 20
EVAL_STRIDE = 20  # crowd replays the eval of every twentieth frame


class Crowd:
    """Replay pass: three 20-frame clips of the sequence, each tracked with
    a fresh tracker, then ``per_class_report`` of every twentieth frame of
    the checked round's tracks on its own."""

    name = "crowd"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = ablation.synth_tracker_config()
        self.eval_units: list[tuple[int, metrics.TrackSet, metrics.TrackSet]] = []

    def setup(self) -> None:
        scenario = synth.generate(crowded_world(self.seed))
        self.gt, self.frames = scenario.gt, scenario.detections
        self.n_detections = sum(len(v) for v in self.frames.values())
        frames = sorted(self.frames)
        self.clips = [{f: self.frames[f] for f in frames[start:start + CROWD_CLIP_LEN]}
                      for start in clip_starts(len(frames), CROWD_CLIPS, CROWD_CLIP_LEN)]

    def full_round(self) -> FullRound:
        t0 = now()
        seq = track_sequence(self.cfg, self.frames)
        problems = check_output(seq["rows"])
        extra = {"track_s": seq["track_s"], **seq["counts"]}
        quality = None
        if not problems:
            pred = to_trackset(seq["rows"])
            problems, q, extra["eval_s"] = evaluate(self.gt, pred)
            quality = None if problems else q
            if not problems:
                self.eval_units = [(f, frame_trackset(self.gt, f), frame_trackset(pred, f))
                                   for f in sorted(self.frames) if f % EVAL_STRIDE == EVAL_STRIDE // 2]
        extra["pipeline_s"] = now() - t0
        return FullRound([Op("sequence", not problems, "; ".join(problems))], seq["step_ms"], extra, quality)

    def replay(self, rep: Replay) -> None:
        for c, frames in enumerate(self.clips):
            rep.tick()
            replay_clip(rep, c, self.cfg, frames)
        for f, gt, pred in self.eval_units:
            rep.tick()
            t0 = now()
            agg = metrics.per_class_report(gt, pred).aggregate
            rep.add(f"eval/{f:04d}", now() - t0)
            rep.expect(f"eval/{f:04d}", (agg.idf1, agg.hota, agg.idsw))

    def summarize(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """``round_s``: the clips scaled to the whole sequence, plus eval,
        the sampled frames' eval scaled to every frame. ``work_per_s``:
        frames per second of ``Tracker.step`` over the clips."""
        track_s, fps = clip_metrics(samples, len(self.frames))
        evals = fastest(samples, "eval/")
        eval_s = len(self.frames) * sum(evals) / len(evals) if evals else 0.0
        return {"round_s": track_s + eval_s, "work_per_s": fps}


def boxes_match(a: metrics.TrackSet, b: metrics.TrackSet) -> bool:
    """Same frames, ids and classes; boxes equal up to the xywh round trip."""
    if sorted(a.frames) != sorted(b.frames):
        return False
    for f, entries in a.frames.items():
        other = {e.obj_id: e for e in b.frames[f]}
        if len(other) != len(entries):
            return False
        for e in entries:
            o = other.get(e.obj_id)
            if o is None or o.class_id != e.class_id:
                return False
            if not np.allclose(e.box.as_array(), o.box.as_array(), rtol=0, atol=1e-6):
                return False
    return True


GATED_CLIPS, GATED_CLIP_LEN = 2, 6


class Gated:
    """Replay pass: for each of two 6-frame clips of the sequence, read the
    clip's own detection file and track it with a fresh tracker."""

    name = "gated"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.det_path = os.path.join(workdir, "detections.txt")
        self.mot_path = os.path.join(workdir, "tracks.txt")
        self.cfg = config.load_profile("mot17")

    def clip_path(self, c: int) -> str:
        return os.path.join(self.workdir, f"clip-{c}.txt")

    def setup(self) -> None:
        world = crowded_world(self.seed)
        scenario = synth.generate(world)
        with open(self.det_path, "w") as fp:
            formats.write_detections(fp, scenario.detections, world.dim)
        frames = sorted(scenario.detections)
        for c, start in enumerate(clip_starts(len(frames), GATED_CLIPS, GATED_CLIP_LEN)):
            clip = {f: scenario.detections[f] for f in frames[start:start + GATED_CLIP_LEN]}
            with open(self.clip_path(c), "w") as fp:
                formats.write_detections(fp, clip, world.dim)
        self.n_frames = len(frames)
        self.gt = scenario.gt
        self.n_detections = sum(len(v) for v in scenario.detections.values())
        self.det_bytes = os.path.getsize(self.det_path)

    def full_round(self) -> FullRound:
        t0 = now()
        with open(self.det_path) as fp:
            _dim, frames = formats.read_detections(fp)
        read_s = now() - t0
        seq = track_sequence(self.cfg, frames)
        problems = check_output(seq["rows"])
        extra = {"track_s": seq["track_s"], "read_s": read_s, **seq["counts"]}
        quality = None
        if not problems:
            pred = to_trackset(seq["rows"])
            with open(self.mot_path, "w") as fp:
                formats.write_mot(fp, pred)
            with open(self.mot_path) as fp:
                back = formats.read_mot(fp)
            extra["mot_bytes"] = os.path.getsize(self.mot_path)
            if not boxes_match(pred, back):
                problems = ["MOT write/read round trip changed the tracks"]
            else:
                problems, q, extra["eval_s"] = evaluate(self.gt, back)
                quality = None if problems else q
        extra["pipeline_s"] = now() - t0
        return FullRound([Op("sequence", not problems, "; ".join(problems))], seq["step_ms"], extra, quality)

    def replay(self, rep: Replay) -> None:
        for c in range(GATED_CLIPS):
            rep.tick()
            t0 = now()
            with open(self.clip_path(c)) as fp:
                _dim, frames = formats.read_detections(fp)
            rep.add(f"read/{c}", now() - t0)
            replay_clip(rep, c, self.cfg, frames)

    def summarize(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """``round_s``: read, step and ``finish()`` of the clips, scaled
        from their frames to the whole sequence. ``work_per_s``: frames per
        second of ``Tracker.step`` over the clips. Write, read-back and eval
        of the tracks are left out: they run only while the output passes
        its check, so fixing the merge defect would read as a regression."""
        round_s, fps = clip_metrics(samples, self.n_frames)
        return {"round_s": round_s, "work_per_s": fps}

    def after_rounds(self) -> list[Op]:
        """``cli.main`` synth, track --profile P, eval for every profile, on a
        small world. Not timed."""
        world = dataclasses.asdict(ablation.standard_noisy_world(self.seed))
        world_path = os.path.join(self.workdir, "cli-world.json")
        with open(world_path, "w") as fp:
            json.dump(world, fp)
        return [cli_round_trip(self.workdir, world_path, self.seed, p) for p in config.PROFILE_NAMES]


def cli_round_trip(workdir: str, world_path: str, seed: int, profile: str) -> Op:
    det = os.path.join(workdir, f"cli-{profile}-det.txt")
    gt = os.path.join(workdir, f"cli-{profile}-gt.txt")
    out = os.path.join(workdir, f"cli-{profile}-tracks.txt")
    steps = [
        ("synth", ["--seed", str(seed), "synth", "--config", world_path, "--detections", det, "--gt", gt]),
        ("track", ["--seed", str(seed), "track", "--input", det, "--output", out, "--profile", profile]),
        ("eval", ["--seed", str(seed), "eval", "--gt", gt, "--pred", out, "--machine"]),
    ]
    printed = ""
    for label, argv in steps:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(argv)
        if code != 0:
            last = buf.getvalue().strip().splitlines()[-1:] or [""]
            problems = [f"{label} exited {code}: {last[0][:160]}"]
            if os.path.exists(out):
                problems += check_mot_file(out)
            return Op(f"cli {profile}", False, "; ".join(problems))
        printed = buf.getvalue()
    problems = check_mot_file(out)
    values = dict(
        line.split("=", 1) for line in printed.splitlines() if line.startswith("all.")
    )
    for key in ("all.idf1", "all.hota"):
        v = float(values.get(key, "nan"))
        if not 0.0 <= v <= 1.0:
            problems.append(f"{key}={v} outside [0, 1]")
    return Op(f"cli {profile}", not problems, "; ".join(problems))


def check_mot_file(path: str) -> list[str]:
    """The track file a CLI command wrote: one row per (frame, id), and
    every number a finite float."""
    seen: set[tuple[str, str]] = set()
    dup = bad = 0
    with open(path) as fp:
        for line in fp:
            parts = line.strip().split(",")
            key = (parts[0], parts[1])
            if key in seen:
                dup += 1
            seen.add(key)
            try:
                ok = all(math.isfinite(float(p)) for p in parts[2:7])
            except ValueError:
                ok = False
            bad += not ok
    problems = []
    if dup:
        problems.append(f"{dup} duplicate (frame, id) rows")
    if bad:
        problems.append(f"{bad} rows with a non-numeric or non-finite field")
    return problems


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

LARGE_DIM = 256
LARGE_BATCHES_PER_ROUND = 12  # four per loss variant
TOY = dict(n_identities=12, n_frames=8, dim=16)
TOY_STEPS = 200
GRADCHECK = dict(dims=(4, 16, 64), n_batches=3)


def proposal_frame(rng: np.random.Generator, n_objects: int, protos: np.ndarray):
    """Region proposals around the ground-truth boxes of one frame, labelled
    by ``assign_samples``, with embeddings drawn around each identity."""
    gts = []
    for ident in range(n_objects):
        cx, cy = rng.uniform(100, 900, size=2)
        w, h = rng.uniform(40, 120, size=2)
        gts.append((BoundingBox(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2), ident))
    regions = []
    for box, _ in gts:
        a = box.as_array()
        size = np.array([box.width, box.height, box.width, box.height])
        for sigma in (0.04,) * 8 + (0.2,) * 8:  # mostly positives, then a spread of overlaps
            c = a + rng.normal(0.0, sigma, size=4) * size
            regions.append(BoundingBox(min(c[0], c[2]), min(c[1], c[3]), max(c[0], c[2]), max(c[1], c[3])))
    for _ in range(6 * n_objects):
        x, y = rng.uniform(0, 900, size=2)
        w, h = rng.uniform(20, 120, size=2)
        regions.append(BoundingBox(x, y, x + w, y + h))
    samples = contrastive.assign_samples(regions, gts)
    for s in samples:
        base = protos[s.identity] if s.identity is not None else rng.standard_normal(LARGE_DIM)
        s.embedding = base + 0.5 * rng.standard_normal(LARGE_DIM)
    return samples


OPT_UNIT_STEPS = 10  # train replays optimize_embeddings in 10-step runs
REPLAY_BATCHES = 6  # each loss variant on each proposal pair


class Train:
    """Replay pass: six large loss calls (each variant on each proposal
    pair) and one 10-step ``optimize_embeddings`` run. The gradient check
    runs in the checked round only: how many batches it draws and how long
    each takes depend on the seed."""

    name = "train"

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 30])
        n_objects = 24
        protos = rng.standard_normal((n_objects, LARGE_DIM))
        self.pairs = [
            (proposal_frame(rng, n_objects, protos), proposal_frame(rng, n_objects, protos))
            for _ in range(2)
        ]
        self.toy = contrastive.make_toy_problem(seed=self.seed, **TOY)

    def loss_call(self, b: int) -> tuple[float, float, float, Op]:
        """Large batch ``b``: (sample_batch seconds, loss_total seconds,
        loss value, checked operation)."""
        keys, refs = self.pairs[b % len(self.pairs)]
        variant = contrastive.VARIANTS[b % len(contrastive.VARIANTS)]
        t0 = now()
        batch = contrastive.sample_batch(keys, refs, rng_seed=self.seed * 1009 + b)
        emb = batch.embeddings()
        t1 = now()
        value, (gk, gr) = contrastive.loss_total(batch, emb, contrastive.LossConfig(variant=variant))
        t2 = now()
        ok = (math.isfinite(value) and gk.shape == emb[0].shape and gr.shape == emb[1].shape
              and bool(np.all(np.isfinite(gk))) and bool(np.all(np.isfinite(gr))))
        return t1 - t0, t2 - t1, value, Op(f"loss_total {variant}", ok, "" if ok else "non-finite loss or gradient")

    def optimize(self, steps: int) -> tuple[float, float, Op]:
        t0 = now()
        params, trace = contrastive.optimize_embeddings(
            self.toy, contrastive.LossConfig(), steps=steps, lr=0.5, rng_seed=self.seed)
        elapsed = now() - t0
        ok = bool(np.all(np.isfinite(params))) and trace[-1][1] < trace[0][1]
        return elapsed, trace[-1][1], Op("optimize_embeddings", ok, "" if ok else "loss did not decrease")

    def full_round(self) -> FullRound:
        ops: list[Op] = []
        loss_ms: list[float] = []
        sample_s = 0.0
        for b in range(LARGE_BATCHES_PER_ROUND):
            t_sample, t_loss, _value, op = self.loss_call(b)
            sample_s += t_sample
            loss_ms.append(t_loss * 1e3)
            ops.append(op)
        opt_s, _loss, op = self.optimize(TOY_STEPS)
        ops.append(op)
        gc_op, gradcheck_s = timed_gradient_check(self.seed)
        ops.append(gc_op)
        extra = {"optimize_s": opt_s, "gradcheck_s": gradcheck_s, "sample_batch_s": sample_s}
        return FullRound(ops, loss_ms, extra)

    def replay(self, rep: Replay) -> None:
        for b in range(REPLAY_BATCHES):
            t_sample, t_loss, value, op = self.loss_call(b)
            rep.add(f"sample/{b:02d}", t_sample)
            rep.add(f"loss/{b:02d}", t_loss)
            rep.expect(f"loss/{b:02d}", (value, op.ok))
            rep.tick()
        opt_s, loss, op = self.optimize(OPT_UNIT_STEPS)
        rep.add("optimize", opt_s)
        rep.expect("optimize", (loss, op.ok))
        rep.tick()

    def summarize(self, samples: dict[str, list[float]]) -> dict[str, float]:
        """``round_s``: the small-batch regime, ``optimize_embeddings``
        scaled from 10 to 200 steps. ``work_per_s``: large loss calls per
        second."""
        loss = fastest(samples, "loss/")
        return {"round_s": min(samples["optimize"]) * TOY_STEPS / OPT_UNIT_STEPS,
                "work_per_s": len(loss) / sum(loss)}


def timed_gradient_check(seed: int, corrupt: bool = False) -> tuple[Op, float]:
    t0 = now()
    result = ablation.gradient_check(seed=seed, corrupt=corrupt, **GRADCHECK)
    elapsed = now() - t0
    reason = "" if result.passed else f"max relative error {result.max_rel_error:.3e}"
    return Op("gradient_check", result.passed, reason), elapsed


WORKLOADS = {w.name: w for w in (Crowd, Gated, Train)}
