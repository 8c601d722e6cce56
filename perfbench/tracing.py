"""In-memory span tracing of embedtrack's layers, installed from outside.

The tracer replaces public functions at the module attributes their callers
look them up by (for example ``embedtrack.tracker.center_distance``, which
``tracker.step`` calls) with timing wrappers, and puts the originals back on
``uninstall``. Nothing under ``src/`` changes.

Three kinds of wrapper:
- a *span* records name, start, end, parent span and sequence id;
- a *hot* wrapper, for tiny calls made thousands of times per sequence, adds
  its count and total time to an aggregate keyed by the parent span;
- a *leaf* wrapper does the same with less bookkeeping, for the one call
  made millions of times (``center_distance``), which never runs inside
  another traced call.

Spans stay in memory and are written out once, by ``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from dataclasses import dataclass

_now = time.perf_counter_ns

# Layers whose time tracker.step_self_s leaves out of tracker.step_s.
FOREIGN_TO_STEP = ("similarity.", "geometry.")


@dataclass
class Span:
    seq: str
    name: str
    start: int
    end: int
    parent: int  # index into Tracer.spans, -1 for a root
    foreign: bool  # began inside a similarity/geometry call


class Tracer:
    """Collects spans and hot-call aggregates for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        # (seq, parent span, name, began inside a foreign call, began inside a hot call)
        #   -> [calls, total ns, cells]
        self.hot: dict[tuple[str, int, str, bool, bool], list[int]] = {}
        self.seq = ""
        self._stack: list[int] = []
        self._foreign_depth = 0
        self._hot_depth = 0
        self._patched: list[tuple[object, str, object]] = []
        self._leaves: dict[str, dict[int, list[int]]] = {}  # name -> parent span -> [calls, ns]

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(self.seq, name, _now(), 0, parent, self._foreign_depth > 0))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span stack out of order: closed {idx}, open {popped}")

    def span(self, name: str, cells=None):
        """Decorator factory: wrap ``fn`` so each call is one span."""
        foreign = name.startswith(FOREIGN_TO_STEP)

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = self.begin(name)
                if foreign:
                    self._foreign_depth += 1
                try:
                    out = fn(*args, **kwargs)
                finally:
                    if foreign:
                        self._foreign_depth -= 1
                    self.end(idx)
                if cells is not None:
                    self._add_cells(idx, name, cells(args, kwargs, out))
                return out
            return wrapper
        return deco

    def hot_call(self, name: str, cells=None):
        """Decorator factory: aggregate count and time per parent span."""
        foreign = name.startswith(FOREIGN_TO_STEP)

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                parent = self._stack[-1] if self._stack else -1
                key = (self.seq, parent, name, self._foreign_depth > 0, self._hot_depth > 0)
                self._hot_depth += 1
                if foreign:
                    self._foreign_depth += 1
                t0 = _now()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = _now() - t0
                    self._hot_depth -= 1
                    if foreign:
                        self._foreign_depth -= 1
                    agg = self.hot.get(key)
                    if agg is None:
                        agg = self.hot[key] = [0, 0, 0]
                    agg[0] += 1
                    agg[1] += dt
                if cells is not None:
                    agg[2] += cells(args, kwargs, out)
                return out
            return wrapper
        return deco

    def leaf_call(self, name: str):
        """Decorator factory: like ``hot_call`` for a call that is never made
        inside another traced call and never made outside a span."""
        per_parent = self._leaves.setdefault(name, {})
        stack = self._stack

        def deco(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                t0 = _now()
                out = fn(*args)
                dt = _now() - t0
                acc = per_parent.get(stack[-1])
                if acc is None:
                    acc = per_parent[stack[-1]] = [0, 0]
                acc[0] += 1
                acc[1] += dt
                return out
            return wrapper
        return deco

    def _hot_items(self):
        """Hot and leaf aggregates in one form:
        ((seq, parent, name, began inside a foreign call, began inside a hot call), [calls, ns, cells])."""
        yield from self.hot.items()
        for name, per_parent in self._leaves.items():
            for parent, (calls, ns) in per_parent.items():
                yield (self.spans[parent].seq, parent, name, False, False), [calls, ns, 0]

    def _add_cells(self, idx: int, name: str, n: int) -> None:
        key = (self.seq, idx, name + "#cells", False, False)
        self.hot.setdefault(key, [0, 0, 0])[2] += n

    # -- installation ------------------------------------------------------

    def patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def seqs(self, prefix: str) -> list[str]:
        seen: dict[str, None] = {}
        for s in self.spans:
            if s.seq.startswith(prefix):
                seen.setdefault(s.seq)
        return list(seen)

    def span_totals(self, seq: str) -> dict[str, float]:
        """Seconds per span name within one sequence (nested same-name
        spans are not double counted because no traced function recurses)."""
        out: dict[str, float] = {}
        for s in self.spans:
            if s.seq == seq:
                out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) / 1e9
        return out

    def span_counts(self, seq: str) -> dict[str, int]:
        out: dict[str, int] = {}
        for s in self.spans:
            if s.seq == seq:
                out[s.name] = out.get(s.name, 0) + 1
        return out

    def hot_totals(self, seq: str) -> dict[str, tuple[int, float, int]]:
        """(calls, seconds, cells) per hot name within one sequence; the
        ``#cells`` entries carry cell counts of span-wrapped calls."""
        out: dict[str, list] = {}
        for (s, _parent, name, _foreign, _in_hot), (calls, ns, cells) in self._hot_items():
            if s == seq:
                acc = out.setdefault(name, [0, 0.0, 0])
                acc[0] += calls
                acc[1] += ns / 1e9
                acc[2] += cells
        return {k: tuple(v) for k, v in out.items()}

    def _ancestor_named(self, idx: int, name: str) -> bool:
        while idx >= 0:
            if self.spans[idx].name == name:
                return True
            idx = self.spans[idx].parent
        return False

    def foreign_time_under(self, seq: str, name: str) -> float:
        """Seconds spent in similarity/geometry calls made, at any depth,
        inside spans called ``name``, without counting a call that runs
        inside another such call twice."""
        total = 0
        for s in self.spans:
            if (s.seq == seq and s.name.startswith(FOREIGN_TO_STEP) and not s.foreign
                    and self._ancestor_named(s.parent, name)):
                total += s.end - s.start
        for (s, parent, hname, foreign, _in_hot), (_calls, ns, _cells) in self._hot_items():
            if (s == seq and hname.startswith(FOREIGN_TO_STEP) and not foreign
                    and self._ancestor_named(parent, name)):
                total += ns
        return total / 1e9

    def self_times(self, seq: str) -> dict[str, float]:
        """Seconds per span name minus the time of its direct children
        (child spans and hot calls not nested inside another hot call)."""
        child: dict[int, int] = {}
        for s in self.spans:
            if s.seq == seq and s.parent >= 0:
                child[s.parent] = child.get(s.parent, 0) + (s.end - s.start)
        for (s, parent, name, _foreign, in_hot), (_calls, ns, _cells) in self._hot_items():
            if s == seq and parent >= 0 and not in_hot and not name.endswith("#cells"):
                child[parent] = child.get(parent, 0) + ns
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            if s.seq == seq:
                own = (s.end - s.start) - child.get(i, 0)
                out[s.name] = out.get(s.name, 0.0) + own / 1e9
        return out

    def dump(self, path) -> None:
        """Write every span and aggregate as JSON lines."""
        with open(path, "w") as fp:
            for i, s in enumerate(self.spans):
                fp.write(json.dumps({"span": i, "seq": s.seq, "name": s.name,
                                     "start_ns": s.start, "end_ns": s.end,
                                     "parent": s.parent}) + "\n")
            for (seq, parent, name, _foreign, in_hot), (calls, ns, cells) in self._hot_items():
                fp.write(json.dumps({"aggregate": name, "seq": seq, "parent": parent,
                                     "nested_in_hot_call": in_hot, "calls": calls,
                                     "total_ns": ns, "cells": cells}) + "\n")


def install_embedtrack(tracer: Tracer) -> None:
    """Wrap each layer's public functions at the names their callers use."""
    from embedtrack import ablation, cli, contrastive, formats, geometry, metrics, similarity, synth, tracker

    span, hot, patch = tracer.span, tracer.hot_call, tracer.patch

    def size(_args, _kwargs, out):
        return int(out.size)

    def pairs(args, _kwargs, _out):
        return len(args[0].key) * len(args[0].ref)

    patch(synth, "generate", span("synth.generate"))
    for fn in ("read_detections", "write_detections", "write_mot", "read_mot"):
        patch(formats, fn, span(f"formats.{fn}"))
    # Tracker.step calls the module-level step(); finish() calls interpolate_tracks().
    patch(tracker, "step", span("tracker.step"))
    patch(tracker.Tracker, "finish", span("tracker.finish"))
    patch(tracker, "merge_tracklets", span("tracker.merge_tracklets"))
    patch(tracker, "interpolate_tracks", span("tracker.interpolate_tracks"))
    patch(tracker, "momentum_update", hot("tracker.momentum_update"))
    patch(tracker, "masked_bisoftmax", span("similarity.masked_bisoftmax", cells=size))
    patch(tracker, "cosine_matrix", span("similarity.cosine_matrix", cells=size))
    for mod in (tracker, similarity, contrastive):
        patch(mod, "validate_embeddings", hot("similarity.validate_embeddings"))
    patch(tracker, "nms", span("geometry.nms"))
    patch(tracker, "center_distance", tracer.leaf_call("geometry.center_distance"))
    # nms reaches iou_matrix through geometry's own module namespace.
    for mod in (geometry, metrics, contrastive):
        patch(mod, "iou_matrix", hot("geometry.iou_matrix", cells=size))
    patch(metrics, "per_class_report", span("metrics.per_class_report"))
    for fn in ("clear_mot", "idf1", "hota"):
        patch(metrics, fn, span(f"metrics.{fn}"))
    patch(metrics, "linear_sum_assignment", hot("metrics.linear_sum_assignment"))
    patch(contrastive, "assign_samples", span("contrastive.assign_samples"))
    patch(contrastive, "sample_batch", span("contrastive.sample_batch"))
    patch(contrastive, "optimize_embeddings", span("contrastive.optimize_embeddings"))
    # ablation.gradient_check calls its own imported names.
    for mod in (contrastive, ablation):
        patch(mod, "loss_total", hot("contrastive.loss_total", cells=pairs))
    patch(ablation, "finite_difference_gradient", span("contrastive.finite_difference_gradient"))
    patch(ablation, "gradient_check", span("ablation.gradient_check"))
    patch(cli, "main", span("cli.main"))
