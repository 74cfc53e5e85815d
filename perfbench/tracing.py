"""Spans and counts recorded from the benchmark's own wrappers.

A traced run patches public functions at each layer boundary (see
:data:`TARGETS`) with thin wrappers that record a :class:`Span` — name,
start, end, parent span, op id, thread and a few attributes — into an
in-memory list.  Nothing under ``src/`` is changed; :meth:`Recorder.remove`
puts every original function back, so untraced ops run the unmodified
program.  A target that no longer exists is skipped and every metric that
needs it is reported as absent instead of failing the run.

:func:`layer_metrics` turns the spans into the per-layer metrics named in
``perfbench/METRICS.md``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import json
import statistics
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

#: the op id of spans recorded outside any op (imports, build, tracing)
SETUP = -1


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: str
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One wrapped layer boundary.

    ``module``/``path`` name the attribute to patch (``"Class.method"``
    patches the class); ``outermost`` records only the outermost call per
    thread, and no call nested in a span named in ``skip_inside``;
    ``attrs(args, result)`` extracts span attributes.
    """

    span: str
    module: str
    path: str
    outermost: bool = False
    skip_inside: tuple = ()
    attrs: Callable | None = None


def _collective_attrs(args, result) -> dict:
    """``Communicator.<op>(rank, array, ...)``; ``barrier`` has no array."""
    comm, rank = args[0], args[1]
    array = args[2] if len(args) > 2 else None
    return {"comm": id(comm), "rank": rank,
            "bytes": int(getattr(array, "nbytes", 0))}


TARGETS = (
    Target("pipeline.make_program", "repro.sim.planner", "make_program"),
    Target("tuner.space.enumerate", "repro.slapo.service", "enumerate_space",
           attrs=lambda args, result: {"configs": len(result)}),
    Target("sim.batch.predict", "repro.slapo.service", "predict_batch",
           attrs=lambda args, result: {"configs": len(args[3]),
                                       "fallback": result.num_fallback}),
    Target("sim.trace_model", "repro.sim", "trace_model"),
    Target("framework.forward", "repro.framework.module", "Module.__call__",
           outermost=True, skip_inside=("fx.trace", "sim.trace_model")),
    Target("framework.backward", "repro.framework.tensor", "Tensor.backward",
           outermost=True),
    Target("framework.optim_step", "repro.framework.optim", "SGD.step",
           outermost=True),
    Target("framework.optim_step", "repro.framework.optim", "AdamW.step",
           outermost=True),
    *(Target("distributed.collective", "repro.distributed.cluster",
             f"Communicator.{name}", attrs=_collective_attrs)
      for name in ("all_reduce", "all_gather", "reduce_scatter",
                   "broadcast", "all_to_all", "barrier")),
    Target("distributed.cluster_run", "repro.distributed.cluster",
           "LocalCluster.run"),
    Target("distributed.thread_start", "threading", "Thread.start"),
    Target("slapo.schedule", "repro.schedules", "schedule_gpt"),
    Target("slapo.build", "repro.slapo", "build"),
    Target("slapo.build", "repro.slapo.verify.core", "build"),
    Target("slapo.verify.apply_steps", "repro.slapo.verify.spec",
           "apply_steps"),
    Target("fx.trace", "repro.fx.tracer", "Tracer.trace"),
)


class Recorder:
    """In-memory span store plus the patches that feed it.

    One closed-loop client drives the benchmark, so the op being run is
    a single value (:attr:`op`) that worker threads (plan-service query
    threads, cluster rank threads) read too.  A span opened on a thread
    with no open span of its own takes the client's innermost open span
    as its parent.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.op = SETUP
        self.missing: set[str] = set()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack = self._stack()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> tuple[list, Span]:
        stack = self._stack()
        parent_stack = stack or self._client_stack
        parent = parent_stack[-1].id if parent_stack else None
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent,
                    self.op, threading.current_thread().name)
        stack.append(span)
        return stack, span

    def _close(self, stack: list, span: Span) -> None:
        span.end = time.perf_counter()
        stack.pop()
        self.spans.append(span)

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        stack, span = self._open(name)
        try:
            yield span
        finally:
            self._close(stack, span)

    # -- patching -------------------------------------------------------- #
    def _resolve(self, target: Target):
        try:
            owner = importlib.import_module(target.module)
        except ImportError:
            return None
        *owners, attr = target.path.split(".")
        for name in owners:
            owner = getattr(owner, name, None)
            if owner is None:
                return None
        if isinstance(owner, type):
            original = owner.__dict__.get(attr)
        else:
            original = getattr(owner, attr, None)
        if not callable(original):
            return None
        return owner, attr, original

    def install(self) -> None:
        """Wrap every target that exists; note the ones that do not."""
        for target in TARGETS:
            resolved = self._resolve(target)
            if resolved is None:
                self.missing.add(target.span)
                continue
            owner, attr, original = resolved
            setattr(owner, attr, self._wrap(target, original))
            self._patches.append((owner, attr, original))

    def remove(self) -> None:
        """Restore every patched function, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, target: Target, original):
        recorder = self
        name = target.span
        blockers = set(target.skip_inside) | ({name} if target.outermost
                                              else set())

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if blockers and any(s.name in blockers for s in stack):
                return original(*args, **kwargs)
            stack, span = recorder._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder._close(stack, span)
            if target.attrs is not None:
                span.attrs = target.attrs(args, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        """Write every span as JSON (one object per span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump([asdict(span) for span in self.spans], handle)


# ---------------------------------------------------------------------- #
# spans → metrics
# ---------------------------------------------------------------------- #
def covered(intervals) -> float:
    """Seconds covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Each span name's total self time: its spans' durations minus the
    part of each interval its direct child spans cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    totals: dict[str, float] = {}
    for span in spans:
        inner = [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.id, ())]
        own = span.seconds - covered(i for i in inner if i[1] > i[0])
        totals[span.name] = totals.get(span.name, 0.0) + own
    return totals


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _within(op_span: Span, spans, names) -> float:
    """``op_span``'s duration minus the time spans named ``names`` cover."""
    return op_span.seconds - covered(
        (max(s.start, op_span.start), min(s.end, op_span.end))
        for s in spans if s.name in names)


#: per-layer metric → the span names it is computed from
REQUIRES = {
    "pipeline.make_program_calls": ("pipeline.make_program",),
    "pipeline.make_program_s": ("pipeline.make_program",),
    "tuner.space.enumerate_ms.p50": ("tuner.space.enumerate",),
    "tuner.space.configs": ("tuner.space.enumerate",),
    "sim.batch.predict_ms.p50": ("sim.batch.predict",),
    "sim.batch.configs_per_s": ("sim.batch.predict",),
    "sim.batch.fallback_rows": ("sim.batch.predict",),
    "service.self_ms.p50": ("tuner.space.enumerate", "sim.batch.predict"),
    "sim.trace_model_ms": ("sim.trace_model",),
    "framework.forward_ms.p50": ("framework.forward",),
    "framework.backward_ms.p50": ("framework.backward",),
    "framework.optim_step_ms.p50": ("framework.optim_step",),
    "distributed.collective_ms.p50": ("distributed.collective",),
    "distributed.collective_calls": ("distributed.collective",),
    "distributed.collective_mb": ("distributed.collective",),
    "distributed.rank_skew_ms.p50": ("distributed.collective",),
    "slapo.schedule_ms": ("slapo.schedule", "slapo.verify.apply_steps"),
    "slapo.build_ms": ("slapo.build",),
    "slapo.verify.apply_steps_ms.p50": ("slapo.verify.apply_steps",),
    "fx.trace_calls": ("fx.trace",),
    "fx.trace_ms.p50": ("fx.trace",),
    "distributed.cluster_run_ms.p50": ("distributed.cluster_run",),
    "distributed.threads_started": ("distributed.thread_start",),
    "slapo.verify.self_ms.p50": ("distributed.cluster_run",
                                 "slapo.verify.apply_steps"),
}

#: per-layer metric → unit
UNITS = {name: ("count" if name.endswith(("_calls", ".configs", "_rows",
                                          "_started"))
                else "1/s" if name.endswith("_per_s")
                else "s" if name.endswith("_s")
                else "MB" if name.endswith("_mb")
                else "ms") for name in REQUIRES}
UNITS["trace.overhead_pct"] = "%"


def layer_metrics(spans: list[Span], first_op: int, loop_ops: list[int],
                  missing: set[str]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    ``first_op`` is the run's first (cold) op; ``loop_ops`` are the
    traced ops of the timed loop.  A layer the workload never reaches
    reads 0.  Metrics whose wrapper target is missing are left out.
    """
    loop = set(loop_ops)
    by_name: dict[str, list[Span]] = {}
    by_op: dict[int, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
        by_op.setdefault(span.op, []).append(span)
    op_spans = {s.op: s for s in by_name.get("op", ())}

    def loop_ms(name):
        return [s.seconds * 1e3 for s in by_name.get(name, ())
                if s.op in loop]

    def per_op_count(name):  # a mean: ops of a workload can differ
        counts = [sum(1 for s in by_op.get(op, ()) if s.name == name)
                  for op in loop_ops]
        return statistics.fmean(counts) if counts else 0.0

    first = [s for s in by_op.get(first_op, ())
             if s.name == "pipeline.make_program"]
    predicts = [s for s in by_name.get("sim.batch.predict", ())
                if s.op in loop]
    predict_s = sum(s.seconds for s in predicts)
    metrics = {
        "pipeline.make_program_calls": float(len(first)),
        "pipeline.make_program_s": sum(s.seconds for s in first),
        "tuner.space.enumerate_ms.p50": _median(
            loop_ms("tuner.space.enumerate")),
        "tuner.space.configs": _median(
            s.attrs["configs"] for s in by_name.get("tuner.space.enumerate",
                                                    ()) if s.op in loop),
        "sim.batch.predict_ms.p50": _median(loop_ms("sim.batch.predict")),
        "sim.batch.configs_per_s": (
            sum(s.attrs["configs"] for s in predicts) / predict_s
            if predict_s > 0 else 0.0),
        "sim.batch.fallback_rows": _median(
            s.attrs["fallback"] for s in predicts),
        "sim.trace_model_ms": 1e3 * sum(
            s.seconds for s in by_name.get("sim.trace_model", ())),
        "framework.forward_ms.p50": _median(loop_ms("framework.forward")),
        "framework.backward_ms.p50": _median(loop_ms("framework.backward")),
        "framework.optim_step_ms.p50": _median(
            loop_ms("framework.optim_step")),
        "slapo.schedule_ms": _median(
            s.seconds * 1e3 for name in ("slapo.schedule",
                                         "slapo.verify.apply_steps")
            for s in by_name.get(name, ())),
        "slapo.build_ms": _median(
            s.seconds * 1e3 for s in by_name.get("slapo.build", ())),
        "slapo.verify.apply_steps_ms.p50": _median(
            loop_ms("slapo.verify.apply_steps")),
        "fx.trace_calls": per_op_count("fx.trace"),
        "fx.trace_ms.p50": _median(loop_ms("fx.trace")),
        "distributed.cluster_run_ms.p50": _median(
            loop_ms("distributed.cluster_run")),
        "distributed.threads_started": per_op_count(
            "distributed.thread_start"),
    }
    metrics.update(_collective_metrics(by_op, loop_ops))
    service, verify = [], []
    for op in loop_ops:
        op_span = op_spans.get(op)
        if op_span is None:
            continue
        inner = by_op.get(op, ())
        names = {s.name for s in inner}
        if "tuner.space.enumerate" in names:
            service.append(1e3 * _within(op_span, inner, {
                "tuner.space.enumerate", "sim.batch.predict"}))
        if "slapo.verify.apply_steps" in names:
            verify.append(1e3 * _within(op_span, inner, {
                "distributed.cluster_run", "slapo.verify.apply_steps"}))
    metrics["service.self_ms.p50"] = _median(service)
    metrics["slapo.verify.self_ms.p50"] = _median(verify)
    return {name: value for name, value in metrics.items()
            if not missing.intersection(REQUIRES[name])}


def _collective_metrics(by_op: dict, loop_ops: list[int]) -> dict:
    """Collective time, calls and MB per rank per op, and rank skew.

    Calls on one communicator are matched across ranks by their order on
    each rank (collectives are lock-step); a call's skew is the spread of
    the ranks' arrival times, and an op's skew the sum over its calls.
    """
    per_rank_ms, per_rank_calls, per_rank_mb, skews = [], [], [], []
    for op in loop_ops:
        calls = [s for s in by_op.get(op, ())
                 if s.name == "distributed.collective"]
        if not calls:
            continue
        ranks: dict[int, list[Span]] = {}
        arrivals: dict[tuple, list[float]] = {}
        order: dict[tuple, int] = {}
        for span in sorted(calls, key=lambda s: s.start):
            rank = span.attrs["rank"]
            ranks.setdefault(rank, []).append(span)
            seq_key = (span.attrs["comm"], rank)
            seq = order[seq_key] = order.get(seq_key, -1) + 1
            arrivals.setdefault((span.attrs["comm"], seq), []).append(
                span.start)
        for spans in ranks.values():
            per_rank_ms.append(1e3 * sum(s.seconds for s in spans))
            per_rank_calls.append(len(spans))
            per_rank_mb.append(sum(s.attrs["bytes"] for s in spans) / 1e6)
        skews.append(1e3 * sum(max(a) - min(a) for a in arrivals.values()
                               if len(a) > 1))
    return {
        "distributed.collective_ms.p50": _median(per_rank_ms),
        "distributed.collective_calls": _median(per_rank_calls),
        "distributed.collective_mb": _median(per_rank_mb),
        "distributed.rank_skew_ms.p50": _median(skews),
    }
