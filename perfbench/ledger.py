"""The per-layer ledger: wrappers around each layer's public functions.

:func:`install` replaces each traced name in the module that looks it up
with a wrapper that records a span into a benchmark-owned
:class:`repro.obs.tracing.Tracer`.  Every span carries its layer and a
benchmark span id (``sid``) plus the ``sid`` of the enclosing wrapped
call on the same thread (``up``).  The program's own spans go to its own
default tracer and are not part of the ledger, so ``up`` (not the
program's ``parent_id``) is what self time is computed from:

    self time of a span = its duration - durations of its direct children

Self times partition each op span.  ``trace.coverage_share`` is the part
of traced op time that lands in the self time of a span feeding a
per-op ``*_ms`` metric (:data:`_SELF_MS`); the rest is in spans no metric
reports (``planner.evaluate``, ``planner.grid``, ``client.parse`` self)
and in the benchmark's own code between calls.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

from repro.obs.context import current_trace_id
from repro.obs.tracing import SpanRecord, Tracer

OP = "bench.op"

#: Per-layer metrics in the order the ledger prints them, with units.
PER_LAYER = (
    ("core.nonsleeping.substrate_ms", "ms"),
    ("core.planner.grid_points", "count"),
    ("core.planner.useful_ratio", "ratio"),
    ("core.construction.calls", "count"),
    ("core.construction.busy_ms", "ms"),
    ("core.throughput.busy_ms", "ms"),
    ("core.serialization.store_encode_ms", "ms"),
    ("core.serialization.response_encode_ms", "ms"),
    ("core.serialization.decode_ms", "ms"),
    ("service.store.puts", "count"),
    ("service.store.put_ms", "ms"),
    ("service.store.bytes_written", "B"),
    ("service.store.get_ms", "ms"),
    ("service.store.memory_hit_ratio", "ratio"),
    ("service.runtime.overhead_ms", "ms"),
    ("service.runtime.queue_wait_ms", "ms"),
    ("service.runtime.pool_overhead_share", "ratio"),
    ("service.api.self_ms", "ms"),
    ("service.api.result_encode_ms", "ms"),
    ("serve.client.rtt_ms", "ms"),
    ("serve.client.wait_ms", "ms"),
    ("serve.client.json_ms", "ms"),
    ("serve.client.parse_ms", "ms"),
    ("serve.server.handle_ms", "ms"),
    ("serve.server.queue_ms", "ms"),
    ("serve.server.pool_ms", "ms"),
    ("serve.transport_ms", "ms"),
    ("serve.server.response_bytes", "B"),
    ("simulation.engine.vector_ms", "ms"),
    ("simulation.engine.scalar_ms", "ms"),
    ("simulation.engine.slots_per_s", "1/s"),
    ("simulation.topology.build_ms", "ms"),
    ("analysis.sweeps.self_ms", "ms"),
    ("trace.overhead_share", "ratio"),
    ("trace.coverage_share", "ratio"),
)

# Span name -> the per-op self-time metric it feeds.
_SELF_MS = {
    "nonsleeping.substrate": "core.nonsleeping.substrate_ms",
    "construction.construct": "core.construction.busy_ms",
    "throughput.average": "core.throughput.busy_ms",
    "serialization.store_encode": "core.serialization.store_encode_ms",
    "serialization.response_encode": "core.serialization.response_encode_ms",
    "serialization.decode": "core.serialization.decode_ms",
    "store.put": "service.store.put_ms",
    "store.get": "service.store.get_ms",
    "runtime.execute": "service.runtime.overhead_ms",
    "api.provision": "service.api.self_ms",
    "api.result_encode": "service.api.result_encode_ms",
    "client.call": "serve.client.json_ms",
    "client.rtt": "serve.client.wait_ms",
    "engine.vector": "simulation.engine.vector_ms",
    "engine.scalar": "simulation.engine.scalar_ms",
    "topology.build": "simulation.topology.build_ms",
    "sweeps.run": "analysis.sweeps.self_ms",
}


class Ledger:
    """A tracer plus the thread-local nesting the wrappers need."""

    def __init__(self) -> None:
        self.tracer = Tracer(capacity=5_000_000)
        self._local = threading.local()
        self._ids = itertools.count(1)

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: Any):
        """Record one ledger span around the body."""
        stack = self._stack()
        sid = next(self._ids)
        up = stack[-1] if stack else 0
        stack.append(sid)
        try:
            with self.tracer.span(name, sid=sid, up=up, **attrs):
                yield sid
        finally:
            stack.pop()

    def wrap(self, fn: Callable, name: str | Callable[..., str],
             count: Callable[[Any], int] | None = None) -> Callable:
        """*fn* recording a span called *name* (or ``name(*args)``).

        *count*, when given, maps the result to an integer kept as the
        span's ``n`` attribute (grid points, simulated slots, bytes).
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args) if callable(name) else name
            extra: dict[str, Any] = {}
            with self.span(label, extra=extra):
                result = fn(*args, **kwargs)
                if count is not None:
                    extra["n"] = count(result)
                if label == "client.rtt":
                    extra["trace_id"] = current_trace_id()
            return result

        return wrapper


def install(ledger: Ledger) -> None:
    """Patch every traced name in the current process."""
    import repro.analysis.sweeps as sweeps
    import repro.core.construction as construction
    import repro.core.nonsleeping as nonsleeping
    import repro.core.planner as planner
    import repro.serve.client as client
    import repro.serve.server as server
    import repro.service.api as api
    import repro.service.runtime as runtime
    import repro.service.store as store
    import repro.simulation.engine as engine
    import repro.simulation.topology as topology

    def patch(owner: Any, attr: str, name, count=None) -> None:
        wrapped = ledger.wrap(getattr(owner, attr), name, count)
        if isinstance(owner.__dict__.get(attr) if isinstance(owner, type)
                      else None, classmethod):
            # getattr gave the bound classmethod; keep it one.
            wrapped = classmethod(
                lambda cls, *a, _w=wrapped, **k: _w(*a, **k))
        setattr(owner, attr, wrapped)

    patch(api, "provision_batch_report", "api.provision")
    patch(server, "provision_batch_report", "api.provision")
    patch(api, "candidate_sources", "nonsleeping.substrate")
    for family in ("tdma", "polynomial", "steiner", "projective_plane",
                   "mols"):
        patch(nonsleeping, f"{family}_schedule", "nonsleeping.substrate")
    patch(api, "duty_grid", "planner.grid", count=len)
    patch(runtime, "evaluate_grid_point", "planner.evaluate")
    patch(planner, "construct_detailed", "construction.construct")
    patch(construction, "construct", "construction.construct")
    patch(planner, "average_throughput", "throughput.average")
    patch(store, "schedule_to_dict", "serialization.store_encode")
    patch(api, "schedule_to_dict", "serialization.response_encode")
    patch(api, "schedule_from_dict", "serialization.decode")
    for attr in ("put_eval", "put_plan"):
        patch(store.ScheduleStore, attr, "store.put")
    for attr in ("get_eval", "get_plan"):
        patch(store.ScheduleStore, attr, "store.get")
    patch(api, "execute_tasks", "runtime.execute")
    patch(sweeps, "execute_tasks", "runtime.execute")
    patch(api.ProvisionResult, "to_dict", "api.result_encode")
    patch(api.ProvisionResult, "from_dict", "client.parse")
    patch(client.ServeClient, "call", "client.call")
    patch(client.ServeClient, "request", "client.rtt",
          count=lambda result: len(result[1]))
    patch(engine.Simulator, "run",
          lambda sim, *a, **k: ("engine.vector" if sim.traffic.saturated
                                else "engine.scalar"),
          count=lambda metrics: metrics.slots)
    patch(topology, "worst_case_regular", "topology.build")
    patch(sweeps.SweepRunner, "run", "sweeps.run")


# ----------------------------------------------------------------------
# reading the spans back
# ----------------------------------------------------------------------
def _attr(span: SpanRecord, key: str, default: Any = None) -> Any:
    if key in span.attrs:
        return span.attrs[key]
    return span.attrs.get("extra", {}).get(key, default)


def self_times(spans: list[SpanRecord]) -> list[float]:
    """Self seconds of each span (duration minus direct children)."""
    children: dict[tuple, float] = defaultdict(float)
    for s in spans:
        children[(s.pid, _attr(s, "up"))] += s.duration_s
    return [s.duration_s - children[(s.pid, _attr(s, "sid"))] for s in spans]


def compute(spans: list[SpanRecord], ops: int,
            extra: dict[str, float]) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the traced phase.

    *ops* is the number of workload ops the spans cover; per-op metrics
    divide by it.  *extra* holds metrics measured outside the spans
    (store bytes, hit ratios, server flight records, overhead share);
    metrics neither measured there nor fed by a span are 0: the layer
    did no work in this workload.
    """
    out = {name: 0.0 for name, _unit in PER_LAYER}
    selfs = self_times(spans)
    by_key = {(s.pid, _attr(s, "sid")): s for s in spans}
    op_time = covered = 0.0
    constructions = grids = 0
    rtt, parse = [], []
    for s, self_s in zip(spans, selfs):
        metric = _SELF_MS.get(s.name)
        if metric is not None:
            out[metric] += self_s * 1000.0
            if _op_of(s, by_key) is not None:
                covered += self_s
        if s.name == OP:
            op_time += s.duration_s
        elif s.name == "planner.grid":
            # One grid per cold provisioning call, and one winner per grid.
            grids += 1
            out["core.planner.grid_points"] += _attr(s, "n", 0)
        elif s.name == "construction.construct":
            out["core.construction.calls"] += 1
            parent = by_key.get((s.pid, _attr(s, "up")))
            if parent is not None and parent.name == "planner.evaluate":
                constructions += 1
        elif s.name == "store.put":
            out["service.store.puts"] += 1
        elif s.name == "client.rtt":
            rtt.append(s.duration_s * 1000.0)
            out["serve.server.response_bytes"] += _attr(s, "n", 0)
        elif s.name == "client.parse":
            parse.append(s.duration_s * 1000.0)
    if constructions:
        out["core.planner.useful_ratio"] = grids / constructions
    engine_s = sum(self_s for s, self_s in zip(spans, selfs)
                   if s.name.startswith("engine."))
    slots = sum(_attr(s, "n", 0) for s in spans
                if s.name.startswith("engine."))
    if engine_s > 0:
        out["simulation.engine.slots_per_s"] = slots / engine_s
    if ops:
        for name, unit in PER_LAYER:
            if unit in ("ms", "count", "B"):
                out[name] /= ops
    out["serve.client.rtt_ms"] = statistics.median(rtt) if rtt else 0.0
    out["serve.client.parse_ms"] = statistics.median(parse) if parse else 0.0
    if op_time > 0:
        out["trace.coverage_share"] = covered / op_time
    out.update(extra)
    return out


def _op_of(span: SpanRecord, by_key: dict) -> SpanRecord | None:
    """The op span enclosing *span* in its own process, or None."""
    node = span
    while node is not None and node.name != OP:
        node = by_key.get((node.pid, _attr(node, "up")))
    return node


def rtt_by_trace(spans: list[SpanRecord]) -> dict[str, float]:
    """Client round-trip milliseconds keyed by the request's trace id."""
    return {_attr(s, "trace_id"): s.duration_s * 1000.0 for s in spans
            if s.name == "client.rtt" and _attr(s, "trace_id")}


def class_table(spans: list[SpanRecord]) -> list[str]:
    """Per-class self-time breakdown of the plan-cold ops, in ms per op,
    largest layer first."""
    selfs = self_times(spans)
    by_key = {(s.pid, _attr(s, "sid")): s for s in spans}
    totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    counts: dict[str, int] = defaultdict(int)
    for s, self_s in zip(spans, selfs):
        node = _op_of(s, by_key)
        if node is None:
            continue
        cls = _attr(node, "op")
        if s is node:
            counts[cls] += 1
        totals[cls][s.name] += self_s * 1000.0
    lines = []
    for cls in sorted(totals, key=lambda c: -sum(totals[c].values())):
        n = counts[cls] or 1
        parts = sorted(totals[cls].items(), key=lambda item: -item[1])
        lines.append(f"{cls} ({n} ops, {sum(totals[cls].values()) / n:.1f}"
                     " ms/op): " + ", ".join(f"{name} {ms / n:.1f}"
                                             for name, ms in parts))
    return lines
