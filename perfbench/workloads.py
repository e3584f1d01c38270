"""The three workloads, each driven through public entry points only.

``plan-cold``   ``repro.service.api.provision_batch_report`` into a fresh
                empty ``ScheduleStore`` per op, in-process, one thread.
``serve-warm``  a ``repro serve`` subprocess over loopback, two
                closed-loop ``ServeClient`` threads on a prefilled store.
``sweep``       ``repro.analysis.sweeps.SweepRunner(jobs=2)`` over a
                fixed duty-cycled grid.

Each workload function runs one measured phase and returns a
:class:`Phase`.  Given a ``ledger`` it also records the per-layer spans
(see :mod:`ledger`).  The class mixes below are chosen so that adjacent
classes differ in median cost by at least 1.5x and each reported
percentile lands inside one class's band (README.md, rule 1).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from summary import INF, Stream, min_samples

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1

# (n, D, max_duty, balanced) classes with their share of one cycle.
# The gated p25 and the p50 sit in one class that takes most of the ops
# and about 40% of the cycle's time, so that a run holds enough of its
# samples (at least 41 for p25) even on a slow host.
PLAN_COLD_CYCLE = (
    ((20, 2, "1/2", False), 1),
    ((34, 3, "9/20", False), 12),  # holds p25 and p50: ranks 6%-81%
    ((44, 3, "2/5", False), 1),
    ((30, 3, "2/5", True), 1),
    ((100, 4, "3/10", False), 1),
)
#: Classes provisioned once, untimed, before plan-cold's measured phase.
PLAN_COLD_WARMUP = tuple(cls for cls, _share in PLAN_COLD_CYCLE
                         if cls[0] < 100)
# Two closed-loop clients on a GIL-bound server put a ~10 ms floor under
# every read, so the warm classes sit well above it and far apart.
WARM_CYCLE = (
    ((20, 2, "1/2", False), 1),
    ((100, 4, "3/10", False), 18),  # holds p25 and p50: ranks 5%-95%
    ((30, 3, "2/5", True), 1),      # holds p99: ranks 95%-100%
)
SWEEP_AXES = {"families": ("tdma", "polynomial", "projective", "mols"),
              "ns": (30,), "ds": (3,), "traffics": ("saturated", "poisson"),
              "alpha_t": 2, "alpha_r": 6, "frames": 4}
SWEEP_SEED_POOL = 32     # sweep seed-axis values the golden table covers
SWEEP_SEEDS_PER_OP = 1   # 8 grid points per sweep
SWEEP_JOBS = 2
SERVE_JOBS = 2
SETUP_LAUNCHES = 5
#: The percentile each workload reports as ``latency_ms``, the gated
#: latency: the one whose run-to-run spread was smaller on the 2-vCPU
#: reference VM (README.md, Steadiness).  Each plan-cold op or sweep
#: lasts long enough to sample one host speed state, and the lower
#: quartile follows the fast state; a warm read is too short for that,
#: and its median follows the program best.
GATED_Q = {"plan-cold": 25, "serve-warm": 50, "sweep": 25}
#: plan-cold and sweep run past ``--seconds`` until their stream holds
#: enough samples to report p25 (41), so a slow host lengthens a run
#: instead of failing it.
MIN_OPS = min_samples(25)
SERVE_SETUPS = 3

_LAUNCH = {
    "plan-cold": ("import sys\n"
                  "from repro.service.api import ProvisionRequest, "
                  "provision_batch_report\n"
                  "from repro.service.store import ScheduleStore\n"
                  "ScheduleStore(sys.argv[1])\n"),
    "sweep": ("from repro.analysis.sweeps import SweepRunner, SweepSpec\n"
              "SweepRunner(SweepSpec(), jobs=2)\n"),
}


def label(cls: tuple) -> str:
    n, d, duty, balanced = cls
    return f"n={n} D={d} duty={duty}" + (" balanced" if balanced else "")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Feed:
    """A thread-safe op list: seeded shuffles of whole cycles."""

    def __init__(self, cycle, seed: int, tag: str):
        self._rng = random.Random(f"{tag}:{seed}")
        self._cycle = [cls for cls, share in cycle for _ in range(share)]
        self._buf: list = []
        self._lock = threading.Lock()

    @property
    def at_cycle_start(self) -> bool:
        return not self._buf

    def next(self):
        """The next op's class."""
        with self._lock:
            if not self._buf:
                self._buf = list(self._cycle)
                self._rng.shuffle(self._buf)
                self._buf.reverse()
            return self._buf.pop()


@dataclass
class Phase:
    """One measured phase of a workload."""

    ops: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    streams: dict[str, Stream] = field(default_factory=dict)
    extra: dict[str, Any] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


def _op_span(ledger, name: str):
    return ledger.span("bench.op", op=name) if ledger is not None \
        else contextlib.nullcontext()


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def launch_setup_s(workload: str, workdir: Path) -> list[float]:
    """Wall seconds of :data:`SETUP_LAUNCHES` fresh interpreter launches
    that import the workload's entry points and build its inputs."""
    times = []
    for i in range(SETUP_LAUNCHES):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", _LAUNCH[workload],
                        str(workdir / f"setup-{i}")], env=child_env(),
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - started)
    return times


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus that of its largest reaped child
    when *children* is true, in MiB."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


# ----------------------------------------------------------------------
# plan-cold
# ----------------------------------------------------------------------
def plan_cold_warmup(workdir: Path) -> None:
    """Provision each class of :data:`PLAN_COLD_WARMUP` once, untimed.

    The first cycle in a fresh interpreter runs about 15% slower than
    the next ones (first-use imports, field tables, heap growth).  The
    n=100 class is left out: it would add 4 s to every run, and its
    first-use cost falls outside the gated p25."""
    import repro.service.api as api
    from repro.service.store import ScheduleStore

    for i, (n, d, duty, balanced) in enumerate(PLAN_COLD_WARMUP):
        store_dir = workdir / f"warmup-{i}"
        api.provision_batch_report(
            [api.ProvisionRequest(n, d, duty, balanced)],
            store=ScheduleStore(store_dir), jobs=1)
        shutil.rmtree(store_dir, ignore_errors=True)


def plan_cold(seed: int, seconds: float, workdir: Path, golden,
              ledger=None) -> Phase:
    """Whole cycles of cold provisions until *seconds* have passed."""
    import repro.service.api as api
    from repro.core.serialization import schedule_to_dict
    from repro.service.store import ScheduleStore

    feed = Feed(PLAN_COLD_CYCLE, seed, "plan-cold")
    stream = Stream("plans")
    phase = Phase(streams={"plans": stream})
    written = memory_hits = lookups = 0
    task_s = 0.0
    started = perf_counter()
    deadline = started + seconds
    i = 0
    while not (feed.at_cycle_start and perf_counter() >= deadline
               and stream.count >= MIN_OPS):
        cls = feed.next()
        n, d, duty, balanced = cls
        store_dir = workdir / f"plan-{i}"
        i += 1
        store = ScheduleStore(store_dir)
        request = api.ProvisionRequest(n, d, duty, balanced)
        t0 = perf_counter()
        with _op_span(ledger, label(cls)):
            report = api.provision_batch_report([request], store=store,
                                                jobs=1)
        elapsed = perf_counter() - t0
        result = report.results[0]
        ok = result.error is None and golden.check_plan(
            cls, result.plan, schedule_to_dict(result.plan.schedule))
        stream.add(elapsed if ok else INF, label(cls))
        task_s += sum(r.duration_s for r in report.task_reports.values())
        stats = store.stats
        memory_hits += stats.memory_hits
        lookups += stats.hits + stats.misses
        written += dir_bytes(store_dir)
        shutil.rmtree(store_dir, ignore_errors=True)
    phase.wall_s = perf_counter() - started
    phase.ops = phase.attempted = stream.count
    phase.failed = stream.failed
    phase.extra = {
        "service.store.bytes_written": written / max(1, phase.ops),
        "service.store.memory_hit_ratio": memory_hits / max(1, lookups),
        "service.runtime.pool_overhead_share":
            1.0 - task_s / phase.wall_s,
    }
    return phase


# ----------------------------------------------------------------------
# the serve workloads
# ----------------------------------------------------------------------
class Server:
    """A ``repro serve`` subprocess on an ephemeral loopback port."""

    def __init__(self, workdir: Path, *, trace_out: Path | None = None):
        self.cache_dir = workdir / "cache"
        ready = workdir / "ready"
        launcher = ([str(BENCH / "serve_traced.py"), str(trace_out)]
                    if trace_out is not None else ["-m", "repro"])
        cmd = [sys.executable, *launcher, "serve", "--port", "0",
               "--jobs", str(SERVE_JOBS), "--cache-dir", str(self.cache_dir),
               "--ready-file", str(ready)]
        if trace_out is not None:
            # The traced run reads every request's hops from /debugz; an
            # untraced server keeps the default ring, so its heap does not
            # grow with the run.
            cmd += ["--flight-capacity", "100000"]
        self._log = (workdir / "serve.log").open("wb")
        self.proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                     stdout=self._log, stderr=self._log)
        deadline = time.monotonic() + 120
        while not ready.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("repro serve did not start; see "
                                   f"{workdir / 'serve.log'}")
            time.sleep(0.01)
        host, port = ready.read_text().split()
        self.host, self.port = host, int(port)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text() \
                .splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def _plan_once(client, cls, golden, ledger=None) -> tuple[bool, float]:
    """One timed ``/plan`` read parsed with ``ProvisionResult.from_dict``.

    Returns ``(ok, seconds)``; the golden check runs after the timer."""
    import repro.service.api as api
    from repro.serve.client import ServeError

    n, d, duty, balanced = cls
    t0 = perf_counter()
    try:
        with _op_span(ledger, label(cls)):
            doc = client.plan(n, d, duty, balanced=balanced,
                              include_schedule=True)
            result = api.ProvisionResult.from_dict(doc)
    except (ServeError, ValueError, KeyError, TypeError):
        return False, perf_counter() - t0
    elapsed = perf_counter() - t0
    ok = result.error is None and golden.check_plan(cls, result.plan,
                                                    doc["schedule"])
    return ok, elapsed


def serve_setup(workdir: Path, golden, *, cycles: int = SERVE_SETUPS,
                trace_out: Path | None = None):
    """Start a server on an empty store and prefill the warm classes
    through it, *cycles* times over; every server but the last is
    stopped.

    Returns ``(server, client, setup_seconds, prefill_failures)`` with
    one set-up time per cycle."""
    from repro.serve.client import ServeClient

    times: list[float] = []
    bad = 0
    for i in range(cycles):
        last = i == cycles - 1
        cycle_dir = workdir / f"setup-{i}"
        cycle_dir.mkdir()
        started = perf_counter()
        server = Server(cycle_dir, trace_out=trace_out if last else None)
        try:
            client = ServeClient(server.host, server.port, timeout=120.0)
            for cls, _share in WARM_CYCLE:
                ok, _elapsed = _plan_once(client, cls, golden)
                bad += not ok
        except BaseException:
            server.stop()
            raise
        times.append(perf_counter() - started)
        if not last:
            server.stop()
            shutil.rmtree(cycle_dir, ignore_errors=True)
    return server, client, times, bad


def _closed_loop(client, feed: Feed, stream: Stream, deadline: float,
                 golden, ledger) -> None:
    while perf_counter() < deadline:
        cls = feed.next()
        ok, elapsed = _plan_once(client, cls, golden, ledger)
        stream.add(elapsed if ok else INF, label(cls))


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=t, args=a) for t, a in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def serve_warm(seed: int, seconds: float, client, golden,
               ledger=None) -> Phase:
    """Two closed-loop readers on the warm mix."""
    feed = Feed(WARM_CYCLE, seed, "warm")
    stream = Stream("reads")
    started = perf_counter()
    deadline = started + seconds
    _run_threads([(_closed_loop, (client, feed, stream, deadline, golden,
                                  ledger))] * 2)
    phase = Phase(streams={"reads": stream})
    phase.wall_s = perf_counter() - started
    phase.ops = phase.attempted = stream.count
    phase.failed = stream.failed
    return phase


def queue_wait_ms(before: dict, after: dict) -> float:
    """Mean runtime task queue wait, in ms, between two registry
    snapshots (0 when no task waited for a pool slot)."""
    def totals(snapshot: dict) -> tuple[float, int]:
        series = snapshot["histograms"].get(
            "repro_runtime_task_queue_wait_seconds", {}).get("series", [])
        return (sum(s["sum"] for s in series),
                sum(s["count"] for s in series))

    (sum0, n0), (sum1, n1) = totals(before), totals(after)
    return 1000.0 * (sum1 - sum0) / (n1 - n0) if n1 > n0 else 0.0


def server_extras(before: dict, after: dict, flights: dict,
                  server: Server, ledger_spans, ops: int,
                  prefill_bytes: int) -> dict[str, float]:
    """Per-layer metrics from the server's ``/metrics.json`` snapshots
    taken *before* and *after* a traced phase and its ``/debugz`` flight
    records."""
    from ledger import rtt_by_trace

    rtts = rtt_by_trace(ledger_spans)
    handle, queue, pool, transport = [], [], [], []
    for record in flights["requests"]:
        rtt = rtts.get(record.get("trace_id"))
        if rtt is None or record.get("duration_s") is None:
            continue
        hops = {h["hop"]: h for h in record.get("hops", [])}
        handle.append(record["duration_s"] * 1000.0)
        transport.append(rtt - record["duration_s"] * 1000.0)
        if "admit" in hops and "pool.submit" in hops:
            queue.append((hops["pool.submit"]["t_s"]
                          - hops["admit"]["t_s"]) * 1000.0)
        if "pool.done" in hops:
            pool.append(hops["pool.done"].get("seconds", 0.0) * 1000.0)

    def counter(name: str) -> dict[str, float]:
        def values(snapshot):
            series = snapshot["counters"].get(name, {}).get("series", [])
            return {s["labels"].get("result", ""): s["value"]
                    for s in series}
        start, end = values(before), values(after)
        return {k: v - start.get(k, 0.0) for k, v in end.items()}

    def ratio(values: dict[str, float], key: str) -> float:
        total = sum(values.values())
        return values.get(key, 0.0) / total if total else 0.0

    def med(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    return {
        "serve.server.handle_ms": med(handle),
        "serve.server.queue_ms": med(queue),
        "serve.server.pool_ms": med(pool),
        "serve.transport_ms": med(transport),
        "service.store.memory_hit_ratio":
            ratio(counter("repro_store_lookups_total"), "memory_hit"),
        "service.runtime.queue_wait_ms": queue_wait_ms(before, after),
        "service.store.bytes_written":
            (dir_bytes(server.cache_dir) - prefill_bytes) / max(1, ops),
    }


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep_seed_order(seed: int) -> list[int]:
    """The workload seed's permutation of the sweep seed pool."""
    return random.Random(f"sweep:{seed}").sample(range(SWEEP_SEED_POOL),
                                                 SWEEP_SEED_POOL)


def sweep_spec(seed: int, k: int):
    """Spec of the *k*-th sweep op of workload seed *seed*."""
    from repro.analysis.sweeps import SweepSpec

    order = sweep_seed_order(seed)
    start = (k * SWEEP_SEEDS_PER_OP) % SWEEP_SEED_POOL
    seeds = tuple(sorted(order[start:start + SWEEP_SEEDS_PER_OP]))
    return SweepSpec(**SWEEP_AXES, seeds=seeds)


def sweep(seed: int, seconds: float, golden, ledger=None,
          jobs: int = SWEEP_JOBS) -> Phase:
    """Whole sweeps until *seconds* have passed; an op is a grid point."""
    import hashlib

    from repro.analysis.sweeps import SweepRunner
    from repro.obs.metrics import default_registry

    before = default_registry().snapshot()
    stream = Stream("sweeps")
    phase = Phase(streams={"sweeps": stream})
    points = bad_points = 0
    overhead = []
    started = perf_counter()
    deadline = started + seconds
    k = 0
    while perf_counter() < deadline or stream.count < MIN_OPS:
        spec = sweep_spec(seed, k)
        t0 = perf_counter()
        with _op_span(ledger, "sweep"):
            result = SweepRunner(spec, jobs=jobs, shard_size=1).run()
        elapsed = perf_counter() - t0
        bad = golden.check_rows(result.rows)
        if seed == DEFAULT_SEED and k == 0:
            digest = hashlib.sha256(result.to_jsonl().encode()).hexdigest()
            bad += digest != golden.doc["sweep"]["default_digest"]
        stream.add(elapsed if not bad else INF, "sweep")
        points += len(result.rows)
        bad_points += min(bad, len(result.rows))
        busy = sum(r.duration_s for r in result.reports.values())
        overhead.append(1.0 - busy / (jobs * elapsed))
        k += 1
    phase.wall_s = perf_counter() - started
    phase.ops = phase.attempted = points
    phase.failed = bad_points
    phase.extra["service.runtime.pool_overhead_share"] = \
        statistics.median(overhead)
    phase.extra["service.runtime.queue_wait_ms"] = queue_wait_ms(
        before, default_registry().snapshot())
    # The runtime terminates its pool workers without joining them.
    for child in multiprocessing.active_children():
        child.join(timeout=30)
    return phase
