"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload plan-cold --seed 1 --seconds 30 --trace 0

Workloads: plan-cold, serve-warm, sweep (see README.md).
With ``--trace 0`` the run measures the end-to-end metrics untraced; with
``--trace 1`` it measures an untraced phase and then a traced phase, and
reports the per-layer ledger.  A table of every metric, with units and
sample counts, goes to stdout first; the last stdout line is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.

The program under test is the ``src/repro`` tree next to this directory,
run from source.  Scratch files go to ``.perfbench/`` at the repository
root; span dumps of traced runs stay in ``.perfbench/traces/``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import tempfile
import urllib.request
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("plan-cold", "serve-warm", "sweep")
#: The gated metrics, in BENCHMARK.json's order.
END_TO_END = (("setup_s", "s"), ("latency_ms", "ms"), ("peak_rss_mb", "MiB"))
#: Share of traced op time the layers' self times must account for.
MIN_COVERAGE = 0.9


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default: the fixed default seed)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="length of each measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _fetch(server, path: str):
    """GET a server document with urllib: ``ServeClient`` is traced, and
    the ledger counts only the workload's own requests."""
    url = f"http://{server.host}:{server.port}{path}"
    with urllib.request.urlopen(url, timeout=60) as response:
        return json.load(response)


# ----------------------------------------------------------------------
# untraced measurement
# ----------------------------------------------------------------------
def measure(workload: str, seed: int, seconds: float, workdir: Path,
            golden) -> dict:
    """One untraced run: set-up, measured phase, peak RSS."""
    import workloads as w

    if workload in ("plan-cold", "sweep"):
        if workload == "plan-cold":
            w.plan_cold_warmup(workdir)
            phase = w.plan_cold(seed, seconds, workdir, golden)
        else:
            phase = w.sweep(seed, seconds, golden)
        # Read before the set-up launches, so that only sweep's pool
        # workers count as children.
        rss = w.peak_rss_mb(children=workload == "sweep")
        setups = w.launch_setup_s(workload, workdir)
        return {"phase": phase, "setup_s": statistics.median(setups),
                "setup_n": len(setups), "setup_bad": 0, "peak_rss_mb": rss}
    server, client, setups, bad = w.serve_setup(workdir, golden)
    try:
        phase = w.serve_warm(seed, seconds, client, golden)
        rss = server.peak_rss_mb()
    finally:
        server.stop()
    return {"phase": phase, "setup_s": statistics.median(setups),
            "setup_n": len(setups), "setup_bad": bad, "peak_rss_mb": rss}


# ----------------------------------------------------------------------
# traced measurement
# ----------------------------------------------------------------------
def traced(workload: str, seed: int, seconds: float, workdir: Path,
           golden) -> dict:
    """Untraced phase, then a traced phase; the per-layer ledger."""
    import ledger as lg
    import workloads as w
    from repro.obs.tracing import read_jsonl

    traces = ROOT / ".perfbench" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    bench_out = traces / f"{workload}-{seed}-bench.jsonl"
    server_out = traces / f"{workload}-{seed}-server.jsonl"
    ledger = lg.Ledger()
    extra: dict = {}
    dumps = [bench_out]
    if workload == "plan-cold":
        w.plan_cold_warmup(workdir)
        base = w.plan_cold(seed, seconds, workdir, golden)
        lg.install(ledger)
        phase = w.plan_cold(seed, seconds, workdir, golden, ledger)
        extra.update(base.extra)
        spans = list(ledger.tracer.spans)
    elif workload == "sweep":
        pooled = w.sweep(seed, seconds, golden)
        base = w.sweep(seed, seconds, golden, jobs=1)
        lg.install(ledger)
        phase = w.sweep(seed, seconds, golden, ledger, jobs=1)
        extra.update(pooled.extra)
        spans = list(ledger.tracer.spans)
    else:
        (workdir / "base").mkdir()
        server, client, _setup, _bad = w.serve_setup(workdir / "base",
                                                      golden, cycles=1)
        try:
            base = w.serve_warm(seed, seconds, client, golden)
        finally:
            server.stop()
        (workdir / "traced").mkdir()
        server, client, _setup, _bad = w.serve_setup(
            workdir / "traced", golden, cycles=1, trace_out=server_out)
        try:
            prefill_bytes = w.dir_bytes(server.cache_dir)
            before = _fetch(server, "/metrics.json")
            lg.install(ledger)
            phase = w.serve_warm(seed, seconds, client, golden, ledger)
            spans = list(ledger.tracer.spans)
            extra.update(w.server_extras(
                before, _fetch(server, "/metrics.json"),
                _fetch(server, "/debugz"), server, spans, phase.attempted,
                prefill_bytes))
        finally:
            server.stop()
        ids = set(lg.rtt_by_trace(spans))
        spans += [s for s in read_jsonl([server_out]) if s.trace_id in ids]
        dumps.append(server_out)
    ledger.tracer.to_jsonl(bench_out)
    extra["trace.overhead_share"] = 1.0 - phase.ops_per_s / base.ops_per_s
    per_layer = lg.compute(spans, phase.attempted, extra)
    checks = {
        "validate_trace": [sys.executable,
                           str(ROOT / "tools" / "validate_trace.py")],
        "obs_report": [sys.executable, "-m", "repro", "obs", "report"],
    }
    check_rc = {}
    for name, cmd in checks.items():
        check_rc[name] = subprocess.run(
            cmd + [str(p) for p in dumps], env=w.child_env(), cwd=ROOT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {"phase": phase, "base": base, "per_layer": per_layer,
            "check_rc": check_rc, "dumps": dumps, "spans": spans}


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------
def _cpu_steal_ticks() -> tuple[int, int]:
    """(steal, total) clock ticks of all CPUs from ``/proc/stat``."""
    fields = [int(x) for x in Path("/proc/stat").read_text()
              .splitlines()[0].split()[1:]]
    return fields[7], sum(fields[:8])


def _fmt(value) -> str:
    if value is None:
        return "missing"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else f"{value:.6g}"
    return str(value)


def _stream_rows(workload: str, phase) -> list[tuple]:
    """(name, value, unit, samples) rows of the latency metrics."""
    from workloads import GATED_Q

    stream = next(iter(phase.streams.values()))
    q = GATED_Q[workload]
    rows = [("latency_ms", stream.percentile_ms(q), "ms", stream.count),
            ("p25_ms", stream.percentile_ms(25), "ms", stream.count),
            ("p50_ms", stream.percentile_ms(50), "ms", stream.count)]
    if workload == "serve-warm":
        rows.append(("p99_ms", stream.percentile_ms(99), "ms", stream.count))
    return rows


def _class_lines(phase) -> list[str]:
    from summary import band_of

    lines = []
    for stream in phase.streams.values():
        if len(stream.by_class) < 2:
            continue
        lines.append(f"  {stream.name}: per-class p50 (samples)")
        medians = sorted(stream.class_medians_ms().items(),
                         key=lambda item: item[1][0] or math.inf)
        for name, (p50, count) in medians:
            lines.append(f"    {name:<28} {_fmt(p50):>10} ms  ({count})")
        for q in (25, 50, 90, 99):
            band = band_of(stream, q)
            if band is not None and stream.percentile_ms(q) is not None:
                lines.append(f"    p{q} falls in band: {band}")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} "
              "is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads as w
    from golden import Golden

    seed = w.DEFAULT_SEED if args.seed is None else args.seed
    golden = Golden()
    work_root = ROOT / ".perfbench"
    work_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=work_root))
    steal_before = _cpu_steal_ticks()
    try:
        if args.trace:
            out = traced(args.workload, seed, args.seconds, workdir, golden)
        else:
            out = measure(args.workload, seed, args.seconds, workdir, golden)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    phase = out["phase"]
    phases = [phase] + ([out["base"]] if "base" in out else [])
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + out.get("setup_bad", 0)
    correct = failed == 0 and attempted > 0

    steal, total = (after - before for after, before
                    in zip(_cpu_steal_ticks(), steal_before))
    print(f"workload {args.workload}  seed {seed}  "
          f"phase {phase.wall_s:.2f} s  ops {phase.ops}  "
          f"host CPU steal {steal / max(1, total):.1%}")
    metrics: dict[str, dict] = {}
    if args.trace:
        import ledger as lg

        for name, rc in out["check_rc"].items():
            print(f"  {name}: exit {rc}")
            correct = correct and rc == 0
        coverage = out["per_layer"]["trace.coverage_share"]
        print(f"  layer self times cover {coverage:.4f} of op time "
              f"(required: {MIN_COVERAGE})")
        correct = correct and coverage >= MIN_COVERAGE
        print("  traces: " + " ".join(str(p.relative_to(ROOT))
                                      for p in out["dumps"]))
        print(f"  {'metric':<40} {'value':>12}  unit")
        for name, unit in lg.PER_LAYER:
            value = out["per_layer"][name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:<40} {_fmt(value):>12}  {unit}")
        if args.workload == "plan-cold":
            for line in lg.class_table(out["spans"]):
                print("  " + line)
    else:
        rows = [("setup_s", out["setup_s"], "s", out["setup_n"]),
                ("ops_per_s", phase.ops_per_s, "1/s", phase.ops)]
        rows += _stream_rows(args.workload, phase)
        rows += [("error_rate", failed / max(1, attempted), "ratio",
                  attempted),
                 ("peak_rss_mb", out["peak_rss_mb"], "MiB", 1)]
        print(f"  {'metric':<14} {'value':>12}  {'unit':<6} samples"
              f"   (latency_ms is p{w.GATED_Q[args.workload]}_ms)")
        for name, value, unit, samples in rows:
            print(f"  {name:<14} {_fmt(value):>12}  {unit:<6} {samples}")
        values = {name: value for name, value, _u, _n in rows}
        for name, unit in END_TO_END:
            value = values[name]
            if value is None or not math.isfinite(value):
                correct, value = False, -1.0
            metrics[name] = {"value": value, "unit": unit}
    for line in _class_lines(phase):
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
