"""Unit tests of the summariser rules and the ledger's self-time sums.

    python3 -m pytest perfbench -q
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from summary import (  # noqa: E402
    INF,
    MIN_BEYOND,
    Stream,
    band_of,
    min_samples,
    percentile,
)


def test_failed_op_sorts_after_every_real_sample():
    stream = Stream("reads")
    for i in range(30):
        stream.add(0.001 * (i + 1))
    for _ in range(20):
        stream.fail()
    # 20 of 50 samples failed: p60 is the slowest real sample, p70 +inf.
    assert stream.percentile_ms(50) == 25.0
    assert stream.percentile_ms(60) == 30.0
    assert stream.failed == 20
    assert percentile(stream.samples, 70) == INF
    assert math.isinf(stream.percentile_ms(70))


def test_tail_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 1000)]
    # 999 samples: rank of p99 is 990, only 9 beyond it.
    assert percentile(samples, 99) is None
    samples.append(1000.0)
    assert percentile(samples, 99) == 990.0
    assert len(samples) - 990 == MIN_BEYOND


def test_low_percentile_needs_ten_samples_below_it():
    samples = [float(i) for i in range(1, 41)]
    # 40 samples: rank of p25 is 10, only 9 below it.
    assert percentile(samples, 25) is None
    samples.append(41.0)
    assert percentile(samples, 25) == 11.0
    assert min_samples(25) == 41
    assert min_samples(50) == 1
    assert min_samples(99) == 1000


def test_missing_percentile_is_never_a_number():
    stream = Stream("plans")
    for i in range(15):
        stream.add(1.0 + i)
    assert stream.percentile_ms(90) is None
    assert stream.percentile_ms(25) is None
    assert stream.percentile_ms(50) == 8000.0
    assert Stream("empty").percentile_ms(50) is None


def test_each_stream_counts_its_ops():
    stream = Stream("writes")
    stream.add(0.5, "a")
    stream.fail("b")
    assert stream.count == 2
    assert stream.class_medians_ms() == {"a": (500.0, 1), "b": (INF, 1)}


def test_band_of_names_the_class_holding_the_percentile():
    stream = Stream("reads")
    for _ in range(30):
        stream.add(0.001, "small")
    for _ in range(40):
        stream.add(0.005, "medium")
    for _ in range(30):
        stream.add(0.020, "large")
    assert band_of(stream, 50) == "medium"
    assert band_of(stream, 80) == "large"
    assert band_of(stream, 99) is None  # fewer than 10 samples beyond


def test_self_times_partition_the_op():
    from ledger import Ledger, compute, self_times

    ledger = Ledger()
    with ledger.span("bench.op", op="x"):
        with ledger.span("store.put"):
            with ledger.span("serialization.store_encode"):
                pass
        with ledger.span("throughput.average"):
            pass
    spans = ledger.tracer.spans
    op = next(s for s in spans if s.name == "bench.op")
    assert math.isclose(sum(self_times(spans)), op.duration_s,
                        rel_tol=1e-9)
    metrics = compute(spans, 1, {})
    assert metrics["service.store.puts"] == 1
    assert 0.0 < metrics["trace.coverage_share"] <= 1.0


def test_coverage_counts_only_spans_that_feed_a_metric():
    import time

    from ledger import Ledger, compute, self_times

    ledger = Ledger()
    with ledger.span("bench.op", op="x"):
        with ledger.span("planner.evaluate"):
            time.sleep(0.02)
            with ledger.span("throughput.average"):
                time.sleep(0.02)
    # A server-side span outside any op adds to its metric, not coverage.
    with ledger.span("store.get"):
        time.sleep(0.01)
    spans = ledger.tracer.spans
    by_name = {s.name: (s, t) for s, t in zip(spans, self_times(spans))}
    op = by_name["bench.op"][0]
    metrics = compute(spans, 1, {})
    share = by_name["throughput.average"][1] / op.duration_s
    assert math.isclose(metrics["trace.coverage_share"], share)
    assert metrics["trace.coverage_share"] < 0.75
    assert metrics["service.store.get_ms"] > 0
