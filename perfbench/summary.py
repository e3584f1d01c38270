"""Summariser rules shared by every workload.

* A failed or refused op is a latency sample of ``+inf``: it sorts after
  every real sample, so failures push percentiles up instead of vanishing.
* A percentile other than the median is reported only when at least
  :data:`MIN_BEYOND` samples lie beyond it: above it for q > 50, below
  it for q < 50.  Otherwise it is ``None`` ("missing"), never a number.
  The median is always reported when there is at least one sample.
* Every stream reports its op count next to its percentiles.
"""

from __future__ import annotations

import math
import statistics

INF = math.inf

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


def rank(n: int, q: float) -> int:
    """1-based nearest-rank index of percentile *q* among *n* samples."""
    return max(1, math.ceil(q / 100.0 * n))


def min_samples(q: float) -> int:
    """Fewest samples for which percentile *q* is reported."""
    n = 1
    while percentile([0.0] * n, q) is None:
        n += 1
    return n


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank percentile *q* of *samples* (``+inf`` = failed op).

    Returns None when there are no samples, or when fewer than
    :data:`MIN_BEYOND` samples lie beyond its rank: above it for q > 50,
    below it for q < 50.
    """
    n = len(samples)
    if n == 0:
        return None
    k = rank(n, q)
    if (q > 50 and n - k < MIN_BEYOND) or (q < 50 and k - 1 < MIN_BEYOND):
        return None
    return sorted(samples)[k - 1]


class Stream:
    """Latency samples of one op stream, in seconds (failures = +inf)."""

    def __init__(self, name: str):
        self.name = name
        self.samples: list[float] = []
        self.by_class: dict[str, list[float]] = {}

    def add(self, seconds: float, label: str | None = None) -> None:
        self.samples.append(seconds)
        if label is not None:
            self.by_class.setdefault(label, []).append(seconds)

    def fail(self, label: str | None = None) -> None:
        self.add(INF, label)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for s in self.samples if s == INF)

    def percentile_ms(self, q: float) -> float | None:
        value = percentile(self.samples, q)
        return None if value is None else value * 1000.0

    def class_medians_ms(self) -> dict[str, tuple[float | None, int]]:
        """Per-class ``(p50 in ms, count)``, for the rule-1 check."""
        out = {}
        for label, samples in self.by_class.items():
            p50 = percentile(samples, 50)
            out[label] = (None if p50 is None else p50 * 1000.0,
                          len(samples))
        return out


def band_of(stream: Stream, q: float) -> str | None:
    """The class whose sample sits at percentile *q* of the whole stream
    (None when the percentile is missing or the sample is a failure)."""
    n = stream.count
    if percentile(stream.samples, q) is None:
        return None
    k = rank(n, q)
    labelled = sorted((s, label) for label, samples in stream.by_class.items()
                      for s in samples)
    if len(labelled) != n:
        return None
    value, label = labelled[k - 1]
    return None if value == INF else label


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the acceptance check takes it."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
