"""Service-side observability: counters and latency percentiles.

:class:`ServiceMetrics` is deliberately dependency-free (no numpy): it
sits on the hot path of every admission, so recording must stay O(1)
and allocation-light.  Every counter is one row of :data:`COUNTERS`,
moved by :meth:`ServiceMetrics.record` or, by name, by
:meth:`ServiceMetrics.count`.  Latencies go into a
:class:`LatencyHistogram` over the metrics' whole lifetime: fixed
logarithmic buckets, each ``1/32`` of a binary order of magnitude wide,
that keep their count and their largest sample.  A percentile is read
by nearest rank over the bucket counts and reported as the largest
sample of the bucket holding that rank, so it is a latency that was
observed, and at most ``1/32`` above the exact nearest-rank value.
Histograms merge exactly (counts add, maxima take the max), and their
memory is bounded by the number of occupied buckets, not of samples.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Sequence

__all__ = [
    "COUNTERS",
    "STEPS",
    "LatencyHistogram",
    "ServiceMetrics",
    "percentile",
]

#: Equal mantissa steps per binary order of magnitude: a bucket spans
#: latencies within a factor ``1 + 1/STEPS`` of each other.
STEPS = 32

#: The bucket of a zero latency: below every positive float's bucket
#: (the smallest, 5e-324, has binary exponent -1073).
_ZERO_BUCKET = -(1 << 20)

#: The percentiles :meth:`ServiceMetrics.snapshot` reports.
_PERCENTILES = (("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999))

#: Every counter, in :meth:`ServiceMetrics.snapshot` order, with what
#: one increment means.  :meth:`ServiceMetrics.record` moves the first
#: five; the rest move through :meth:`ServiceMetrics.count`.
COUNTERS: tuple[tuple[str, str], ...] = (
    ("requests", "one served admission (a shed is never served)"),
    ("cache_hits", "one served admission counted as a cache hit"),
    ("cache_misses", "one served admission counted as a cache miss"),
    ("admitted", "one served ADMIT"),
    ("rejected", "one served REJECT"),
    ("timeouts", "one computation abandoned at its deadline"),
    ("retries", "one resubmission of a failed or timed-out job"),
    ("degraded", "one decision degraded to a REJECT after retries"),
    ("shed", "one request shed by backpressure, quota or drain"),
    ("coalesced", "one request served by another caller's compute"),
    ("pool_rebuilds", "one worker-pool rebuild after a broken pool"),
    ("region_hits", "one admission served analysis-free by a region"),
    ("region_misses", "one region lookup whose shape had no region"),
    ("region_fallbacks", "one region lookup that found one but fell back"),
    ("region_builds", "one feasibility-region construction"),
    ("region_probes", "one direct-analysis probe of a construction"),
    ("records_salvaged", "one record kept by a damaged-store load"),
    ("records_dropped", "one record discarded by a damaged-store load"),
    ("integrity_failures", "one sqlite integrity-check failure"),
    ("breaker_opens", "one shard breaker tripping open"),
    ("breaker_half_opens", "one breaker entering its half-open window"),
    ("breaker_restores", "one breaker closing again after its probes"),
    ("rerouted", "one request routed around its open-breaker shard"),
    ("drain_flushed", "one queued job served at shutdown"),
    ("drain_shed", "one queued job shed at shutdown"),
)

#: :meth:`ServiceMetrics.describe`'s optional lines: each shows when
#: any of its gating counters is non-zero.
_OPTIONAL_LINES: tuple[tuple[tuple[str, ...], str], ...] = (
    (
        ("timeouts", "retries", "degraded", "pool_rebuilds"),
        "robustness: {timeouts} timeout(s), {retries} retry(ies), "
        "{degraded} degraded decision(s), {pool_rebuilds} pool rebuild(s)",
    ),
    (
        ("shed", "coalesced"),
        "backpressure: {shed} shed, {coalesced} coalesced",
    ),
    (
        ("region_hits", "region_misses", "region_fallbacks", "region_builds"),
        "regions: {region_hits} hits, {region_misses} misses, "
        "{region_fallbacks} fallbacks, {region_builds} builds "
        "({region_probes} probes)",
    ),
    (
        ("records_salvaged", "records_dropped", "integrity_failures"),
        "durability: {records_salvaged} record(s) salvaged, "
        "{records_dropped} dropped, {integrity_failures} integrity failure(s)",
    ),
    (
        (
            "breaker_opens",
            "breaker_half_opens",
            "breaker_restores",
            "rerouted",
        ),
        "supervision: {breaker_opens} breaker open(s), {breaker_half_opens} "
        "half-open probe window(s), {breaker_restores} restore(s), "
        "{rerouted} rerouted",
    ),
    (
        ("drain_flushed", "drain_shed"),
        "drain: {drain_flushed} flushed, {drain_shed} shed",
    ),
)


def percentile(samples: Sequence[float], fraction: float) -> float:
    """The ``fraction``-quantile of ``samples`` (nearest-rank).

    ``fraction`` is in [0, 1].  Returns ``0.0`` for an empty sequence
    so dashboards render before the first request.
    """
    if not samples:
        return 0.0
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    return sorted(samples)[_rank(len(samples), fraction)]


def _rank(count: int, fraction: float) -> int:
    """The 0-based nearest rank of the ``fraction``-quantile of
    ``count`` samples."""
    return min(count - 1, max(0, round(fraction * count) - 1))


class LatencyHistogram:
    """Latencies in fixed logarithmic buckets (not thread-safe).

    A positive latency ``m * 2**e`` (:func:`math.frexp`, ``m`` in
    [0.5, 1)) goes to the bucket of its exponent ``e`` and of the step
    of ``m`` among :data:`STEPS` equal steps of [0.5, 1); a zero latency
    has its own bucket, which sorts first.  Each bucket keeps its count
    and its largest sample.  The exact maximum and the sum, in arrival
    order, are kept beside.
    """

    __slots__ = ("buckets", "count", "total", "max")

    def __init__(self) -> None:
        #: Bucket index -> ``[count, largest sample]``; indices sort as
        #: their latencies do.
        self.buckets: dict[int, list] = {}
        self.count = 0
        self.total = 0.0
        self.max = 0.0

    def add(self, latency: float) -> None:
        """Count one latency: a finite float >= 0, else ValueError."""
        if not 0.0 <= latency < math.inf:
            raise ValueError(
                f"latency must be finite and >= 0, got {latency!r}"
            )
        if latency:
            mantissa, exponent = math.frexp(latency)
            index = exponent * STEPS + int(mantissa * (2 * STEPS))
        else:
            index = _ZERO_BUCKET
        bucket = self.buckets.get(index)
        if bucket is None:
            self.buckets[index] = [1, latency]
        else:
            bucket[0] += 1
            if latency > bucket[1]:
                bucket[1] = latency
        self.count += 1
        self.total += latency
        if latency > self.max:
            self.max = latency

    def merge(self, other: "LatencyHistogram") -> None:
        """Add ``other``'s samples: counts add, maxima take the max.
        (The sums add too, so a merged mean can differ in its last bits
        from the mean of every sample summed in arrival order.)"""
        for index, (count, largest) in other.buckets.items():
            bucket = self.buckets.setdefault(index, [0, largest])
            bucket[0] += count
            bucket[1] = max(bucket[1], largest)
        self.count += other.count
        self.total += other.total
        self.max = max(self.max, other.max)

    def percentiles(self, fractions: Sequence[float]) -> list[float]:
        """The nearest-rank ``fractions``-quantiles (ascending), each
        the largest sample of the bucket holding its rank; ``0.0`` each
        when empty."""
        if not self.count:
            return [0.0] * len(fractions)
        ranks = [_rank(self.count, fraction) for fraction in fractions]
        found: list[float] = []
        seen = 0
        for index in sorted(self.buckets):
            count, largest = self.buckets[index]
            seen += count
            while len(found) < len(ranks) and ranks[len(found)] < seen:
                found.append(largest)
        return found


class ServiceMetrics:
    """Thread-safe counters + latency histogram for one controller."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._latencies = LatencyHistogram()
        self._counts = dict.fromkeys((name for name, _ in COUNTERS), 0)

    # ------------------------------------------------------------------
    # Recording (hot path)
    # ------------------------------------------------------------------
    def record(
        self,
        *,
        admitted: bool,
        cache_hit: bool,
        latency: float,
        region_hit: bool = False,
    ) -> None:
        """Account one served admission.

        A ``region_hit`` admission was served by the region tier: it
        counts as a request (and into ``region_hits`` through
        :meth:`count`) but as neither a decision-cache hit nor miss, so
        the decision-cache hit rate keeps its meaning.
        """
        with self._lock:
            self._latencies.add(latency)  # first: a bad latency raises
            counts = self._counts
            counts["requests"] += 1
            if not region_hit:
                counts["cache_hits" if cache_hit else "cache_misses"] += 1
            counts["admitted" if admitted else "rejected"] += 1

    def count(self, **increments: int) -> None:
        """Add each ``name=amount`` to its counter, under one lock.

        Raises :class:`KeyError`, changing nothing, for a name not in
        :data:`COUNTERS`: a misspelt counter fails instead of appearing.
        """
        with self._lock:
            counts = self._counts
            for name in increments:
                if name not in counts:
                    raise KeyError(f"unknown counter {name!r}")
            for name, amount in increments.items():
                counts[name] += amount

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def latencies(self) -> LatencyHistogram:
        """A copy of the latency histogram of every recorded admission."""
        copied = LatencyHistogram()
        with self._lock:
            copied.merge(self._latencies)
        return copied

    def snapshot(self) -> dict[str, Any]:
        """All counters plus p50/p90/p99/p999/max/mean latency, in
        seconds (see :class:`LatencyHistogram` for what a percentile
        reports)."""
        with self._lock:
            counters: dict[str, Any] = dict(self._counts)
            latencies = self._latencies
            values = latencies.percentiles(
                [fraction for _name, fraction in _PERCENTILES]
            )
            peak, total, count = (
                latencies.max,
                latencies.total,
                latencies.count,
            )
        counters["hit_rate"] = (
            counters["cache_hits"] / counters["requests"]
            if counters["requests"]
            else 0.0
        )
        for (name, _fraction), value in zip(_PERCENTILES, values):
            counters[f"latency_{name}"] = value
        counters["latency_max"] = peak
        counters["latency_mean"] = total / count if count else 0.0
        return counters

    def describe(self) -> str:
        """A compact multi-line report for CLI ``--stats`` output."""
        snap = self.snapshot()
        lines = [
            (
                f"admissions: {snap['requests']} requests, "
                f"{snap['admitted']} admitted, "
                f"{snap['rejected']} rejected"
            ),
            (
                f"cache: {snap['cache_hits']} hits, "
                f"{snap['cache_misses']} misses "
                f"(rate {snap['hit_rate']:.1%})"
            ),
            (
                f"latency: p50 {snap['latency_p50'] * 1e3:.3f} ms, "
                f"p90 {snap['latency_p90'] * 1e3:.3f} ms, "
                f"p99 {snap['latency_p99'] * 1e3:.3f} ms, "
                f"p999 {snap['latency_p999'] * 1e3:.3f} ms, "
                f"max {snap['latency_max'] * 1e3:.3f} ms"
            ),
        ]
        lines += [
            template.format(**snap)
            for gate, template in _OPTIONAL_LINES
            if any(snap[name] for name in gate)
        ]
        return "\n".join(lines)
