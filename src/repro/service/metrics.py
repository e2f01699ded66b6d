"""Service-side observability: counters and latency percentiles.

:class:`ServiceMetrics` is deliberately dependency-free (no numpy): it
sits on the hot path of every admission, so recording must stay O(1)
and allocation-light.  Every counter is one row of :data:`COUNTERS`,
moved by :meth:`ServiceMetrics.record` or, by name, by
:meth:`ServiceMetrics.count`.  Latencies go into a bounded reservoir;
the percentile estimator sorts on demand (reads are rare, writes are
hot).
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

__all__ = ["COUNTERS", "ServiceMetrics", "percentile"]

#: Default bound on retained latency samples.  A full reservoir
#: overwrites its slots round-robin, so it holds a sliding window of
#: the most recent samples -- from the 2N-th sample on, exactly the
#: last N -- rather than a sample of the whole run.
_DEFAULT_RESERVOIR = 65536

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
    return _nearest_rank(sorted(samples), fraction)


def _nearest_rank(ordered: Sequence[float], fraction: float) -> float:
    """:func:`percentile` of samples already sorted and non-empty."""
    rank = min(len(ordered) - 1, max(0, round(fraction * len(ordered)) - 1))
    return ordered[rank]


class ServiceMetrics:
    """Thread-safe counters + latency reservoir for one controller."""

    def __init__(self, reservoir: int = _DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError(f"reservoir must be >= 1, got {reservoir}")
        self._lock = threading.Lock()
        self._reservoir = reservoir
        self._latencies: list[float] = []
        self._seen = 0
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
            counts = self._counts
            counts["requests"] += 1
            if not region_hit:
                counts["cache_hits" if cache_hit else "cache_misses"] += 1
            counts["admitted" if admitted else "rejected"] += 1
            self._seen += 1
            if len(self._latencies) < self._reservoir:
                self._latencies.append(latency)
            else:
                # Full: overwrite round-robin, keeping a sliding window
                # of the most recent samples.
                self._latencies[self._seen % self._reservoir] = latency

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
    def snapshot(self) -> dict[str, Any]:
        """All counters plus p50/p90/p99/max/mean latency, in seconds."""
        with self._lock:
            latencies = list(self._latencies)
            counters: dict[str, Any] = dict(self._counts)
        counters["hit_rate"] = (
            counters["cache_hits"] / counters["requests"]
            if counters["requests"]
            else 0.0
        )
        if not latencies:
            for name in ("p50", "p90", "p99", "p999", "max", "mean"):
                counters[f"latency_{name}"] = 0.0
            return counters
        # Summed in arrival order, so the mean keeps its bits.
        mean = sum(latencies) / len(latencies)
        latencies.sort()  # the copy: one sort serves every rank
        counters["latency_p50"] = _nearest_rank(latencies, 0.50)
        counters["latency_p90"] = _nearest_rank(latencies, 0.90)
        counters["latency_p99"] = _nearest_rank(latencies, 0.99)
        counters["latency_p999"] = _nearest_rank(latencies, 0.999)
        counters["latency_max"] = latencies[-1]
        counters["latency_mean"] = mean
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
