"""Service-side observability: counters and latency percentiles.

:class:`ServiceMetrics` is deliberately dependency-free (no numpy): it
sits on the hot path of every admission, so recording must stay O(1)
and allocation-light.  Latencies go into a bounded reservoir; the
percentile estimator sorts on demand (reads are rare, writes are hot).
"""

from __future__ import annotations

import threading
from typing import Any, Sequence

__all__ = ["ServiceMetrics", "percentile"]

#: Default bound on retained latency samples.  Beyond it the reservoir
#: degrades to keep-every-k-th sampling, which preserves the shape of
#: the distribution without unbounded growth.
_DEFAULT_RESERVOIR = 65536


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
        self._requests = 0
        self._hits = 0
        self._misses = 0
        self._admitted = 0
        self._rejected = 0
        self._timeouts = 0
        self._retries = 0
        self._degraded = 0
        self._shed = 0
        self._coalesced = 0
        self._pool_rebuilds = 0
        self._region_hits = 0
        self._region_misses = 0
        self._region_fallbacks = 0
        self._region_builds = 0
        self._region_probes = 0
        self._records_salvaged = 0
        self._records_dropped = 0
        self._integrity_failures = 0
        self._breaker_opens = 0
        self._breaker_half_opens = 0
        self._breaker_restores = 0
        self._rerouted = 0
        self._drain_flushed = 0
        self._drain_shed = 0

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
        counts as a request (and into ``region_hits`` via
        :meth:`record_region_hit`) but as neither a decision-cache hit
        nor miss, so the decision-cache hit rate keeps its meaning.
        """
        with self._lock:
            self._requests += 1
            if region_hit:
                pass
            elif cache_hit:
                self._hits += 1
            else:
                self._misses += 1
            if admitted:
                self._admitted += 1
            else:
                self._rejected += 1
            self._seen += 1
            if len(self._latencies) < self._reservoir:
                self._latencies.append(latency)
            else:
                # Deterministic decimation: keep every k-th overflow
                # sample by overwriting round-robin.
                self._latencies[self._seen % self._reservoir] = latency

    def record_timeout(self) -> None:
        """Account one admission computation abandoned at its deadline."""
        with self._lock:
            self._timeouts += 1

    def record_retry(self) -> None:
        """Account one resubmission of a failed or timed-out job."""
        with self._lock:
            self._retries += 1

    def record_degraded(self) -> None:
        """Account one decision degraded to a REJECT after retries ran out."""
        with self._lock:
            self._degraded += 1

    def record_shed(self) -> None:
        """Account one request shed by backpressure or quota (never served).

        Shed requests do *not* count into ``requests``: throughput is
        decisions actually served, and sheds are the explicit remainder.
        """
        with self._lock:
            self._shed += 1

    def record_coalesced(self) -> None:
        """Account one request served by another caller's in-flight compute."""
        with self._lock:
            self._coalesced += 1

    def record_pool_rebuild(self) -> None:
        """Account one worker-pool rebuild after a broken-pool event."""
        with self._lock:
            self._pool_rebuilds += 1

    def record_region_hit(self) -> None:
        """Account one admission served analysis-free by the region tier."""
        with self._lock:
            self._region_hits += 1

    def record_region_miss(self) -> None:
        """Account one lookup whose shape had no cached region."""
        with self._lock:
            self._region_misses += 1

    def record_region_fallback(self) -> None:
        """Account one lookup that found a region but fell back anyway
        (point outside a verified box, undetermined verdict, or a
        timebase mismatch) -- the explicit never-an-unsound-ACCEPT path."""
        with self._lock:
            self._region_fallbacks += 1

    def record_region_build(self, *, probes: int = 0) -> None:
        """Account one feasibility-region construction (and its probes)."""
        with self._lock:
            self._region_builds += 1
            self._region_probes += probes

    def record_recovery(self, *, salvaged: int = 0, dropped: int = 0) -> None:
        """Account one damaged-store load: records kept vs. discarded."""
        with self._lock:
            self._records_salvaged += salvaged
            self._records_dropped += dropped

    def record_integrity_failure(self, count: int = 1) -> None:
        """Account sqlite integrity-check failures (quarantine events)."""
        with self._lock:
            self._integrity_failures += count

    def record_breaker_open(self) -> None:
        """Account one shard breaker tripping open."""
        with self._lock:
            self._breaker_opens += 1

    def record_breaker_half_open(self) -> None:
        """Account one breaker entering its half-open probe window."""
        with self._lock:
            self._breaker_half_opens += 1

    def record_breaker_restore(self) -> None:
        """Account one breaker closing again after successful probes."""
        with self._lock:
            self._breaker_restores += 1

    def record_reroute(self) -> None:
        """Account one request routed around its open-breaker shard."""
        with self._lock:
            self._rerouted += 1

    def record_drain(self, *, flushed: int = 0, shed: int = 0) -> None:
        """Account queued jobs handled at shutdown: served vs. shed."""
        with self._lock:
            self._drain_flushed += flushed
            self._drain_shed += shed

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """All counters plus p50/p90/p99/max/mean latency, in seconds."""
        with self._lock:
            latencies = list(self._latencies)
            counters = {
                "requests": self._requests,
                "cache_hits": self._hits,
                "cache_misses": self._misses,
                "admitted": self._admitted,
                "rejected": self._rejected,
                "timeouts": self._timeouts,
                "retries": self._retries,
                "degraded": self._degraded,
                "shed": self._shed,
                "coalesced": self._coalesced,
                "pool_rebuilds": self._pool_rebuilds,
                "region_hits": self._region_hits,
                "region_misses": self._region_misses,
                "region_fallbacks": self._region_fallbacks,
                "region_builds": self._region_builds,
                "region_probes": self._region_probes,
                "records_salvaged": self._records_salvaged,
                "records_dropped": self._records_dropped,
                "integrity_failures": self._integrity_failures,
                "breaker_opens": self._breaker_opens,
                "breaker_half_opens": self._breaker_half_opens,
                "breaker_restores": self._breaker_restores,
                "rerouted": self._rerouted,
                "drain_flushed": self._drain_flushed,
                "drain_shed": self._drain_shed,
            }
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
        return "\n".join(
            [
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
            + (
                [
                    f"robustness: {snap['timeouts']} timeout(s), "
                    f"{snap['retries']} retry(ies), "
                    f"{snap['degraded']} degraded decision(s), "
                    f"{snap['pool_rebuilds']} pool rebuild(s)"
                ]
                if snap["timeouts"]
                or snap["retries"]
                or snap["degraded"]
                or snap["pool_rebuilds"]
                else []
            )
            + (
                [
                    f"backpressure: {snap['shed']} shed, "
                    f"{snap['coalesced']} coalesced"
                ]
                if snap["shed"] or snap["coalesced"]
                else []
            )
            + (
                [
                    f"regions: {snap['region_hits']} hits, "
                    f"{snap['region_misses']} misses, "
                    f"{snap['region_fallbacks']} fallbacks, "
                    f"{snap['region_builds']} builds "
                    f"({snap['region_probes']} probes)"
                ]
                if snap["region_hits"]
                or snap["region_misses"]
                or snap["region_fallbacks"]
                or snap["region_builds"]
                else []
            )
            + (
                [
                    f"durability: {snap['records_salvaged']} record(s) "
                    f"salvaged, {snap['records_dropped']} dropped, "
                    f"{snap['integrity_failures']} integrity failure(s)"
                ]
                if snap["records_salvaged"]
                or snap["records_dropped"]
                or snap["integrity_failures"]
                else []
            )
            + (
                [
                    f"supervision: {snap['breaker_opens']} breaker "
                    f"open(s), {snap['breaker_half_opens']} half-open "
                    f"probe window(s), {snap['breaker_restores']} "
                    f"restore(s), {snap['rerouted']} rerouted"
                ]
                if snap["breaker_opens"]
                or snap["breaker_half_opens"]
                or snap["breaker_restores"]
                or snap["rerouted"]
                else []
            )
            + (
                [
                    f"drain: {snap['drain_flushed']} flushed, "
                    f"{snap['drain_shed']} shed"
                ]
                if snap["drain_flushed"] or snap["drain_shed"]
                else []
            )
        )
