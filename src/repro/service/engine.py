"""The admission controller: analyses + advisor behind a cache.

:func:`compute_decision` is the pure decision procedure -- one SA/PM
run, one SA/DS run (the blocking-aware variants when the request
declares shared resources), a skew-inflated SA/PM run when the request
declares a clock-quality envelope, the Section 6 advisor on top -- and
:class:`AdmissionController` wraps it with content-hash memoization
(:mod:`repro.service.cache`) and observability
(:mod:`repro.service.metrics`).  The controller is what a long-running
service instantiates once and feeds every incoming request.
"""

from __future__ import annotations

import time
from dataclasses import replace
from typing import Iterable, Sequence

from repro.advisor import recommend_protocol
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.analysis.skew import analyze_sa_pm_skewed
from repro.locks import analyze_sa_ds_blocking, analyze_sa_pm_blocking
from repro.model.system import System
from repro.service.backends import DECISION_STORES
from repro.service.cache import CacheStats, DecisionCache
from repro.service.hashing import request_key
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionDecision, AdmissionRequest
from repro.service.store import make_store

__all__ = ["AdmissionController", "compute_decision"]

#: Fallback preference when the advisor's pick is unavailable: Theorem 1
#: gives RG and MPM SA/PM-grade bounds with the fewest platform
#: assumptions; DS last because its certification is the weakest.
_FALLBACK_ORDER: tuple[str, ...] = ("RG", "MPM", "PM", "DS")


def compute_decision(
    request: AdmissionRequest, *, key: str | None = None
) -> AdmissionDecision:
    """Decide one request from scratch (no cache involved).

    Deterministic: equal request content always produces an equal
    decision, which is what makes the content-hash cache sound.
    """
    system = request.system
    if request.shared_resources:
        # Blocking-aware variants: remote blocking, agent interference
        # and suspension-as-jitter deferrals under DPCP.  On a
        # section-free system they return the base results exactly, so
        # a platform merely *declaring* contention decides identically.
        sa_pm = analyze_sa_pm_blocking(system)
        sa_ds = analyze_sa_ds_blocking(
            system, max_iterations=request.sa_ds_max_iterations
        )
    else:
        sa_pm = analyze_sa_pm(system)
        sa_ds = analyze_sa_ds(
            system, max_iterations=request.sa_ds_max_iterations
        )
    per_analysis = {"SA/PM": sa_pm, "SA/DS": sa_ds}
    skewed_clocks = bool(
        request.clock_rate_bound or request.clock_jump_bound
    )
    resourceful = (
        request.shared_resources and system.has_critical_sections
    )
    sa_pm_skew = None
    if skewed_clocks and not resourceful:
        sa_pm_skew = analyze_sa_pm_skewed(
            system,
            rate=request.clock_rate_bound,
            jump=request.clock_jump_bound,
        )
        per_analysis["SA/PM-skew"] = sa_pm_skew

    def _certifies(protocol: str) -> bool:
        if protocol == "DS":
            # DS has no timers at all; clock quality is irrelevant.
            return sa_ds.schedulable
        if protocol == "PM":
            # PM's phase table is an absolute local-time schedule:
            # unsynchronized clocks break it outright, and even a
            # bounded skew envelope has no covering analysis (the
            # clock study shows offset clocks inducing misses and
            # precedence violations).
            return (
                sa_pm.schedulable
                and request.synchronized_clocks
                and not skewed_clocks
            )
        # MPM / RG measure durations: under a declared skew envelope
        # the skew-inflated bounds certify them -- except on a system
        # with critical sections, where no analysis composes the skew
        # inflation with the blocking terms; that combination is
        # uncertifiable outright.
        if skewed_clocks and resourceful:
            return False
        if sa_pm_skew is not None:
            return sa_pm_skew.schedulable
        return sa_pm.schedulable

    schedulable = {
        protocol: _certifies(protocol) for protocol in request.protocols
    }
    recommendation = recommend_protocol(
        system,
        jitter_sensitive=request.jitter_sensitive,
        wcets_trusted=request.wcets_trusted,
        clock_sync_available=request.clock_sync_available,
        strictly_periodic_arrivals=request.strictly_periodic_arrivals,
        # The advisor treats this as a veto: clocks must be claimed
        # available *and* actually synchronized (no declared skew)
        # before PM is ever recommended.
        synchronized_clocks=(
            request.clock_sync_available
            and request.synchronized_clocks
            and not skewed_clocks
        ),
        shared_resources=request.shared_resources,
        sa_pm=sa_pm,
        sa_ds=sa_ds,
    )
    certified = [p for p in request.protocols if schedulable[p]]
    if not certified:
        protocol = None
        rationale = (
            "no requested protocol certifies every deadline "
            f"(requested: {', '.join(request.protocols)})"
        )
    elif recommendation.protocol in certified:
        protocol = recommendation.protocol
        rationale = recommendation.rationale
    else:
        protocol = next(p for p in _FALLBACK_ORDER if p in certified)
        reason = (
            "is not among the requested protocols"
            if recommendation.protocol not in request.protocols
            else "does not certify every deadline here"
        )
        rationale = (
            f"advisor preferred {recommendation.protocol} but it "
            f"{reason}; falling back to {protocol}, the strongest "
            "certified requested protocol"
        )
    return AdmissionDecision(
        admitted=bool(certified),
        protocol=protocol,
        rationale=rationale,
        schedulable=schedulable,
        task_bounds={
            name: tuple(result.task_bounds)
            for name, result in per_analysis.items()
        },
        worst_bound_ratio=recommendation.worst_bound_ratio,
        key=key if key is not None else request_key(request),
        system_name=system.name,
        request_id=request.request_id,
    )


class AdmissionController:
    """Schedulability-as-a-service: decide, memoize, observe.

    Parameters
    ----------
    cache:
        A :class:`DecisionCache` to memoize through.  Omit for a fresh
        cache built from ``cache_backend``.
    metrics:
        A :class:`ServiceMetrics` to account into; a fresh one is made
        when omitted.
    cache_backend / cache_capacity / cache_path / fsync:
        When no ``cache`` is given, the backend to build: ``"memory"``
        (in-process LRU; ``cache_path`` is its JSONL snapshot),
        ``"sqlite"`` (WAL-mode store at ``cache_path``, shareable
        across controllers) or ``None`` to always recompute (the
        decisions are identical either way).  See
        :func:`repro.service.store.make_store`.
    region_backend / region_capacity / region_path /
    region_build_threshold:
        The optional region tier (:class:`repro.regions.tier.RegionTier`)
        *above* the decision cache: a ``shape_hash -> feasibility
        region`` store that serves repeat-shape admissions analysis-free
        (see :mod:`repro.regions`).  ``region_backend=None`` (the
        default) disables the tier entirely, preserving historical
        behavior byte for byte; ``"memory"``/``"sqlite"`` enable it.
        A prebuilt tier can be passed as ``region_tier`` instead.

    The controller is the one place stores are built, health-checked
    and closed: the sharded frontend holds one over its aggregate
    metrics.  Recovery damage found while opening a store (a salvaged
    snapshot, a quarantined database) is recorded in ``metrics``;
    :meth:`close` closes what the controller built.
    """

    def __init__(
        self,
        cache: DecisionCache | None = None,
        *,
        metrics: ServiceMetrics | None = None,
        cache_backend: str | None = "memory",
        cache_capacity: int = 4096,
        cache_path=None,
        fsync: str = "data",
        region_tier=None,
        region_backend: str | None = None,
        region_capacity: int = 1024,
        region_path=None,
        region_build_threshold: int = 2,
    ) -> None:
        self._owns_cache = False
        self._owns_regions = False
        if cache is None and cache_backend is not None:
            cache = make_store(
                DECISION_STORES,
                cache_backend,
                capacity=cache_capacity,
                path=cache_path,
                fsync=fsync,
            )
            self._owns_cache = True
        self.cache = cache
        self.metrics = metrics if metrics is not None else ServiceMetrics()
        if region_tier is None and region_backend is not None:
            from repro.regions.store import REGION_STORES
            from repro.regions.tier import RegionTier

            region_tier = RegionTier(
                make_store(
                    REGION_STORES,
                    region_backend,
                    capacity=region_capacity,
                    path=region_path,
                    fsync=fsync,
                ),
                build_threshold=region_build_threshold,
                metrics=self.metrics,
            )
            self._owns_regions = True
        elif region_tier is not None and region_tier.metrics is None:
            region_tier.metrics = self.metrics
        self.regions = region_tier
        # Surface warm-start damage (salvage/quarantine) in metrics.
        for store in (
            self.cache,
            self.regions.store if self.regions is not None else None,
        ):
            if store is None:
                continue
            report = store.last_recovery
            if report is not None and not report.clean:
                self.metrics.record_recovery(
                    salvaged=report.salvaged, dropped=report.dropped
                )
            if store.integrity_failures:
                self.metrics.record_integrity_failure(store.integrity_failures)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close backends this controller built (idempotent).

        File-backed stores flush their snapshots; ``try/finally`` so a
        cache-close failure cannot leak the region store's connection.
        Caller-passed backends are the caller's to close.
        """
        try:
            if self._owns_cache:
                self.cache.close()
        finally:
            if self._owns_regions:
                self.regions.close()

    def __enter__(self) -> "AdmissionController":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Single admissions
    # ------------------------------------------------------------------
    def admit(self, request: AdmissionRequest) -> AdmissionDecision:
        """Decide one request: decision cache, region tier, then compute.

        The decision cache is consulted first (exact-request hits are
        the cheapest), the region tier second (a shape hit answers
        analysis-free for any execution vector inside the verified
        box), and only then does the full analysis run -- after which
        the region tier *observes* the shape so repeating shapes earn
        a region.  Region-backed decisions are never inserted into the
        decision cache (they carry no bounds and a tier-specific
        rationale).
        """
        started = time.perf_counter()
        key = request_key(request)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                decision = replace(cached, request_id=request.request_id)
                self.metrics.record(
                    admitted=decision.admitted,
                    cache_hit=True,
                    latency=time.perf_counter() - started,
                )
                return decision
        if self.regions is not None:
            regional = self.regions.lookup(request, key=key)
            if regional is not None:
                self.metrics.record(
                    admitted=regional.admitted,
                    cache_hit=False,
                    region_hit=True,
                    latency=time.perf_counter() - started,
                )
                return regional
        decision = compute_decision(request, key=key)
        if self.cache is not None:
            self.cache.put(key, decision)
        if self.regions is not None:
            self.regions.observe(request)
        self.metrics.record(
            admitted=decision.admitted,
            cache_hit=False,
            latency=time.perf_counter() - started,
        )
        return decision

    def admit_system(self, system: System, **options) -> AdmissionDecision:
        """Decide a bare system with request options as keywords."""
        return self.admit(AdmissionRequest(system=system, **options))

    # ------------------------------------------------------------------
    # Batch admissions
    # ------------------------------------------------------------------
    def admit_batch(
        self,
        requests: Sequence[AdmissionRequest] | Iterable[AdmissionRequest],
        *,
        workers: int | None = None,
        progress=None,
        job_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff: float = 0.05,
    ) -> list[AdmissionDecision]:
        """Decide many requests, fanning misses over a process pool.

        See :func:`repro.service.batch.admit_batch`; this controller's
        cache and metrics are shared with the batch (so its timeout,
        retry and degraded counters land here too).
        """
        from repro.service.batch import admit_batch

        return admit_batch(
            requests,
            cache=self.cache,
            metrics=self.metrics,
            workers=workers,
            progress=progress,
            job_timeout=job_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )

    # ------------------------------------------------------------------
    # Observability passthroughs
    # ------------------------------------------------------------------
    def cache_stats(self) -> CacheStats | None:
        """The cache's counters, or None when caching is disabled."""
        return None if self.cache is None else self.cache.stats()

    def describe(self) -> str:
        """Metrics plus cache stats, for CLI ``--stats`` output."""
        lines = [self.metrics.describe()]
        stats = self.cache_stats()
        lines.append(
            stats.describe() if stats is not None else "cache: disabled"
        )
        if self.regions is not None:
            lines.append(self.regions.describe())
        return "\n".join(lines)
