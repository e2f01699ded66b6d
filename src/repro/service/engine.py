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

import asyncio
import time
from dataclasses import replace
from typing import Iterable, Sequence

from repro.advisor import recommend_protocol
from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.analysis.skew import analyze_sa_pm_skewed
from repro.locks import analyze_sa_ds_blocking, analyze_sa_pm_blocking
from repro.model.system import System
from repro.service.backends import DECISION_STORES
from repro.service.cache import CacheStats, DecisionCache, SingleFlight
from repro.service.hashing import RequestWalk, request_key, walk_request
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionDecision, AdmissionRequest
from repro.service.store import make_store

__all__ = [
    "AdmissionController",
    "FALLBACK_ORDER",
    "certifying_analysis",
    "compute_decision",
]

#: Fallback preference when the advisor's pick is unavailable: Theorem 1
#: gives RG and MPM SA/PM-grade bounds with the fewest platform
#: assumptions; DS last because its certification is the weakest.
FALLBACK_ORDER: tuple[str, ...] = ("RG", "MPM", "PM", "DS")


def certifying_analysis(
    request: AdmissionRequest, protocol: str
) -> str | None:
    """The analysis whose verdict certifies ``protocol`` for ``request``.

    ``"SA/DS"``, ``"SA/PM"`` or ``"SA/PM-skew"``; ``None`` when the
    request's shape alone excludes the protocol, which then never
    certifies.  :func:`compute_decision` and the region tier
    (:mod:`repro.regions`) both read their gates from here.
    """
    if protocol == "DS":
        # DS has no timers at all; clock quality is irrelevant.
        return "SA/DS"
    skewed = bool(request.clock_rate_bound or request.clock_jump_bound)
    if protocol == "PM":
        # PM's phase table is an absolute local-time schedule:
        # unsynchronized clocks break it outright, and even a bounded
        # skew envelope has no covering analysis (the clock study shows
        # offset clocks inducing misses and precedence violations).
        if request.synchronized_clocks and not skewed:
            return "SA/PM"
        return None
    # MPM / RG measure durations: under a declared skew envelope the
    # skew-inflated bounds certify them -- except on a system with
    # critical sections, where no analysis composes the skew inflation
    # with the blocking terms; that combination is uncertifiable.
    if not skewed:
        return "SA/PM"
    if request.shared_resources and request.system.has_critical_sections:
        return None
    return "SA/PM-skew"


def compute_decision(
    request: AdmissionRequest, *, key: str | None = None
) -> AdmissionDecision:
    """Decide one request from scratch (no cache involved).

    Deterministic: equal request content always produces an equal
    decision, which is what makes the content-hash cache sound.  The
    base analyses share one compilation of the system.
    """
    system = request.system
    compiled = None
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
        compiled = CompiledSystem(system)
        sa_pm = analyze_sa_pm(system, compiled=compiled)
        sa_ds = analyze_sa_ds(
            system,
            max_iterations=request.sa_ds_max_iterations,
            compiled=compiled,
        )
    per_analysis = {"SA/PM": sa_pm, "SA/DS": sa_ds}
    skewed_clocks = bool(
        request.clock_rate_bound or request.clock_jump_bound
    )
    resourceful = (
        request.shared_resources and system.has_critical_sections
    )
    if skewed_clocks and not resourceful:
        # Run for every request with a skew envelope, whatever it asks
        # for: its bounds are part of the decision's ``task_bounds``.
        per_analysis["SA/PM-skew"] = analyze_sa_pm_skewed(
            system,
            rate=request.clock_rate_bound,
            jump=request.clock_jump_bound,
            compiled=compiled,
        )

    def _certifies(protocol: str) -> bool:
        analysis = certifying_analysis(request, protocol)
        return analysis is not None and per_analysis[analysis].schedulable

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
        protocol = next(p for p in FALLBACK_ORDER if p in certified)
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
    :meth:`close` closes what the controller built.  It is also the one
    place the tier order is written: :meth:`lookup` (cache, then
    :meth:`regional`) and :meth:`decide_miss` (single-flight, compute,
    cache, publish, observe), which :meth:`admit`, :meth:`admit_batch`
    and the frontend run.
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
                self.metrics.count(
                    records_salvaged=report.salvaged,
                    records_dropped=report.dropped,
                )
            self.metrics.count(integrity_failures=store.integrity_failures)

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
        """Decide one request through :meth:`lookup`, else inline.

        The request is keyed by one :func:`walk_request`, which the
        tiers reuse.  A miss runs :func:`compute_decision` right here --
        no event loop, no thread hop, no flight claim -- then lands in
        the decision cache and is observed by the region tier, whose
        due build also runs here, as :meth:`decide_miss` would do it.
        """
        started = time.perf_counter()
        walk = walk_request(request)
        key = request_key(walk.document)
        found = self.lookup(request, key, walk)
        if found is None:
            decision = compute_decision(request, key=key)
            source = "computed"
            if self.cache is not None:
                self.cache.put(key, decision)
            if self.regions is not None:
                build = self.regions.observe(request, walk)
                if build is not None:
                    build()
        else:
            decision, source = found
            if source == "cache":
                decision = replace(decision, request_id=request.request_id)
        self.metrics.record(
            admitted=decision.admitted,
            cache_hit=source == "cache",
            region_hit=source == "region",
            latency=time.perf_counter() - started,
        )
        return decision

    def admit_system(self, system: System, **options) -> AdmissionDecision:
        """Decide a bare system with request options as keywords."""
        return self.admit(AdmissionRequest(system=system, **options))

    # ------------------------------------------------------------------
    # The admission pipeline
    # ------------------------------------------------------------------
    def lookup(
        self,
        request: AdmissionRequest,
        key: str,
        walk: RequestWalk | None = None,
    ) -> tuple[AdmissionDecision, str] | None:
        """(decision, ``"cache"`` or ``"region"``), or None on a miss.

        The decision cache first (exact-request hits are the
        cheapest), then :meth:`regional`.  Each tier is asked once and
        counts one lookup.  A cached decision still carries the request
        id it was computed under.
        """
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return cached, "cache"
        return self.regional(request, key, walk)

    def regional(
        self,
        request: AdmissionRequest,
        key: str,
        walk: RequestWalk | None = None,
    ) -> tuple[AdmissionDecision, str] | None:
        """(decision, ``"region"``) from the region tier, or None.

        The second tier of :meth:`lookup`, for a caller that already
        missed the decision cache.  A shape hit answers analysis-free
        for any execution vector inside the verified box.
        Region-backed decisions carry no bounds and a tier-specific
        rationale, so they never enter the cache.  ``walk`` is the
        request's :func:`walk_request`, derived when omitted.
        """
        if self.regions is not None:
            regional = self.regions.lookup(request, key=key, walk=walk)
            if regional is not None:
                return regional, "region"
        return None

    async def decide_miss(
        self,
        request: AdmissionRequest,
        key: str,
        compute,
        walk: RequestWalk | None = None,
    ) -> tuple[AdmissionDecision, float, bool, str]:
        """(decision, seconds, degraded?, source) for a :meth:`lookup` miss.

        Claims ``key`` at the cache's single-flight table.  A follower
        waits off the event loop and returns the leader's outcome,
        degraded or not, as ``"coalesced"``; if the leader published
        nothing, it computes for itself.  Computing awaits
        ``compute(key, request)``, the caller's
        :func:`~repro.service.batch.compute_miss` on its own pool, and
        returns ``"computed"``.  The decision is cached *before* the
        flight is published, so a caller arriving in between finds one
        or the other.  The region tier then observes the request right
        here on the event loop (a count under a lock, reusing ``walk``,
        the request's :func:`walk_request`, when given); only a build
        that the observation makes due leaves the loop, through
        :func:`asyncio.to_thread`, and it is awaited, so it lands before
        this returns.  Degraded decisions are neither cached nor
        observed.
        """
        flights = self.cache.flights if self.cache is not None else None
        leading = False
        if flights is not None:
            leading, flight = flights.begin(key)
            if not leading:
                started = time.perf_counter()
                decision, degraded = await asyncio.to_thread(
                    SingleFlight.wait, flight
                )
                if decision is not None:
                    elapsed = time.perf_counter() - started
                    return decision, elapsed, degraded, "coalesced"
        try:
            decision, elapsed, degraded = await compute(key, request)
            if self.cache is not None and not degraded:
                self.cache.put(key, decision)
            if leading:
                leading = False
                flights.finish(key, decision, degraded=degraded)
            if self.regions is not None and not degraded:
                build = self.regions.observe(request, walk)
                if build is not None:
                    await asyncio.to_thread(build)
            return decision, elapsed, degraded, "computed"
        finally:
            if leading:  # never published: followers compute for themselves
                flights.finish(key, None)

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
        cache, region tier and metrics are shared with the batch (so
        its timeout, retry and degraded counters land here too).
        """
        from repro.service.batch import decide_batch

        return decide_batch(
            self,
            requests,
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
