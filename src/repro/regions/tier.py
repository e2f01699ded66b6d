"""The region tier: shape-cached O(1) admission above the decision cache.

Where the decision cache answers "have I seen this *exact* request?",
the region tier answers "have I seen this request's *shape*?" -- and if
the shape's feasibility region is cached and the request's execution
vector lands inside every verified box its protocols need, the tier
synthesizes an ADMIT without running any analysis: a hash, a store
lookup, and a componentwise ``<=``.

Soundness contract (see :mod:`repro.regions.region`):

* a region-tier decision is served **only** when every requested
  protocol's verdict is fully determined -- shape-gated False (PM under
  skewed clocks, MPM/RG on a sectioned shape under skew) or
  point-inside-the-verified-box True.  Any protocol whose verdict would
  require an analysis the region does not cover, or whose box does not
  cover the point, makes the whole lookup a *fallback*: the caller
  proceeds to the decision cache / direct analysis exactly as if the
  tier did not exist.  The tier can therefore cause extra work never
  skipped work: no unsound ACCEPT is constructible.
* consequently the tier only serves ADMITs (and the degenerate
  all-shape-gated REJECT, which needs no analysis at all); genuine
  REJECTs always fall through to direct analysis.

Region-backed decisions differ from computed ones in documented ways:
``task_bounds`` is empty and ``worst_bound_ratio`` is ``inf`` (no
analysis ran, so there are no bounds), the protocol is chosen by the
service's fallback order (the advisor needs analysis results), and
``margins`` reports the per-dimension growth headroom -- how much each
``C_i,j`` can grow before admission falls back to direct analysis.
They are *not* inserted into the decision cache.

Building is driven by :meth:`RegionTier.observe`: the controller calls
it after every direct computation, and once a shape has been computed
``build_threshold`` times the tier pays the (counted, amortizable)
probe cost to build and store the region.  Both entry points take the
request's :func:`~repro.service.hashing.walk_request` from the caller,
which already walked the system to key it, so the tier never walks the
system itself.
"""

from __future__ import annotations

import functools
import math
import threading
from typing import Callable

from repro.regions.compute import (
    DEFAULT_MAX_FACTOR,
    DEFAULT_TOLERANCE,
    compute_region,
    required_analyses,
)
from repro.regions.region import FeasibilityRegion
from repro.regions.store import MemoryRegionStore
from repro.service.engine import FALLBACK_ORDER, certifying_analysis
from repro.service.store import CacheStats
from repro.service.hashing import RequestWalk, request_key, walk_request
from repro.service.requests import AdmissionDecision, AdmissionRequest
from repro.timebase import get_timebase

__all__ = ["RegionTier"]


class RegionTier:
    """Shape-region cache tier for admission controllers and frontends.

    Parameters
    ----------
    store:
        A region store (:class:`repro.regions.store.MemoryRegionStore`
        or :class:`~repro.regions.store.SqliteRegionStore`; the
        admission controller builds it from configuration).  Omit for
        a fresh in-process store of the default capacity.
    build_threshold:
        Number of direct computations of one shape before the tier
        builds its region (1 = build on first sight; higher thresholds
        only pay the build cost for demonstrably repeating shapes).
    tolerance / max_factor / ascent_rounds:
        Passed to :func:`repro.regions.compute.compute_region`.
    timebase:
        Arithmetic backend for region construction and lookup.  The
        service computes decisions under the default float backend, so
        controllers leave this at ``None``; stored regions from another
        backend are never consulted.
    metrics:
        An optional :class:`repro.service.metrics.ServiceMetrics`;
        lookups and builds account into its region counters.
    """

    def __init__(
        self,
        store=None,
        *,
        build_threshold: int = 2,
        tolerance: float = DEFAULT_TOLERANCE,
        max_factor: float = DEFAULT_MAX_FACTOR,
        ascent_rounds: int = 1,
        timebase=None,
        metrics=None,
    ) -> None:
        if build_threshold < 1:
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"build_threshold must be >= 1, got {build_threshold}"
            )
        self.store = store if store is not None else MemoryRegionStore()
        self.build_threshold = build_threshold
        self.tolerance = tolerance
        self.max_factor = max_factor
        self.ascent_rounds = ascent_rounds
        self.timebase = get_timebase(timebase)
        self.metrics = metrics
        self._lock = threading.Lock()
        self._seen: dict[str, int] = {}
        self._building: set[str] = set()

    # ------------------------------------------------------------------
    # Lookup (hot path)
    # ------------------------------------------------------------------
    def lookup(
        self,
        request: AdmissionRequest,
        *,
        key: str | None = None,
        walk: RequestWalk | None = None,
    ) -> AdmissionDecision | None:
        """A region-backed decision, or None to fall back.

        ``key`` (the request's decision-cache content key, echoed on the
        decision) and ``walk`` (its
        :func:`~repro.service.hashing.walk_request`) are the caller's
        when it already holds them; either is derived when omitted.
        """
        if walk is None:
            walk = walk_request(request)
        region = self.store.get(walk.shape_key)
        decision = None
        if region is None:
            outcome = "region_misses"
        elif region.timebase != self.timebase.name:
            outcome = "region_fallbacks"
        else:
            decision = self._decide(request, region, walk, key)
            outcome = "region_fallbacks" if decision is None else "region_hits"
        if self.metrics is not None:
            self.metrics.count(**{outcome: 1})
        return decision

    def _decide(
        self,
        request: AdmissionRequest,
        region: FeasibilityRegion,
        walk: RequestWalk,
        key: str | None,
    ) -> AdmissionDecision | None:
        point = tuple(self.timebase.convert(e) for e in walk.vector)
        if len(point) != len(region.dimensions):
            return None  # foreign region; never guess
        needed = required_analyses(request)
        for analysis in needed:
            if not region.covers(analysis, point):
                return None
        # Every needed analysis covers the point: each protocol with a
        # certifying analysis is schedulable, every shape-gated one is
        # False by shape alone -- the verdict map is fully determined.
        schedulable = {
            protocol: certifying_analysis(request, protocol) is not None
            for protocol in request.protocols
        }
        certified = [p for p in request.protocols if schedulable[p]]
        if certified:
            protocol = next(p for p in FALLBACK_ORDER if p in certified)
            rationale = (
                f"region tier: execution vector inside the verified "
                f"{' + '.join(needed) if needed else 'trivial'} box of shape "
                f"{region.shape_key[:12]} (schedulable by monotonicity "
                f"from the region corner); {protocol} chosen by fallback "
                f"order"
            )
        else:
            protocol = None
            rationale = (
                "region tier: every requested protocol is excluded by the "
                "shape alone (no analysis needed)"
            )
        margins = {
            analysis: dict(
                zip(
                    region.dimensions,
                    region.margins(analysis, point),
                )
            )
            for analysis in needed
        }
        return AdmissionDecision(
            admitted=bool(certified),
            protocol=protocol,
            rationale=rationale,
            schedulable=schedulable,
            task_bounds={},
            worst_bound_ratio=math.inf,
            key=key if key is not None else request_key(walk.document),
            system_name=request.system.name,
            request_id=request.request_id,
            margins=margins,
        )

    # ------------------------------------------------------------------
    # Building (miss path)
    # ------------------------------------------------------------------
    def observe(
        self, request: AdmissionRequest, walk: RequestWalk | None = None
    ) -> Callable[[], FeasibilityRegion] | None:
        """Count one direct computation of this request's shape.

        Returns the shape's build when it is due -- the shape has now
        been seen ``build_threshold`` times, is not stored, and no
        other build of it is running -- and None otherwise.  Counting
        is cheap and runs wherever the caller is; the returned build
        (claimed for the caller, so no other build of the shape starts
        until it finishes) is the expensive part, which the caller runs
        where it likes: inline, or off the event loop as
        :meth:`~repro.service.engine.AdmissionController.decide_miss`
        does.  It stores and returns the region.  ``walk`` is the
        request's :func:`~repro.service.hashing.walk_request` when the
        caller holds it.
        """
        skey = (walk if walk is not None else walk_request(request)).shape_key
        with self._lock:
            count = self._seen.get(skey, 0) + 1
            self._seen[skey] = count
            if len(self._seen) > 4 * self.store.capacity:
                self._seen.pop(next(iter(self._seen)))
            if count < self.build_threshold or skey in self._building:
                return None
            if skey in self.store:
                return None
            self._building.add(skey)
        return functools.partial(self._build_claimed, request, skey)

    def _build_claimed(
        self, request: AdmissionRequest, skey: str
    ) -> FeasibilityRegion:
        try:
            return self.build(request)
        finally:
            with self._lock:
                self._building.discard(skey)

    def build(self, request: AdmissionRequest) -> FeasibilityRegion:
        """Unconditionally build, store and return the shape's region."""
        region = compute_region(
            request,
            timebase=self.timebase,
            tolerance=self.tolerance,
            max_factor=self.max_factor,
            ascent_rounds=self.ascent_rounds,
        )
        self.store.put(region.shape_key, region)
        if self.metrics is not None:
            self.metrics.count(region_builds=1, region_probes=region.probes)
        return region

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the underlying store (flushes file-backed stores)."""
        self.store.close()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def stats(self) -> CacheStats:
        """The underlying store's counters."""
        return self.store.stats()

    def describe(self) -> str:
        stats = self.stats()
        return (
            f"regions: {stats.size}/{stats.capacity} shapes, "
            f"{stats.hits} hits / {stats.misses} misses "
            f"(rate {stats.hit_rate:.1%}), {stats.evictions} evictions"
        )
