"""The sharded asyncio admission frontend: socket to decision.

This is the production shape of the admission service.  One process
runs one event loop; inside it,

* an :class:`AdmissionFrontend` accepts requests (from code, or from
  the JSONL-over-TCP server of :func:`serve_frontend`),
* per-tenant **token-bucket quotas** and per-shard **bounded queues**
  shed overload *explicitly* -- a shed is a first-class
  :class:`~repro.service.requests.AdmissionDecision` with rationale
  prefixed ``service shed:`` (the HTTP-429 of this API), never a
  silent drop, and never cached,
* N **worker shards** own disjoint slices of the keyspace via the
  consistent-hash ring of :mod:`repro.service.sharding`, routed on the
  request's content hash -- identical content always lands on the same
  shard, which keeps that shard's slice of the cache hot and lets the
  cache's single-flight table collapse concurrent duplicates,
* each shard computes misses on its own executor (``"thread"`` or
  ``"process"``; processes sidestep the GIL for CPU-bound analysis,
  threads are cheaper and overlap stall-bound work), policed by the
  same **retry-ladder / degraded-REJECT machinery** as the batch path:
  per-job timeout, ``max_retries`` with exponential backoff, a broken
  process pool rebuilt without charging the stranded job's budget, and
  a final fail-closed degraded REJECT,
* a shared :class:`~repro.service.metrics.ServiceMetrics` aggregate
  plus one per shard expose p50/p99/p999 latency, queue depth,
  shed/degraded/coalesced/cache-hit counters.

Decisions remain pure functions of request content, so the same
requests produce the same decisions for *any* shard count, executor
width, or cache backend -- the property tests assert exactly that.
"""

from __future__ import annotations

import asyncio
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import ConfigurationError, ReproError
from repro.service.batch import _compute_job, _degraded_decision
from repro.service.cache import SingleFlight
from repro.service.durability import FSYNC_POLICIES
from repro.service.engine import AdmissionController
from repro.service.hashing import request_key
from repro.service.metrics import ServiceMetrics
from repro.service.supervision import BreakerConfig, CircuitBreaker
from repro.service.requests import (
    AdmissionDecision,
    AdmissionRequest,
    decision_to_dict,
    decodes_verbatim,
    request_from_dict,
)
from repro.service.sharding import ShardRing
from repro.service.store import STORE_BACKENDS

__all__ = [
    "AdmissionFrontend",
    "DRAIN_MODES",
    "FrontendConfig",
    "TenantQuota",
    "serve_frontend",
]

#: Recognized shard executor kinds.
EXECUTORS: tuple[str, ...] = ("thread", "process")

#: What :meth:`AdmissionFrontend.stop` does with queued jobs:
#: ``"flush"`` serves them before teardown, ``"shed"`` resolves them
#: as explicit shed decisions immediately (fast stop, never silent).
DRAIN_MODES: tuple[str, ...] = ("flush", "shed")


def _shard_compute(job):
    """Shard worker body; module-level so process pools can pickle it.

    Indirection point: tests and benchmarks patch this to stage slow,
    crashing, or stall-bound decision computations.
    """
    return _compute_job(job)


@dataclass(frozen=True)
class TenantQuota:
    """A token bucket: sustained ``rate`` requests/s, ``burst`` depth."""

    rate: float
    burst: float

    def __post_init__(self) -> None:
        if self.rate <= 0 or not math.isfinite(self.rate):
            raise ConfigurationError(
                f"quota rate must be finite and > 0, got {self.rate!r}"
            )
        if self.burst < 1 or not math.isfinite(self.burst):
            raise ConfigurationError(
                f"quota burst must be finite and >= 1, got {self.burst!r}"
            )


class _TokenBucket:
    """Classic leaky-bucket admission meter (clock injectable)."""

    __slots__ = ("quota", "tokens", "last", "_clock")

    def __init__(
        self, quota: TenantQuota, clock: Callable[[], float]
    ) -> None:
        self.quota = quota
        self.tokens = quota.burst
        self._clock = clock
        self.last = clock()

    def try_take(self) -> bool:
        now = self._clock()
        self.tokens = min(
            self.quota.burst,
            self.tokens + (now - self.last) * self.quota.rate,
        )
        self.last = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class FrontendConfig:
    """Deployment shape of one :class:`AdmissionFrontend`.

    ``shards`` workers each own a bounded queue of ``queue_capacity``
    and an executor of ``workers_per_shard`` threads or processes.
    ``cache_backend`` selects the shared decision store
    (``"memory"``/``"sqlite"``/``None`` for uncached).  ``default_quota``
    applies to tenants without an entry in ``tenant_quotas``; ``None``
    means unlimited.  The timeout/retry knobs mirror
    :func:`repro.service.batch.admit_batch`.

    ``region_backend`` enables the feasibility-region tier above the
    decision cache (see :mod:`repro.regions`): ``None`` (default) keeps
    it off -- and every historical decision, metric and load-generator
    digest byte-identical -- while ``"memory"``/``"sqlite"`` serve
    repeat-shape admissions analysis-free once a shape has been
    computed ``region_build_threshold`` times.

    Supervision (see :mod:`repro.service.supervision`):
    ``breaker_failures`` consecutive compute failures open a shard's
    circuit breaker (``0`` disables supervision), after which its
    keyspace is routed to ring neighbors until, ``breaker_recovery``
    seconds later, half-open probes restore it.  ``drain`` is what
    :meth:`AdmissionFrontend.stop` does with queued jobs
    (``"flush"``/``"shed"``), and ``fsync`` the snapshot policy for
    file-backed stores (see :mod:`repro.service.durability`).
    """

    shards: int = 1
    queue_capacity: int = 256
    executor: str = "thread"
    workers_per_shard: int = 1
    cache_backend: str | None = "memory"
    cache_capacity: int = 4096
    cache_path: str | Path | None = None
    default_quota: TenantQuota | None = None
    tenant_quotas: Mapping[str, TenantQuota] = field(default_factory=dict)
    job_timeout: float | None = None
    max_retries: int = 2
    retry_backoff: float = 0.05
    ring_replicas: int = 64
    region_backend: str | None = None
    region_capacity: int = 1024
    region_path: str | Path | None = None
    region_build_threshold: int = 2
    breaker_failures: int = 5
    breaker_recovery: float = 1.0
    breaker_probes: int = 1
    drain: str = "flush"
    fsync: str = "data"

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ConfigurationError(
                f"shards must be >= 1, got {self.shards}"
            )
        if self.queue_capacity < 1:
            raise ConfigurationError(
                f"queue_capacity must be >= 1, got {self.queue_capacity}"
            )
        if self.executor not in EXECUTORS:
            raise ConfigurationError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{'/'.join(EXECUTORS)}"
            )
        if self.workers_per_shard < 1:
            raise ConfigurationError(
                f"workers_per_shard must be >= 1, "
                f"got {self.workers_per_shard}"
            )
        if self.cache_backend is not None and (
            self.cache_backend not in STORE_BACKENDS
        ):
            raise ConfigurationError(
                f"unknown cache backend {self.cache_backend!r}; "
                f"expected one of {'/'.join(STORE_BACKENDS)} or None"
            )
        if self.job_timeout is not None and not (
            self.job_timeout > 0 and math.isfinite(self.job_timeout)
        ):
            raise ConfigurationError(
                f"job_timeout must be finite and > 0, "
                f"got {self.job_timeout!r}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0 or not math.isfinite(
            self.retry_backoff
        ):
            raise ConfigurationError(
                f"retry_backoff must be finite and >= 0, "
                f"got {self.retry_backoff!r}"
            )
        if self.region_backend is not None and (
            self.region_backend not in STORE_BACKENDS
        ):
            raise ConfigurationError(
                f"unknown region backend {self.region_backend!r}; "
                f"expected one of {'/'.join(STORE_BACKENDS)} or None"
            )
        if self.region_build_threshold < 1:
            raise ConfigurationError(
                f"region_build_threshold must be >= 1, "
                f"got {self.region_build_threshold}"
            )
        if self.breaker_failures > 0:
            # Validates recovery/probes too (same rules as the breaker).
            BreakerConfig(
                failure_threshold=self.breaker_failures,
                recovery_time=self.breaker_recovery,
                probe_budget=self.breaker_probes,
            )
        elif self.breaker_failures < 0:
            raise ConfigurationError(
                f"breaker_failures must be >= 0 (0 disables "
                f"supervision), got {self.breaker_failures}"
            )
        if self.drain not in DRAIN_MODES:
            raise ConfigurationError(
                f"unknown drain mode {self.drain!r}; expected one of "
                f"{'/'.join(DRAIN_MODES)}"
            )
        if self.fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {self.fsync!r}; expected one of "
                f"{'/'.join(FSYNC_POLICIES)}"
            )


def _shed_decision(
    request: AdmissionRequest, key: str, reason: str
) -> AdmissionDecision:
    """An explicit 429-style refusal: not admitted, not analyzed.

    Sheds fail closed like degraded decisions but carry their own
    rationale prefix (``service shed:``) so callers can tell "try
    again later, you were rate-limited" from "the analysis could not
    be completed".  Never cached.
    """
    return AdmissionDecision(
        admitted=False,
        protocol=None,
        rationale=f"service shed: {reason}",
        schedulable={p: False for p in request.protocols},
        task_bounds={},
        worst_bound_ratio=math.inf,
        key=key,
        system_name=request.system.name,
        request_id=request.request_id,
    )


class _Shard:
    """One worker shard: bounded queue + executor + metrics + breaker."""

    def __init__(self, index: int, config: FrontendConfig) -> None:
        self.index = index
        self.config = config
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=config.queue_capacity
        )
        self.metrics = ServiceMetrics()
        self.executor = self._make_executor()
        self.workers: list[asyncio.Task] = []
        self.breaker: CircuitBreaker | None = None  # set by the frontend

    def _make_executor(self):
        if self.config.executor == "process":
            return ProcessPoolExecutor(
                max_workers=self.config.workers_per_shard
            )
        return ThreadPoolExecutor(
            max_workers=self.config.workers_per_shard,
            thread_name_prefix=f"repro-shard-{self.index}",
        )

    def rebuild_executor(self) -> None:
        """Replace a broken process pool (thread pools cannot break)."""
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.executor = self._make_executor()

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)


class AdmissionFrontend:
    """Sharded async admission service (see module docstring).

    Use as an async context manager, or call :meth:`start` /
    :meth:`stop` explicitly::

        async with AdmissionFrontend(FrontendConfig(shards=4)) as fe:
            decision = await fe.admit(request)

    Parameters
    ----------
    config:
        The deployment shape.
    cache:
        Override the config-built cache with a ready instance (any
        object with the :class:`~repro.service.cache.DecisionCache`
        interface, including a shared
        :class:`~repro.service.backends.SqliteDecisionCache`).
    region_tier:
        Override the config-built region tier with a ready
        :class:`~repro.regions.tier.RegionTier`.
    clock:
        Monotonic clock for the quota buckets (injectable for tests).
    """

    def __init__(
        self,
        config: FrontendConfig | None = None,
        *,
        cache=None,
        region_tier=None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config if config is not None else FrontendConfig()
        # The controller builds the stores, records their recovery
        # damage in the fleet-wide metrics, and closes what it built;
        # caller-passed ``cache``/``region_tier`` stay the caller's.
        self._controller = AdmissionController(
            cache,
            cache_backend=self.config.cache_backend,
            cache_capacity=self.config.cache_capacity,
            cache_path=self.config.cache_path,
            fsync=self.config.fsync,
            region_tier=region_tier,
            region_backend=self.config.region_backend,
            region_capacity=self.config.region_capacity,
            region_path=self.config.region_path,
            region_build_threshold=self.config.region_build_threshold,
        )
        self.metrics = self._controller.metrics  # fleet-wide aggregate
        self.cache = self._controller.cache
        self.regions = self._controller.regions
        self.ring = ShardRing(
            self.config.shards, replicas=self.config.ring_replicas
        )
        self._clock = clock
        self._buckets: dict[str, _TokenBucket] = {}
        self._shards: list[_Shard] = []
        self._wait_pool: ThreadPoolExecutor | None = None
        self._started = False

    def _make_breaker(self, shard: _Shard) -> CircuitBreaker | None:
        if self.config.breaker_failures <= 0:
            return None

        def on_transition(
            old: str, new: str, shard: _Shard = shard
        ) -> None:
            for sink in (self.metrics, shard.metrics):
                if new == "open":
                    sink.record_breaker_open()
                elif new == "half_open":
                    sink.record_breaker_half_open()
                elif new == "closed":
                    sink.record_breaker_restore()

        return CircuitBreaker(
            BreakerConfig(
                failure_threshold=self.config.breaker_failures,
                recovery_time=self.config.breaker_recovery,
                probe_budget=self.config.breaker_probes,
            ),
            clock=self._clock,
            on_transition=on_transition,
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "AdmissionFrontend":
        if self._started:
            raise ConfigurationError("frontend already started")
        self._shards = [
            _Shard(index, self.config)
            for index in range(self.config.shards)
        ]
        for shard in self._shards:
            shard.breaker = self._make_breaker(shard)
        self._wait_pool = ThreadPoolExecutor(
            max_workers=max(4, self.config.shards),
            thread_name_prefix="repro-flight-wait",
        )
        for shard in self._shards:
            shard.workers = [
                asyncio.create_task(self._run_worker(shard))
                for _ in range(self.config.workers_per_shard)
            ]
        self._started = True
        return self

    async def stop(self, *, drain: str | None = None) -> None:
        """Graceful teardown: stop intake, drain, close every backend.

        ``drain`` overrides the config's mode: ``"flush"`` serves every
        queued job before teardown (the shutdown sentinels queue behind
        them); ``"shed"`` resolves queued jobs as explicit shed
        decisions immediately -- a fast stop that still never drops a
        request silently.  Either way, an ``admit`` arriving after
        ``stop`` began raises instead of waiting forever on a queue
        nobody drains, executors are shut down, and backends the
        frontend built are closed (flushing file-backed stores) even if
        a worker fails mid-drain.
        """
        if not self._started:
            return
        self._started = False  # late admits fail fast, never hang
        mode = drain if drain is not None else self.config.drain
        if mode not in DRAIN_MODES:
            raise ConfigurationError(
                f"unknown drain mode {mode!r}; expected one of "
                f"{'/'.join(DRAIN_MODES)}"
            )
        try:
            for shard in self._shards:
                if mode == "shed":
                    self._shed_queue(shard)
                else:
                    depth = shard.queue.qsize()
                    if depth:
                        self.metrics.record_drain(flushed=depth)
                        shard.metrics.record_drain(flushed=depth)
                for _ in shard.workers:
                    await shard.queue.put(None)  # one sentinel per worker
            for shard in self._shards:
                for worker in shard.workers:
                    await worker
        finally:
            try:
                for shard in self._shards:
                    shard.shutdown()
            finally:
                if self._wait_pool is not None:
                    self._wait_pool.shutdown(
                        wait=False, cancel_futures=True
                    )
                self._controller.close()

    def _shed_queue(self, shard: _Shard) -> None:
        """Resolve everything queued on ``shard`` as explicit sheds."""
        while True:
            try:
                item = shard.queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            if item is None:
                continue
            request, key, future, _started_at = item
            for sink in (self.metrics, shard.metrics):
                sink.record_shed()
                sink.record_drain(shed=1)
            if shard.breaker is not None:
                shard.breaker.record_void()
            if not future.done():
                future.set_result(
                    _shed_decision(
                        request,
                        key,
                        "frontend stopping -- queued request shed "
                        "at drain",
                    )
                )

    async def __aenter__(self) -> "AdmissionFrontend":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # ------------------------------------------------------------------
    # The request path
    # ------------------------------------------------------------------
    def _take_token(self, tenant: str) -> bool:
        quota = self.config.tenant_quotas.get(
            tenant, self.config.default_quota
        )
        if quota is None:
            return True
        bucket = self._buckets.get(tenant)
        if bucket is None or bucket.quota is not quota:
            bucket = self._buckets[tenant] = _TokenBucket(
                quota, self._clock
            )
        return bucket.try_take()

    def _route(self, key: str) -> _Shard:
        """The healthiest shard for ``key``: its ring owner when that
        shard's breaker admits traffic, else the first ring neighbor
        whose breaker does.

        Supervision is advisory, never load-bearing for liveness: if
        *every* breaker refuses, the primary gets the request anyway --
        turning an all-unhealthy detector verdict into a total outage
        would be worse than trying.
        """
        primary = self.ring.shard_for(key)
        shard = self._shards[primary]
        if shard.breaker is None or shard.breaker.allow():
            return shard
        count = len(self._shards)
        for offset in range(1, count):
            candidate = self._shards[(primary + offset) % count]
            if candidate.breaker is None or candidate.breaker.allow():
                self.metrics.record_reroute()
                candidate.metrics.record_reroute()
                return candidate
        return shard

    def _require_started(self) -> None:
        if not self._started:
            raise ConfigurationError(
                "frontend not started (use 'async with' or await start())"
            )

    def _quota_shed(self, request: AdmissionRequest) -> AdmissionDecision:
        self.metrics.record_shed()
        return _shed_decision(
            request,
            "",
            f"tenant {request.tenant or 'default'!r} quota "
            "exceeded (429, retry later)",
        )

    def _serve_cached(
        self,
        shard: _Shard,
        cached: AdmissionDecision,
        request_id: str,
        started: float,
    ) -> AdmissionDecision:
        """The cache-hit branch of every admission path."""
        if shard.breaker is not None:
            # A cache hit never touches the executor: return any
            # half-open probe permit unspent.
            shard.breaker.record_void()
        latency = time.perf_counter() - started
        for sink in (self.metrics, shard.metrics):
            sink.record(
                admitted=cached.admitted, cache_hit=True, latency=latency
            )
        return replace(cached, request_id=request_id)

    async def admit(
        self, request: AdmissionRequest
    ) -> AdmissionDecision:
        """Decide one request through quotas, cache, and its shard.

        Always returns a decision: a real verdict, a degraded REJECT
        (ladder exhausted), or an explicit shed (quota or queue full).
        """
        self._require_started()
        started = time.perf_counter()
        if not self._take_token(request.tenant):
            return self._quota_shed(request)
        key = request_key(request)
        shard = self._route(key)
        if self.cache is not None:
            cached = self.cache.get(key)
            if cached is not None:
                return self._serve_cached(
                    shard, cached, request.request_id, started
                )
        return await self._enqueue(shard, request, key, started)

    def cached_key(self, document) -> str | None:
        """The key of a decoded wire document whose decision is cached.

        ``None`` when the cache does not hold it, or when only the
        decoder can judge the document (see
        :func:`~repro.service.requests.decodes_verbatim`).  Pure: no
        counter, recency or quota moves.
        """
        if self.cache is None or not decodes_verbatim(document):
            return None
        try:
            key = request_key(document)
        except ValueError:  # a non-boolean flag or a NaN: decode says why
            return None
        return key if key in self.cache else None

    async def admit_cached(
        self, document, key: str
    ) -> AdmissionDecision:
        """Decide a wire document :meth:`cached_key` found under ``key``.

        The same bookkeeping as :meth:`admit` on a cache hit -- one
        token, one counted lookup, the shard's breaker and metrics --
        without building the request.  The model is decoded only for a
        quota shed, or when the entry left the cache in between.
        """
        self._require_started()
        started = time.perf_counter()
        if not self._take_token(str(document.get("tenant", ""))):
            return self._quota_shed(request_from_dict(document))
        shard = self._route(key)
        cached = self.cache.get(key)
        if cached is not None:
            return self._serve_cached(
                shard, cached, str(document.get("request_id", "")), started
            )
        return await self._enqueue(
            shard, request_from_dict(document), key, started
        )

    async def _enqueue(
        self,
        shard: _Shard,
        request: AdmissionRequest,
        key: str,
        started: float,
    ) -> AdmissionDecision:
        """Queue a miss on ``shard``, or shed it when the queue is full."""
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        try:
            shard.queue.put_nowait((request, key, future, started))
        except asyncio.QueueFull:
            if shard.breaker is not None:
                shard.breaker.record_void()
            self.metrics.record_shed()
            shard.metrics.record_shed()
            return _shed_decision(
                request,
                key,
                f"shard {shard.index} queue full "
                f"({self.config.queue_capacity} deep) -- backpressure",
            )
        return await future

    # ------------------------------------------------------------------
    # Shard workers
    # ------------------------------------------------------------------
    async def _run_worker(self, shard: _Shard) -> None:
        while True:
            item = await shard.queue.get()
            if item is None:  # shutdown sentinel
                return
            request, key, future, started = item
            try:
                decision, degraded, source = await self._decide(
                    shard, request, key
                )
            except Exception as exc:  # noqa: BLE001 - fail closed
                decision = _degraded_decision(
                    request, key, f"shard worker error: {exc}"
                )
                degraded, source = True, "computed"
            if shard.breaker is not None:
                # Only *computed* outcomes prove anything about this
                # shard's executor; cache/region/coalesced resolutions
                # must neither reset the failure streak nor count as
                # half-open probes.
                if source == "computed":
                    if degraded:
                        shard.breaker.record_failure()
                    else:
                        shard.breaker.record_success()
                else:
                    shard.breaker.record_void()
            latency = time.perf_counter() - started
            for sink in (self.metrics, shard.metrics):
                sink.record(
                    admitted=decision.admitted,
                    cache_hit=source == "cache",
                    region_hit=source == "region",
                    latency=latency,
                )
                if degraded:
                    sink.record_degraded()
            if not future.done():
                future.set_result(
                    replace(decision, request_id=request.request_id)
                )

    async def _decide(
        self, shard: _Shard, request: AdmissionRequest, key: str
    ) -> tuple[AdmissionDecision, bool, str]:
        """(decision, degraded?, source) for one queued miss.

        ``source`` is ``"cache"`` (exact-request hit on the re-check or
        via a coalesced flight), ``"region"`` (served analysis-free by
        the region tier) or ``"computed"``.
        """
        cache = self.cache
        flights = cache.flights if cache is not None else None
        leader_flight = None
        if cache is not None:
            # Re-check: the decision may have landed while we queued.
            cached = cache.get(key)
            if cached is not None:
                return cached, False, "cache"
        if self.regions is not None:
            # The region tier sits between the exact-request cache and
            # the analysis: a shape hit needs no executor, no flight.
            regional = self.regions.lookup(request, key=key)
            if regional is not None:
                return regional, False, "region"
        if flights is not None:
            leader, flight = flights.begin(key)
            if leader:
                leader_flight = flight
            else:
                loop = asyncio.get_running_loop()
                decision, degraded = await loop.run_in_executor(
                    self._wait_pool, SingleFlight.wait, flight
                )
                if decision is not None:
                    for sink in (self.metrics, shard.metrics):
                        sink.record_coalesced()
                    return decision, degraded, "cache"
                # The leader vanished without publishing: compute for
                # ourselves (unclaimed -- no flight to finish).
        published = False
        try:
            decision, degraded = await self._compute_with_ladder(
                shard, request, key
            )
            if cache is not None and not degraded:
                cache.put(key, decision)
            if leader_flight is not None:
                flights.finish(key, decision, degraded=degraded)
                published = True
            if self.regions is not None and not degraded:
                # Region building can cost hundreds of probes; keep it
                # off the event loop.  Awaited, so the build (when the
                # threshold trips) lands before this decision returns
                # -- deterministic and simple; the cost is counted and
                # amortized by every later shape hit.
                await asyncio.get_running_loop().run_in_executor(
                    self._wait_pool, self.regions.observe, request
                )
            return decision, degraded, "computed"
        finally:
            if leader_flight is not None and not published:
                flights.finish(key, None)

    async def _compute_with_ladder(
        self, shard: _Shard, request: AdmissionRequest, key: str
    ) -> tuple[AdmissionDecision, bool]:
        """The batch path's retry ladder, asyncio-shaped.

        Timeouts abandon the executor slot (the thread/process may
        still be busy; the executor absorbs it), failures retry with
        exponential backoff, a broken process pool is rebuilt without
        charging the job's budget, and an exhausted ladder degrades to
        the same fail-closed REJECT as the batch path.
        """
        config = self.config
        loop = asyncio.get_running_loop()
        attempt = 0
        breaks = 0
        while True:
            executor = shard.executor
            try:
                computation = loop.run_in_executor(
                    executor, _shard_compute, (key, request)
                )
                if config.job_timeout is not None:
                    _key, decision, _elapsed = await asyncio.wait_for(
                        computation, timeout=config.job_timeout
                    )
                else:
                    _key, decision, _elapsed = await computation
                return decision, False
            except asyncio.TimeoutError:
                shard.metrics.record_timeout()
                self.metrics.record_timeout()
                reason = f"timed out after {config.job_timeout:g} s"
            except BrokenProcessPool:
                # The pool died under us; resubmit without consuming
                # this job's retry budget (bounded: a job that keeps
                # riding pools down is the likely culprit).  One break
                # strands every in-flight job, so only the first to see
                # it rebuilds and counts; the rest find a new pool.
                if shard.executor is executor:
                    shard.rebuild_executor()
                    shard.metrics.record_pool_rebuild()
                    self.metrics.record_pool_rebuild()
                breaks += 1
                if breaks <= config.max_retries + 1:
                    continue
                return (
                    _degraded_decision(
                        request,
                        key,
                        f"worker pool broke {breaks} time(s) under "
                        "this job",
                    ),
                    True,
                )
            except Exception as exc:  # noqa: BLE001 - ladder
                reason = f"computation failed: {exc}"
            if attempt >= config.max_retries:
                return (
                    _degraded_decision(
                        request,
                        key,
                        f"{reason} (after {attempt + 1} attempt(s))",
                    ),
                    True,
                )
            attempt += 1
            shard.metrics.record_retry()
            self.metrics.record_retry()
            if config.retry_backoff:
                await asyncio.sleep(
                    config.retry_backoff * (2 ** (attempt - 1))
                )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def queue_depths(self) -> list[int]:
        """Current queue depth per shard."""
        return [shard.queue.qsize() for shard in self._shards]

    def snapshot(self) -> dict:
        """Aggregate + per-shard metrics, queue depths, cache stats."""
        result = {
            "aggregate": self.metrics.snapshot(),
            "shards": [
                shard.metrics.snapshot() for shard in self._shards
            ],
            "queue_depths": self.queue_depths(),
            "breakers": [
                None if shard.breaker is None else shard.breaker.snapshot()
                for shard in self._shards
            ],
        }
        if self.cache is not None:
            stats = self.cache.stats()
            result["cache"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "capacity": stats.capacity,
                "coalesced": stats.coalesced,
            }
        if self.regions is not None:
            stats = self.regions.stats()
            result["regions"] = {
                "hits": stats.hits,
                "misses": stats.misses,
                "evictions": stats.evictions,
                "size": stats.size,
                "capacity": stats.capacity,
            }
        return result

    def describe(self) -> str:
        """Aggregate metrics, one line per shard, cache counters."""
        lines = [self.metrics.describe()]
        for shard, depth in zip(self._shards, self.queue_depths()):
            snap = shard.metrics.snapshot()
            breaker = (
                ""
                if shard.breaker is None
                else f", {shard.breaker.describe()}"
            )
            lines.append(
                f"shard {shard.index}: {snap['requests']} requests, "
                f"{snap['cache_hits']} hits, "
                f"{snap['shed']} shed, {snap['degraded']} degraded, "
                f"queue depth {depth}, "
                f"p99 {snap['latency_p99'] * 1e3:.3f} ms"
                f"{breaker}"
            )
        if self.cache is not None:
            lines.append(self.cache.stats().describe())
        if self.regions is not None:
            lines.append(self.regions.describe())
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# JSONL-over-TCP server: the socket in "socket to decision"
# ---------------------------------------------------------------------------


#: Longest request line :func:`serve_frontend` accepts, in bytes
#: (asyncio's default stream limit).
MAX_LINE_BYTES = 2**16


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next line; ``b""`` at end of stream, ``None`` for a line over
    :data:`MAX_LINE_BYTES`.

    An overlong line is discarded through its newline (or to the end of
    the stream), so the next read starts at the next line.
    """
    overlong = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            return None if overlong else exc.partial
        except asyncio.LimitOverrunError as exc:
            # Nothing was consumed: drop what is buffered (up to, not
            # including, the newline if one arrived) and keep reading.
            overlong = True
            await reader.readexactly(exc.consumed)
            continue
        return None if overlong else line


async def serve_frontend(
    frontend: AdmissionFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Expose a started frontend over newline-delimited JSON on TCP.

    Each request line is a ``repro-admission-request-v1`` (or bare
    ``repro-system-v1``) document; each response line is the decision
    document, in request order per connection.  A line whose decision
    is cached is answered from its JSON document without building the
    model (:meth:`AdmissionFrontend.cached_key`); any other line is
    decoded and admitted.  A malformed line -- bad JSON, nested too deep
    to parse, not UTF-8, longer than :data:`MAX_LINE_BYTES`, or failing
    to decode as a request -- gets exactly one ``{"error": ...}`` line
    and the connection stays open.  The returned server is started;
    callers own its lifetime (``server.close()`` /
    ``await server.wait_closed()``).
    """

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                try:
                    if line is None:
                        raise ValueError(
                            f"line longer than {MAX_LINE_BYTES} bytes"
                        )
                    text = line.decode("utf-8").strip()
                    if not text:
                        continue
                    document = json.loads(text)
                    # An exact repeat is answered from the document; any
                    # other line is decoded into the model first.
                    key = frontend.cached_key(document)
                    if key is None:
                        request = request_from_dict(document)
                except (
                    ReproError,
                    ValueError,
                    KeyError,
                    TypeError,
                    RecursionError,
                ) as exc:
                    payload: dict = {"error": f"bad request line: {exc}"}
                else:
                    if key is None:
                        decision = await frontend.admit(request)
                    else:
                        decision = await frontend.admit_cached(document, key)
                    payload = decision_to_dict(decision)
                writer.write(
                    (json.dumps(payload, sort_keys=True) + "\n").encode(
                        "utf-8"
                    )
                )
                await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(
        handle, host, port, limit=MAX_LINE_BYTES
    )
