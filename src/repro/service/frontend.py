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
* every request is looked up once, on the event loop, before any
  queue: :meth:`~repro.service.engine.AdmissionController.lookup`
  (decision cache, then region tier) serves cache and region hits
  without a shard hop, and a store error there fails closed as a
  ``service degraded:`` refusal,
* N **worker shards** own disjoint slices of the keyspace via the
  consistent-hash ring of :mod:`repro.service.sharding`, routed on the
  request's content hash -- identical content always lands on the same
  shard, which keeps that shard's slice of the cache hot and lets the
  cache's single-flight table collapse concurrent duplicates,
* each shard re-checks the decision cache for a miss that landed while
  it queued (uncounted: the lookup above counted the request), then runs
  :meth:`~repro.service.engine.AdmissionController.decide_miss` and
  computes misses on its own
  :class:`~repro.service.batch.ComputePool` (``"thread"`` or
  ``"process"``; processes sidestep the GIL for CPU-bound analysis,
  threads are cheaper and overlap stall-bound work) through the batch
  path's own retry ladder, :func:`~repro.service.batch.compute_miss`:
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
import ctypes
import functools
import hashlib
import json
import marshal
import math
import os
import time
import weakref
from collections import OrderedDict
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable, Mapping

from repro.errors import ConfigurationError, ReproError
from repro.service.batch import (
    ComputePool,
    _compute_job,
    check_ladder_knobs,
    compute_miss,
    refusal,
)
from repro.service.durability import FSYNC_POLICIES
from repro.service.engine import AdmissionController
from repro.service.hashing import (
    METADATA_FIELDS,
    RequestWalk,
    request_key,
    walk_request,
)
from repro.service.metrics import ServiceMetrics
from repro.service.supervision import BreakerConfig, CircuitBreaker
from repro.service.requests import (
    AdmissionDecision,
    AdmissionRequest,
    decision_to_dict,
    request_from_dict,
    request_metadata,
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

#: The metrics counter each breaker transition, by new state, adds to.
_BREAKER_COUNTERS = {
    "open": "breaker_opens",
    "half_open": "breaker_half_opens",
    "closed": "breaker_restores",
}


def _content_bytes(document) -> bytes:
    """``document`` without its caller metadata, in marshal version 2.

    Version 2 writes every JSON value with its exact type -- ``1``,
    ``1.0`` and ``true`` differ, so do ``0.0`` and ``-0.0`` -- in dict
    order, and without the back-references of later versions, whose
    bytes depend on object identity.  So equal bytes mean type-identical
    documents.  Raises :class:`AttributeError` for a non-object and
    :class:`ValueError` for a value marshal cannot write.
    """
    return marshal.dumps(
        {
            name: value
            for name, value in document.items()
            if name not in METADATA_FIELDS
        },
        2,
    )


def _echoing(
    decision: AdmissionDecision, request_id: str
) -> AdmissionDecision:
    """``decision`` carrying ``request_id``; copied only when it carries
    another (a cached or coalesced one)."""
    if decision.request_id == request_id:
        return decision
    return replace(decision, request_id=request_id)


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
        check_ladder_knobs(
            self.job_timeout, self.max_retries, self.retry_backoff
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


class _Shard:
    """One worker shard: bounded queue + compute pool + metrics + breaker.

    What the shard observes counts twice, into its own metrics and the
    fleet-wide aggregate: its :meth:`record` and :meth:`count` write
    both ``sinks``, as its pool does.
    """

    def __init__(
        self, index: int, config: FrontendConfig, fleet: ServiceMetrics
    ) -> None:
        self.index = index
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=config.queue_capacity
        )
        self.metrics = ServiceMetrics()
        self.sinks = (self.metrics, fleet)
        self.pool = ComputePool(
            config.executor,
            config.workers_per_shard,
            name=f"repro-shard-{index}",
            sinks=self.sinks,
            job_timeout=config.job_timeout,
            max_retries=config.max_retries,
            retry_backoff=config.retry_backoff,
        )
        self.workers: list[asyncio.Task] = []
        self.breaker: CircuitBreaker | None = None  # set by the frontend

    def record(self, **served) -> None:
        """:meth:`ServiceMetrics.record` into both sinks."""
        for sink in self.sinks:
            sink.record(**served)

    def count(self, **increments: int) -> None:
        """:meth:`ServiceMetrics.count` into both sinks."""
        for sink in self.sinks:
            sink.count(**increments)


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
        # Wire-document fingerprint -> content key (see decode_document).
        self._key_memo: OrderedDict[bytes, str] = OrderedDict()
        self._shards: list[_Shard] = []
        self._started = False

    def _make_breaker(self, shard: _Shard) -> CircuitBreaker | None:
        if self.config.breaker_failures <= 0:
            return None

        def on_transition(
            old: str, new: str, shard: _Shard = shard
        ) -> None:
            shard.count(**{_BREAKER_COUNTERS[new]: 1})

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
            _Shard(index, self.config, self.metrics)
            for index in range(self.config.shards)
        ]
        for shard in self._shards:
            shard.breaker = self._make_breaker(shard)
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
        mode = drain if drain is not None else self.config.drain
        if mode not in DRAIN_MODES:
            raise ConfigurationError(
                f"unknown drain mode {mode!r}; expected one of "
                f"{'/'.join(DRAIN_MODES)}"
            )
        self._started = False  # late admits fail fast, never hang
        try:
            for shard in self._shards:
                if mode == "shed":
                    self._shed_queue(shard)
                else:
                    depth = shard.queue.qsize()
                    if depth:
                        shard.count(drain_flushed=depth)
                for _ in shard.workers:
                    await shard.queue.put(None)  # one sentinel per worker
            for shard in self._shards:
                for worker in shard.workers:
                    await worker
        finally:
            try:
                for shard in self._shards:
                    shard.pool.shutdown()
            finally:
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
            request, key, _walk, future, _started_at = item
            shard.count(shed=1, drain_shed=1)
            if shard.breaker is not None:
                shard.breaker.record_void()
            if not future.done():
                future.set_result(
                    refusal(
                        request,
                        key,
                        "shed",
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
                candidate.count(rerouted=1)
                return candidate
        return shard

    def _require_started(self) -> None:
        if not self._started:
            raise ConfigurationError(
                "frontend not started (use 'async with' or await start())"
            )

    def _quota_shed(self, request: AdmissionRequest) -> AdmissionDecision:
        self.metrics.count(shed=1)
        return refusal(
            request,
            "",
            "shed",
            f"tenant {request.tenant or 'default'!r} quota "
            "exceeded (429, retry later)",
        )

    def _serve_found(
        self,
        shard: _Shard,
        decision: AdmissionDecision,
        source: str,
        started: float,
    ) -> None:
        """Account a cache or region hit, served without the shard's
        queue.  The region tier counted a region hit into the aggregate;
        it is counted into the shard here, so the shard's outcomes add
        up to its requests."""
        if shard.breaker is not None:
            # A hit never touches the executor: return any half-open
            # probe permit unspent.
            shard.breaker.record_void()
        shard.record(
            admitted=decision.admitted,
            cache_hit=source == "cache",
            region_hit=source == "region",
            latency=time.perf_counter() - started,
        )
        if source == "region":
            shard.metrics.count(region_hits=1)

    def _store_failure(
        self,
        shard: _Shard,
        request: AdmissionRequest,
        key: str,
        exc: Exception,
        started: float,
    ) -> AdmissionDecision:
        """A store read that raised, failed closed as the shard worker
        fails a computation: a degraded REJECT, never cached."""
        if shard.breaker is not None:
            shard.breaker.record_void()
        shard.record(
            admitted=False,
            cache_hit=False,
            latency=time.perf_counter() - started,
        )
        shard.count(degraded=1)
        return refusal(request, key, "degraded", f"store error: {exc}")

    async def admit(
        self,
        request: AdmissionRequest,
        *,
        key: str | None = None,
        walk: RequestWalk | None = None,
    ) -> AdmissionDecision:
        """Decide one request through quotas, the tiers, and its shard.

        ``key`` (the request's content key) and ``walk`` (its
        :func:`~repro.service.hashing.walk_request`) are the caller's
        when it already holds them (:func:`serve_frontend` hands over
        what decoding the line yielded); either is derived when needed.
        The decision cache, then the region tier, are asked once, here:
        a hit is served without the shard's queue.  Always returns a
        decision: a real verdict, a degraded REJECT (ladder exhausted,
        or a store read that raised), or an explicit shed (quota or
        queue full).
        """
        self._require_started()
        started = time.perf_counter()
        if not self._take_token(request.tenant):
            return self._quota_shed(request)
        if walk is None and (key is None or self.regions is not None):
            walk = walk_request(request)
        if key is None:
            key = request_key(walk.document)
        return await self._admit_keyed(
            self._route(key),
            request,
            key,
            walk,
            started,
            self._controller.lookup,
        )

    async def _admit_keyed(
        self,
        shard: _Shard,
        request: AdmissionRequest,
        key: str,
        walk: RequestWalk | None,
        started: float,
        lookup: Callable,
    ) -> AdmissionDecision:
        """Ask ``lookup`` -- the controller's tiers this request has not
        met yet -- then serve a hit or queue a miss on ``shard``."""
        try:
            found = lookup(request, key, walk)
        except Exception as exc:  # noqa: BLE001 - fail closed
            return self._store_failure(shard, request, key, exc, started)
        if found is not None:
            decision, source = found
            self._serve_found(shard, decision, source, started)
            return _echoing(decision, request.request_id)
        return await self._enqueue(shard, request, key, walk, started)

    def decode_document(
        self, document
    ) -> tuple[str, AdmissionRequest | None, RequestWalk | None]:
        """Key a decoded wire document; decode it unless it is a
        remembered repeat.

        Returns ``(key, None, None)`` for a remembered repeat: answer it
        with :meth:`admit_cached`.  Otherwise decodes the document
        (:func:`~repro.service.requests.request_from_dict`), walks the
        request once (:func:`~repro.service.hashing.walk_request`) and
        returns ``(key, request, walk)`` for :meth:`admit`, where
        ``key`` is the request's content key.  Raises the decoder's
        error for a document that does not decode.  No counter, recency
        or quota moves.

        With a decision cache, every document that decodes is
        remembered by its fingerprint, the SHA-256 of
        :func:`_content_bytes`, in a memo of at most ``cache_capacity``
        keys (``docs/service.md``, "Wire hit path").  Equal fingerprints
        mean type-identical documents, which decode to equal requests,
        so a remembered key is the key decoding would give.  Call it
        from the event loop only.
        """
        try:
            fingerprint = hashlib.sha256(_content_bytes(document)).digest()
        except (AttributeError, ValueError):
            fingerprint = None  # not an object: the decoder says why
        memo = self._key_memo
        key = memo.get(fingerprint)
        if key is not None:
            memo.move_to_end(fingerprint)
            return key, None, None
        request = request_from_dict(document)
        walk = walk_request(request)
        key = request_key(walk.document)
        if fingerprint is not None and self.cache is not None:
            memo[fingerprint] = key
            while len(memo) > self.config.cache_capacity:
                memo.popitem(last=False)
        return key, request, walk

    async def admit_cached(
        self, document, key: str
    ) -> AdmissionDecision:
        """Decide a wire document :meth:`decode_document` remembered
        under ``key``.

        The same bookkeeping as :meth:`admit` on a cache hit -- one
        token, one counted lookup, the shard's breaker and metrics --
        without building the request.  The model is decoded only for a
        quota shed or a store error, or when the cache does not hold
        ``key`` (a region hit's decision is never cached, and an entry
        may have been evicted); then the region tier is asked before
        the queue, as :meth:`admit` asks it.  The request id and tenant
        are read as the decoder reads them
        (:func:`~repro.service.requests.request_metadata`).
        """
        decision, _cached = await self._admit_remembered(document, key)
        return _echoing(decision, request_metadata(document)[0])

    async def _admit_remembered(
        self, document, key: str
    ) -> tuple[AdmissionDecision, bool]:
        """:meth:`admit_cached` without the echo of a cache hit.

        Returns ``(decision, True)`` when ``decision`` is the very
        object the decision cache returned, still carrying the request
        id it was computed under, and ``(decision, False)`` for any
        other decision, which carries the document's request id.
        """
        self._require_started()
        started = time.perf_counter()
        if not self._take_token(request_metadata(document)[1]):
            return self._quota_shed(request_from_dict(document)), False
        shard = self._route(key)
        try:
            cached = self.cache.get(key)
        except Exception as exc:  # noqa: BLE001 - fail closed
            failed = self._store_failure(
                shard, request_from_dict(document), key, exc, started
            )
            return failed, False
        if cached is not None:
            self._serve_found(shard, cached, "cache", started)
            return cached, True
        request = request_from_dict(document)
        walk = walk_request(request) if self.regions is not None else None
        decision = await self._admit_keyed(
            shard, request, key, walk, started, self._controller.regional
        )
        return decision, False

    async def _enqueue(
        self,
        shard: _Shard,
        request: AdmissionRequest,
        key: str,
        walk: RequestWalk | None,
        started: float,
    ) -> AdmissionDecision:
        """Queue a miss on ``shard``, or shed it when the queue is full."""
        future: asyncio.Future = (
            asyncio.get_running_loop().create_future()
        )
        try:
            shard.queue.put_nowait((request, key, walk, future, started))
        except asyncio.QueueFull:
            if shard.breaker is not None:
                shard.breaker.record_void()
            shard.count(shed=1)
            return refusal(
                request,
                key,
                "shed",
                f"shard {shard.index} queue full "
                f"({self.config.queue_capacity} deep) -- backpressure",
            )
        return await future

    # ------------------------------------------------------------------
    # Shard workers
    # ------------------------------------------------------------------
    async def _run_worker(self, shard: _Shard) -> None:
        cache = self.cache
        while True:
            item = await shard.queue.get()
            if item is None:  # shutdown sentinel
                return
            request, key, walk, future, started = item
            try:
                # The decision may have landed while this request
                # queued.  The lookup before the queue counted this
                # request's one store lookup and asked the region tier.
                cached = None if cache is None else cache.recheck(key)
                if cached is None:
                    decision, _elapsed, degraded, source = (
                        await self._controller.decide_miss(
                            request,
                            key,
                            functools.partial(
                                compute_miss, shard.pool, _shard_compute
                            ),
                            walk,
                        )
                    )
                else:
                    decision, degraded, source = cached, False, "cache"
            except Exception as exc:  # noqa: BLE001 - fail closed
                decision = refusal(
                    request, key, "degraded", f"shard worker error: {exc}"
                )
                degraded, source = True, "computed"
            if shard.breaker is not None:
                # Only *computed* outcomes prove anything about this
                # shard's executor; cache/coalesced resolutions must
                # neither reset the failure streak nor count as
                # half-open probes.
                if source == "computed":
                    if degraded:
                        shard.breaker.record_failure()
                    else:
                        shard.breaker.record_success()
                else:
                    shard.breaker.record_void()
            shard.record(
                admitted=decision.admitted,
                cache_hit=source in ("cache", "coalesced"),
                latency=time.perf_counter() - started,
            )
            shard.count(coalesced=source == "coalesced", degraded=degraded)
            if not future.done():
                future.set_result(
                    _echoing(decision, request.request_id)
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
            result["cache"] = asdict(self.cache.stats())
        if self.regions is not None:
            result["regions"] = asdict(self.regions.stats())
            del result["regions"]["coalesced"]  # region stores never coalesce
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


#: glibc ``mallopt`` parameter numbers (``<malloc.h>``).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _pin_allocator() -> None:
    """Fix glibc's mmap and trim thresholds for this process, once.

    asyncio's selector transport reads every socket into a fresh
    256 KiB buffer.  That is above glibc's initial 128 KiB mmap
    threshold, which glibc raises only after a mapped chunk that large
    has been freed; until then each read maps, faults in and unmaps new
    pages.  So the wire path's cost would depend on what the process
    happened to allocate before it served.  A 512 KiB mmap threshold
    keeps the buffers on the heap; a fixed threshold also fixes the trim
    threshold, so it is raised to 1 MiB, or freeing a buffer at the top
    of the heap would hand its pages back each time.  A no-op on any
    other libc.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError, ValueError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 512 * 1024)
    mallopt(_M_TRIM_THRESHOLD, 1024 * 1024)


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


def _encode_line(document: dict) -> bytes:
    """One reply line: ``document`` as sorted-key JSON and a newline."""
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def _reply_halves(decision: AdmissionDecision) -> tuple[bytes, bytes]:
    """``decision``'s reply line before and after its request id.

    The keys that sort before ``request_id`` and those that sort after
    it are encoded apart, as :func:`_encode_line` encodes them together
    (sorted keys, default separators), so ``head + json.dumps(rid) +
    tail`` is the line of ``decision`` echoing ``rid``, byte for byte.
    Nothing is spliced at a placeholder: names are client text and may
    spell anything.  Neither half is empty: every decision document
    holds ``admitted`` and ``worst_bound_ratio``.
    """
    document = decision_to_dict(decision)
    head = json.dumps(
        {name: document[name] for name in document if name < "request_id"},
        sort_keys=True,
    )
    tail = json.dumps(
        {name: document[name] for name in document if name > "request_id"},
        sort_keys=True,
    )
    return (
        (head[:-1] + ', "request_id": ').encode("utf-8"),
        (", " + tail[1:] + "\n").encode("utf-8"),
    )


class _Replies:
    """Reply halves of cached decisions, by content key.

    Each entry holds a weak reference to the decision object the cache
    last returned for its key and, once that very object is served a
    second time, its :func:`_reply_halves`.  Halves are only used for
    the object they were made from (an identity check), so a store that
    returns its stored object (the memory store) has its replies
    encoded once, and one that builds a fresh object per hit (sqlite)
    encodes each reply whole, as before, and keeps none alive.  At most
    ``capacity`` entries, least recently served first out.
    """

    def __init__(self, capacity: int) -> None:
        self._capacity = capacity
        self._entries: OrderedDict[str, list] = OrderedDict()

    def reply(
        self, key: str, decision: AdmissionDecision, request_id: str
    ) -> bytes:
        """The reply line of ``decision``, the object the decision cache
        returned for ``key``, echoing ``request_id``."""
        entries = self._entries
        entry = entries.get(key)
        if entry is None or entry[0]() is not decision:
            entries[key] = [weakref.ref(decision), None]
            entries.move_to_end(key)
            if len(entries) > self._capacity:
                entries.popitem(last=False)
            return _encode_line(
                decision_to_dict(_echoing(decision, request_id))
            )
        entries.move_to_end(key)
        if entry[1] is None:
            entry[1] = _reply_halves(decision)
        head, tail = entry[1]
        return head + json.dumps(request_id).encode("utf-8") + tail


async def serve_frontend(
    frontend: AdmissionFrontend,
    host: str = "127.0.0.1",
    port: int = 0,
) -> asyncio.AbstractServer:
    """Expose a started frontend over newline-delimited JSON on TCP.

    Each request line is a ``repro-admission-request-v1`` (or bare
    ``repro-system-v1``) document; each response line is the decision
    document, in request order per connection.  A repeat of a line that
    decoded before is answered from its JSON document without building
    the model (:meth:`AdmissionFrontend.decode_document`); any other
    line is decoded and admitted.  A repeat whose decision the cache
    returns as the object it returned before is answered from that
    object's reply, encoded once around the request id
    (:class:`_Replies`).  A malformed line -- bad JSON, nested too deep
    to parse, not UTF-8, longer than :data:`MAX_LINE_BYTES`, or failing
    to decode as a request -- gets exactly one ``{"error": ...}`` line
    and the connection stays open.  The returned server is started;
    callers own its lifetime (``server.close()`` /
    ``await server.wait_closed()``).  Under glibc the first call pins the
    allocator's thresholds (see :func:`_pin_allocator`).
    """
    _pin_allocator()
    replies = _Replies(frontend.config.cache_capacity)

    async def reply_to(line: bytes | None) -> bytes | None:
        """The reply to one request line (None for a blank line).  Its
        decision is dropped on return: a served object is kept alive
        only by the store that returned it."""
        try:
            if line is None:
                raise ValueError(f"line longer than {MAX_LINE_BYTES} bytes")
            text = line.decode("utf-8").strip()
            if not text:
                return None
            document = json.loads(text)
            # A remembered repeat is answered from the document; any
            # other line is decoded into the model first.
            key, request, walk = frontend.decode_document(document)
        except (
            ReproError,
            ValueError,
            KeyError,
            TypeError,
            RecursionError,
        ) as exc:
            return _encode_line({"error": f"bad request line: {exc}"})
        if request is not None:
            decision = await frontend.admit(request, key=key, walk=walk)
            return _encode_line(decision_to_dict(decision))
        decision, cached = await frontend._admit_remembered(document, key)
        if not cached:
            return _encode_line(decision_to_dict(decision))
        return replies.reply(key, decision, request_metadata(document)[0])

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                line = await _read_line(reader)
                if line == b"":
                    break
                reply = await reply_to(line)
                if reply is not None:
                    writer.write(reply)
                    await writer.drain()
        finally:
            writer.close()

    return await asyncio.start_server(
        handle, host, port, limit=MAX_LINE_BYTES
    )
