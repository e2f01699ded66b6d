"""Batch admission, and the one retry ladder every cache miss runs.

Mirrors the idiom of :mod:`repro.experiments.parallel`: jobs are pure
functions of picklable inputs, and all randomness-free computation makes
the result independent of the worker count.  The batch is one caller of
the controller's admission pipeline
(:meth:`~repro.service.engine.AdmissionController.lookup`, then
:meth:`~repro.service.engine.AdmissionController.decide_miss`): it

* serves every request the cache or the region tier answers without
  touching the pool,
* deduplicates identical content *within* the batch (each distinct key
  is computed exactly once, however often it recurs), while the
  pipeline's single-flight claim deduplicates it *across* concurrent
  batches and frontend shards,
* decides every miss through :func:`compute_miss` on a
  :class:`ComputePool` -- the same ladder the frontend shards use: a
  per-attempt ``job_timeout``, retries with exponential backoff, a
  broken process pool rebuilt without charging the jobs stranded on
  it, and a fail-closed degraded REJECT when the ladder is exhausted,
  and
* reassembles decisions in request order, so output is deterministic
  with caching on, off, or warm-started from disk.

Degraded decisions are never cached: the next batch retries the
computation from scratch.
"""

from __future__ import annotations

import asyncio
import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, Iterable, Sequence

from repro.errors import ConfigurationError
from repro.service.cache import DecisionCache
from repro.service.engine import AdmissionController, compute_decision
from repro.service.hashing import request_key, walk_request
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionDecision, AdmissionRequest

__all__ = ["admit_batch"]


def _compute_job(
    job: tuple[str, AdmissionRequest]
) -> tuple[str, AdmissionDecision, float]:
    """Worker body: (key, request) -> (key, decision, seconds spent)."""
    key, request = job
    started = time.perf_counter()
    decision = compute_decision(request, key=key)
    return key, decision, time.perf_counter() - started


def refusal(
    request: AdmissionRequest, key: str, kind: str, reason: str
) -> AdmissionDecision:
    """A fail-closed REJECT with rationale ``service <kind>: <reason>``.

    ``kind`` is ``"degraded"`` when the analysis could not be completed
    and ``"shed"`` when the service refused the work (quota, full queue,
    drain).  Admission control fails *closed*: a system whose analysis
    did not complete is not certified, so it is not admitted.  The
    prefix lets callers tell either from an analytical rejection and
    retry later; refusals are never cached.
    """
    return AdmissionDecision(
        admitted=False,
        protocol=None,
        rationale=f"service {kind}: {reason}",
        schedulable={p: False for p in request.protocols},
        task_bounds={},
        worst_bound_ratio=math.inf,
        key=key,
        system_name=request.system.name,
        request_id=request.request_id,
    )


def check_ladder_knobs(
    job_timeout: float | None, max_retries: int, retry_backoff: float
) -> None:
    """Reject retry-ladder settings (``admit_batch`` and the frontend)."""
    if job_timeout is not None and not (
        job_timeout > 0 and math.isfinite(job_timeout)
    ):
        raise ConfigurationError(
            f"job_timeout must be finite and > 0, got {job_timeout!r}"
        )
    if max_retries < 0:
        raise ConfigurationError(
            f"max_retries must be >= 0, got {max_retries}"
        )
    if retry_backoff < 0 or not math.isfinite(retry_backoff):
        raise ConfigurationError(
            f"retry_backoff must be finite and >= 0, got {retry_backoff!r}"
        )


class ComputePool:
    """A thread or process executor behind the retry ladder's gate.

    At most ``max(1, width - abandoned)`` computations run at once, so
    a job's submission instant is its start instant and ``job_timeout``
    (counted from submission) means what it says.  A timed-out
    computation cannot be interrupted -- it may be wedged in native
    code -- so it is *abandoned*: its slot comes back only when it
    really ends.  A job run ``alone`` waits until nothing else runs,
    and no other job starts while it waits or runs.  A broken process
    pool is replaced once per break, by the first job to find the
    broken executor still installed, and counted once in ``sinks``.
    """

    def __init__(
        self,
        kind: str,
        width: int,
        *,
        name: str,
        sinks: Sequence[ServiceMetrics],
        job_timeout: float | None,
        max_retries: int,
        retry_backoff: float,
    ) -> None:
        self.kind = kind
        self.width = width
        self.name = name
        self.sinks = tuple(sinks)
        self.job_timeout = job_timeout
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self.executor = self._make_executor()
        self._running = 0
        self._alone = 0  # jobs run alone, waiting or running
        self._abandoned: set[asyncio.Future] = set()
        self._waiters: list[asyncio.Future] = []

    def _make_executor(self):
        if self.kind == "process":
            return ProcessPoolExecutor(max_workers=self.width)
        return ThreadPoolExecutor(
            max_workers=self.width, thread_name_prefix=self.name
        )

    def shutdown(self) -> None:
        self.executor.shutdown(wait=False, cancel_futures=True)

    def _may_start(self, alone: bool) -> bool:
        if alone:
            return self._running == 0
        return not self._alone and self._running < max(
            1, self.width - len(self._abandoned)
        )

    def _wake(self) -> None:
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            if not waiter.done():
                waiter.set_result(None)

    def _release(self, alone: bool) -> None:
        self._running -= 1
        self._alone -= alone
        self._wake()

    def _settle(self, alone: bool, future: asyncio.Future) -> None:
        """A computation really ended: its slot comes back."""
        if future in self._abandoned:
            self._abandoned.discard(future)
            self._wake()
        else:
            self._release(alone)
        if not future.cancelled():
            future.exception()  # an abandoned failure is not news

    async def run(self, fn: Callable, job, *, alone: bool):
        """``fn(job)`` in a free slot; ``None`` when a pool break
        stranded it.

        Raises :class:`asyncio.TimeoutError` when ``job_timeout`` passes
        first (the computation is abandoned), and whatever ``fn``
        raised.  A job that finds the pool already dead is resubmitted
        to its replacement: it rode no break.
        """
        self._alone += alone
        try:
            while not self._may_start(alone):
                waiter = asyncio.get_running_loop().create_future()
                self._waiters.append(waiter)
                await waiter
        except BaseException:
            self._alone -= alone
            self._wake()
            raise
        self._running += 1
        while True:
            executor, work = self.executor, None
            try:
                work = executor.submit(fn, job)
                future = asyncio.wrap_future(work)
                future.add_done_callback(
                    functools.partial(self._settle, alone)
                )
                done, _ = await asyncio.wait(
                    (future,), timeout=self.job_timeout
                )
                if not done:
                    if not work.cancel():  # already running
                        self._abandoned.add(future)
                        self._release(alone)
                    raise asyncio.TimeoutError
                return future.result()
            except BrokenProcessPool:
                if self.executor is executor:
                    executor.shutdown(wait=False)
                    self.executor = self._make_executor()
                    for sink in self.sinks:
                        sink.count(pool_rebuilds=1)
                if work is not None:
                    return None
            except BaseException:
                if work is None:
                    self._release(alone)
                raise


async def compute_miss(
    pool: ComputePool, fn: Callable, key: str, request: AdmissionRequest
) -> tuple[AdmissionDecision, float, bool]:
    """The retry ladder: (decision, seconds computing, degraded?).

    Every cache miss, batch or frontend, is decided here.  A raised
    exception or a timeout is retried up to ``pool.max_retries`` times,
    after ``retry_backoff * 2**(attempt - 1)`` seconds.  A pool break is
    the pool's failure, not the job's: it costs no retry, but the job
    then runs alone, so any further break is its own, and it fails
    closed once it has ridden more than ``max_retries + 1`` breaks.  An
    exhausted ladder yields a degraded REJECT (see :func:`refusal`).
    """
    attempt = breaks = 0
    while True:
        try:
            result = await pool.run(fn, (key, request), alone=breaks > 0)
        except asyncio.TimeoutError:
            for sink in pool.sinks:
                sink.count(timeouts=1)
            reason = f"timed out after {pool.job_timeout:g} s"
        except Exception as exc:  # noqa: BLE001 - retry, then fail closed
            reason = f"computation failed: {exc}"
        else:
            if result is not None:
                _key, decision, elapsed = result
                return decision, elapsed, False
            breaks += 1
            if breaks <= pool.max_retries + 1:
                continue
            reason = f"worker pool broke {breaks} time(s) under this job"
            return refusal(request, key, "degraded", reason), 0.0, True
        if attempt >= pool.max_retries:
            reason = f"{reason} (after {attempt + 1} attempt(s))"
            return refusal(request, key, "degraded", reason), 0.0, True
        attempt += 1
        for sink in pool.sinks:
            sink.count(retries=1)
        if pool.retry_backoff:
            await asyncio.sleep(pool.retry_backoff * 2 ** (attempt - 1))


def admit_batch(
    requests: Sequence[AdmissionRequest] | Iterable[AdmissionRequest],
    *,
    cache: DecisionCache | None = None,
    metrics: ServiceMetrics | None = None,
    workers: int | None = None,
    progress: Callable[[str], None] | None = None,
    job_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff: float = 0.05,
) -> list[AdmissionDecision]:
    """Decide a batch of requests; returns decisions in request order.

    ``workers`` defaults to the CPU count.  Misses run on a process
    pool of that width when ``workers > 1`` and there is more than one
    to compute or a ``job_timeout``; otherwise on one thread, which is
    fastest for small batches.  Duplicate request content inside the
    batch is computed once and accounted as cache hits for the
    duplicates; duplicate content across *concurrent* batches sharing
    one cache is computed once too, via the cache's single-flight table
    (waiters are accounted as hits and counted on
    ``ServiceMetrics.coalesced``).  ``progress`` (when given) receives
    one line per computed (non-cached) decision.

    Every miss runs through :func:`compute_miss`: ``job_timeout``
    bounds the wall-clock seconds any one attempt may take, and a
    failed attempt is retried up to ``max_retries`` times with
    exponential backoff starting at ``retry_backoff`` seconds.  A job
    that exhausts its ladder yields a *degraded* REJECT decision
    (rationale prefixed ``service degraded:``) rather than hanging or
    failing the batch.  Degraded decisions are never cached.  The
    ladder runs in :func:`asyncio.run`, so this function must not be
    called from a running event loop.
    """
    return decide_batch(
        AdmissionController(cache, metrics=metrics, cache_backend=None),
        requests,
        workers=workers,
        progress=progress,
        job_timeout=job_timeout,
        max_retries=max_retries,
        retry_backoff=retry_backoff,
    )


def decide_batch(
    controller: AdmissionController,
    requests: Sequence[AdmissionRequest] | Iterable[AdmissionRequest],
    *,
    workers: int | None,
    progress: Callable[[str], None] | None,
    job_timeout: float | None,
    max_retries: int,
    retry_backoff: float,
) -> list[AdmissionDecision]:
    """:func:`admit_batch` through ``controller``'s admission pipeline.

    Every request meets :meth:`AdmissionController.lookup`; each
    distinct missed key then runs
    :meth:`AdmissionController.decide_miss` once, all of them
    concurrently on one batch :class:`ComputePool`.
    """
    request_list = list(requests)
    worker_count = workers if workers is not None else (os.cpu_count() or 1)
    if worker_count < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    check_ladder_knobs(job_timeout, max_retries, retry_backoff)
    if not request_list:
        return []
    metrics = controller.metrics

    decisions: list[AdmissionDecision | None] = [None] * len(request_list)
    # key -> indices still needing a decision, in first-appearance order.
    pending: dict[str, list[int]] = {}
    walks = {}  # key -> the walk of its first request
    for index, request in enumerate(request_list):
        started = time.perf_counter()
        walk = walk_request(request)
        key = request_key(walk.document)
        found = controller.lookup(request, key, walk)
        if found is None:
            pending.setdefault(key, []).append(index)
            walks.setdefault(key, walk)
            continue
        decision, source = found
        decisions[index] = replace(decision, request_id=request.request_id)
        metrics.record(
            admitted=decision.admitted,
            cache_hit=source == "cache",
            region_hit=source == "region",
            latency=time.perf_counter() - started,
        )

    jobs = {
        key: request_list[indices[0]] for key, indices in pending.items()
    }

    async def decide_misses() -> list:
        process = worker_count > 1 and (
            len(jobs) > 1 or job_timeout is not None
        )
        pool = ComputePool(
            "process" if process else "thread",
            worker_count if process else 1,
            name="repro-batch",
            sinks=(metrics,),
            job_timeout=job_timeout,
            max_retries=max_retries,
            retry_backoff=retry_backoff,
        )
        compute = functools.partial(compute_miss, pool, _compute_job)
        try:
            return await asyncio.gather(
                *(
                    controller.decide_miss(request, key, compute, walks[key])
                    for key, request in jobs.items()
                )
            )
        finally:
            pool.shutdown()

    outcomes = dict(zip(jobs, asyncio.run(decide_misses()))) if jobs else {}

    computed = 0
    for key in pending:
        decision, elapsed, degraded, source = outcomes[key]
        coalesced = source == "coalesced"
        for position, index in enumerate(pending[key]):
            decisions[index] = replace(
                decision, request_id=request_list[index].request_id
            )
            # The first occurrence paid the computation; batch
            # duplicates (and coalesced keys, computed by another
            # batch) ride along as in-flight hits.
            metrics.record(
                admitted=decision.admitted,
                cache_hit=position > 0 or coalesced,
                latency=elapsed if position == 0 else 0.0,
            )
        metrics.count(coalesced=coalesced, degraded=degraded)
        computed += 1
        if progress is not None:
            verdict = " (degraded)" if degraded else ""
            if coalesced:
                verdict = " (coalesced)"
            progress(
                f"{computed}/{len(jobs)} admission decisions "
                f"computed{verdict}"
            )

    missing = [i for i, d in enumerate(decisions) if d is None]
    if missing:  # pragma: no cover - guards the reassembly invariant
        raise ConfigurationError(
            f"batch admission lost {len(missing)} decision(s), "
            f"first index {missing[0]}"
        )
    return decisions  # type: ignore[return-value]
