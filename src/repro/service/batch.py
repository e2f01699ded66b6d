"""Batch admission: fan cache misses over a process pool.

Mirrors the idiom of :mod:`repro.experiments.parallel`: jobs are pure
functions of picklable inputs, and all randomness-free computation makes
the result independent of the worker count.  On top of that, the batch
layer

* serves every request already in the cache without touching the pool,
* deduplicates identical content *within* the batch (each distinct key
  is computed exactly once, however often it recurs),
* deduplicates identical content *across* concurrent batches through
  the cache's single-flight table
  (:class:`repro.service.cache.SingleFlight`): the first batch to claim
  a key computes it, later batches wait for the published decision
  instead of recomputing -- and fall back to computing for themselves
  if the leader could not publish, so coalescing can never wedge,
* polices the pool: a job may be bounded by a wall-clock ``job_timeout``
  and is retried (with exponential backoff) when it times out, raises,
  or loses its worker process -- after ``max_retries`` failed attempts
  the batch *degrades* that one decision to a safe REJECT instead of
  hanging or failing the whole batch.  A *broken pool* (a worker
  process died) is rebuilt once per break and the jobs stranded on it
  are resubmitted **without** consuming their retry budget -- the break
  is the pool's failure, not theirs; only a job that rides the pool
  down repeatedly (more than ``max_retries + 1`` breaks) is treated as
  the culprit and failed closed, and
* reassembles decisions in request order, so output is deterministic
  with caching on, off, or warm-started from disk.

Degraded decisions are never cached: the next batch retries the
computation from scratch.
"""

from __future__ import annotations

import math
import os
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from typing import Callable, Iterable, Mapping, Sequence

from repro.errors import ConfigurationError
from repro.service.cache import DecisionCache, SingleFlight
from repro.service.engine import compute_decision
from repro.service.hashing import request_key
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


def _degraded_decision(
    request: AdmissionRequest, key: str, reason: str
) -> AdmissionDecision:
    """A safe REJECT standing in for a decision the pool never produced.

    Admission control must fail *closed*: a system whose analysis could
    not be completed is not certified, so it is not admitted.  The
    rationale carries the failure so callers can distinguish a degraded
    verdict from an analytical rejection and retry later.
    """
    return AdmissionDecision(
        admitted=False,
        protocol=None,
        rationale=f"service degraded: {reason}",
        schedulable={p: False for p in request.protocols},
        task_bounds={},
        worst_bound_ratio=math.inf,
        key=key,
        system_name=request.system.name,
        request_id=request.request_id,
    )


def _compute_serial(
    key: str,
    request: AdmissionRequest,
    *,
    max_retries: int,
    retry_backoff: float,
    metrics: ServiceMetrics | None,
) -> tuple[AdmissionDecision, float, bool]:
    """In-process attempt ladder: (decision, seconds, degraded?).

    No pool means no timeout enforcement (a thread cannot interrupt its
    own computation); only the retry/degrade ladder applies.
    """
    attempt = 0
    while True:
        started = time.perf_counter()
        try:
            _key, decision, elapsed = _compute_job((key, request))
            return decision, elapsed, False
        except Exception as exc:  # noqa: BLE001 - degrade, don't crash
            if attempt >= max_retries:
                return (
                    _degraded_decision(
                        request,
                        key,
                        f"computation failed after {attempt + 1} "
                        f"attempt(s): {exc}",
                    ),
                    time.perf_counter() - started,
                    True,
                )
            attempt += 1
            if metrics is not None:
                metrics.record_retry()
            if retry_backoff:
                time.sleep(retry_backoff * (2 ** (attempt - 1)))


def _next_wakeup(
    queue: deque[tuple[str, int, float]],
    in_flight: Mapping,
    job_timeout: float | None,
    now: float,
    *,
    capacity: int,
) -> float | None:
    """Seconds until the earliest scheduler deadline, or None when idle.

    Two deadline families feed the wakeup:

    * queued jobs' resubmission instants -- but only when ``capacity``
      slots are free to actually submit into (with a full window an
      expired backoff deadline is unactionable, and honouring it would
      busy-spin ``wait(timeout=0)`` until a worker finished), and
    * in-flight jobs' ``job_timeout`` expiries.

    Expired instants count, clamping the result to 0.0 (wake *now*).
    The pre-fix code instead filtered expired instants out of the
    wakeup set, so when the clock ticked past a backoff deadline
    between the submission scan and this computation, the scheduler
    slept until the *next* deadline -- oversleeping the expired one by
    an arbitrary margin.
    """
    deadlines = (
        [not_before for (_key, _attempt, not_before) in queue]
        if capacity > 0
        else []
    )
    if job_timeout is not None:
        deadlines.extend(
            submitted + job_timeout
            for (_key, _attempt, submitted) in in_flight.values()
        )
    if not deadlines:
        return None
    return max(0.0, min(deadlines) - now)


def _compute_pooled(
    jobs: Mapping[str, AdmissionRequest],
    *,
    worker_count: int,
    job_timeout: float | None,
    max_retries: int,
    retry_backoff: float,
    metrics: ServiceMetrics | None,
) -> dict[str, tuple[AdmissionDecision, float, bool]]:
    """Pool scheduler with per-job deadlines and a bounded retry queue.

    Jobs are submitted at most ``worker_count`` at a time so a job's
    submission instant approximates its start instant -- that is what
    makes the wall-clock ``job_timeout`` meaningful.  A timed-out
    future cannot be interrupted (the worker may be wedged in native
    code); it is *abandoned*: dropped from tracking, its slot written
    off, and the job resubmitted or degraded.

    A broken pool (worker process died) is rebuilt once per break and
    every job stranded on it -- in flight or mid-submission -- is
    resubmitted at its *current* attempt count: a pool break is the
    pool's failure, not the job's, so it never consumes retry budget.
    A job that has ridden a break down is a suspect and from then on
    runs alone, so any further break is its own.  Only a job present
    at more than ``max_retries + 1`` breaks is treated as the culprit
    (it keeps killing its worker) and failed closed; an innocent job
    stranded next to it is charged one break at most.
    """
    outcomes: dict[str, tuple[AdmissionDecision, float, bool]] = {}
    #: (key, attempt, earliest resubmission instant) awaiting a slot.
    queue: deque[tuple[str, int, float]] = deque(
        (key, 0, 0.0) for key in jobs
    )
    #: future -> (key, attempt, submission instant).
    in_flight: dict = {}
    abandoned = 0  # slots still occupied by timed-out computations
    breaks: dict[str, int] = {}  # pool breaks each key has ridden down

    def resolve_failure(key: str, attempt: int, reason: str) -> None:
        if attempt >= max_retries:
            outcomes[key] = (
                _degraded_decision(
                    jobs[key],
                    key,
                    f"{reason} (after {attempt + 1} attempt(s))",
                ),
                0.0,
                True,
            )
            return
        if metrics is not None:
            metrics.record_retry()
        delay = retry_backoff * (2 ** attempt) if retry_backoff else 0.0
        queue.append((key, attempt + 1, time.monotonic() + delay))

    pool = ProcessPoolExecutor(max_workers=worker_count)
    try:
        while queue or in_flight:
            broken = False
            #: jobs whose future died with the pool, not on their own.
            stranded: list[tuple[str, int]] = []

            # Keep the live part of the pool full; respect backoff.  A
            # suspect (see above) waits for an empty pool and then runs
            # alone.
            window = max(1, worker_count - abandoned)
            now = time.monotonic()
            backing_off: deque[tuple[str, int, float]] = deque()
            solo = any(breaks.get(k) for k, _a, _s in in_flight.values())
            while queue and len(in_flight) < window and not solo:
                key, attempt, not_before = queue.popleft()
                if now < not_before or (breaks.get(key) and in_flight):
                    backing_off.append((key, attempt, not_before))
                    continue
                solo = bool(breaks.get(key))
                try:
                    future = pool.submit(_compute_job, (key, jobs[key]))
                except BrokenProcessPool:
                    # Submitting against a dead pool is not the job's
                    # failure: keep it queued untouched and rebuild.
                    backing_off.append((key, attempt, not_before))
                    broken = True
                    break
                in_flight[future] = (key, attempt, time.monotonic())
            queue.extend(backing_off)

            if not broken:
                # Block until a completion, a deadline, or a backoff
                # expiry -- whichever comes first.
                now = time.monotonic()
                timeout = _next_wakeup(
                    # Suspects cannot start until the pool drains.
                    deque(
                        item
                        for item in queue
                        if not (breaks.get(item[0]) and in_flight)
                    ),
                    in_flight,
                    job_timeout,
                    now,
                    capacity=0 if solo else window - len(in_flight),
                )
                if in_flight:
                    done, _ = wait(
                        set(in_flight),
                        timeout=timeout,
                        return_when=FIRST_COMPLETED,
                    )
                else:
                    done = set()
                    if timeout is not None and timeout > 0.0:
                        time.sleep(timeout)

                for future in done:
                    key, attempt, _sub = in_flight.pop(future)
                    try:
                        _key, decision, elapsed = future.result()
                    except BrokenProcessPool:
                        broken = True
                        stranded.append((key, attempt))
                    except Exception as exc:  # noqa: BLE001 - degrade
                        resolve_failure(
                            key, attempt, f"computation failed: {exc}"
                        )
                    else:
                        outcomes[key] = (decision, elapsed, False)

                if not broken and job_timeout is not None:
                    now = time.monotonic()
                    overdue = [
                        future
                        for future, (_k, _a, sub) in in_flight.items()
                        if now - sub >= job_timeout
                    ]
                    for future in overdue:
                        key, attempt, _sub = in_flight.pop(future)
                        if not future.cancel():
                            # Already running: the worker stays busy
                            # until (if ever) it finishes; write the
                            # slot off.
                            abandoned += 1
                        if metrics is not None:
                            metrics.record_timeout()
                        resolve_failure(
                            key,
                            attempt,
                            f"timed out after {job_timeout:g} s",
                        )

            if broken:
                # Rebuild once, resubmit every stranded job at its
                # current attempt -- the break consumed no retry budget.
                # Results that finished before the break are still good.
                for future, (key, attempt, _sub) in in_flight.items():
                    if future.done():
                        try:
                            _key, decision, elapsed = future.result()
                        except Exception:  # noqa: BLE001 - died with pool
                            stranded.append((key, attempt))
                        else:
                            outcomes[key] = (decision, elapsed, False)
                            continue
                    else:
                        stranded.append((key, attempt))
                in_flight.clear()
                pool.shutdown(wait=False, cancel_futures=True)
                pool = ProcessPoolExecutor(max_workers=worker_count)
                abandoned = 0
                if metrics is not None:
                    metrics.record_pool_rebuild()
                for key, attempt in stranded:
                    count = breaks.get(key, 0) + 1
                    breaks[key] = count
                    if count > max_retries + 1:
                        outcomes[key] = (
                            _degraded_decision(
                                jobs[key],
                                key,
                                f"worker pool broke {count} time(s) "
                                "under this job",
                            ),
                            0.0,
                            True,
                        )
                    else:
                        queue.append((key, attempt, 0.0))
    finally:
        pool.shutdown(wait=False, cancel_futures=True)
    return outcomes


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

    ``workers`` defaults to the CPU count; ``workers=1`` computes in
    process (no pool), which is fastest for small batches.  Duplicate
    request content inside the batch is computed once and accounted as
    cache hits for the duplicates; duplicate content across
    *concurrent* batches sharing one cache is computed once too, via
    the cache's single-flight table (waiters are accounted as hits and
    counted on ``ServiceMetrics.coalesced``).  ``progress`` (when
    given) receives one line per computed (non-cached) decision.

    ``job_timeout`` bounds the wall-clock seconds any one decision may
    take on the pool; a job that exceeds it is abandoned (the hung
    worker is written off) and resubmitted.  Any failed attempt --
    timeout, raised exception, dead worker -- is retried up to
    ``max_retries`` times with exponential backoff starting at
    ``retry_backoff`` seconds; a job that exhausts its ladder yields a
    *degraded* REJECT decision (rationale prefixed
    ``service degraded:``) rather than hanging or failing the batch.
    Degraded decisions are never cached.  Timeout enforcement needs the
    pool: with ``workers=1`` only the retry/degrade ladder applies.
    """
    request_list = list(requests)
    worker_count = workers if workers is not None else (os.cpu_count() or 1)
    if worker_count < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
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
    if not request_list:
        return []

    decisions: list[AdmissionDecision | None] = [None] * len(request_list)
    # key -> indices still needing a decision, in first-appearance order.
    pending: dict[str, list[int]] = {}
    for index, request in enumerate(request_list):
        started = time.perf_counter()
        key = request_key(request)
        cached = cache.get(key) if cache is not None else None
        if cached is not None:
            decisions[index] = replace(
                cached, request_id=request.request_id
            )
            if metrics is not None:
                metrics.record(
                    admitted=cached.admitted,
                    cache_hit=True,
                    latency=time.perf_counter() - started,
                )
        else:
            pending.setdefault(key, []).append(index)

    jobs = {
        key: request_list[indices[0]] for key, indices in pending.items()
    }

    # Cross-batch single-flight: claim every distinct key at the cache's
    # in-flight table.  Keys another batch (or shard, or thread) is
    # already computing are *awaited* instead of recomputed; the rest
    # are *owned* and computed here.  Without a cache there is no
    # shared layer for concurrent batches to meet at, so every key is
    # owned.
    flights = cache.flights if cache is not None else None
    owned: dict[str, AdmissionRequest] = {}
    awaited: dict[str, object] = {}
    if flights is None:
        owned = dict(jobs)
    else:
        for key, request in jobs.items():
            leader, flight = flights.begin(key)
            if leader:
                owned[key] = request
            else:
                awaited[key] = flight

    outcomes: dict[str, tuple[AdmissionDecision, float, bool]] = {}
    if owned:
        try:
            if worker_count == 1 or (
                len(owned) == 1 and job_timeout is None
            ):
                for key, request in owned.items():
                    outcomes[key] = _compute_serial(
                        key,
                        request,
                        max_retries=max_retries,
                        retry_backoff=retry_backoff,
                        metrics=metrics,
                    )
            else:
                outcomes = _compute_pooled(
                    owned,
                    worker_count=worker_count,
                    job_timeout=job_timeout,
                    max_retries=max_retries,
                    retry_backoff=retry_backoff,
                    metrics=metrics,
                )
        finally:
            # The leader MUST publish every claimed key, decisions and
            # failures alike, or waiters would block forever.
            if flights is not None:
                for key in owned:
                    outcome = outcomes.get(key)
                    if outcome is None:
                        flights.finish(key, None)
                    else:
                        flights.finish(
                            key, outcome[0], degraded=outcome[2]
                        )

    coalesced: set[str] = set()
    for key, flight in awaited.items():
        started = time.perf_counter()
        decision, degraded = SingleFlight.wait(flight)
        if decision is None:
            # The leader finished without publishing a decision (its
            # batch died mid-compute); fall back to computing locally
            # rather than failing or waiting forever.
            outcomes[key] = _compute_serial(
                key,
                jobs[key],
                max_retries=max_retries,
                retry_backoff=retry_backoff,
                metrics=metrics,
            )
        else:
            outcomes[key] = (
                decision,
                time.perf_counter() - started,
                degraded,
            )
            coalesced.add(key)
            if metrics is not None:
                metrics.record_coalesced()

    computed = 0
    for key in pending:
        decision, elapsed, degraded = outcomes[key]
        if cache is not None and not degraded and key not in coalesced:
            cache.put(key, decision)
        for position, index in enumerate(pending[key]):
            decisions[index] = replace(
                decision, request_id=request_list[index].request_id
            )
            if metrics is not None:
                # The first occurrence paid the computation; batch
                # duplicates (and coalesced keys, computed by another
                # batch) ride along as in-flight hits.
                metrics.record(
                    admitted=decision.admitted,
                    cache_hit=position > 0 or key in coalesced,
                    latency=elapsed if position == 0 else 0.0,
                )
        if metrics is not None and degraded:
            metrics.record_degraded()
        computed += 1
        if progress is not None:
            verdict = " (degraded)" if degraded else ""
            if key in coalesced:
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
