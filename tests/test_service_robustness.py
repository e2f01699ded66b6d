"""Batch admission under misbehaving workers: timeouts, retries, degrade.

The worker body (``repro.service.batch._compute_job``) is monkeypatched
in the parent process; with the fork start method the pool's children
inherit the patched module, so hangs and crashes can be staged
deterministically without real workload pathology.
"""

from __future__ import annotations

import asyncio
import functools
import multiprocessing
import os
import time

import pytest

import repro.service.batch as batch_module
import repro.service.frontend as frontend_module
from repro.errors import ConfigurationError
from repro.service.batch import admit_batch
from repro.service.cache import DecisionCache
from repro.service.engine import AdmissionController, compute_decision
from repro.service.frontend import AdmissionFrontend, FrontendConfig
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="staged worker faults rely on fork inheriting the patch",
)

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

_real_compute_job = batch_module._compute_job


def _requests(count: int) -> list[AdmissionRequest]:
    return [
        AdmissionRequest(
            system=generate_system(LIGHT, seed), request_id=f"r{seed}"
        )
        for seed in range(count)
    ]


# Staged worker bodies must be module-level: the pool pickles the
# callable by qualified name, so closures cannot cross into workers.
def _hang_job(request_id, seconds, payload):
    key, request = payload
    if request.request_id == request_id:
        time.sleep(seconds)
    return _real_compute_job(payload)


def _raise_job(request_id, payload):
    key, request = payload
    if request.request_id == request_id:
        raise RuntimeError("staged pool crash")
    return _real_compute_job(payload)


def _hang_on(request_id: str, seconds: float = 5.0):
    return functools.partial(_hang_job, request_id, seconds)


def _crash_once_job(flag_path, request_id, payload):
    """Kill the worker process the first time ``request_id`` is seen.

    The flag file is the cross-process "already crashed" bit: the
    first worker to run the job dies with ``os._exit`` (taking the
    whole pool with it -- ``BrokenProcessPool``); the retry, on the
    rebuilt pool, finds the flag and computes normally.
    """
    key, request = payload
    if request.request_id == request_id and not os.path.exists(flag_path):
        with open(flag_path, "w"):
            pass
        os._exit(1)
    return _real_compute_job(payload)


def _always_crash_job(request_id, payload):
    key, request = payload
    if request.request_id == request_id:
        os._exit(1)
    return _real_compute_job(payload)


def _flaky_once_then_hang(flag_path, request_id, seconds, payload):
    """``request_id`` raises on first sight; everyone else naps."""
    key, request = payload
    if request.request_id == request_id:
        if not os.path.exists(flag_path):
            with open(flag_path, "w"):
                pass
            raise RuntimeError("staged transient failure")
        return _real_compute_job(payload)
    time.sleep(seconds)
    return _real_compute_job(payload)


class TestValidation:
    @pytest.mark.parametrize(
        "options",
        [
            {"job_timeout": 0.0},
            {"job_timeout": -1.0},
            {"job_timeout": float("inf")},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
            {"retry_backoff": float("nan")},
        ],
    )
    def test_bad_knobs_rejected(self, options):
        with pytest.raises(ConfigurationError):
            admit_batch(_requests(1), workers=2, **options)


class TestTimeouts:
    def test_hung_worker_degrades_only_its_decision(self, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_compute_job", _hang_on("r1")
        )
        metrics = ServiceMetrics()
        started = time.monotonic()
        decisions = admit_batch(
            _requests(4),
            workers=2,
            metrics=metrics,
            job_timeout=0.4,
            max_retries=1,
            retry_backoff=0.0,
        )
        elapsed = time.monotonic() - started
        assert elapsed < 4.0  # nobody waited for the 5 s sleeper
        by_id = {d.request_id: d for d in decisions}
        degraded = by_id["r1"]
        assert not degraded.admitted
        assert degraded.rationale.startswith("service degraded:")
        assert "timed out" in degraded.rationale
        assert degraded.worst_bound_ratio == float("inf")
        # The other three requests got real verdicts.
        for rid in ("r0", "r2", "r3"):
            assert not by_id[rid].rationale.startswith(
                "service degraded:"
            )
        snapshot = metrics.snapshot()
        assert snapshot["timeouts"] == 2  # initial attempt + one retry
        assert snapshot["retries"] == 1
        assert snapshot["degraded"] == 1
        assert "robustness:" in metrics.describe()

    def test_degraded_decisions_are_not_cached(self, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_compute_job", _hang_on("r0")
        )
        cache = DecisionCache()
        requests = _requests(2)
        decisions = admit_batch(
            requests,
            workers=2,
            cache=cache,
            job_timeout=0.3,
            max_retries=0,
        )
        assert decisions[0].rationale.startswith("service degraded:")
        assert cache.get(decisions[0].key) is None
        # The healthy decision was cached as usual.
        assert cache.get(decisions[1].key) is not None

    def test_timeout_applies_per_job_not_per_batch(self, monkeypatch):
        # Four healthy jobs, generous timeout: nothing degrades even
        # though total batch time may exceed one job's budget.
        metrics = ServiceMetrics()
        decisions = admit_batch(
            _requests(4), workers=2, metrics=metrics, job_timeout=30.0
        )
        assert all(
            not d.rationale.startswith("service degraded:")
            for d in decisions
        )
        assert metrics.snapshot()["timeouts"] == 0
        assert metrics.snapshot()["degraded"] == 0


class TestRetries:
    def test_serial_flaky_job_degrades_after_the_ladder(
        self, monkeypatch
    ):
        calls = []

        def always_raises(payload):
            calls.append(payload[0])
            raise RuntimeError("staged analysis crash")

        monkeypatch.setattr(batch_module, "_compute_job", always_raises)
        metrics = ServiceMetrics()
        cache = DecisionCache()
        decisions = admit_batch(
            _requests(1),
            workers=1,
            cache=cache,
            metrics=metrics,
            max_retries=2,
            retry_backoff=0.0,
        )
        assert len(calls) == 3  # initial attempt + 2 retries
        assert decisions[0].rationale.startswith("service degraded:")
        assert "staged analysis crash" in decisions[0].rationale
        assert metrics.snapshot()["retries"] == 2
        assert metrics.snapshot()["degraded"] == 1
        assert cache.get(decisions[0].key) is None

    def test_serial_retry_then_success(self, monkeypatch):
        attempts = []

        def flaky(payload):
            attempts.append(payload[0])
            if len(attempts) == 1:
                raise RuntimeError("transient")
            return _real_compute_job(payload)

        monkeypatch.setattr(batch_module, "_compute_job", flaky)
        metrics = ServiceMetrics()
        decisions = admit_batch(
            _requests(1),
            workers=1,
            metrics=metrics,
            max_retries=2,
            retry_backoff=0.0,
        )
        assert len(attempts) == 2
        assert not decisions[0].rationale.startswith("service degraded:")
        assert metrics.snapshot()["retries"] == 1
        assert metrics.snapshot()["degraded"] == 0

    def test_pooled_flaky_job_retries_across_the_pool(self, monkeypatch):
        monkeypatch.setattr(
            batch_module,
            "_compute_job",
            functools.partial(_raise_job, "r0"),
        )
        metrics = ServiceMetrics()
        decisions = admit_batch(
            _requests(3),
            workers=2,
            metrics=metrics,
            job_timeout=30.0,
            max_retries=1,
            retry_backoff=0.0,
        )
        by_id = {d.request_id: d for d in decisions}
        assert by_id["r0"].rationale.startswith("service degraded:")
        assert "staged pool crash" in by_id["r0"].rationale
        assert not by_id["r1"].rationale.startswith("service degraded:")
        assert metrics.snapshot()["retries"] == 1
        assert metrics.snapshot()["degraded"] == 1


class TestBrokenPool:
    """Regression: a pool break must not bill the stranded jobs.

    Pre-fix, ``BrokenProcessPool`` surfaced as an ordinary job failure
    for *every* job queued or in flight on the dead pool, burning one
    retry attempt each -- with ``max_retries=0`` a single worker crash
    degraded the whole batch.  Post-fix the pool is rebuilt once per
    break and the stranded jobs resubmit at their current attempt.
    """

    def test_one_crash_degrades_nothing(self, monkeypatch, tmp_path):
        flag = tmp_path / "crashed"
        monkeypatch.setattr(
            batch_module,
            "_compute_job",
            functools.partial(_crash_once_job, str(flag), "r0"),
        )
        metrics = ServiceMetrics()
        decisions = admit_batch(
            _requests(4),
            workers=2,
            metrics=metrics,
            max_retries=0,  # pre-fix: any break means degradation
            retry_backoff=0.0,
        )
        assert flag.exists()  # the crash really happened
        assert all(
            not d.rationale.startswith("service degraded:")
            for d in decisions
        )
        snapshot = metrics.snapshot()
        assert snapshot["pool_rebuilds"] >= 1
        assert snapshot["degraded"] == 0
        assert "pool rebuild" in metrics.describe()

    def test_pool_killer_eventually_fails_closed(self, monkeypatch):
        # A job that kills every pool it rides must not rebuild forever:
        # after max_retries + 1 breaks it is treated as the culprit.
        monkeypatch.setattr(
            batch_module,
            "_compute_job",
            functools.partial(_always_crash_job, "r0"),
        )
        metrics = ServiceMetrics()
        decisions = admit_batch(
            _requests(3),
            workers=2,
            metrics=metrics,
            max_retries=0,
            retry_backoff=0.0,
        )
        by_id = {d.request_id: d for d in decisions}
        assert by_id["r0"].rationale.startswith("service degraded:")
        assert "worker pool broke" in by_id["r0"].rationale
        # Innocent bystanders still got real verdicts.
        for rid in ("r1", "r2"):
            assert not by_id[rid].rationale.startswith(
                "service degraded:"
            )
        assert metrics.snapshot()["pool_rebuilds"] >= 2

    def test_crash_survivors_are_cached_and_deterministic(
        self, monkeypatch, tmp_path
    ):
        flag = tmp_path / "crashed"
        monkeypatch.setattr(
            batch_module,
            "_compute_job",
            functools.partial(_crash_once_job, str(flag), "r1"),
        )
        cache = DecisionCache()
        requests = _requests(3)
        survived = admit_batch(
            requests, workers=2, cache=cache, max_retries=0
        )
        monkeypatch.setattr(
            batch_module, "_compute_job", _real_compute_job
        )
        healthy = admit_batch(requests, workers=2)
        assert survived == healthy
        assert all(cache.get(d.key) is not None for d in survived)


class TestFrontendBrokenPool:
    """Regression: one pool break is one rebuild in the frontend.

    A dying worker strands every job in flight on its pool.  Pre-fix,
    each stranded coroutine rebuilt the pool and counted a rebuild --
    tearing down the pool the previous coroutine had just resubmitted
    to.  Post-fix only the coroutine that finds the broken pool still
    installed rebuilds; the rest resubmit to its replacement.
    """

    @staticmethod
    def _serve(requests, **options):
        config = FrontendConfig(
            executor="process",
            workers_per_shard=4,
            cache_backend=None,
            retry_backoff=0.0,
            **options,
        )

        async def run():
            async with AdmissionFrontend(config) as frontend:
                decisions = await asyncio.gather(
                    *(frontend.admit(request) for request in requests)
                )
                return decisions, frontend.metrics.snapshot()

        return asyncio.run(run())

    def test_one_break_is_rebuilt_and_counted_once(
        self, monkeypatch, tmp_path
    ):
        flag = tmp_path / "crashed"
        monkeypatch.setattr(
            frontend_module,
            "_shard_compute",
            functools.partial(_crash_once_job, str(flag), "r0"),
        )
        requests = _requests(8)
        decisions, snapshot = self._serve(requests, max_retries=0)
        assert flag.exists()  # the crash really happened
        assert snapshot["pool_rebuilds"] == 1
        assert snapshot["degraded"] == 0
        for request, decision in zip(requests, decisions):
            assert decision == compute_decision(request)

    def test_pool_killer_still_fails_closed(self, monkeypatch):
        # The killer counts every break it rides, so it degrades after
        # max_retries + 2 of them -- one rebuild each.
        monkeypatch.setattr(
            frontend_module,
            "_shard_compute",
            functools.partial(_always_crash_job, "r0"),
        )
        requests = _requests(4)
        decisions, snapshot = self._serve(requests, max_retries=0)
        killer = decisions[0]
        assert killer.rationale.startswith("service degraded:")
        assert "worker pool broke 2 time(s)" in killer.rationale
        assert snapshot["pool_rebuilds"] == 2
        for request, decision in zip(requests[1:], decisions[1:]):
            if not decision.rationale.startswith("service degraded:"):
                assert decision == compute_decision(request)


class TestSchedulerWakeup:
    """Regression: no oversleep past a backoff deadline, no busy-wait."""

    def test_retry_under_load_stays_bounded_without_spinning(
        self, monkeypatch, tmp_path
    ):
        # r0 fails once and backs off 0.2 s while r1/r2 occupy both
        # workers for ~0.6 s.  The scheduler must neither oversleep
        # (pre-fix: an expired backoff instant was dropped from the
        # wakeup set, so the retry waited for the *next* event) nor
        # busy-spin wait(timeout=0) while the window is full.
        monkeypatch.setattr(
            batch_module,
            "_compute_job",
            functools.partial(
                _flaky_once_then_hang,
                str(tmp_path / "failed"),
                "r0",
                0.6,
            ),
        )
        real_wait = batch_module.wait
        wait_calls: list = []

        def counting_wait(futures, timeout=None, return_when=None):
            wait_calls.append(timeout)
            return real_wait(
                futures, timeout=timeout, return_when=return_when
            )

        monkeypatch.setattr(batch_module, "wait", counting_wait)
        started = time.monotonic()
        decisions = admit_batch(
            _requests(3),
            workers=2,
            max_retries=1,
            retry_backoff=0.2,
        )
        elapsed = time.monotonic() - started
        by_id = {d.request_id: d for d in decisions}
        assert not by_id["r0"].rationale.startswith("service degraded:")
        assert elapsed < 5.0  # no oversleep into the pool teardown
        # A handful of scheduler turns, not a zero-timeout spin loop.
        assert len(wait_calls) < 25
        assert sum(1 for t in wait_calls if t == 0.0) <= 2


class TestControllerPassthrough:
    def test_controller_batch_carries_the_knobs(self, monkeypatch):
        monkeypatch.setattr(
            batch_module, "_compute_job", _hang_on("r0")
        )
        controller = AdmissionController(cache_backend=None)
        decisions = controller.admit_batch(
            _requests(2),
            workers=2,
            job_timeout=0.3,
            max_retries=0,
        )
        assert decisions[0].rationale.startswith("service degraded:")
        snapshot = controller.metrics.snapshot()
        assert snapshot["timeouts"] == 1
        assert snapshot["degraded"] == 1
        assert "robustness:" in controller.describe()
