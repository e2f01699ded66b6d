"""Admission-service throughput: cold vs warm decision cache.

The ISSUE-1 acceptance benchmark: on a repeated 100-system batch, warm-
cache admission must be at least 10x faster than cold-cache admission
(in practice the gap is orders of magnitude -- a hit is a dict lookup,
a miss is a full SA/PM + SA/DS run).
"""

from __future__ import annotations

import time

from repro.service import (
    AdmissionController,
    AdmissionRequest,
    DecisionCache,
    admit_batch,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

from conftest import save_and_print

BATCH_SIZE = 100
CONFIG = WorkloadConfig(
    subtasks_per_task=3, utilization=0.6, tasks=8, processors=4
)


def _batch() -> list[AdmissionRequest]:
    return [
        AdmissionRequest(
            system=generate_system(CONFIG, seed), request_id=str(seed)
        )
        for seed in range(BATCH_SIZE)
    ]


def test_warm_cache_batch_at_least_10x_faster():
    requests = _batch()
    cache = DecisionCache(capacity=2 * BATCH_SIZE)

    started = time.perf_counter()
    cold = admit_batch(requests, cache=cache, workers=1)
    cold_seconds = time.perf_counter() - started

    started = time.perf_counter()
    warm = admit_batch(requests, cache=cache, workers=1)
    warm_seconds = time.perf_counter() - started

    assert warm == cold, "cache changed the decisions"
    stats = cache.stats()
    assert stats.misses == BATCH_SIZE and stats.hits == BATCH_SIZE

    speedup = cold_seconds / warm_seconds
    save_and_print(
        "admission_throughput",
        "\n".join(
            [
                f"admission throughput, {BATCH_SIZE}-system batch "
                f"{CONFIG.label}:",
                (
                    f"  cold cache: {cold_seconds:.4f} s "
                    f"({BATCH_SIZE / cold_seconds:.0f} admissions/s)"
                ),
                (
                    f"  warm cache: {warm_seconds:.4f} s "
                    f"({BATCH_SIZE / warm_seconds:.0f} admissions/s)"
                ),
                f"  speedup: {speedup:.0f}x",
            ]
        ),
    )
    assert speedup >= 10.0, (
        f"warm cache only {speedup:.1f}x faster "
        f"(cold {cold_seconds:.4f}s, warm {warm_seconds:.4f}s)"
    )


def test_persisted_cache_restart_matches(tmp_path):
    """A warm restart from disk serves the whole batch without computing."""
    requests = _batch()
    path = tmp_path / "cache.jsonl"
    first = AdmissionController(cache=DecisionCache(path=path))
    before = first.admit_batch(requests, workers=1)
    first.cache.save()

    restarted = AdmissionController(cache=DecisionCache(path=path))
    started = time.perf_counter()
    after = restarted.admit_batch(requests, workers=1)
    warm_seconds = time.perf_counter() - started

    assert after == before
    assert restarted.metrics.snapshot()["cache_misses"] == 0
    save_and_print(
        "admission_warm_restart",
        (
            f"persisted-cache restart: {BATCH_SIZE} admissions in "
            f"{warm_seconds:.4f} s with 0 recomputations"
        ),
    )


def test_single_admission_hit_latency(benchmark):
    """Steady-state hit path: content hash + LRU lookup only."""
    controller = AdmissionController()
    request = AdmissionRequest(system=generate_system(CONFIG, seed=0))
    controller.admit(request)  # prime
    decision = benchmark(lambda: controller.admit(request))
    assert decision.admitted in (True, False)
    assert controller.metrics.snapshot()["cache_misses"] == 1


def test_single_admission_miss_latency(benchmark):
    """Cold path for reference: one full SA/PM + SA/DS decision."""
    controller = AdmissionController(cache_backend=None)
    request = AdmissionRequest(system=generate_system(CONFIG, seed=1))
    decision = benchmark(lambda: controller.admit(request))
    assert decision.key
