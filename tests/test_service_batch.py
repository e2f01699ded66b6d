"""Unit tests for batch admission (ordering, dedup, worker counts)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.service.batch import admit_batch
from repro.service.cache import DecisionCache
from repro.service.engine import compute_decision
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)


def _requests(count: int, tag: str = "") -> list[AdmissionRequest]:
    return [
        AdmissionRequest(
            system=generate_system(LIGHT, seed),
            request_id=f"{tag}{seed}",
        )
        for seed in range(count)
    ]


class TestAdmitBatch:
    def test_matches_individual_decisions(self):
        requests = _requests(4)
        batch = admit_batch(requests, workers=1)
        assert batch == [compute_decision(r) for r in requests]

    def test_order_is_request_order(self):
        batch = admit_batch(_requests(5), workers=1)
        assert [d.request_id for d in batch] == [str(i) for i in range(5)]

    def test_pool_matches_serial(self):
        requests = _requests(5)
        assert admit_batch(requests, workers=2) == admit_batch(
            requests, workers=1
        )

    def test_empty_batch(self):
        assert admit_batch([], workers=1) == []

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigurationError):
            admit_batch(_requests(1), workers=0)

    def test_duplicates_computed_once(self):
        base = _requests(2)
        requests = base + [
            r.with_request_id(f"dup-{r.request_id}") for r in base
        ]
        metrics = ServiceMetrics()
        batch = admit_batch(requests, metrics=metrics, workers=1)
        snap = metrics.snapshot()
        assert snap["cache_misses"] == 2  # one per distinct system
        assert snap["cache_hits"] == 2  # in-batch duplicates ride along
        assert batch[0].key == batch[2].key
        assert batch[2].request_id == "dup-0"

    def test_cache_on_off_identical(self):
        requests = _requests(4)
        cached = admit_batch(requests, cache=DecisionCache(), workers=1)
        uncached = admit_batch(requests, cache=None, workers=1)
        assert cached == uncached

    def test_warm_cache_serves_without_computing(self):
        requests = _requests(3)
        cache = DecisionCache()
        metrics = ServiceMetrics()
        first = admit_batch(requests, cache=cache, workers=1)
        second = admit_batch(
            requests, cache=cache, metrics=metrics, workers=1
        )
        assert first == second
        assert metrics.snapshot()["cache_misses"] == 0
        assert cache.stats().hits == 3

    def test_progress_fires_per_computed_decision(self):
        lines: list[str] = []
        admit_batch(_requests(3), workers=1, progress=lines.append)
        assert lines == [
            "1/3 admission decisions computed",
            "2/3 admission decisions computed",
            "3/3 admission decisions computed",
        ]

    def test_progress_silent_on_full_hit(self):
        requests = _requests(2)
        cache = DecisionCache()
        admit_batch(requests, cache=cache, workers=1)
        lines: list[str] = []
        admit_batch(
            requests, cache=cache, workers=1, progress=lines.append
        )
        assert lines == []

    def test_partial_warm_batch(self):
        cache = DecisionCache()
        admit_batch(_requests(2), cache=cache, workers=1)
        mixed = _requests(4)  # seeds 0,1 cached; 2,3 cold
        decisions = admit_batch(mixed, cache=cache, workers=1)
        assert [d.request_id for d in decisions] == ["0", "1", "2", "3"]
        assert decisions == [compute_decision(r) for r in mixed]

