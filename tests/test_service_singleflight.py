"""Cross-batch single-flight: concurrent misses on one key compute once.

Regression for the pre-fix behaviour where ``admit_batch`` deduplicated
keys only *within* one batch: two concurrent batches (or shards, or
threads) both missing on the same key raced to compute it twice.  The
fix claims keys at the cache's in-flight table
(:class:`repro.service.cache.SingleFlight`); followers wait for the
leader's published decision instead of recomputing.
"""

from __future__ import annotations

import threading
import time

import pytest

import repro.service.batch as batch_module
from repro.service.batch import admit_batch
from repro.service.cache import DecisionCache, SingleFlight
from repro.service.metrics import ServiceMetrics
from repro.service.requests import AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

_real_compute_job = batch_module._compute_job


def _request(seed: int, request_id: str) -> AdmissionRequest:
    return AdmissionRequest(
        system=generate_system(LIGHT, seed), request_id=request_id
    )


class TestSingleFlightTable:
    def test_first_claim_leads_then_followers_wait(self):
        flights = SingleFlight()
        leader, flight = flights.begin("k")
        assert leader
        follower, same_flight = flights.begin("k")
        assert not follower
        assert same_flight is flight
        assert flights.in_flight() == 1
        assert flights.coalesced == 1

    def test_finish_publishes_to_waiters(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        decision = object()
        flights.finish("k", decision, degraded=True)
        published, degraded = SingleFlight.wait(flight)
        assert published is decision
        assert degraded
        assert flights.in_flight() == 0

    def test_finish_none_unblocks_without_a_decision(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        flights.finish("k", None)
        published, degraded = SingleFlight.wait(flight)
        assert published is None
        assert not degraded

    def test_key_is_claimable_again_after_finish(self):
        flights = SingleFlight()
        flights.begin("k")
        flights.finish("k", None)
        leader, _ = flights.begin("k")
        assert leader

    def test_wait_timeout_returns_none(self):
        flights = SingleFlight()
        _, flight = flights.begin("k")
        published, degraded = SingleFlight.wait(flight, timeout=0.01)
        assert published is None
        assert not degraded


class TestConcurrentBatchesComputeOnce:
    def test_same_key_across_threads_computes_once(self, monkeypatch):
        """The regression: two batches, one key, exactly one compute."""
        calls: list[str] = []
        entered = threading.Event()

        def slow_compute(payload):
            calls.append(payload[0])
            entered.set()
            time.sleep(0.3)  # hold the flight open for the follower
            return _real_compute_job(payload)

        monkeypatch.setattr(batch_module, "_compute_job", slow_compute)
        cache = DecisionCache()
        metrics = ServiceMetrics()
        results: dict[str, list] = {}

        def run(tag: str, request_id: str) -> None:
            results[tag] = admit_batch(
                [_request(1, request_id)],
                cache=cache,
                metrics=metrics,
                workers=1,
            )

        leader = threading.Thread(target=run, args=("leader", "a"))
        follower = threading.Thread(target=run, args=("follower", "b"))
        leader.start()
        assert entered.wait(timeout=5.0)  # leader is mid-compute
        follower.start()
        leader.join()
        follower.join()

        assert len(calls) == 1  # pre-fix: 2 (once per batch)
        assert results["leader"][0].admitted == results["follower"][0].admitted
        assert results["leader"][0].key == results["follower"][0].key
        assert cache.stats().coalesced == 1
        assert metrics.snapshot()["coalesced"] == 1
        # The follower's serving counted as a hit, not a second miss.
        assert metrics.snapshot()["cache_hits"] >= 1

    def test_follower_computes_for_itself_if_leader_publishes_nothing(
        self, monkeypatch
    ):
        """A dying leader must not wedge or starve its followers."""
        cache = DecisionCache()
        request = _request(2, "solo")
        key_holder: list[str] = []

        def observing_compute(payload):
            key_holder.append(payload[0])
            return _real_compute_job(payload)

        monkeypatch.setattr(
            batch_module, "_compute_job", observing_compute
        )
        # Stage a leader that claimed the key and then vanished.
        probe = admit_batch([request], cache=cache, workers=1)
        cache.clear()
        leader, _flight = cache.flights.begin(probe[0].key)
        assert leader

        done: list = []

        def follower() -> None:
            done.extend(
                admit_batch([request], cache=cache, workers=1)
            )

        thread = threading.Thread(target=follower)
        thread.start()
        time.sleep(0.1)
        assert not done  # follower is parked on the flight
        cache.flights.finish(probe[0].key, None)  # leader dies
        thread.join(timeout=5.0)
        assert not thread.is_alive()
        assert done[0] == probe[0]  # self-computed, identical verdict

    def test_degraded_leader_outcome_is_not_cached_for_followers(
        self, monkeypatch
    ):
        """Followers receive degraded verdicts but nobody caches them."""

        def always_raises(payload):
            raise RuntimeError("staged analysis crash")

        monkeypatch.setattr(batch_module, "_compute_job", always_raises)
        cache = DecisionCache()
        decisions = admit_batch(
            [_request(3, "x")],
            cache=cache,
            workers=1,
            max_retries=0,
        )
        assert decisions[0].rationale.startswith("service degraded:")
        assert cache.get(decisions[0].key) is None
        assert cache.flights.in_flight() == 0  # flight was released

    def test_within_batch_dedup_still_counts_duplicates_as_hits(self):
        base = _request(4, "a")
        dup = AdmissionRequest(
            system=base.system, request_id="b"
        )
        metrics = ServiceMetrics()
        decisions = admit_batch(
            [base, dup], metrics=metrics, workers=1
        )
        assert decisions[0].key == decisions[1].key
        snapshot = metrics.snapshot()
        assert snapshot["cache_hits"] == 1
        assert snapshot["cache_misses"] == 1


class TestPublishOrder:
    def test_batch_caches_each_computed_key_before_publishing_it(
        self, monkeypatch
    ):
        """A caller arriving between the two finds the entry or the
        flight, never neither, so it cannot compute the key again."""
        cache = DecisionCache()
        events: list[tuple[str, str]] = []
        put, finish = cache.put, cache.flights.finish

        def spy_put(key, decision):
            events.append(("put", key))
            put(key, decision)

        def spy_finish(key, decision, *, degraded=False):
            events.append(("finish", key))
            finish(key, decision, degraded=degraded)

        monkeypatch.setattr(cache, "put", spy_put)
        monkeypatch.setattr(cache.flights, "finish", spy_finish)
        decisions = admit_batch(
            [_request(seed, str(seed)) for seed in range(3)],
            cache=cache,
            workers=1,
        )
        assert len(events) == 6
        for decision in decisions:
            assert events.index(("put", decision.key)) < events.index(
                ("finish", decision.key)
            )


class TestFlightHygiene:
    def test_no_flight_leaks_after_clean_batches(self):
        cache = DecisionCache()
        for seed in range(3):
            admit_batch(
                [_request(seed, str(seed))], cache=cache, workers=1
            )
        assert cache.flights.in_flight() == 0

    def test_stats_describe_mentions_coalesced_only_when_nonzero(self):
        cache = DecisionCache()
        assert "coalesced" not in cache.stats().describe()
