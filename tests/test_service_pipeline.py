"""One admission pipeline, three entry points, one answer.

``AdmissionController.admit`` (inline compute), ``admit_batch([r])``
(a batch pool) and a one-shard ``AdmissionFrontend`` (a shard pool
behind a queue) all run the controller's tier order: decision cache,
region tier, single-flight, compute.  Fed the same stream one request
at a time, they must serve byte-identical decisions from the same
tiers, so a tier one entry point skips shows up as a counter mismatch.
Each store's own hit and miss counts must agree too: every entry point
counts one lookup per request in each tier it asks, however many times
it looks.
"""

from __future__ import annotations

import asyncio
import json

from repro.regions.shape import execution_vector, system_at
from repro.service.engine import AdmissionController
from repro.service.frontend import AdmissionFrontend, FrontendConfig
from repro.service.requests import AdmissionRequest, decision_to_dict
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

#: The counters every entry point must agree on.
COUNTERS = (
    "requests",
    "cache_hits",
    "cache_misses",
    "region_hits",
    "region_misses",
    "region_builds",
)

#: (seed, execution-time scale) per request: the seed-5 shape repeats
#: until its region is built (threshold 2), then serves variants from
#: the region; exact repeats hit the cache; seeds 6 and 7 are fresh.
STREAM = (
    (5, 1.0),
    (5, 0.9),
    (5, 0.8),
    (5, 1.0),
    (6, 1.0),
    (5, 0.85),
    (7, 1.0),
    (6, 1.0),
    (5, 0.8),
    (5, 0.95),
)


def _stream() -> list[AdmissionRequest]:
    requests = []
    for index, (seed, scale) in enumerate(STREAM):
        system = generate_system(LIGHT, seed)
        if scale != 1.0:
            system = system_at(
                system, tuple(scale * e for e in execution_vector(system))
            )
        requests.append(
            AdmissionRequest(system=system, request_id=f"r{index}")
        )
    return requests


def _controller() -> AdmissionController:
    return AdmissionController(
        region_backend="memory", region_build_threshold=2
    )


def _wire(decisions) -> list[str]:
    return [
        json.dumps(decision_to_dict(d), sort_keys=True) for d in decisions
    ]


def _counters(owner) -> dict:
    """The metrics counters, then each store's (hits, misses)."""
    snapshot = owner.metrics.snapshot()
    counters = {name: snapshot[name] for name in COUNTERS}
    for name, store in (("cache", owner.cache), ("regions", owner.regions)):
        stats = store.stats()
        counters[name] = (stats.hits, stats.misses)
    return counters


def _direct(requests):
    with _controller() as controller:
        decisions = [controller.admit(r) for r in requests]
        return decisions, _counters(controller)


def _batched(requests):
    with _controller() as controller:
        decisions = [
            decision
            for r in requests
            for decision in controller.admit_batch([r], workers=1)
        ]
        return decisions, _counters(controller)


def _frontend(requests):
    config = FrontendConfig(
        shards=1, region_backend="memory", region_build_threshold=2
    )

    async def run():
        async with AdmissionFrontend(config) as frontend:
            decisions = [await frontend.admit(r) for r in requests]
            return decisions, _counters(frontend)

    return asyncio.run(run())


class TestEntryPointParity:
    def test_three_entry_points_serve_identical_decisions_and_counters(self):
        requests = _stream()
        direct, direct_counters = _direct(requests)
        # The stream reaches every tier: exact repeats, a build, region
        # hits, and misses that fall through to compute.
        assert direct_counters["cache_hits"] >= 2
        assert direct_counters["region_builds"] >= 1
        assert direct_counters["region_hits"] >= 3
        assert direct_counters["cache_misses"] >= 3
        # One decision-cache lookup per request; the region store is
        # asked once per decision-cache miss.
        hits, misses = direct_counters["cache"]
        assert hits + misses == len(requests)
        assert sum(direct_counters["regions"]) == misses
        for serve in (_batched, _frontend):
            decisions, counters = serve(requests)
            assert _wire(decisions) == _wire(direct), serve.__name__
            assert counters == direct_counters, serve.__name__


def test_fresh_frontend_requests_count_one_store_miss_each():
    """Ten fresh requests: ten store misses, as the metrics count."""
    requests = [
        AdmissionRequest(system=generate_system(LIGHT, seed))
        for seed in range(20, 30)
    ]

    async def run():
        config = FrontendConfig(region_backend="memory")
        async with AdmissionFrontend(config) as frontend:
            for request in requests:
                await frontend.admit(request)
            return frontend.cache.stats(), frontend.metrics.snapshot()

    stats, snapshot = asyncio.run(run())
    assert (stats.hits, stats.misses) == (0, 10)
    assert snapshot["cache_misses"] == 10
