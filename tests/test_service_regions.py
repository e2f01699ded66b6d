"""The region tier inside the service: controller and frontend paths.

Pin the lookup order (decision cache, region tier, compute), the
documented ways region-backed decisions differ from computed ones, the
determined-only serving contract (genuine REJECTs fall through), the
build-threshold economics, and the metrics/observability wiring.
"""

from __future__ import annotations

import asyncio
import math

import pytest

from repro.errors import ConfigurationError
from repro.regions.shape import execution_vector, system_at
from repro.regions.tier import RegionTier
from repro.service.engine import AdmissionController, compute_decision
from repro.service.frontend import AdmissionFrontend, FrontendConfig
from repro.service.metrics import LatencyHistogram
from repro.service.requests import (
    ALL_PROTOCOLS,
    AdmissionRequest,
    request_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)


def _request(scale: float = 1.0, seed: int = 5, **options) -> AdmissionRequest:
    system = generate_system(LIGHT, seed)
    if scale != 1.0:
        system = system_at(
            system, tuple(scale * e for e in execution_vector(system))
        )
    return AdmissionRequest(system=system, **options)


class TestControllerIntegration:
    def test_region_tier_is_off_by_default(self):
        controller = AdmissionController()
        assert controller.regions is None
        decision = controller.admit(_request())
        assert decision.margins is None

    def test_lookup_order_and_region_decision_fields(self):
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=2
        )
        first = controller.admit(_request(1.0))
        second = controller.admit(_request(0.9))  # same shape, new point
        assert first.margins is None and second.margins is None
        snapshot = controller.metrics.snapshot()
        assert snapshot["region_builds"] == 1
        assert snapshot["region_misses"] == 2
        assert snapshot["region_probes"] > 0

        third = controller.admit(_request(0.8))
        assert third.admitted
        assert third.margins is not None
        assert third.task_bounds == {}
        assert third.worst_bound_ratio == math.inf
        assert third.protocol in ALL_PROTOCOLS
        assert "region tier" in third.rationale
        for per_dim in third.margins.values():
            assert all(headroom >= 0 for headroom in per_dim.values())
        snapshot = controller.metrics.snapshot()
        assert snapshot["region_hits"] == 1
        assert snapshot["cache_hits"] == 0

    def test_region_verdict_agrees_with_direct_computation(self):
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=1
        )
        controller.admit(_request(1.0))
        request = _request(0.85)
        regional = controller.admit(request)
        direct = compute_decision(request)
        assert regional.margins is not None  # really region-served
        assert regional.admitted == direct.admitted
        assert regional.schedulable == direct.schedulable

    def test_region_decisions_are_not_cached(self):
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=1
        )
        controller.admit(_request(1.0))
        regional = controller.admit(_request(0.9))
        assert regional.margins is not None
        assert controller.cache.get(regional.key) is None
        # Serving the same request again stays a region hit, not a
        # decision-cache hit.
        again = controller.admit(_request(0.9))
        assert again.margins is not None
        assert controller.metrics.snapshot()["cache_hits"] == 0

    def test_uncovered_point_falls_back_to_computation(self):
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=1
        )
        controller.admit(_request(1.0))
        heavy = controller.admit(_request(40.0))  # far outside any box
        assert heavy.margins is None
        assert not heavy.admitted  # genuine REJECT came from analysis
        assert controller.metrics.snapshot()["region_fallbacks"] >= 1

    def test_all_shape_gated_reject_is_served(self):
        # PM under unsynchronized clocks is False by shape alone: the
        # region needs no analyses and may serve the REJECT directly.
        options = {"protocols": ("PM",), "synchronized_clocks": False}
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=1
        )
        controller.admit(_request(1.0, **options))
        served = controller.admit(_request(0.9, **options))
        assert served.margins == {}
        assert not served.admitted
        assert served.protocol is None
        assert controller.metrics.snapshot()["region_hits"] == 1

    def test_build_threshold_counts_shapes(self):
        controller = AdmissionController(
            region_backend="memory", region_build_threshold=3
        )
        controller.admit(_request(1.0))
        controller.admit(_request(0.9))
        assert len(controller.regions.store) == 0
        controller.admit(_request(0.95))
        assert len(controller.regions.store) == 1
        assert controller.admit(_request(0.8)).margins is not None

    def test_prebuilt_tier_inherits_controller_metrics(self):
        tier = RegionTier(build_threshold=1)
        controller = AdmissionController(region_tier=tier)
        assert controller.regions is tier
        assert tier.metrics is controller.metrics

    def test_describe_mentions_regions(self):
        controller = AdmissionController(region_backend="memory")
        assert "regions:" in controller.describe()
        assert "regions:" not in AdmissionController().describe()


class TestTierUnit:
    def test_lookup_miss_before_any_build(self):
        tier = RegionTier(build_threshold=1)
        assert tier.lookup(_request()) is None

    def test_timebase_mismatch_never_serves(self):
        tier = RegionTier(build_threshold=1, timebase="exact")
        request = _request(1.0)
        tier.build(request)
        float_tier = RegionTier(store=tier.store, build_threshold=1)
        assert float_tier.lookup(_request(0.9)) is None

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            RegionTier(build_threshold=0)


class TestFrontendIntegration:
    def _run(self, config, requests):
        async def go():
            async with AdmissionFrontend(config) as frontend:
                decisions = [await frontend.admit(r) for r in requests]
                return decisions, frontend.snapshot(), frontend.describe()

        return asyncio.run(go())

    def test_region_hits_and_snapshot(self):
        config = FrontendConfig(
            shards=1,
            region_backend="memory",
            region_build_threshold=1,
        )
        requests = [_request(1.0), _request(0.9), _request(0.8)]
        decisions, snapshot, description = self._run(config, requests)
        assert decisions[0].margins is None
        assert decisions[1].margins is not None
        assert decisions[2].margins is not None
        assert decisions[1].admitted
        assert snapshot["regions"]["size"] == 1
        assert snapshot["regions"]["hits"] >= 2
        assert snapshot["aggregate"]["region_hits"] == 2
        assert snapshot["aggregate"]["cache_hits"] == 0
        assert "regions:" in description

    def test_shard_outcomes_add_up_to_requests(self):
        """Every served request is one outcome in its shard -- a cache
        hit, a cache miss or a region hit -- and the shards add up to
        the aggregate, latency histograms included."""
        config = FrontendConfig(
            shards=3,
            region_backend="memory",
            region_build_threshold=1,
        )
        requests = [
            _request(scale, seed)
            for seed in (5, 6, 7)
            for scale in (1.0, 0.9, 1.0, 0.8, 0.9)
        ]

        async def go():
            async with AdmissionFrontend(config) as frontend:
                for request in requests:
                    document = request_to_dict(request)
                    key, decoded, walk = frontend.decode_document(document)
                    if decoded is None:  # a remembered repeat
                        await frontend.admit_cached(document, key)
                    else:
                        await frontend.admit(decoded, key=key, walk=walk)
                return frontend.snapshot(), [
                    shard.metrics.latencies() for shard in frontend._shards
                ], frontend.metrics.latencies()

        snapshot, shard_latencies, aggregate_latencies = asyncio.run(go())
        outcomes = ("cache_hits", "cache_misses", "region_hits")
        for shard in snapshot["shards"]:
            assert shard["requests"] == sum(shard[name] for name in outcomes)
        aggregate = snapshot["aggregate"]
        assert aggregate["region_hits"] > 0 and aggregate["cache_hits"] > 0
        for name in ("requests", *outcomes):
            assert aggregate[name] == sum(
                shard[name] for shard in snapshot["shards"]
            ), name
        merged = LatencyHistogram()
        for latencies in shard_latencies:
            merged.merge(latencies)
        assert merged.buckets == aggregate_latencies.buckets
        assert merged.count == aggregate_latencies.count == len(requests)
        assert merged.max == aggregate_latencies.max

    def test_region_tier_off_by_default(self):
        decisions, snapshot, description = self._run(
            FrontendConfig(shards=1), [_request(1.0)]
        )
        assert decisions[0].margins is None
        assert "regions" not in snapshot
        assert "regions:" not in description

    def test_config_rejects_unknown_backend(self):
        with pytest.raises(ConfigurationError, match="region backend"):
            FrontendConfig(region_backend="redis")

    def test_config_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError, match="build_threshold"):
            FrontendConfig(
                region_backend="memory", region_build_threshold=0
            )
