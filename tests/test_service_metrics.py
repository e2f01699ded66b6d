"""Unit tests for service metrics (counters, percentiles)."""

from __future__ import annotations

import random
import threading

import pytest

from repro.service.metrics import COUNTERS, ServiceMetrics, percentile


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_sample(self):
        assert percentile([3.0], 0.5) == 3.0
        assert percentile([3.0], 0.99) == 3.0

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 101)]  # 1..100
        assert percentile(samples, 0.50) == 50.0
        assert percentile(samples, 0.90) == 90.0
        assert percentile(samples, 0.99) == 99.0
        assert percentile(samples, 1.00) == 100.0

    def test_unsorted_input(self):
        assert percentile([5.0, 1.0, 3.0], 0.5) == 3.0

    def test_bad_fraction_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)


class TestServiceMetrics:
    def test_counters(self):
        metrics = ServiceMetrics()
        metrics.record(admitted=True, cache_hit=False, latency=0.5)
        metrics.record(admitted=False, cache_hit=True, latency=0.1)
        snap = metrics.snapshot()
        assert snap["requests"] == 2
        assert snap["admitted"] == 1
        assert snap["rejected"] == 1
        assert snap["cache_hits"] == 1
        assert snap["cache_misses"] == 1
        assert snap["hit_rate"] == pytest.approx(0.5)

    def test_latency_stats(self):
        metrics = ServiceMetrics()
        for ms in (1.0, 2.0, 3.0, 4.0):
            metrics.record(admitted=True, cache_hit=False, latency=ms)
        snap = metrics.snapshot()
        assert snap["latency_p50"] == 2.0
        assert snap["latency_max"] == 4.0
        assert snap["latency_mean"] == pytest.approx(2.5)

    def test_empty_snapshot_renders(self):
        snap = ServiceMetrics().snapshot()
        assert snap["requests"] == 0
        assert snap["hit_rate"] == 0.0
        assert snap["latency_p99"] == 0.0
        assert "admissions: 0 requests" in ServiceMetrics().describe()

    def test_reservoir_is_bounded(self):
        metrics = ServiceMetrics(reservoir=8)
        for i in range(100):
            metrics.record(
                admitted=True, cache_hit=False, latency=float(i)
            )
        snap = metrics.snapshot()
        assert snap["requests"] == 100
        assert snap["latency_max"] <= 99.0

    @pytest.mark.parametrize("reservoir, count", [(64, 40), (16, 100)])
    def test_latency_stats_match_the_reservoir(self, reservoir, count):
        """One sort in ``snapshot`` reads what ``percentile`` would."""
        rng = random.Random(reservoir)
        metrics = ServiceMetrics(reservoir=reservoir)
        for _ in range(count):
            metrics.record(
                admitted=True, cache_hit=False, latency=rng.random()
            )
        samples = list(metrics._latencies)
        snap = metrics.snapshot()
        for name, fraction in (
            ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
        ):
            assert snap[f"latency_{name}"] == percentile(samples, fraction)
        assert snap["latency_max"] == max(samples)
        assert snap["latency_mean"] == sum(samples) / len(samples)

    def test_reservoir_validation(self):
        with pytest.raises(ValueError):
            ServiceMetrics(reservoir=0)

    def test_thread_safe_recording(self):
        metrics = ServiceMetrics()

        def worker() -> None:
            for _ in range(500):
                metrics.record(
                    admitted=True, cache_hit=True, latency=0.001
                )

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert metrics.snapshot()["requests"] == 2000

    def test_describe_mentions_latency_units(self):
        metrics = ServiceMetrics()
        metrics.record(admitted=True, cache_hit=False, latency=0.002)
        assert "ms" in metrics.describe()


class TestServiceCounters:
    """The frontend-era counters: shed, coalesced, pool rebuilds, p999."""

    def test_shed_is_not_a_served_request(self):
        metrics = ServiceMetrics()
        metrics.record(admitted=True, cache_hit=False, latency=0.001)
        metrics.count(shed=1)
        metrics.count(shed=1)
        snap = metrics.snapshot()
        assert snap["requests"] == 1
        assert snap["shed"] == 2

    def test_coalesced_and_pool_rebuild_counters(self):
        metrics = ServiceMetrics()
        metrics.count(coalesced=1)
        metrics.count(pool_rebuilds=1)
        snap = metrics.snapshot()
        assert snap["coalesced"] == 1
        assert snap["pool_rebuilds"] == 1

    def test_p999_present_and_ordered(self):
        metrics = ServiceMetrics()
        for i in range(1000):
            metrics.record(
                admitted=True, cache_hit=False, latency=i / 1000.0
            )
        snap = metrics.snapshot()
        assert (
            snap["latency_p50"]
            <= snap["latency_p99"]
            <= snap["latency_p999"]
            <= snap["latency_max"]
        )
        assert "p999" in metrics.describe()

    def test_describe_backpressure_line_only_when_active(self):
        quiet = ServiceMetrics()
        quiet.record(admitted=True, cache_hit=False, latency=0.001)
        assert "backpressure" not in quiet.describe()
        busy = ServiceMetrics()
        busy.count(shed=1)
        assert "backpressure: 1 shed" in busy.describe()

    def test_describe_robustness_line_includes_rebuilds(self):
        metrics = ServiceMetrics()
        metrics.count(pool_rebuilds=1)
        assert "1 pool rebuild(s)" in metrics.describe()


class TestCount:
    """``count()``: the one way to move a counter by name."""

    def test_counters_are_the_snapshot_prefix(self):
        names = [name for name, _meaning in COUNTERS]
        assert len(set(names)) == len(names)
        snap = ServiceMetrics().snapshot()
        assert list(snap)[: len(names)] == names

    def test_unknown_name_raises_and_changes_nothing(self):
        metrics = ServiceMetrics()
        with pytest.raises(KeyError, match="shedd"):
            metrics.count(shed=1, shedd=1)
        assert "shedd" not in metrics.snapshot()
        assert metrics.snapshot()["shed"] == 0

    def test_increments_add_up(self):
        metrics = ServiceMetrics()
        metrics.count(region_builds=1, region_probes=7)
        metrics.count(region_builds=1, region_probes=0, rerouted=False)
        snap = metrics.snapshot()
        assert (snap["region_builds"], snap["region_probes"]) == (2, 7)
        assert snap["rerouted"] == 0

    @pytest.mark.parametrize(
        "name, line",
        [
            ("timeouts", "robustness:"),
            ("retries", "robustness:"),
            ("degraded", "robustness:"),
            ("pool_rebuilds", "robustness:"),
            ("shed", "backpressure:"),
            ("coalesced", "backpressure:"),
            ("region_hits", "regions:"),
            ("region_misses", "regions:"),
            ("region_fallbacks", "regions:"),
            ("region_builds", "regions:"),
            ("records_salvaged", "durability:"),
            ("records_dropped", "durability:"),
            ("integrity_failures", "durability:"),
            ("breaker_opens", "supervision:"),
            ("breaker_half_opens", "supervision:"),
            ("breaker_restores", "supervision:"),
            ("rerouted", "supervision:"),
            ("drain_flushed", "drain:"),
            ("drain_shed", "drain:"),
        ],
    )
    def test_each_gating_counter_shows_its_line_alone(self, name, line):
        metrics = ServiceMetrics()
        metrics.count(**{name: 1})
        optional = metrics.describe().splitlines()[3:]
        assert [text.split()[0] for text in optional] == [line]

    def test_probes_alone_show_no_regions_line(self):
        metrics = ServiceMetrics()
        metrics.count(region_probes=5)
        assert len(metrics.describe().splitlines()) == 3
