"""Unit tests for service metrics (counters, percentiles)."""

from __future__ import annotations

import math
import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service.metrics import (
    COUNTERS,
    STEPS,
    LatencyHistogram,
    ServiceMetrics,
    percentile,
)


def _bucket(latency: float) -> int:
    """The bucket ``latency`` goes to."""
    histogram = LatencyHistogram()
    histogram.add(latency)
    return next(iter(histogram.buckets))


def _assert_matches_samples(snap: dict, samples: list[float]) -> None:
    """``snap``'s latency fields against the samples, by the histogram
    contract."""
    for name, fraction in (
        ("p50", 0.50), ("p90", 0.90), ("p99", 0.99), ("p999", 0.999),
    ):
        exact = percentile(samples, fraction)
        reported = snap[f"latency_{name}"]
        assert reported in samples, name
        assert exact <= reported <= exact * (1 + 1 / STEPS), name
    assert snap["latency_max"] == max(samples)
    total = 0.0
    for latency in samples:  # left to right, as the samples arrived
        total += latency
    assert snap["latency_mean"] == total / len(samples)


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
        """The latency store grows with occupied buckets, not samples."""
        metrics = ServiceMetrics()
        samples = [float(i % 100) for i in range(20_000)]
        for latency in samples:
            metrics.record(admitted=True, cache_hit=False, latency=latency)
        histogram = metrics.latencies()
        occupied = {_bucket(latency) for latency in samples}
        assert len(histogram.buckets) == len(occupied) < 100
        snap = metrics.snapshot()
        assert snap["requests"] == histogram.count == 20_000
        assert snap["latency_max"] == 99.0

    @pytest.mark.parametrize("seed, count", [(64, 40), (16, 100)])
    def test_latency_stats_match_the_reservoir(self, seed, count):
        """Every percentile is an observed sample within 1/32 above the
        exact nearest rank; max is exact; mean sums in arrival order."""
        rng = random.Random(seed)
        samples = [
            rng.random() * 10 ** rng.randint(-6, 1) for _ in range(count)
        ]
        metrics = ServiceMetrics()
        for latency in samples:
            metrics.record(admitted=True, cache_hit=False, latency=latency)
        _assert_matches_samples(metrics.snapshot(), samples)

    def test_zero_latency_sorts_first(self):
        metrics = ServiceMetrics()
        for latency in (0.0, 1e-300, 0.0, 2.0, 0.0):
            metrics.record(admitted=True, cache_hit=False, latency=latency)
        snap = metrics.snapshot()
        assert snap["latency_p50"] == 0.0
        assert snap["latency_p90"] == 1e-300
        assert snap["latency_p99"] == 2.0
        assert snap["latency_max"] == 2.0
        assert ServiceMetrics().latencies().percentiles([0.5]) == [0.0]

    @pytest.mark.parametrize("latency", [-1e-9, math.nan, math.inf])
    def test_bad_latency_rejected_and_uncounted(self, latency):
        metrics = ServiceMetrics()
        with pytest.raises(ValueError, match="latency"):
            metrics.record(admitted=True, cache_hit=False, latency=latency)
        assert metrics.snapshot()["requests"] == 0
        assert metrics.latencies().count == 0

    @settings(max_examples=200)
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_histogram_property(self, samples):
        metrics = ServiceMetrics()
        for latency in samples:
            metrics.record(admitted=True, cache_hit=False, latency=latency)
        _assert_matches_samples(metrics.snapshot(), samples)

    def test_merge_is_exact(self):
        rng = random.Random(7)
        parts = [
            [rng.expovariate(1e3) for _ in range(rng.randint(0, 50))]
            for _ in range(4)
        ]
        whole = LatencyHistogram()
        merged = LatencyHistogram()
        for part in parts:
            piece = LatencyHistogram()
            for latency in part:
                piece.add(latency)
                whole.add(latency)
            merged.merge(piece)
        assert merged.buckets == whole.buckets
        assert (merged.count, merged.max) == (whole.count, whole.max)

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
