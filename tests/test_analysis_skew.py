"""Unit tests for the skew-aware SA/PM analysis."""

from __future__ import annotations

import math

import pytest

from repro.clocks import ClockConfig, ClockMap, ResyncClock
from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.analysis.skew import analyze_sa_pm_skewed, skew_terms
from repro.errors import AnalysisError, ConfigurationError
from repro.timebase import get_timebase
from repro.model.task import SubtaskId
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system


@pytest.fixture(scope="module")
def system():
    config = WorkloadConfig(
        subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
    )
    return generate_system(config, seed=0)


class TestReductionToBase:
    @pytest.mark.parametrize("timebase", ["float", "exact"])
    def test_zero_skew_equals_sa_pm_exactly(self, system, timebase):
        base = analyze_sa_pm(system, timebase=timebase)
        skewed = analyze_sa_pm_skewed(system, timebase=timebase)
        assert skewed.subtask_bounds == base.subtask_bounds
        assert skewed.task_bounds == base.task_bounds

    def test_perfect_clock_map_equals_base(self, system):
        base = analyze_sa_pm(system)
        skewed = analyze_sa_pm_skewed(system, clocks=ClockMap.perfect())
        assert skewed.task_bounds == base.task_bounds

    def test_offset_only_clocks_equal_base(self, system):
        # A pure offset cancels for duration-measuring protocols; its
        # rate and jump envelopes are zero, so nothing inflates.
        base = analyze_sa_pm(system)
        skewed = analyze_sa_pm_skewed(
            system, clocks=ClockConfig(kind="offset", offset=500.0)
        )
        assert skewed.task_bounds == base.task_bounds


class TestInflation:
    def test_monotone_in_rate_and_jump(self, system):
        base = analyze_sa_pm_skewed(system)
        small = analyze_sa_pm_skewed(system, rate=1e-5, jump=0.5)
        large = analyze_sa_pm_skewed(system, rate=1e-4, jump=5.0)
        for b, s, big in zip(
            base.task_bounds, small.task_bounds, large.task_bounds
        ):
            assert b <= s <= big
        assert sum(small.task_bounds) > sum(base.task_bounds)

    def test_rate_of_one_makes_everything_infinite(self, system):
        skewed = analyze_sa_pm_skewed(system, rate=1.0)
        assert all(math.isinf(b) for b in skewed.task_bounds)
        assert not skewed.schedulable

    def test_algorithm_name(self, system):
        assert analyze_sa_pm_skewed(system, jump=1.0).algorithm == "SA/PM-skew"

    def test_clock_map_envelope_matches_explicit_numbers(self, system):
        clocks = ClockMap(
            {
                p: ResyncClock(2.0, 100.0, rate=1e-4, seed=i)
                for i, p in enumerate(sorted(system.processors))
            }
        )
        via_map = analyze_sa_pm_skewed(system, clocks=clocks)
        explicit = analyze_sa_pm_skewed(
            system, rate=clocks.max_rate(), jump=clocks.max_jump()
        )
        assert via_map.task_bounds == explicit.task_bounds

    def test_clock_config_envelope(self, system):
        config = ClockConfig(
            kind="resync", precision=2.0, interval=100.0, rate=1e-4
        )
        via_config = analyze_sa_pm_skewed(system, clocks=config)
        explicit = analyze_sa_pm_skewed(
            system, rate=config.rate_bound(), jump=config.jump_bound()
        )
        assert via_config.task_bounds == explicit.task_bounds


class TestSkewTerms:
    def test_first_subtasks_have_zero_jitter(self, system):
        _, jitter = skew_terms(system, rate=1e-4, jump=2.0)
        for task_index in range(len(system.tasks)):
            assert jitter[SubtaskId(task_index, 0)] == 0

    def test_jitter_accumulates_along_chains(self, system):
        _, jitter = skew_terms(system, rate=1e-4, jump=2.0)
        for task_index, task in enumerate(system.tasks):
            values = [
                jitter[SubtaskId(task_index, j)]
                for j in range(task.chain_length)
            ]
            assert values == sorted(values)
            if task.chain_length > 1:
                assert values[1] > 0

    def test_zero_envelope_means_zero_terms(self, system):
        delta, jitter = skew_terms(system, rate=0.0, jump=0.0)
        assert all(v == 0 for v in delta.values())
        assert all(v == 0 for v in jitter.values())

    def test_invalid_envelope_rejected(self, system):
        with pytest.raises(ConfigurationError):
            skew_terms(system, rate=-0.1, jump=0.0)
        with pytest.raises(ConfigurationError):
            skew_terms(system, rate=0.0, jump=math.inf)


class TestSharedInputs:
    @pytest.mark.parametrize("timebase", ["float", "exact"])
    def test_caller_compilation_gives_same_result(self, system, timebase):
        tb = get_timebase(timebase)
        alone = analyze_sa_pm_skewed(
            system, rate=1e-3, jump=0.25, timebase=tb
        )
        shared = analyze_sa_pm_skewed(
            system,
            rate=1e-3,
            jump=0.25,
            timebase=tb,
            compiled=CompiledSystem(system, tb),
        )
        assert shared == alone
        assert [repr(v) for v in shared.task_bounds] == [
            repr(v) for v in alone.task_bounds
        ]

    def test_mismatched_compilation_rejected(self, system):
        other = generate_system(
            WorkloadConfig(
                subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
            ),
            seed=1,
        )
        with pytest.raises(AnalysisError):
            analyze_sa_pm_skewed(
                system, rate=1e-3, compiled=CompiledSystem(other)
            )
        exact = CompiledSystem(system, get_timebase("exact"))
        for analyze in (analyze_sa_pm, analyze_sa_ds, analyze_sa_pm_skewed):
            with pytest.raises(AnalysisError):
                analyze(system, compiled=exact)
