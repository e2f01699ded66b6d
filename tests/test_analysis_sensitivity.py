"""Unit tests for breakdown-scaling sensitivity analysis."""

from __future__ import annotations

import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.analysis.sensitivity as sensitivity_module
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.analysis.sensitivity import (
    breakdown_scaling,
    scale_execution_times,
)
from repro.errors import ConfigurationError
from repro.model.system import System
from repro.model.task import Subtask, SubtaskId, Task


class TestScaleExecutionTimes:
    def test_scales_every_stage(self, example2):
        scaled = scale_execution_times(example2, 0.5)
        for sid in example2.subtask_ids:
            assert scaled.subtask(sid).execution_time == pytest.approx(
                example2.subtask(sid).execution_time * 0.5
            )

    def test_preserves_everything_else(self, example2):
        scaled = scale_execution_times(example2, 2.0)
        assert [t.period for t in scaled.tasks] == [
            t.period for t in example2.tasks
        ]
        assert scaled.subtask(SubtaskId(1, 0)).priority == example2.subtask(
            SubtaskId(1, 0)
        ).priority

    def test_bounds_scale_linearly(self, example2):
        base = analyze_sa_pm(example2)
        scaled = analyze_sa_pm(scale_execution_times(example2, 0.5))
        for a, b in zip(scaled.task_bounds, base.task_bounds):
            assert a == pytest.approx(b * 0.5)

    def test_bad_factor(self, example2):
        with pytest.raises(ConfigurationError):
            scale_execution_times(example2, 0.0)


class TestBreakdownScaling:
    def test_example2_is_overloaded_for_certification(self, example2):
        """T2's SA/PM bound (7) already exceeds its deadline (6): the
        breakdown factor is below 1 but well above 0."""
        factor = breakdown_scaling(example2, "SA/PM")
        assert 0.5 < factor < 1.0
        # At the found factor the system is certifiable...
        assert analyze_sa_pm(
            scale_execution_times(example2, factor)
        ).schedulable
        # ...and just above it, not.
        assert not analyze_sa_pm(
            scale_execution_times(example2, factor + 0.01)
        ).schedulable

    def test_sa_ds_needs_more_capacity_than_sa_pm(self, example2):
        pm_factor = breakdown_scaling(example2, "SA/PM")
        ds_factor = breakdown_scaling(example2, "SA/DS")
        assert ds_factor <= pm_factor + 1e-9

    def test_headroom_reported_above_one(self, monitor):
        factor = breakdown_scaling(monitor, "SA/PM")
        assert factor > 1.0

    def test_max_factor_cap(self, monitor):
        assert breakdown_scaling(monitor, "SA/PM", max_factor=2.0) == 2.0

    def test_hopeless_system_returns_zero(self):
        # Total execution beyond the deadline at every positive scale?
        # Impossible -- scaling down always helps -- so "hopeless" means
        # only: below the tolerance.  Use a tolerance coarser than the
        # feasible region.
        t1 = Task(period=1.0, subtasks=(Subtask(100.0, "A", priority=0),))
        factor = breakdown_scaling(
            System((t1,)), "SA/PM", tolerance=0.02
        )
        assert factor <= 0.01

    def test_invalid_analysis_rejected(self, example2):
        with pytest.raises(ConfigurationError):
            breakdown_scaling(example2, "holistic")

    def test_invalid_tolerance_rejected(self, example2):
        with pytest.raises(ConfigurationError):
            breakdown_scaling(example2, "SA/PM", tolerance=0.0)

    def test_tolerance_below_float_spacing_ends(self, example2, within):
        """Regression: once the bracket's ends are adjacent floats the
        midpoint rounds onto one of them; the search used to loop there
        forever.  It now stops with the verified end, whose float
        neighbour above is the failed end."""
        with within(30):
            factor = breakdown_scaling(example2, "SA/PM", tolerance=1e-300)
        assert factor >= breakdown_scaling(example2, "SA/PM")
        assert analyze_sa_pm(
            scale_execution_times(example2, factor)
        ).schedulable
        assert not analyze_sa_pm(
            scale_execution_times(example2, math.nextafter(factor, 2.0))
        ).schedulable

    @pytest.mark.parametrize("seed", [0, 1])
    def test_generated_systems_bracketed(self, seed):
        from repro.workload.config import WorkloadConfig
        from repro.workload.generator import generate_system

        config = WorkloadConfig(
            subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
        )
        system = generate_system(config, seed)
        factor = breakdown_scaling(system, "SA/PM", tolerance=5e-3)
        if factor > 0:
            assert analyze_sa_pm(
                scale_execution_times(system, factor)
            ).schedulable

class TestSectionedScaling:
    """Regression: lock-aware systems must scale their critical sections.

    ``scale_execution_times`` used to shrink only the execution times,
    leaving sections at their original offsets -- a downscale could
    leave a section poking past its subtask's new execution time
    (invalid model) and an upscale silently under-priced blocking.
    """

    def _sectioned(self) -> System:
        from repro.model.task import CriticalSection

        return System(
            (
                Task(
                    period=20.0,
                    subtasks=(
                        Subtask(
                            4.0,
                            "P1",
                            priority=0,
                            critical_sections=(
                                CriticalSection("R1", 1.0, 2.0),
                            ),
                        ),
                    ),
                ),
                Task(
                    period=40.0,
                    subtasks=(
                        Subtask(
                            8.0,
                            "P1",
                            priority=1,
                            critical_sections=(
                                CriticalSection("R1", 6.0, 2.0),
                            ),
                        ),
                    ),
                ),
            ),
            name="sectioned-scaling",
        )

    def test_downscale_keeps_sections_inside_execution(self):
        scaled = scale_execution_times(self._sectioned(), 0.25)
        for sid in scaled.subtask_ids:
            stage = scaled.subtask(sid)
            for section in stage.critical_sections:
                assert (
                    section.start + section.duration
                    <= stage.execution_time + 1e-12
                )

    def test_sections_scale_proportionally(self):
        scaled = scale_execution_times(self._sectioned(), 0.5)
        section = scaled.subtask(SubtaskId(0, 0)).critical_sections[0]
        assert section.start == pytest.approx(0.5)
        assert section.duration == pytest.approx(1.0)

    def test_breakdown_uses_blocking_aware_analyses(self):
        """The sectioned breakdown must price blocking: a lock-free
        twin of the same system scales strictly further."""
        system = self._sectioned()
        lock_free = system.with_tasks(
            task.with_subtasks(
                tuple(
                    Subtask(
                        stage.execution_time,
                        stage.processor,
                        priority=stage.priority,
                        name=stage.name,
                    )
                    for stage in task.subtasks
                )
            )
            for task in system.tasks
        )
        sectioned_factor = breakdown_scaling(system, "SA/PM")
        free_factor = breakdown_scaling(lock_free, "SA/PM")
        assert 0 < sectioned_factor <= free_factor

    def test_breakdown_factor_is_verified_for_sectioned_system(self):
        from repro.locks import analyze_sa_pm_blocking

        system = self._sectioned()
        factor = breakdown_scaling(system, "SA/PM", tolerance=1e-3)
        assert factor > 0
        assert analyze_sa_pm_blocking(
            scale_execution_times(system, factor)
        ).schedulable


def _full_analyses_breakdown(system, analysis, **options) -> float:
    """The breakdown search with every probe reading the full analyses'
    ``.schedulable`` instead of the verdict-only runs."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            sensitivity_module,
            "sa_ds_schedulable",
            lambda compiled, **kw: analyze_sa_ds(
                compiled.system, compiled=compiled, **kw
            ).schedulable,
        )
        patch.setattr(
            sensitivity_module,
            "sa_pm_schedulable",
            lambda compiled: analyze_sa_pm(
                compiled.system, compiled=compiled
            ).schedulable,
        )
        return breakdown_scaling(system, analysis, **options)


def _generated(seed: int) -> System:
    from repro.workload.config import WorkloadConfig
    from repro.workload.generator import generate_system

    config = WorkloadConfig(
        subtasks_per_task=3, utilization=0.6, tasks=4, processors=3
    )
    return generate_system(config, seed)


class TestVerdictProbes:
    """The breakdown search probes verdict-only; its factors are those
    of probing the full analyses, to the last bit."""

    @pytest.mark.parametrize("analysis", ["SA/PM", "SA/DS"])
    @pytest.mark.parametrize(
        "case", ["example2", "monitor", "generated0", "generated1"]
    )
    def test_factor_equals_full_analyses(self, case, analysis, request):
        system = (
            _generated(int(case[-1]))
            if case.startswith("generated")
            else request.getfixturevalue(case)
        )
        factor = breakdown_scaling(system, analysis)
        assert repr(factor) == repr(
            _full_analyses_breakdown(system, analysis)
        )

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        subtasks=st.integers(1, 4),
        utilization=st.floats(0.3, 0.95),
        seed=st.integers(0, 10_000),
        analysis=st.sampled_from(["SA/PM", "SA/DS"]),
        budget=st.sampled_from([2, 60]),
    )
    def test_drawn_factor_equals_full_analyses(
        self, subtasks, utilization, seed, analysis, budget
    ):
        from repro.workload.config import WorkloadConfig
        from repro.workload.generator import generate_system

        system = generate_system(
            WorkloadConfig(
                subtasks_per_task=subtasks,
                utilization=utilization,
                tasks=4,
                processors=2,
            ),
            seed,
        )
        options = dict(tolerance=1e-2, sa_ds_max_iterations=budget)
        assert repr(breakdown_scaling(system, analysis, **options)) == repr(
            _full_analyses_breakdown(system, analysis, **options)
        )
