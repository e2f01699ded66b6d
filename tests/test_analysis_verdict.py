"""Verdict-only runs answer exactly as the full analyses' ``.schedulable``.

:func:`~repro.core.analysis.sa_ds.sa_ds_schedulable` and
:func:`~repro.core.analysis.sa_pm.sa_pm_schedulable` stop as soon as a
deadline miss is settled; region builds and the breakdown search probe
through them.  These properties check them against
``analyze_sa_ds(...).schedulable`` and ``analyze_sa_pm(...).schedulable``
on both timebases: on random systems with random deadlines, on
iteration budgets of 1-5 passes, on systems that trip the failure
cutoff (with deadlines above the cutoff too), and with float deadlines
placed a few ulps and a few ``REL_EPS`` either side of the full
analysis' own bound, where the float stop rule's margin matters.  The
last tests pin that the early stop is live and that a compilation made
from a shape and a vector is the system's own.
"""

from __future__ import annotations

import math
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.analysis.sa_ds as sa_ds_module
from repro.core.analysis.busy_period import CompiledShape, CompiledSystem
from repro.core.analysis.sa_ds import analyze_sa_ds, sa_ds_schedulable
from repro.core.analysis.sa_pm import analyze_sa_pm, sa_pm_schedulable
from repro.model.system import System
from repro.regions.shape import execution_vector
from repro.timebase import REL_EPS, get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(1, 4),
    utilization=st.floats(0.3, 0.95),
    tasks=st.integers(2, 6),
    processors=st.integers(2, 3),
).filter(lambda c: c.tasks * c.subtasks_per_task >= 2 * c.processors)

#: Systems near saturation: with a cutoff of a few periods about 40% of
#: the draws trip it.
heavy_configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(2, 5),
    utilization=st.floats(0.85, 0.95),
    tasks=st.integers(4, 8),
    processors=st.integers(2, 3),
)

timebases = st.sampled_from(["float", "exact"])

_SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _with_deadlines(system: System, deadlines) -> System:
    return system.with_tasks(
        replace(task, deadline=deadline)
        for task, deadline in zip(system.tasks, deadlines)
    )


def _assert_verdicts_agree(
    system, timebase, *, failure_factor=300.0, max_iterations=300
) -> None:
    tb = get_timebase(timebase)
    full_ds = analyze_sa_ds(
        system,
        failure_factor=failure_factor,
        max_iterations=max_iterations,
        timebase=tb,
    ).schedulable
    full_pm = analyze_sa_pm(system, timebase=tb).schedulable
    compiled = CompiledSystem(system, tb)
    assert (
        sa_ds_schedulable(
            compiled,
            failure_factor=failure_factor,
            max_iterations=max_iterations,
        )
        is full_ds
    )
    assert sa_pm_schedulable(compiled) is full_pm


@st.composite
def deadline_factors(draw, count: int):
    """Per-task deadlines as multiples of the period: tight, loose,
    or far beyond any cutoff."""
    return draw(
        st.lists(
            st.sampled_from([0.25, 0.5, 0.8, 1.0, 1.5, 3.0, 1000.0]),
            min_size=count,
            max_size=count,
        )
    )


@settings(max_examples=60, **_SETTINGS)
@given(
    config=configs,
    seed=st.integers(0, 10_000),
    timebase=timebases,
    data=st.data(),
    failure_factor=st.sampled_from([300.0, 4.0, 1.5]),
)
def test_verdict_equals_schedulable(
    config, seed, timebase, data, failure_factor
):
    system = generate_system(config, seed)
    factors = data.draw(deadline_factors(len(system.tasks)))
    system = _with_deadlines(
        system, [t.period * f for t, f in zip(system.tasks, factors)]
    )
    _assert_verdicts_agree(system, timebase, failure_factor=failure_factor)


@settings(max_examples=60, **_SETTINGS)
@given(
    config=configs,
    seed=st.integers(0, 10_000),
    timebase=timebases,
    max_iterations=st.integers(1, 5),
)
def test_verdict_equals_schedulable_under_small_budgets(
    config, seed, timebase, max_iterations
):
    """Budgets of a few passes keep their meaning: a run the full
    analysis declares failed for want of passes is unschedulable here
    too, however early the sweeps settle."""
    _assert_verdicts_agree(
        generate_system(config, seed),
        timebase,
        max_iterations=max_iterations,
    )


@settings(max_examples=40, **_SETTINGS)
@given(
    config=heavy_configs,
    seed=st.integers(0, 10_000),
    timebase=timebases,
    failure_factor=st.sampled_from([2.0, 4.0, 8.0]),
    deadline_over_cutoff=st.sampled_from([0.5, 1.0, 2.0]),
)
def test_verdict_equals_schedulable_on_cutoff_tripping_systems(
    config, seed, timebase, failure_factor, deadline_over_cutoff
):
    """Deadlines at, below and above the cutoff: a bound past the cutoff
    fails the task even where its deadline would have allowed it."""
    system = generate_system(config, seed)
    system = _with_deadlines(
        system,
        [
            task.period * failure_factor * deadline_over_cutoff
            for task in system.tasks
        ],
    )
    _assert_verdicts_agree(system, timebase, failure_factor=failure_factor)


def _ulps(value: float, steps: int) -> float:
    direction = math.inf if steps > 0 else -math.inf
    for _ in range(abs(steps)):
        value = math.nextafter(value, direction)
    return value


#: Offsets from the full analysis' bound, in units of
#: ``REL_EPS * max(1, bound)``: inside, at and beyond the comparator's
#: guard and the verdict-only runs' margin on top of it.
_GUARD_OFFSETS = [-16, -9, -8, -4, -2, -1, -0.5, 0, 0.5, 1, 2, 4, 8, 9, 16]


@settings(max_examples=60, **_SETTINGS)
@given(
    config=configs,
    seed=st.integers(0, 10_000),
    timebase=timebases,
    analysis=st.sampled_from(["SA/DS", "SA/PM"]),
    task=st.integers(0, 5),
    offset=st.sampled_from(_GUARD_OFFSETS),
    ulps=st.integers(-3, 3),
)
def test_verdict_equals_schedulable_at_its_own_bound(
    config, seed, timebase, analysis, task, offset, ulps
):
    """A deadline next to the full analysis' own bound for one task (the
    deadline does not enter the analysis, so the bound stays put): the
    verdicts must still agree, on whichever side of it they fall."""
    tb = get_timebase(timebase)
    system = generate_system(config, seed)
    analyze = analyze_sa_ds if analysis == "SA/DS" else analyze_sa_pm
    bound = analyze(system, timebase=tb).task_bounds[
        task % len(system.tasks)
    ]
    if math.isinf(bound):
        return
    bound = float(bound)
    deadline = _ulps(bound + offset * REL_EPS * max(1.0, bound), ulps)
    if not deadline > 0:
        return
    deadlines = [t.relative_deadline for t in system.tasks]
    deadlines[task % len(system.tasks)] = deadline
    _assert_verdicts_agree(_with_deadlines(system, deadlines), timebase)


def _count_kernel_runs(monkeypatch) -> list:
    calls = []
    kernel = sa_ds_module.busy_period_kernel

    def counted(*args):
        calls.append(args[0].sid)
        return kernel(*args)

    monkeypatch.setattr(sa_ds_module, "busy_period_kernel", counted)
    return calls


def test_settled_miss_stops_early(monkeypatch):
    """A deadline miss ends the run at once: the verdict takes a fraction
    of the kernel runs the full analysis needs to reach its bounds."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    system = _with_deadlines(
        system, [task.period * 0.5 for task in system.tasks]
    )
    calls = _count_kernel_runs(monkeypatch)
    assert not analyze_sa_ds(system).schedulable
    full_runs = len(calls)
    del calls[:]
    assert not sa_ds_schedulable(CompiledSystem(system))
    assert len(calls) < 0.5 * full_runs


def test_exact_cutoff_trip_needs_no_passes(monkeypatch):
    """Under the exact timebase a sweep past the cutoff settles the
    verdict: the Jacobi passes the full analysis replays never run."""
    tb = get_timebase("exact")
    for seed in range(40):
        system = generate_system(
            WorkloadConfig(
                subtasks_per_task=3, utilization=0.9, tasks=6, processors=2
            ),
            seed,
        )
        system = _with_deadlines(
            system, [task.period * 1000.0 for task in system.tasks]
        )
        result = analyze_sa_ds(system, failure_factor=4.0, timebase=tb)
        if result.failed and "cutoff" in result.notes[0]:
            break
    else:  # pragma: no cover - the draw above trips within a few seeds
        raise AssertionError("no cutoff-tripping system found")
    passes = []
    jacobi = sa_ds_module._jacobi
    monkeypatch.setattr(
        sa_ds_module,
        "_jacobi",
        lambda *args: passes.append(1) or jacobi(*args),
    )
    assert not sa_ds_schedulable(
        CompiledSystem(system, tb), failure_factor=4.0
    )
    assert passes == []


def _terms_tokens(compiled: CompiledSystem) -> list:
    return [
        (
            terms.sid,
            repr(
                (
                    terms.wcet,
                    terms.period,
                    terms.inter_e,
                    terms.inter_p,
                    terms.diverged,
                    terms.slack,
                    terms.interference_slack,
                    terms.wcet_sum,
                    terms.smallest_step,
                    terms.scale,
                )
            ),
        )
        for terms in compiled.terms
    ]


@settings(max_examples=30, **_SETTINGS)
@given(config=configs, seed=st.integers(0, 10_000), timebase=timebases)
def test_shape_at_vector_is_the_systems_compilation(config, seed, timebase):
    """One shape serves every vector: compiling the shape and then the
    system's own execution vector gives the system's compilation."""
    tb = get_timebase(timebase)
    system = generate_system(config, seed)
    own = CompiledSystem(system, tb)
    shaped = CompiledShape(system, tb).at(execution_vector(system))
    assert shaped.system is None
    assert _terms_tokens(shaped) == _terms_tokens(own)
    assert shaped.interferers == own.interferers
    assert shaped.predecessor == own.predecessor
    assert shaped.is_last == own.is_last
    assert shaped.shape.deadline == [
        system.tasks[sid.task_index].relative_deadline for sid in own.sids
    ]
