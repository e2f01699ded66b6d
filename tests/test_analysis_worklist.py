"""The worklist SA/DS equals plain iteration of the public IEERT pass.

``analyze_sa_ds`` recomputes a subtask only when one of its inputs
changed since the previous pass, and resumes its busy-period fixed
points from the previous pass's (warm start).  These tests pin both
independently of the golden corpus: on random systems with random
blocking terms and interference jitter, and on a seeded sweep over the
benchmark's miss cells, on both timebases, the result must equal
iterating the cold :func:`ieert_pass` from :func:`initial_ieer_bounds`
under SA/DS's stopping rule -- the same bounds (by type and ``repr``),
the same pass count and the same notes.  Two float properties aim
where the float solver's stopping tolerance could split a warm run from
a cold one: demand sums within the tolerance of a ceiling step, and
execution times below the tolerance.  The kernel tests pin the warm
start's input guard and its timebase units.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import repro.core.analysis.busy_period as busy_period_module
import repro.core.analysis.sa_ds as sa_ds_module
from repro.core.analysis.busy_period import (
    CompiledSystem,
    WarmStart,
    busy_period_kernel,
)
from repro.core.analysis.sa_ds import (
    analyze_sa_ds,
    ieert_pass,
    initial_ieer_bounds,
)
from repro.errors import AnalysisError
from repro.model.priority import get_policy
from repro.model.system import System
from repro.model.task import Subtask, SubtaskId, Task
from repro.timebase import REL_EPS, get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

_LOWER_ESTIMATES = (
    "non-infinite bounds in a failed result are lower estimates "
    "(iteration stopped at the failure cutoff)"
)


def _full_pass_sa_ds(
    system, *, failure_factor, max_iterations, timebase, blocking, extra_jitter
):
    """SA/DS's stopping rule over full IEERT passes.

    Returns ``(subtask bounds, passes, notes)``.
    """
    tb = get_timebase(timebase)
    lasts = [
        SubtaskId(i, task.chain_length - 1)
        for i, task in enumerate(system.tasks)
    ]
    cutoff = {
        last: tb.convert(failure_factor) * tb.convert(system.period_of(last))
        for last in lasts
    }
    bounds = initial_ieer_bounds(system, timebase=tb)
    passes = 0
    while True:
        passes += 1
        new = ieert_pass(
            system,
            bounds,
            failure_factor=failure_factor,
            timebase=tb,
            blocking=blocking,
            extra_jitter=extra_jitter,
        )
        for last in lasts:
            if new[last] > cutoff[last]:
                new[last] = math.inf
        if any(math.isinf(value) for value in new.values()):
            return new, passes, [
                f"failure cutoff ({failure_factor:g} periods) tripped "
                f"after {passes} IEERT pass(es)",
                _LOWER_ESTIMATES,
            ]
        if tb.exact:
            converged = new == bounds
        else:
            converged = all(
                abs(new[sid] - bounds[sid]) <= REL_EPS * max(1.0, bounds[sid])
                for sid in new
            )
        bounds = new
        if converged:
            return bounds, passes, []
        if passes >= max_iterations:
            for last in lasts:
                bounds[last] = math.inf
            return bounds, passes, [
                f"no fixed point within {max_iterations} IEERT passes; "
                f"bounds still growing -- declared failure",
                _LOWER_ESTIMATES,
            ]


def _tokens(bounds) -> list[tuple[str, str]]:
    return [
        (str(sid), f"{type(value).__name__}:{value!r}")
        for sid, value in bounds.items()
    ]


def _options(timebase="float", blocking=None, extra_jitter=None) -> dict:
    return dict(
        failure_factor=300.0,
        max_iterations=300,
        timebase=timebase,
        blocking=blocking,
        extra_jitter=extra_jitter,
    )


def _assert_worklist_equals_full_passes(system, options) -> None:
    result = analyze_sa_ds(system, **options)
    bounds, passes, notes = _full_pass_sa_ds(system, **options)
    assert _tokens(result.subtask_bounds) == _tokens(bounds)
    assert result.iterations == passes
    assert list(result.notes) == notes


configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(1, 4),
    utilization=st.floats(0.3, 0.95),
    tasks=st.integers(2, 6),
    processors=st.integers(2, 3),
).filter(lambda c: c.tasks * c.subtasks_per_task >= 2 * c.processors)

#: Quarter steps: cheap under the exact timebase, and ties are common.
amounts = st.integers(0, 12).map(lambda q: q / 4)

#: Under the float timebase a blocking term or deferral may also be
#: infinite, which is how an analysis gets an infinite kernel input.
float_amounts = st.integers(0, 13).map(
    lambda q: math.inf if q == 13 else q / 4
)


@st.composite
def cases(draw):
    timebase = draw(st.sampled_from(["float", "exact"]))
    system = generate_system(draw(configs), draw(st.integers(0, 10_000)))
    sids = st.sampled_from(system.subtask_ids)
    values = float_amounts if timebase == "float" else amounts
    blocking = draw(st.dictionaries(sids, values, max_size=4))
    extra_jitter = draw(st.dictionaries(sids, values, max_size=4))
    return system, timebase, blocking, extra_jitter


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=cases(),
    failure_factor=st.sampled_from([300.0, 4.0, 1.5]),
    max_iterations=st.sampled_from([1, 3, 300]),
)
def test_worklist_equals_full_passes(case, failure_factor, max_iterations):
    system, timebase, blocking, extra_jitter = case
    options = dict(
        failure_factor=failure_factor,
        max_iterations=max_iterations,
        timebase=timebase,
        blocking=blocking,
        extra_jitter=extra_jitter,
    )
    _assert_worklist_equals_full_passes(system, options)


def test_worklist_skips_settled_subtasks(monkeypatch):
    """The skip rule is live: a multi-pass analysis runs the kernel fewer
    times than full passes would."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    calls = []
    kernel = sa_ds_module.busy_period_kernel

    def counted(*args):
        calls.append(args[0].sid)
        return kernel(*args)

    monkeypatch.setattr(sa_ds_module, "busy_period_kernel", counted)
    result = analyze_sa_ds(system)
    assert result.iterations >= 3
    assert len(calls) < result.iterations * len(system.subtask_ids)


#: The benchmark's miss-compute cells: (subtasks per task, utilization),
#: paper-size systems of 12 tasks on 4 processors.
MISS_CELLS = [(n, u) for n in (2, 3, 4, 5) for u in (0.5, 0.6, 0.7)]

#: The cold exact-timebase reference for the longer chains takes ~35 s;
#: those cells run in the slow tier.
_SWEEP = [
    pytest.param(
        n,
        u,
        timebase,
        marks=[pytest.mark.slow] if timebase == "exact" and n >= 4 else [],
        id=f"n{n}-u{u}-{timebase}",
    )
    for timebase in ("float", "exact")
    for n, u in MISS_CELLS
]


@pytest.mark.parametrize("n,u,timebase", _SWEEP)
def test_warm_start_equals_cold_passes_on_miss_cells(n, u, timebase):
    """Ten seeded systems per cell: the warm-started worklist reproduces
    cold full IEERT passes token for token."""
    for seed in range(10):
        system = generate_system(
            WorkloadConfig(subtasks_per_task=n, utilization=u), seed
        )
        _assert_worklist_equals_full_passes(system, _options(timebase))


def _rate_monotonic(tasks) -> System:
    return get_policy("rate-monotonic")(System(tuple(tasks)))


#: Integer periods put the demand functions' step edges at multiples of
#: a few round numbers.
_EDGE_PERIODS = st.sampled_from([4.0, 5.0, 6.0, 8.0, 10.0, 12.0])


def _near(draw, quarters, scale: float) -> float:
    """``quarters / 4``, moved by a few float tolerances of ``scale``."""
    return quarters / 4 + draw(st.integers(-4, 4)) * REL_EPS * scale


@st.composite
def near_edge_cases(draw):
    """Systems whose execution times, blocking terms and deferrals are
    quarter steps moved by a few ``REL_EPS * p``: sums of them, plus the
    jitters, land within the float tolerance of multiples of the
    periods, where the tolerant ceiling puts the demand steps."""
    processors = draw(st.integers(1, 2))
    tasks = []
    for _ in range(draw(st.integers(2, 4))):
        period = draw(_EDGE_PERIODS)
        chain = [
            Subtask(
                _near(draw, draw(st.integers(1, 6)), period),
                f"P{draw(st.integers(1, processors))}",
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        tasks.append(Task(period=period, subtasks=tuple(chain)))
    system = _rate_monotonic(tasks)
    # A priority level loaded to within a hair of 1 creeps for the
    # solver's whole iteration budget; leave those out.
    assume(
        all(
            terms.diverged or terms.slack > 0.01
            for terms in CompiledSystem(system).terms
        )
    )
    sids = st.sampled_from(system.subtask_ids)

    def amounts(sid, most):
        return st.integers(0, most).map(
            lambda q: max(0.0, _near(draw, q, system.period_of(sid)))
        )

    extra_jitter = {
        sid: draw(amounts(sid, 24))
        for sid in draw(st.sets(sids, max_size=3))
    }
    blocking = {
        sid: draw(amounts(sid, 8)) for sid in draw(st.sets(sids, max_size=2))
    }
    return system, blocking, extra_jitter


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=near_edge_cases())
def test_warm_start_equals_cold_passes_near_demand_edges(case):
    """Float: iterates within the solver's tolerance of a demand step
    settle where cold passes settle."""
    system, blocking, extra_jitter = case
    _assert_worklist_equals_full_passes(
        system, _options(blocking=blocking, extra_jitter=extra_jitter)
    )


@st.composite
def wide_scale_systems(draw):
    """One task with a period of 1e-3..1e-1 among tasks with periods of
    1e2..1e7: the fast task's execution time is below the float
    tolerance of the slow tasks' busy periods."""
    processors = draw(st.integers(1, 2))
    scales = [draw(st.integers(-3, -1))] + [
        draw(st.integers(2, 7)) for _ in range(draw(st.integers(1, 3)))
    ]
    tasks = []
    for scale in scales:
        period = 10.0**scale * draw(st.sampled_from([1, 2, 3, 5]))
        chain = [
            Subtask(
                period * draw(st.floats(0.02, 0.3)),
                f"P{draw(st.integers(1, processors))}",
            )
            for _ in range(draw(st.integers(1, 3)))
        ]
        tasks.append(Task(period=period, subtasks=tuple(chain)))
    return _rate_monotonic(tasks)


@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(system=wide_scale_systems())
def test_warm_start_equals_cold_passes_across_time_scales(system):
    """Float: a demand step within the solver's tolerance makes where an
    iteration stops depend on where it starts; such runs start cold."""
    _assert_worklist_equals_full_passes(system, _options())


def _count_evaluations(monkeypatch) -> list[int]:
    """Count demand evaluations of the busy-period solver from now on,
    as the solver reports them; the count is the returned list's one
    element."""
    count = [0]
    solve = busy_period_module._solve_packed

    def counted(*args):
        result = solve(*args)
        count[0] += result[1]
        return result

    monkeypatch.setattr(busy_period_module, "_solve_packed", counted)
    return count


def test_warm_start_cuts_demand_evaluations(monkeypatch):
    """The warm start is live: a multi-pass analysis evaluates fewer
    demands than the same passes run cold."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    count = _count_evaluations(monkeypatch)
    result = analyze_sa_ds(system)
    warm, count[0] = count[0], 0
    monkeypatch.setattr(WarmStart, "covers", lambda *args: False)
    cold_result = analyze_sa_ds(system)
    assert result.subtask_bounds == cold_result.subtask_bounds
    assert result.iterations >= 3
    assert warm < 0.8 * count[0]


def _two_task_system(high_wcet: float = 6.0) -> System:
    """``T1 = (9, high_wcet)`` above ``T2 = (4, 1)`` on one processor:
    T2's busy period holds several instances."""
    high = Task(period=9.0, subtasks=(Subtask(high_wcet, "P1", priority=0),))
    low = Task(period=4.0, subtasks=(Subtask(1.0, "P1", priority=1),))
    return System((high, low))


@pytest.mark.parametrize("timebase", ["float", "exact"])
def test_warm_state_from_larger_inputs_is_ignored(timebase, monkeypatch):
    """State computed under a larger jitter (own, interferer or both) or
    for another subtask must not seed the run: the result is the cold
    one.  Seeding from it anyway gives a different answer."""
    tb = get_timebase(timebase)
    compiled = CompiledSystem(_two_task_system(), tb)
    terms = compiled.terms[1]
    small, large = tb.convert(0.5), tb.convert(3.0)
    cold = busy_period_kernel(terms, small, [small], 0, None, tb)
    for own, inter in ((large, large), (large, small), (small, large)):
        warm = WarmStart()
        busy_period_kernel(terms, own, [inter], 0, None, tb, warm)
        assert busy_period_kernel(
            terms, small, [small], 0, None, tb, warm
        ) == cold
    warm = WarmStart()
    busy_period_kernel(terms, small, [small], 1, None, tb, warm)
    assert busy_period_kernel(terms, small, [small], 0, None, tb, warm) == (
        cold
    )
    other = CompiledSystem(_two_task_system(), tb).terms[1]
    warm = WarmStart()
    busy_period_kernel(other, large, [large], 0, None, tb, warm)
    assert busy_period_kernel(terms, small, [small], 0, None, tb, warm) == (
        cold
    )

    # The guard is what keeps these results cold.
    warm = WarmStart()
    busy_period_kernel(terms, large, [large], 0, None, tb, warm)
    monkeypatch.setattr(WarmStart, "covers", lambda *args: True)
    try:
        unguarded = busy_period_kernel(
            terms, small, [small], 0, None, tb, warm
        )
    except AnalysisError:
        return
    assert unguarded != cold


@pytest.mark.parametrize("timebase", ["float", "exact"])
def test_warm_state_from_smaller_inputs_is_used(timebase):
    """State from smaller jitters seeds the run and the result is still
    the cold one; the record then describes the new run."""
    tb = get_timebase(timebase)
    terms = CompiledSystem(_two_task_system(), tb).terms[1]
    small, large = tb.convert(0.5), tb.convert(3.0)
    cold = busy_period_kernel(terms, large, [large], 0, None, tb)
    warm = WarmStart()
    busy_period_kernel(terms, small, [small], 0, None, tb, warm)
    assert busy_period_kernel(terms, large, [large], 0, None, tb, warm) == (
        cold
    )
    assert warm.busy_period == cold[0]
    assert (warm.own_jitter, warm.inter_jitter) == (large, [large])
    assert len(warm.completions) == cold[1]


def test_exact_warm_state_is_kept_in_timebase_units(monkeypatch):
    """Regression: the kernel rescales each exact run by the LCM of its
    inputs' denominators, and that scale changes from pass to pass.  A
    warm state kept in one run's scaled integers is meaningless under
    the next run's scale; it must be kept in timebase units and
    rescaled with the other inputs."""
    tb = get_timebase("exact")
    # e = 6.25 makes every busy period and completion fractional.
    terms = CompiledSystem(_two_task_system(6.25), tb).terms[1]
    evaluations = _count_evaluations(monkeypatch)
    for first, second in (
        (Fraction(1, 3), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(5, 3)),
        (Fraction(5, 2), Fraction(8, 3)),
    ):
        evaluations[0] = 0
        cold = busy_period_kernel(terms, second, [second], 0, None, tb)
        cold_evaluations = evaluations[0]
        warm = WarmStart()
        busy_period_kernel(terms, first, [first], 0, None, tb, warm)
        assert warm.busy_period == busy_period_kernel(
            terms, first, [first], 0, None, tb
        )[0]
        assert all(isinstance(c, (int, Fraction)) for c in warm.completions)
        evaluations[0] = 0
        assert busy_period_kernel(
            terms, second, [second], 0, None, tb, warm
        ) == cold
        assert evaluations[0] < cold_evaluations
