"""SA/DS's sweeps and worklist passes equal plain iteration of IEERT.

``analyze_sa_ds`` answers with Gauss-Seidel sweeps where they vouch for
the Jacobi answer and with Jacobi worklist passes otherwise; both
recompute a subtask only when one of its inputs changed and resume its
busy-period fixed points from its previous run (warm start).  These
tests pin the result independently of the golden corpus: on random
systems with random blocking terms and interference jitter, on small
iteration budgets, on systems that trip the failure cutoff, and on a
seeded sweep over the benchmark's miss cells, on both timebases, it
must equal iterating the cold :func:`ieert_pass` from
:func:`initial_ieer_bounds` under SA/DS's stopping rule -- the same
bounds (by type and ``repr``), the same ``failed`` and the same notes,
in no more sweeps than passes.  Two float properties aim where the
float solver's stopping tolerance could split a warm run from a cold
one, or a sweep from a pass: demand sums within the tolerance of a
ceiling step, and execution times below the tolerance.  The kernel
tests pin the warm start's input guard and its timebase units.  Over
the 120 miss-cell systems, the sweeps' condensation visit order runs
fewer kernels than ``sids`` order, and starting SA/DS from SA/PM's
fixed points adds no demand evaluation.
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
from repro.core.analysis.sa_pm import analyze_sa_pm
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
    assert result.failed is bool(notes)
    assert list(result.notes) == notes
    # Sweeps where the sweeps' result is served, passes where Jacobi's is;
    # a failed result is always Jacobi's.
    assert result.iterations <= passes
    if result.failed:
        assert result.iterations == passes


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


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases(), max_iterations=st.integers(1, 5))
def test_sweeps_equal_passes_under_small_budgets(case, max_iterations):
    """Budgets of a few passes: the sweeps often settle within the budget
    while Jacobi would need more passes, and the Jacobi answer (usually a
    declared failure) must be the one served."""
    system, timebase, blocking, extra_jitter = case
    _assert_worklist_equals_full_passes(
        system,
        _options(timebase, blocking, extra_jitter)
        | {"max_iterations": max_iterations},
    )


#: Systems near saturation with a cutoff of a few periods: about 40% of
#: the draws trip the failure cutoff.
heavy_configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(2, 5),
    utilization=st.floats(0.85, 0.95),
    tasks=st.integers(4, 8),
    processors=st.integers(2, 3),
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    config=heavy_configs,
    seed=st.integers(0, 10_000),
    timebase=st.sampled_from(["float", "exact"]),
    failure_factor=st.sampled_from([2.0, 4.0, 8.0]),
)
def test_sweeps_equal_passes_on_cutoff_tripping_systems(
    config, seed, timebase, failure_factor
):
    """A bound past the cutoff hands the analysis to Jacobi: the failed
    result's lower-estimate bounds and notes are the passes' own."""
    _assert_worklist_equals_full_passes(
        generate_system(config, seed),
        _options(timebase) | {"failure_factor": failure_factor},
    )


def test_budget_counts_jacobi_passes():
    """``max_iterations`` keeps its meaning: a budget one short of the
    passes Jacobi needs declares failure even though the sweeps settle
    well within it; the full budget serves the sweeps' result."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    bounds, passes, _ = _full_pass_sa_ds(system, **_options())
    served = analyze_sa_ds(system)
    assert served.iterations < passes - 1
    assert _tokens(served.subtask_bounds) == _tokens(bounds)
    short = analyze_sa_ds(system, max_iterations=passes - 1)
    assert short.failed
    assert short.iterations == passes - 1
    assert short.notes[0] == (
        f"no fixed point within {passes - 1} IEERT passes; "
        f"bounds still growing -- declared failure"
    )


def _count_kernel_runs(monkeypatch) -> list[SubtaskId]:
    """Record the subtask of every kernel run SA/DS makes from now on."""
    calls = []
    kernel = sa_ds_module.busy_period_kernel

    def counted(*args):
        calls.append(args[0].sid)
        return kernel(*args)

    monkeypatch.setattr(sa_ds_module, "busy_period_kernel", counted)
    return calls


def _passes_only(monkeypatch) -> None:
    """Switch the sweeps off: the Jacobi passes answer every analysis."""
    monkeypatch.setattr(sa_ds_module, "_chaotic", lambda *args: None)


def test_sweeps_run_fewer_kernels_than_passes(monkeypatch):
    """The sweeps are live: they reach the passes' bounds in well under
    the passes' kernel runs."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    calls = _count_kernel_runs(monkeypatch)
    swept = analyze_sa_ds(system)
    sweep_runs = len(calls)
    _passes_only(monkeypatch)
    del calls[:]
    passed = analyze_sa_ds(system)
    assert _tokens(swept.subtask_bounds) == _tokens(passed.subtask_bounds)
    assert swept.iterations < passed.iterations
    assert sweep_runs < 0.6 * len(calls)


def test_worklist_skips_settled_subtasks(monkeypatch):
    """The passes' skip rule is live: a multi-pass analysis runs the
    kernel fewer times than full passes would."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), 1
    )
    calls = _count_kernel_runs(monkeypatch)
    _passes_only(monkeypatch)
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


def test_bound_falling_within_tolerance_is_answered_by_passes():
    """Regression: a 2 ms task beside 1e5-1e7 periods.  The tolerant
    solver is monotone only up to REL_EPS, so T2,1's bound falls by
    5e-4 on a later run and Jacobi stops on its relative test one pass
    before the sweeps would; the sweeps must give way to the passes."""
    tasks = [
        (0.002, [(0.00026256007798941745, "P1"), (0.0003, "P2")]),
        (
            1e7,
            [
                (1756461.4627618345, "P1"),
                (244835.20494228034, "P1"),
                (1631691.9167314265, "P2"),
            ],
        ),
        (
            2e5,
            [
                (57481.76472671325, "P1"),
                (20000.0, "P1"),
                (34147.04145257278, "P1"),
            ],
        ),
        (1000.0, [(100.0, "P1"), (100.0, "P2"), (20.0, "P2")]),
    ]
    system = _rate_monotonic(
        Task(
            period=period,
            subtasks=tuple(Subtask(e, processor) for e, processor in chain),
        )
        for period, chain in tasks
    )
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


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda count: st.lists(
            st.lists(st.integers(0, count - 1), max_size=4),
            min_size=count,
            max_size=count,
        )
    )
)
def test_condensation_orders_strongly_connected_components(reads):
    """``_condensation`` partitions the nodes into the mutually reachable
    sets, each sorted, every one after the sets its members read."""
    count = len(reads)
    reach = [{k} for k in range(count)]
    for _ in range(count):
        for k in range(count):
            for r in list(reach[k]):
                reach[k] |= set(reads[r])
    components = busy_period_module._condensation(reads)
    assert sorted(k for members in components for k in members) == list(
        range(count)
    )
    position = {}
    for index, members in enumerate(components):
        assert members == sorted(members)
        for k in members:
            position[k] = index
    for k in range(count):
        for other in range(count):
            mutual = other in reach[k] and k in reach[other]
            assert mutual == (position[k] == position[other])
        for r in reads[k]:
            assert position[r] <= position[k]


def _miss_cell_systems():
    """The 120 float miss-cell systems: ten seeds of each cell."""
    for n, u in MISS_CELLS:
        for seed in range(10):
            yield generate_system(
                WorkloadConfig(subtasks_per_task=n, utilization=u), seed
            )


def test_condensation_order_runs_no_more_kernels_than_sids_order(
    monkeypatch,
):
    """Sweeping the ``reads`` graph's components in topological order
    reaches the bounds of sweeping every subtask in ``sids`` order, in
    fewer kernel runs over the 120 systems.  (Not system by system: with
    Python 3.12's compensated ``sum()`` a few systems take more.)"""
    calls = _count_kernel_runs(monkeypatch)
    ordered, runs = [], []
    for system in _miss_cell_systems():
        del calls[:]
        ordered.append(analyze_sa_ds(system))
        runs.append(len(calls))
    monkeypatch.setattr(
        busy_period_module.CompiledShape,
        "components",
        property(lambda shape: [list(range(len(shape.sids)))]),
    )
    total = sids_total = 0
    for system, result, ordered_runs in zip(
        _miss_cell_systems(), ordered, runs
    ):
        del calls[:]
        in_sids_order = analyze_sa_ds(system)
        assert _tokens(result.subtask_bounds) == _tokens(
            in_sids_order.subtask_bounds
        )
        total += ordered_runs
        sids_total += len(calls)
    assert total < 0.9 * sids_total


def test_sa_pm_seeding_adds_no_demand_evaluations(monkeypatch):
    """SA/DS over a compilation SA/PM has run on starts from SA/PM's
    fixed points: per miss-cell system it evaluates no more demands than
    over a fresh compilation, with the same result."""
    count = _count_evaluations(monkeypatch)
    seeded_total = unseeded_total = 0
    for system in _miss_cell_systems():
        count[0] = 0
        unseeded = analyze_sa_ds(system)
        unseeded_evaluations = count[0]
        compiled = CompiledSystem(system)
        analyze_sa_pm(system, compiled=compiled)
        count[0] = 0
        seeded = analyze_sa_ds(system, compiled=compiled)
        assert _tokens(seeded.subtask_bounds) == _tokens(
            unseeded.subtask_bounds
        )
        assert seeded.iterations == unseeded.iterations
        assert count[0] <= unseeded_evaluations
        seeded_total += count[0]
        unseeded_total += unseeded_evaluations
    assert seeded_total < 0.9 * unseeded_total


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
