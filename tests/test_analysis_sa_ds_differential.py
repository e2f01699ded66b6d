"""Differential checks of the served SA/DS against its reference paths.

``analyze_sa_ds`` serves the Gauss-Seidel sweeps (in condensation order
of the ``reads`` graph) where they vouch for the Jacobi answer, and
every kernel run may start from a warm record: its own previous run,
or SA/PM's run over the same compilation.  None of that may change an
answer.  On drawn systems (2-8 subtasks per task, utilization 0.5-0.9,
both timebases, with and without DPCP critical sections):

* the served result -- bounds by type and ``repr``, ``failed`` and
  notes -- equals the Jacobi passes (``sa_ds._jacobi``) run on a fresh
  compilation, from empty warm records;
* a run seeded with SA/PM's fixed points equals an unseeded run, pass
  counts included;
* ``sa_ds_schedulable`` equals ``analyze_sa_ds(...).schedulable``,
  seeded by a verdict-only SA/PM or not.

Sectioned systems are checked on the very inputs the blocking-aware
analysis hands to ``analyze_sa_ds``: the agent-augmented system with
its blocking terms and deferrals, on every pass of the deferral loop.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import (
    _jacobi,
    _Problem,
    analyze_sa_ds,
    sa_ds_schedulable,
)
from repro.core.analysis.sa_pm import analyze_sa_pm, sa_pm_schedulable
from repro.locks import (
    LockingConfig,
    analyze_sa_ds_blocking,
    inject_critical_sections,
)
from repro.locks import analysis as locks_analysis_module
from repro.timebase import get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

_LOWER_ESTIMATES = (
    "non-infinite bounds in a failed result are lower estimates "
    "(iteration stopped at the failure cutoff)"
)

configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(2, 8),
    utilization=st.floats(0.5, 0.9),
    tasks=st.integers(2, 5),
    processors=st.integers(2, 3),
)


@st.composite
def cases(draw):
    """``(system, timebase, failure_factor, max_iterations)``.  Exact
    arithmetic on a level creeping toward a 300-period cutoff takes
    minutes, so exact draws cut off at a few periods."""
    timebase = draw(st.sampled_from(["float", "exact"]))
    system = generate_system(draw(configs), draw(st.integers(0, 10_000)))
    factors = [300.0, 4.0] if timebase == "float" else [4.0]
    return (
        system,
        timebase,
        draw(st.sampled_from(factors)),
        draw(st.sampled_from([300, 3])),
    )


def _tokens(bounds) -> list[tuple[str, str]]:
    return [
        (str(sid), f"{type(value).__name__}:{value!r}")
        for sid, value in bounds.items()
    ]


def _served(result) -> tuple:
    return _tokens(result.subtask_bounds), result.failed, list(result.notes)


def _assert_equals_reference(system, timebase, options) -> None:
    """Served SA/DS, seeded and unseeded, equals fresh Jacobi passes."""
    tb = get_timebase(timebase)
    failure_factor = options["failure_factor"]
    unseeded = analyze_sa_ds(system, timebase=tb, **options)

    problem = _Problem(
        CompiledSystem(system, tb),
        failure_factor,
        options["blocking"],
        options["extra_jitter"],
    )
    bounds, _, failed, notes = _jacobi(
        problem, failure_factor, options["max_iterations"]
    )
    if failed:
        notes.append(_LOWER_ESTIMATES)
    reference = dict(zip(system.subtask_ids, bounds))
    assert _served(unseeded) == (_tokens(reference), failed, notes)

    compiled = CompiledSystem(system, tb)
    analyze_sa_pm(
        system,
        blocking=options["blocking"],
        jitter=options["extra_jitter"],
        timebase=tb,
        compiled=compiled,
    )
    seeded = analyze_sa_ds(system, timebase=tb, compiled=compiled, **options)
    assert _served(seeded) == _served(unseeded)
    assert seeded.iterations == unseeded.iterations


def _assert_verdict_agrees(system, timebase, max_iterations) -> None:
    tb = get_timebase(timebase)
    expected = analyze_sa_ds(
        system, timebase=tb, max_iterations=max_iterations
    ).schedulable
    assert (
        sa_ds_schedulable(
            CompiledSystem(system, tb), max_iterations=max_iterations
        )
        is expected
    )
    compiled = CompiledSystem(system, tb)
    sa_pm_schedulable(compiled)
    assert (
        sa_ds_schedulable(compiled, max_iterations=max_iterations)
        is expected
    )


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(case=cases())
def test_served_sa_ds_equals_references(case):
    system, timebase, failure_factor, max_iterations = case
    options = dict(
        failure_factor=failure_factor,
        max_iterations=max_iterations,
        blocking=None,
        extra_jitter=None,
    )
    _assert_equals_reference(system, timebase, options)
    _assert_verdict_agrees(system, timebase, max_iterations)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=cases(),
    protocol=st.sampled_from(["DPCP", "DPCP-p"]),
    section_seed=st.integers(0, 10_000),
)
def test_served_sa_ds_equals_references_with_sections(
    case, protocol, section_seed
):
    system, timebase, failure_factor, max_iterations = case
    system = inject_critical_sections(system, ratio=0.1, seed=section_seed)
    calls = []
    analyze = locks_analysis_module.analyze_sa_ds

    def recorded(system, **options):
        calls.append((system, options))
        return analyze(system, **options)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locks_analysis_module, "analyze_sa_ds", recorded)
        analyze_sa_ds_blocking(
            system,
            locking=LockingConfig(protocol),
            failure_factor=failure_factor,
            max_iterations=max_iterations,
            timebase=timebase,
        )
    assert calls
    for augmented, options in calls:
        _assert_equals_reference(
            augmented,
            timebase,
            {
                "failure_factor": failure_factor,
                "max_iterations": max_iterations,
                "blocking": options.get("blocking"),
                "extra_jitter": options.get("extra_jitter"),
            },
        )
