"""The worklist SA/DS equals plain iteration of the public IEERT pass.

``analyze_sa_ds`` recomputes a subtask only when one of its inputs
changed since the previous pass.  These tests pin that skip rule
independently of the golden corpus: on random systems with random
blocking terms and interference jitter, on both timebases, the result
must equal iterating :func:`ieert_pass` from :func:`initial_ieer_bounds`
under SA/DS's stopping rule -- the same bounds (by type and ``repr``),
the same pass count and the same notes.
"""

from __future__ import annotations

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.analysis.sa_ds as sa_ds_module
from repro.core.analysis.sa_ds import (
    analyze_sa_ds,
    ieert_pass,
    initial_ieer_bounds,
)
from repro.model.task import SubtaskId
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


configs = st.builds(
    WorkloadConfig,
    subtasks_per_task=st.integers(1, 4),
    utilization=st.floats(0.3, 0.95),
    tasks=st.integers(2, 6),
    processors=st.integers(2, 3),
).filter(lambda c: c.tasks * c.subtasks_per_task >= 2 * c.processors)

#: Quarter steps: cheap under the exact timebase, and ties are common.
amounts = st.integers(0, 12).map(lambda q: q / 4)


@st.composite
def cases(draw):
    system = generate_system(draw(configs), draw(st.integers(0, 10_000)))
    sids = st.sampled_from(system.subtask_ids)
    blocking = draw(st.dictionaries(sids, amounts, max_size=4))
    extra_jitter = draw(st.dictionaries(sids, amounts, max_size=4))
    return system, blocking, extra_jitter


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    case=cases(),
    timebase=st.sampled_from(["float", "exact"]),
    failure_factor=st.sampled_from([300.0, 4.0, 1.5]),
    max_iterations=st.sampled_from([1, 3, 300]),
)
def test_worklist_equals_full_passes(
    case, timebase, failure_factor, max_iterations
):
    system, blocking, extra_jitter = case
    options = dict(
        failure_factor=failure_factor,
        max_iterations=max_iterations,
        timebase=timebase,
        blocking=blocking,
        extra_jitter=extra_jitter,
    )
    result = analyze_sa_ds(system, **options)
    bounds, passes, notes = _full_pass_sa_ds(system, **options)
    assert _tokens(result.subtask_bounds) == _tokens(bounds)
    assert result.iterations == passes
    assert list(result.notes) == notes


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
