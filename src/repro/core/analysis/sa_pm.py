"""Algorithm SA/PM -- schedulability analysis for PM, MPM and RG.

Section 4.1 of the paper: under the PM or MPM protocol every subtask is
strictly periodic, so Lehoczky's busy-period analysis bounds each
subtask's response time (Steps 1-4, Eqs. 1-5) and the EER bound of a task
is the sum of its subtask bounds (Step 5, Eq. 6).

Section 4.2 (Lemma 1 / Theorem 1) proves the *same* bounds are valid
under the Release Guard protocol: rule 2 never fires inside a busy
period, so subtasks are periodic within every busy period, and the sum of
subtask bounds dominates the release-guard delays along the chain.
Callers therefore use this one analysis for all three protocols.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from repro.core.analysis.busy_period import (
    _DIVERGED,
    CompiledSystem,
    SubtaskBusyPeriod,
    WarmStart,
    busy_period_kernel,
    compiled_for,
)

# Unused here, but kept bound at this module's name: the benchmark's
# tracer (perfbench/spans.py) wraps ``sa_pm.analyze_subtask``.
from repro.core.analysis.busy_period import analyze_subtask  # noqa: F401
from repro.core.analysis.results import AnalysisResult, within_deadline
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, Timebase, get_timebase

__all__ = ["analyze_sa_pm", "sa_pm_subtask_details"]


def sa_pm_subtask_details(
    system: System,
    blocking: Mapping[SubtaskId, float] | None = None,
    *,
    jitter: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
    compiled: CompiledSystem | None = None,
) -> dict[SubtaskId, SubtaskBusyPeriod]:
    """Steps 1-4 for every subtask: full busy-period records.

    ``jitter`` is *interference* jitter (suspension-as-jitter deferral
    of lock-holding subtasks -- see :mod:`repro.locks.analysis`): it
    widens the arrival windows of interfering subtasks but is never
    applied to the analyzed subtask's own releases, which stay strictly
    periodic under PM/MPM/RG.  An infinite blocking term short-circuits
    to a diverged record (the exact backend cannot represent infinite
    demand).  ``compiled`` is ``system`` already compiled in
    ``timebase``, when the caller shares one compilation between
    analyses.
    """
    timebase = get_timebase(timebase)
    compiled = compiled_for(system, timebase, compiled)
    return {
        sid: SubtaskBusyPeriod(sid, *run)
        for sid, run in zip(
            compiled.sids, _kernel_runs(compiled, blocking, jitter)
        )
    }


def _kernel_runs(
    compiled: CompiledSystem,
    blocking: Mapping[SubtaskId, float] | None,
    jitter: Mapping[SubtaskId, float] | None,
):
    """Steps 1-4 for every subtask in ``compiled.sids`` order, lazily:
    the kernel's tuples.  Strictly periodic releases, so no jitter of
    its own; an infinite blocking term gives the diverged tuple.  Each
    run's fixed points are kept in ``compiled.sa_pm_records`` for SA/DS
    to start from."""
    kernel = busy_period_kernel
    timebase = compiled.timebase
    zero = timebase.zero
    sids, terms = compiled.sids, compiled.terms
    records = [WarmStart() for _ in sids]
    compiled.sa_pm_records = records
    if jitter:
        inter_jitter = [timebase.convert(jitter.get(sid, 0)) for sid in sids]
    else:
        inter_jitter = [zero] * len(sids)
    exact = timebase.exact
    packed = loads = None
    if not exact:
        # Each subtask's (e, p, J) triple and jitter load as an
        # interferer, built once for all the runs it enters.
        triple = list(
            zip([term.wcet for term in terms], compiled.period, inter_jitter)
        )
        load = [(j / p + 1) * e for e, p, j in triple]
    for k, gather in enumerate(compiled.shape.gathers):
        own_blocking = blocking.get(sids[k], 0.0) if blocking else 0.0
        if math.isinf(own_blocking):
            yield _DIVERGED
            continue
        if not exact:
            packed, loads = gather(triple), gather(load)
        yield kernel(
            terms[k],
            zero,
            gather(inter_jitter),
            own_blocking,
            None,
            timebase,
            records[k],
            packed,
            loads,
        )


def chain_totals(compiled: CompiledSystem, bounds: Iterable):
    """Each subtask's running task total, in ``compiled.sids`` order.

    Yields ``(k, total)``: ``total`` is the sum of the bounds of ``k``'s
    chain up to and including ``k``, added left to right with ``+=``
    from the timebase's zero -- the order float EER sums depend on.
    ``bounds`` is consumed one value per subtask, so a lazy one is
    computed only as far as the caller reads.
    """
    zero = compiled.timebase.zero
    total = zero
    for k, (sid, bound) in enumerate(zip(compiled.sids, bounds)):
        if not sid.subtask_index:
            total = zero
        total += bound
        yield k, total


def task_sums(compiled: CompiledSystem, bounds: Iterable) -> tuple:
    """The EER bound of every task: its chain's bounds summed in chain
    order (see :func:`chain_totals`)."""
    is_last = compiled.is_last
    return tuple(
        total for k, total in chain_totals(compiled, bounds) if is_last[k]
    )


def _bound(run) -> float:
    """A kernel tuple's bound, ``inf`` when unbounded."""
    return math.inf if run[3] is None else run[3]


def analyze_sa_pm(
    system: System,
    *,
    blocking: Mapping[SubtaskId, float] | None = None,
    jitter: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
    compiled: CompiledSystem | None = None,
) -> AnalysisResult:
    """Run Algorithm SA/PM over a system.

    Returns an :class:`AnalysisResult` whose ``subtask_bounds`` are the
    response-time bounds ``R_i,j`` and whose ``task_bounds`` are the EER
    bounds ``R_i = sum_j R_i,j``.  A subtask on a processor whose
    interference utilization reaches 1 gets an infinite bound (and so
    does its task); no exception is raised for unschedulable systems.

    ``blocking`` optionally charges a per-subtask blocking term ``B_i,j``
    into every demand equation (non-preemptive sections, dedicated
    communication resources -- the Section 6 extension); ``jitter``
    charges interference jitter per *interfering* subtask
    (suspension-as-jitter for lock-induced deferrals, see
    :func:`sa_pm_subtask_details`).  Under the exact ``timebase`` the
    bounds come out as scaled integers/rationals and the EER sums are
    exact.  ``compiled`` shares a compilation of ``system`` (see
    :func:`sa_pm_subtask_details`).
    """
    timebase = get_timebase(timebase)
    compiled = compiled_for(system, timebase, compiled)
    bounds = list(map(_bound, _kernel_runs(compiled, blocking, jitter)))
    return AnalysisResult(
        system=system,
        algorithm="SA/PM",
        subtask_bounds=dict(zip(compiled.sids, bounds)),
        task_bounds=task_sums(compiled, bounds),
        iterations=1,
    )


def sa_pm_schedulable(compiled: CompiledSystem) -> bool:
    """``analyze_sa_pm(...).schedulable`` without the bounds.

    ``compiled`` may come from :meth:`CompiledShape.at
    <repro.core.analysis.busy_period.CompiledShape.at>`: no system is
    needed.  Resource-free only (no blocking, no jitter).

    Each task's subtask bounds are summed in chain order, as
    :func:`analyze_sa_pm` sums them, and the run stops at the first
    partial sum the deadline comparator rejects: adding non-negative
    bounds in the same order never makes a sum smaller, so the full
    sum would be rejected too.  The subtasks after it are never
    analyzed.
    """
    deadline = compiled.shape.deadline
    bounds = map(_bound, _kernel_runs(compiled, None, None))
    return all(
        within_deadline(total, deadline[k])
        for k, total in chain_totals(compiled, bounds)
    )
