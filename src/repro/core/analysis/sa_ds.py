"""Algorithms IEERT and SA/DS -- schedulability analysis for DS.

Under Direct Synchronization the releases of later subtasks inherit the
response-time variability of their predecessors and can *clump*; plain
busy-period analysis does not apply.  Algorithm IEERT (Fig. 10 of the
paper) bounds the *intermediate end-to-end response* (IEER) time of every
subtask -- completion of ``T_i,j(m)`` minus the release of ``T_i,1(m)`` --
by treating each subtask's current IEER-bound-of-predecessor as release
jitter in the interference terms:

    D_i,j   = lfp { t = sum_{H ∪ self} ceil((t + R_u,v-1)/p_u) e_u,v }
    M_i,j   = ceil((D_i,j + R_i,j-1) / p_i)
    C_i,j(m)= lfp { t = m e_i,j + sum_H ceil((t + R_u,v-1)/p_u) e_u,v }
    R'_i,j(m) = C_i,j(m) + R_i,j-1 - (m-1) p_i
    R'_i,j  = max_m R'_i,j(m)

Algorithm SA/DS (Fig. 11) iterates IEERT from the optimistic seed
``R_i,j = sum_{k<=j} e_i,k`` until the bounds reach a fixed point
(Theorem 2: any positive fixed point is a correct bound) -- or until some
task's bound exceeds the paper's failure cutoff of 300 periods, in which
case the bound is reported "for all practical purposes infinite".

:func:`analyze_sa_ds` runs the iteration as a worklist: a subtask is
recomputed on a pass only when one of its inputs changed since the
previous pass, and its busy-period fixed points resume from the
previous pass's (see the function's docstring).
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

from repro.core.analysis.busy_period import (
    CompiledSystem,
    WarmStart,
    busy_period_kernel,
    compiled_for,
)

# Unused here, but kept bound at this module's name: the benchmark's
# tracer (perfbench/spans.py) wraps ``sa_ds.analyze_subtask``.
from repro.core.analysis.busy_period import analyze_subtask  # noqa: F401
from repro.core.analysis.results import FAILURE_FACTOR, AnalysisResult
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, REL_EPS, Timebase, get_timebase

__all__ = ["ieert_pass", "analyze_sa_ds", "initial_ieer_bounds"]

#: Convergence tolerance of the outer fixed point, relative to the bound
#: (float timebase only; the exact timebase converges on equality).
_CONVERGENCE_RTOL = REL_EPS


def initial_ieer_bounds(
    system: System, *, timebase: Timebase | str = FLOAT
) -> dict[SubtaskId, float]:
    """The SA/DS seed: cumulative execution times along each chain."""
    timebase = get_timebase(timebase)
    if timebase.exact:
        # Accumulate in exact arithmetic (the float cumulative sums would
        # seed the iteration with representation noise).
        bounds: dict[SubtaskId, float] = {}
        for task_index, task in enumerate(system.tasks):
            total = timebase.zero
            for j in range(task.chain_length):
                sid = SubtaskId(task_index, j)
                total += timebase.convert(
                    system.subtask(sid).execution_time
                )
                bounds[sid] = total
        return bounds
    return {
        sid: system.tasks[sid.task_index].cumulative_execution_time(
            sid.subtask_index
        )
        for sid in system.subtask_ids
    }


def _jitters(
    release_jitter: Sequence, extra: Sequence, timebase: Timebase
) -> tuple[list, list]:
    """Per-subtask jitter in ``timebase``: as the analyzed subtask, and as
    an interferer.

    ``release_jitter[k]`` is subtask ``k``'s predecessor bound (``0`` for
    first subtasks: ``R_u,0 = 0`` in the paper's notation).  As an
    interferer a subtask also carries its ``extra`` deferral, if any.
    """
    convert = timebase.convert
    own = [convert(j) for j in release_jitter]
    interfering = [
        own[k] if deferral is None else convert(release_jitter[k] + deferral)
        for k, deferral in enumerate(extra)
    ]
    return own, interfering


def _ieert_bound(
    compiled: CompiledSystem,
    k: int,
    own: Sequence,
    interfering: Sequence,
    blocking,
    cutoff,
    timebase: Timebase,
    warm: WarmStart | None = None,
    finite: bool = False,
):
    """Algorithm IEERT for subtask ``k``: its new bound (``inf`` when
    unbounded).  Infinite inputs propagate without running the kernel;
    ``finite`` says the caller knows every input is finite."""
    inter_jitter = [interfering[other] for other in compiled.interferers[k]]
    if not finite and (
        math.isinf(own[k])
        or any(math.isinf(j) for j in inter_jitter)
        or math.isinf(blocking)
    ):
        return math.inf
    bound = busy_period_kernel(
        compiled.terms[k],
        own[k],
        inter_jitter,
        blocking,
        cutoff,
        timebase,
        warm,
    )[3]
    return math.inf if bound is None else bound


def _extra_list(
    compiled: CompiledSystem, extra_jitter: Mapping[SubtaskId, float] | None
) -> list:
    extra = extra_jitter or {}
    return [extra.get(sid) for sid in compiled.sids]


def ieert_pass(
    system: System,
    bounds: Mapping[SubtaskId, float],
    *,
    failure_factor: float | None = FAILURE_FACTOR,
    timebase: Timebase | str = FLOAT,
    blocking: Mapping[SubtaskId, float] | None = None,
    extra_jitter: Mapping[SubtaskId, float] | None = None,
) -> dict[SubtaskId, float]:
    """One application of Algorithm IEERT: new bounds from old bounds.

    Infinite *input* bounds are propagated: any subtask whose predecessor
    or interference jitter is infinite gets an infinite output bound.
    With ``failure_factor`` set, the per-instance loop aborts early once
    an instance's bound exceeds ``failure_factor * p_i`` and reports the
    subtask bound as infinite (sound, since the true maximum is at least
    as large).  ``blocking`` optionally charges a per-subtask blocking
    term into every demand equation (remote-blocking under DPCP/DPCP-p
    locking -- see :mod:`repro.locks.analysis`); an infinite blocking
    term makes the subtask's bound infinite outright.  ``extra_jitter``
    adds suspension-as-jitter deferral on top of the IEERT jitter of
    *interfering* subtasks (lock holders defer their execution while
    away on a synchronization processor); it is never applied to the
    analyzed subtask's own jitter, whose blocking term already covers
    its waits.
    """
    timebase = get_timebase(timebase)
    compiled = CompiledSystem(system, timebase)
    sids = compiled.sids
    own, interfering = _jitters(
        [bounds[sids[p]] if p >= 0 else 0 for p in compiled.predecessor],
        _extra_list(compiled, extra_jitter),
        timebase,
    )
    blocking = blocking or {}
    factor = (
        None if failure_factor is None else timebase.convert(failure_factor)
    )
    return {
        sid: _ieert_bound(
            compiled,
            k,
            own,
            interfering,
            blocking.get(sid, 0),
            None if factor is None else factor * compiled.period[k],
            timebase,
        )
        for k, sid in enumerate(sids)
    }


def analyze_sa_ds(
    system: System,
    *,
    failure_factor: float = FAILURE_FACTOR,
    max_iterations: int = 300,
    timebase: Timebase | str = FLOAT,
    blocking: Mapping[SubtaskId, float] | None = None,
    extra_jitter: Mapping[SubtaskId, float] | None = None,
    compiled: CompiledSystem | None = None,
) -> AnalysisResult:
    """Run Algorithm SA/DS over a system.

    Returns an :class:`AnalysisResult` whose ``subtask_bounds`` are IEER
    bounds and whose ``task_bounds`` are the IEER bounds of last subtasks
    (= the EER bounds).  ``result.failed`` is True when some task's bound
    exceeded the failure cutoff (reported as infinity), reproducing the
    paper's failure statistic for Figure 12.  ``blocking`` and
    ``extra_jitter`` are handed to every IEERT pass (see
    :func:`ieert_pass`); both default to the resource-free base case.
    ``compiled`` is ``system`` already compiled in ``timebase``, when
    the caller shares one compilation between analyses.

    Each pass equals one :func:`ieert_pass`, run as a worklist: subtask
    ``k`` is recomputed only when its own jitter (its predecessor's
    bound) or the interference jitter of one of its interferers is not
    ``==`` to the value the previous pass used; otherwise its previous
    output carries forward.  The busy-period kernel is a pure function
    of those inputs, so every pass's bounds -- and with them convergence
    and the pass count -- are exactly those of full passes.  A
    recomputed subtask warm-starts: its busy period and completions
    resume from the fixed points of its previous run (a
    :class:`~repro.core.analysis.busy_period.WarmStart` per subtask),
    which changes the iteration counts but not the fixed points.

    Raises
    ------
    AnalysisError
        Only if the iteration neither converges nor trips the cutoff
        within ``max_iterations`` passes -- the monotone iteration makes
        this practically unreachable; it guards against degenerate float
        behaviour.
    """
    if max_iterations < 1:
        raise AnalysisError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )
    timebase = get_timebase(timebase)
    compiled = compiled_for(system, timebase, compiled)
    sids = compiled.sids
    count = len(sids)
    seed = initial_ieer_bounds(system, timebase=timebase)
    bounds = [seed[sid] for sid in sids]
    cutoff_factor = timebase.convert(failure_factor)
    # failure_factor * p_i: the per-instance abort, and at last subtasks
    # the task-level cutoff.
    cutoffs = [cutoff_factor * period for period in compiled.period]
    blocking = blocking or {}
    own_blocking = [blocking.get(sid, 0) for sid in sids]
    extra = _extra_list(compiled, extra_jitter)
    # The seed is finite and a pass that yields an infinite bound ends
    # the iteration, so the kernel can only be handed an infinite input
    # through an infinite blocking term or deferral.
    finite = not any(
        math.isinf(value)
        for value in own_blocking + [d for d in extra if d is not None]
    )
    lasts = [k for k in range(count) if compiled.is_last[k]]
    # readers[o]: the subtasks whose interference set contains o.
    readers: list[list[int]] = [[] for _ in range(count)]
    for k, interferers in enumerate(compiled.interferers):
        for other in interferers:
            readers[other].append(k)
    warm = [WarmStart() for _ in range(count)]
    outputs: list = [None] * count
    own = interfering = None
    notes: list[str] = []
    iterations = 0
    failed = False
    while True:
        iterations += 1
        previous_own, previous_interfering = own, interfering
        own, interfering = _jitters(
            [bounds[p] if p >= 0 else 0 for p in compiled.predecessor],
            extra,
            timebase,
        )
        if previous_own is None:
            stale = range(count)
        else:
            marked = [a != b for a, b in zip(own, previous_own)]
            for other in range(count):
                if interfering[other] != previous_interfering[other]:
                    for k in readers[other]:
                        marked[k] = True
            stale = [k for k in range(count) if marked[k]]
        for k in stale:
            outputs[k] = _ieert_bound(
                compiled,
                k,
                own,
                interfering,
                own_blocking[k],
                cutoffs[k],
                timebase,
                warm[k],
                finite,
            )
        new_bounds = list(outputs)
        # The paper's failure cutoff, checked at task level: a task whose
        # EER bound exceeds failure_factor periods is declared unbounded.
        for k in lasts:
            if new_bounds[k] > cutoffs[k]:
                new_bounds[k] = math.inf
        if any(math.isinf(value) for value in new_bounds):
            failed = True
            bounds = new_bounds
            notes.append(
                f"failure cutoff ({failure_factor:g} periods) tripped after "
                f"{iterations} IEERT pass(es)"
            )
            break
        if timebase.exact:
            converged = new_bounds == bounds
        else:
            converged = all(
                abs(new - old) <= _CONVERGENCE_RTOL * max(1.0, old)
                for new, old in zip(new_bounds, bounds)
            )
        bounds = new_bounds
        if converged:
            break
        if iterations >= max_iterations:
            # The monotone iteration is still growing after many passes:
            # it is creeping toward the cutoff.  Declaring failure here
            # matches the paper's practical reading of such bounds as
            # infinite, at a tiny risk of misclassifying a very slowly
            # converging system.
            failed = True
            for k in lasts:
                bounds[k] = math.inf
            notes.append(
                f"no fixed point within {max_iterations} IEERT passes; "
                f"bounds still growing -- declared failure"
            )
            break
    task_bounds = []
    first = 0
    for last in lasts:
        value = bounds[last]
        # IEER bounds grow along a chain, so an infinite bound anywhere on
        # the chain means the task's EER bound is infinite -- even when the
        # iteration stopped before recomputing the last subtask.
        chain_diverged = any(math.isinf(v) for v in bounds[first : last + 1])
        task_bounds.append(
            math.inf if chain_diverged or value > cutoffs[last] else value
        )
        first = last + 1
    if failed:
        # Bounds of tasks that had not yet exceeded the cutoff when the
        # iteration stopped are not converged; in a failed result only the
        # infinities are meaningful.
        notes.append(
            "non-infinite bounds in a failed result are lower estimates "
            "(iteration stopped at the failure cutoff)"
        )
    return AnalysisResult(
        system=system,
        algorithm="SA/DS",
        subtask_bounds=dict(zip(sids, bounds)),
        task_bounds=tuple(task_bounds),
        iterations=iterations,
        notes=tuple(notes),
    )
