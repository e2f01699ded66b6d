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
from repro.core.analysis.results import (
    FAILURE_FACTOR,
    AnalysisResult,
    deadline_guard,
    within_deadline,
)
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, REL_EPS, Timebase, get_timebase

__all__ = ["ieert_pass", "analyze_sa_ds", "initial_ieer_bounds"]

#: Convergence tolerance of the outer fixed point, relative to the bound
#: (float timebase only; the exact timebase converges on equality).
_CONVERGENCE_RTOL = REL_EPS

#: How far, relative to it, a float bound must clear a task's deadline
#: guard before a verdict-only run stops on it (see
#: :func:`sa_ds_schedulable`).
_VERDICT_RTOL = 8 * REL_EPS


def _chain_sums(sids: Sequence[SubtaskId], execution_times, timebase):
    """Cumulative execution times along each chain, in ``sids`` order.

    Float sums are ``sum()`` over the model's values, as
    :meth:`~repro.model.task.Task.cumulative_execution_time` computes
    them (``sum()`` of floats is compensated from Python 3.12 on, so a
    running total could differ in the last ulp).  Exact sums add
    converted values (the float sums would seed the iteration with
    representation noise).
    """
    exact, convert = timebase.exact, timebase.convert
    sums = []
    first = total = 0
    for k, sid in enumerate(sids):
        if not sid.subtask_index:
            first, total = k, 0
        if exact:
            total += convert(execution_times[k])
            sums.append(total)
        else:
            sums.append(sum(execution_times[first : k + 1]))
    return sums


def initial_ieer_bounds(
    system: System, *, timebase: Timebase | str = FLOAT
) -> dict[SubtaskId, float]:
    """The SA/DS seed: cumulative execution times along each chain."""
    sids = system.subtask_ids
    execution_times = [system.subtask(sid).execution_time for sid in sids]
    return dict(
        zip(sids, _chain_sums(sids, execution_times, get_timebase(timebase)))
    )


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
):
    """Algorithm IEERT for subtask ``k``: its new bound (``inf`` when
    unbounded).  Infinite inputs propagate without running the kernel."""
    inter_jitter = [interfering[other] for other in compiled.interferers[k]]
    if (
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
    if not extra_jitter:
        return [None] * len(compiled.sids)
    return [extra_jitter.get(sid) for sid in compiled.sids]


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


class _Problem:
    """One SA/DS call as index arrays: what both iterations share.

    ``seed`` holds the SA/DS seed bounds in ``compiled.sids`` order,
    ``cutoffs[k]`` is ``failure_factor * p_k`` (the per-instance abort,
    and at last subtasks the task-level cutoff), and ``readers`` and
    ``components`` are the shape's (see
    :class:`~repro.core.analysis.busy_period.CompiledShape`).

    A *verdict* problem (see :func:`sa_ds_schedulable`) also holds
    ``limits[k]`` for last subtasks: a bound above it settles the
    task's deadline miss.  ``stops[k]`` is the value above which a
    last subtask's bound ends either iteration: ``cutoffs[k]``, or in
    a verdict problem the lesser of ``cutoffs[k]`` and ``limits[k]``.
    """

    __slots__ = (
        "compiled",
        "timebase",
        "seed",
        "cutoffs",
        "own_blocking",
        "extra",
        "unbounded",
        "lasts",
        "readers",
        "components",
        "limits",
        "stops",
    )

    def __init__(
        self,
        compiled: CompiledSystem,
        failure_factor: float,
        blocking: Mapping[SubtaskId, float] | None,
        extra_jitter: Mapping[SubtaskId, float] | None,
        verdict: bool = False,
    ) -> None:
        self.compiled = compiled
        self.timebase = timebase = compiled.timebase
        sids = compiled.sids
        count = len(sids)
        self.seed = _chain_sums(sids, compiled.execution_times, timebase)
        cutoff_factor = timebase.convert(failure_factor)
        self.cutoffs = [cutoff_factor * period for period in compiled.period]
        self.limits = None
        self.stops = self.cutoffs
        if verdict:
            self.limits = [
                _verdict_limit(deadline, timebase)
                for deadline in compiled.shape.deadline
            ]
            self.stops = [
                min(cutoff, limit) if last else cutoff
                for cutoff, limit, last in zip(
                    self.cutoffs, self.limits, compiled.is_last
                )
            ]
        self.own_blocking = (
            [blocking.get(sid, 0) for sid in sids] if blocking else [0] * count
        )
        self.extra = _extra_list(compiled, extra_jitter)
        # The seed is finite and an infinite bound ends either iteration,
        # so the kernel can only be handed an infinite input through an
        # infinite blocking term or deferral.  ``unbounded[k]`` says
        # subtask ``k`` gets one: its bound is infinite without a run.
        deferred = [d is not None and math.isinf(d) for d in self.extra]
        if any(deferred) or any(map(math.isinf, self.own_blocking)):
            self.unbounded = [
                math.isinf(own) or any(deferred[o] for o in interferers)
                for own, interferers in zip(
                    self.own_blocking, compiled.interferers
                )
            ]
        else:
            self.unbounded = [False] * count
        self.lasts = [k for k in range(count) if compiled.is_last[k]]
        self.readers = compiled.shape.readers
        # A verdict run sweeps in ``sids`` order, as one component: most
        # verdict probes miss a deadline, and visiting every chain early,
        # on inputs not yet final, shows the miss sooner.
        self.components = (
            [list(range(count))] if verdict else compiled.shape.components
        )

    def warm_starts(self) -> list[WarmStart]:
        """One warm-start record per subtask for an iteration to own:
        copies of the records of the last SA/PM over this compilation
        when one ran, else empty ones.  SA/PM's demands are SA/DS's with
        every jitter at zero, so its fixed points lie at or below
        SA/DS's; ``WarmStart.covers`` still admits each record only for
        inputs at least as large as its own."""
        records = self.compiled.sa_pm_records
        if records is None:
            return [WarmStart() for _ in self.seed]
        return [record.copy() for record in records]

    def jitters(self, bounds: Sequence) -> tuple[list, list]:
        """Own and interfering jitter of every subtask under ``bounds``."""
        return _jitters(
            [bounds[p] if p >= 0 else 0 for p in self.compiled.predecessor],
            self.extra,
            self.timebase,
        )

    def settles(self, k: int, value) -> bool:
        """Whether a sweep's bound ``value`` for subtask ``k``, one that
        ends the sweeps (infinite, or a last subtask's above its stop),
        settles a verdict problem as unschedulable.

        Exact sweep values are at most the least fixed point, so every
        such bound does.  A float one does only at a last subtask and
        above its limit; an infinite one there stands for a bound above
        the cutoff.
        """
        if self.limits is None:
            return False
        if self.timebase.exact:
            return True
        return self.compiled.is_last[k] and (
            min(value, self.cutoffs[k]) > self.limits[k]
        )


def _verdict_limit(deadline, timebase: Timebase):
    """The bound above which a task misses ``deadline`` for good.

    Exact bounds are compared with ``<=``, so the deadline itself.  A
    float bound must also clear the comparator's guard by
    ``_VERDICT_RTOL``, the room the tolerant iteration needs (see
    :func:`sa_ds_schedulable`).
    """
    if timebase.exact:
        return deadline
    guard = deadline_guard(deadline)
    return guard + _VERDICT_RTOL * max(1.0, guard)


def _jacobi(
    problem: _Problem, failure_factor: float, max_iterations: int
) -> tuple[list, int, bool, list[str]]:
    """SA/DS as Jacobi passes: pass *n* reads only pass *n-1*'s bounds.

    The reference iteration: it decides failures, their lower-estimate
    bounds and the meaning of ``max_iterations``.  Each pass equals one
    :func:`ieert_pass`, run as a worklist (see :func:`analyze_sa_ds`).
    Returns ``(bounds, passes, failed, notes)``.
    """
    count = len(problem.seed)
    bounds = list(problem.seed)
    stops, lasts, readers = problem.stops, problem.lasts, problem.readers
    kernel, timebase = busy_period_kernel, problem.timebase
    unbounded = problem.unbounded
    terms, interferers = problem.compiled.terms, problem.compiled.interferers
    blocking, cutoffs = problem.own_blocking, problem.cutoffs
    warm = problem.warm_starts()
    outputs: list = [None] * count
    own = interfering = None
    notes: list[str] = []
    iterations = 0
    failed = False
    while True:
        iterations += 1
        previous_own, previous_interfering = own, interfering
        own, interfering = problem.jitters(bounds)
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
            value = None
            if not unbounded[k]:
                value = kernel(
                    terms[k],
                    own[k],
                    [interfering[other] for other in interferers[k]],
                    blocking[k],
                    cutoffs[k],
                    timebase,
                    warm[k],
                )[3]
            outputs[k] = math.inf if value is None else value
        new_bounds = list(outputs)
        # The paper's failure cutoff, checked at task level: a task whose
        # EER bound exceeds failure_factor periods is declared unbounded.
        # A verdict problem also stops at a settled deadline miss.
        for k in lasts:
            if new_bounds[k] > stops[k]:
                new_bounds[k] = math.inf
        if any(math.isinf(value) for value in new_bounds):
            failed = True
            bounds = new_bounds
            notes.append(
                f"failure cutoff ({failure_factor:g} periods) tripped after "
                f"{iterations} IEERT pass(es)"
            )
            break
        if problem.timebase.exact:
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
    return bounds, iterations, failed, notes


def _chaotic(
    problem: _Problem, max_iterations: int
) -> tuple[list, int] | None:
    """SA/DS as Gauss-Seidel sweeps; ``None`` where Jacobi must answer.

    The sweeps run component by component, in the order of
    ``problem.components``: the strongly connected components of the
    ``reads`` graph, each after the components its subtasks read (in a
    verdict problem, one component of every subtask).  A component is
    swept until nothing in it is dirty, visiting its dirty subtasks in
    ``compiled.sids`` order and reading every bound as soon as it is
    written; its bounds are then final, since nothing it reads moves
    again.  A bound that moves updates its successor's jitters in place
    and marks the successor and the successor's readers dirty.
    Returns ``(bounds, sweeps)``: ``sweeps`` is the most sweeps any one
    component took.

    ``level[k]`` is the Jacobi depth of bound ``k``: 1 + the largest
    depth among the bounds its last moving run read (seed bounds are at
    depth 0).  IEERT is monotone and both iterations start at the seed,
    so a bound written at depth ``d`` is at most Jacobi pass ``d``'s
    value, and the Jacobi passes reach this fixed point -- the least
    one -- by pass ``max(level)`` and confirm it on the pass after.
    The sweeps give way as soon as a depth reaches ``max_iterations``
    (depths only grow) or a bound trips the failure cutoff.  A bound
    that moves in a component's sweep ``s`` has depth at least ``s``,
    so the sweeps also settle within ``max_iterations``.

    Under the float timebase the sweeps also give way when a run is
    ``tolerant`` (see :class:`~repro.core.analysis.busy_period.WarmStart`:
    its demands have steps within the solver's stopping tolerance) and
    when a bound moves by no more than the outer stopping tolerance.
    There the tolerant busy-period solver is monotone only up to that
    tolerance (a bound can even fall), Jacobi's relative stopping test
    may then stop short of the fixed point, and only the Jacobi passes
    give Jacobi's answer.  The sweeps cannot wait to see such a move:
    in component order a bound whose inputs are final runs only once.

    In a verdict problem a bound that settles the verdict (see
    :meth:`_Problem.settles`) ends the sweeps too: it is returned as
    ``inf``, so the bounds read as a failed run.
    """
    compiled, timebase = problem.compiled, problem.timebase
    convert, exact = timebase.convert, timebase.exact
    kernel, isinf, inf = busy_period_kernel, math.isinf, math.inf
    count = len(problem.seed)
    bounds = list(problem.seed)
    stops, extra, readers = problem.stops, problem.extra, problem.readers
    blocking, cutoffs = problem.own_blocking, problem.cutoffs
    terms, gathers = compiled.terms, compiled.shape.gathers
    unbounded = problem.unbounded
    is_last, reads = compiled.is_last, compiled.shape.reads
    own, interfering = problem.jitters(bounds)
    warm = problem.warm_starts()
    triple = load = None
    if not exact:
        # Each subtask's (e, p, J) triple and jitter load as an
        # interferer, rebuilt only when its interference jitter moves.
        wcet, period = [term.wcet for term in terms], compiled.period
        triple = list(zip(wcet, period, interfering))
        load = [(j / p + 1) * e for e, p, j in triple]
    level = [0] * count
    dirty = [True] * count
    sweeps = 0
    for members in problem.components:
        component_sweeps = 0
        while True in [dirty[k] for k in members]:
            component_sweeps += 1
            for k in members:
                if not dirty[k]:
                    continue
                dirty[k] = False
                value = None
                if not unbounded[k]:
                    gather = gathers[k]
                    value = kernel(
                        terms[k],
                        own[k],
                        gather(interfering),
                        blocking[k],
                        cutoffs[k],
                        timebase,
                        warm[k],
                        None if exact else gather(triple),
                        None if exact else gather(load),
                    )[3]
                if value is None:
                    value = inf
                if isinf(value) or (is_last[k] and value > stops[k]):
                    if problem.settles(k, value):
                        bounds[k] = inf
                        return bounds, max(sweeps, component_sweeps)
                    return None
                old = bounds[k]
                moved = value != old
                if not exact and (
                    warm[k].tolerant
                    or moved
                    and abs(value - old) <= _CONVERGENCE_RTOL * max(1.0, old)
                ):
                    return None
                # Stored even when ``==``: the kernel's value, as Jacobi
                # has it (an exact ``int`` may replace an equal seed
                # ``Fraction``).
                bounds[k] = value
                if moved:
                    depth = 0
                    for r in reads[k]:
                        if level[r] > depth:
                            depth = level[r]
                    if depth + 1 >= max_iterations:
                        return None
                    level[k] = depth + 1
                if is_last[k]:
                    continue
                successor = k + 1
                own[successor] = convert(value)
                deferral = extra[successor]
                interfering[successor] = (
                    own[successor]
                    if deferral is None
                    else convert(value + deferral)
                )
                if moved:
                    if not exact:
                        jitter = interfering[successor]
                        e, p = wcet[successor], period[successor]
                        triple[successor] = (e, p, jitter)
                        load[successor] = (jitter / p + 1) * e
                    dirty[successor] = True
                    for reader in readers[successor]:
                        dirty[reader] = True
        sweeps = max(sweeps, component_sweeps)
    return bounds, sweeps


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

    The answer is that of Jacobi passes, each equal to one
    :func:`ieert_pass` from :func:`initial_ieer_bounds`, under the
    stopping rule below.  It is computed first by Gauss-Seidel sweeps
    that read each bound as soon as it is updated; they reach the same
    least fixed point in fewer kernel runs (IEERT is monotone; Cousot &
    Cousot's chaotic iteration).  Where the sweeps cannot vouch for the
    Jacobi answer -- a bound trips the failure cutoff, or Jacobi would
    need more than ``max_iterations`` passes -- the Jacobi passes run
    instead, so failed results, their lower-estimate bounds and notes,
    and the meaning of ``max_iterations`` are Jacobi's.
    ``result.iterations`` counts the passes when the passes' result is
    served, else the sweeps of the component of the ``reads`` graph
    that took the most (see :func:`_chaotic`).

    Both iterations run as worklists: subtask ``k`` is recomputed only
    when its own jitter (its predecessor's bound) or the interference
    jitter of one of its interferers is not ``==`` to the value its
    previous run used; otherwise its previous output carries forward.
    The busy-period kernel is a pure function of those inputs, so every
    Jacobi pass's bounds -- and with them convergence and the pass count
    -- are exactly those of full passes.  A recomputed subtask
    warm-starts: its busy period and completions resume from the fixed
    points of its previous run (a
    :class:`~repro.core.analysis.busy_period.WarmStart` per subtask),
    which changes the iteration counts but not the fixed points.  Over
    a ``compiled`` that SA/PM has already run on, the first runs start
    from SA/PM's fixed points in the same way.

    Raises
    ------
    AnalysisError
        When ``max_iterations < 1``.
    """
    _check_budget(max_iterations)
    timebase = get_timebase(timebase)
    compiled = compiled_for(system, timebase, compiled)
    problem = _Problem(compiled, failure_factor, blocking, extra_jitter)
    served = _chaotic(problem, max_iterations)
    if served is None:
        bounds, iterations, failed, notes = _jacobi(
            problem, failure_factor, max_iterations
        )
    else:
        (bounds, iterations), failed, notes = served, False, []
    task_bounds = _task_bounds(problem, bounds)
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
        subtask_bounds=dict(zip(compiled.sids, bounds)),
        task_bounds=tuple(task_bounds),
        iterations=iterations,
        notes=tuple(notes),
    )


def sa_ds_schedulable(
    compiled: CompiledSystem,
    *,
    failure_factor: float = FAILURE_FACTOR,
    max_iterations: int = 300,
) -> bool:
    """``analyze_sa_ds(...).schedulable`` without the bounds.

    ``compiled`` may come from :meth:`CompiledShape.at
    <repro.core.analysis.busy_period.CompiledShape.at>`: no system is
    needed.  Resource-free only (no blocking, no deferrals).

    The same sweeps and passes run, but they stop as soon as one task's
    deadline miss is settled, and a settled sweep never hands over to
    the passes.  Every sweep and pass value lies at or below the least
    fixed point (IEERT is monotone, Theorem 2), and a failed run is
    unschedulable, so under the exact timebase a last subtask's bound
    above its deadline or the cutoff, or any infinite bound, settles
    it.  A float bound settles only once it clears the comparator's
    guard by ``_VERDICT_RTOL`` of it, the room the tolerant solver
    needs (``docs/analysis.md``, "Verdict-only runs").  A run that is
    not settled ends as :func:`analyze_sa_ds` ends, including the
    depth-budget fallback to the passes, and is decided by the same
    comparator.
    """
    _check_budget(max_iterations)
    problem = _Problem(compiled, failure_factor, None, None, verdict=True)
    served = _chaotic(problem, max_iterations)
    if served is None:
        bounds = _jacobi(problem, failure_factor, max_iterations)[0]
    else:
        bounds = served[0]
    deadline = compiled.shape.deadline
    return all(
        within_deadline(bound, deadline[last])
        for bound, last in zip(_task_bounds(problem, bounds), problem.lasts)
    )


def _check_budget(max_iterations: int) -> None:
    if max_iterations < 1:
        raise AnalysisError(
            f"max_iterations must be >= 1, got {max_iterations!r}"
        )


def _task_bounds(problem: _Problem, bounds: Sequence) -> list:
    """The EER bound of every task: its last subtask's bound, or
    ``inf`` past the cutoff or after a divergence on its chain."""
    cutoffs = problem.cutoffs
    task_bounds = []
    first = 0
    for last in problem.lasts:
        value = bounds[last]
        # IEER bounds grow along a chain, so an infinite bound anywhere on
        # the chain means the task's EER bound is infinite -- even when the
        # iteration stopped before recomputing the last subtask.
        chain_diverged = any(math.isinf(v) for v in bounds[first : last + 1])
        task_bounds.append(
            math.inf if chain_diverged or value > cutoffs[last] else value
        )
        first = last + 1
    return task_bounds
