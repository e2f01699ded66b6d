"""Busy-period analysis: the computational core of SA/PM and SA/DS.

This implements the five-step scheme of Section 4 in a form general
enough to serve both algorithms.  For one subtask ``T_i,j`` with
interference set ``H_i,j`` (same processor, priority higher or equal),
given a *release-jitter* value ``J_u,v`` for every subtask:

1. busy-period length
   ``D_i,j = lfp { t = sum_{H ∪ {self}} ceil((t + J_u,v)/p_u) e_u,v }``
2. instance count ``M_i,j = ceil((D_i,j + J_i,j)/p_i)``
3. per-instance completion
   ``C_i,j(m) = lfp { t = m e_i,j + sum_H ceil((t + J_u,v)/p_u) e_u,v }``
4. per-instance bound ``R_i,j(m) = C_i,j(m) + J_i,j - (m-1) p_i``
5. subtask bound ``R_i,j = max_m R_i,j(m)``

With ``J == 0`` this is exactly Algorithm SA/PM's steps 1-4 (Lehoczky's
analysis for strictly periodic subtasks, Eqs. 1-5); with
``J_u,v = R_u,v-1`` (the predecessor's IEER bound) it is the body of
Algorithm IEERT, where the clumping of DS releases is modelled as release
jitter and the result is an IEER bound rather than a response-time bound.

Divergence handling: when the interference utilization is >= 1 the busy
period has no finite bound and the subtask's bound is reported as
``None`` (infinite).  Otherwise every least fixed point is finite and the
iteration is run with an analytic cap as a safety net.  ``abort_above``
lets SA/DS cut the ``m`` loop as soon as some instance provably exceeds
the paper's 300-period failure cutoff.

There is one implementation.  An analysis call compiles its system once
(:class:`CompiledSystem`: the execution-time-independent index arrays
of a :class:`CompiledShape` plus the jitter-independent part of every
subtask's analysis, all in the call's timebase), and
:func:`busy_period_kernel` runs Steps 1-5 for one subtask over them,
once per timebase: straight-line float code, or the integer-rescaled
exact steps of :func:`_exact_kernel`.  :func:`analyze_subtask`,
Algorithm IEERT and SA/PM are thin adapters over the kernel;
``docs/analysis.md`` describes the layout and the float-order
invariants the kernel keeps.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from repro.core.analysis.fixpoint import DEFAULT_MAX_ITERATIONS

# Unused here, but kept bound at this module's name: the benchmark's
# tracer (perfbench/spans.py) wraps ``busy_period.solve_fixed_point``.
from repro.core.analysis.fixpoint import solve_fixed_point  # noqa: F401
from repro.errors import AnalysisError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import ABS_EPS, FLOAT, REL_EPS, Timebase, fmt

__all__ = [
    "CompiledShape",
    "CompiledSystem",
    "SubtaskBusyPeriod",
    "SubtaskTerms",
    "WarmStart",
    "analyze_subtask",
    "busy_period_kernel",
    "compiled_for",
    "interference_terms",
]

#: Interference term: (execution time, period, subtask id).
Term = tuple[float, float, SubtaskId]

#: The kernel's answer for a diverged subtask (see ``busy_period_kernel``).
_DIVERGED = (None, 0, (), None, False)

#: The float warm-start gate's factor: a subtask whose smallest demand
#: step is at most ``_WARM_GATE * max(1, cap_busy)`` starts cold.
_WARM_GATE = 2 * REL_EPS


@dataclass(frozen=True)
class SubtaskBusyPeriod:
    """Full per-subtask analysis record (Steps 1-5 for one subtask).

    ``bound`` is ``None`` when the analysis diverged (utilization >= 1) or
    was aborted via ``abort_above`` -- in both cases the caller treats the
    bound as infinite.
    """

    sid: SubtaskId
    busy_period: float | None
    instance_count: int
    per_instance_bounds: tuple[float, ...]
    bound: float | None
    aborted: bool = False

    @property
    def critical_instance(self) -> int | None:
        """1-based index of the instance attaining the bound, if finite."""
        if self.bound is None or not self.per_instance_bounds:
            return None
        worst = max(self.per_instance_bounds)
        return self.per_instance_bounds.index(worst) + 1


def interference_terms(system: System, sid: SubtaskId) -> list[Term]:
    """The ``H_i,j`` terms (e, p, id) interfering with ``sid``."""
    return [
        (
            system.subtask(other).execution_time,
            system.period_of(other),
            other,
        )
        for other in system.interference_set(sid)
    ]


def _denominator_lcm(values, scale: int = 1) -> int:
    """LCM of ``scale`` and the denominators of the Fractions in ``values``."""
    for value in values:
        if isinstance(value, Fraction):
            d = value.denominator
            scale = scale * d // math.gcd(scale, d)
    return scale


class SubtaskTerms:
    """The jitter-independent inputs of one subtask's kernel run.

    ``inter_e`` / ``inter_p`` are the interferers' execution times and
    periods in ``System.interference_set`` order; every value is in the
    analysis' timebase.  The utilization and execution-time sums run over
    the interferers and then the subtask itself -- float results depend
    on that order.  Under the exact timebase ``scale`` is the LCM of the
    denominators of these static values.  ``smallest_step`` is the least
    execution time in the demand functions: the smallest amount by which
    a demand can grow.
    """

    __slots__ = (
        "sid",
        "wcet",
        "period",
        "inter_e",
        "inter_p",
        "diverged",
        "slack",
        "interference_slack",
        "wcet_sum",
        "smallest_step",
        "scale",
    )

    def __init__(
        self,
        sid: SubtaskId,
        wcet,
        period,
        inter_e: tuple,
        inter_p: tuple,
        timebase: Timebase,
    ) -> None:
        self.sid = sid
        self.wcet = wcet
        self.period = period
        self.inter_e = inter_e
        self.inter_p = inter_p
        steps = inter_e + (wcet,)
        self.wcet_sum = sum(steps)
        self.smallest_step = min(steps)
        # Divergence pre-check: the long-run demand rate of H ∪ {self}.
        # Ratios (utilizations, caps) stay exact under the exact backend.
        if timebase.exact:
            shares = list(map(Fraction, inter_e, inter_p))
            interference = sum(shares)
            shares.append(Fraction(wcet, period))
            level_utilization = sum(shares)
            self.diverged = level_utilization >= 1
            self.scale = _denominator_lcm((period,) + steps + inter_p)
        else:
            shares = list(map(operator.truediv, inter_e, inter_p))
            interference = sum(shares)
            shares.append(wcet / period)
            level_utilization = sum(shares)
            self.diverged = level_utilization >= 1.0 - ABS_EPS
            self.scale = 1
        self.slack = 1 - level_utilization
        self.interference_slack = 1 - interference


class CompiledShape:
    """The execution-time-independent part of a compilation.

    Subtask ``k`` is ``sids[k]`` (``System.subtask_ids`` order).
    ``period[k]`` is its task's period, converted once;
    ``interferers[k]`` lists the indices of ``H_k`` in
    ``System.interference_set`` order; ``predecessor[k]`` is the
    previous subtask on the chain (``-1`` for a first subtask);
    ``is_last[k]`` flags chain ends; ``deadline[k]`` is the relative
    deadline of ``k``'s task as the model holds it (unconverted: the
    schedulability comparator reads it so).  SA/DS's dependency lists
    are derived on first use: ``readers[o]`` lists the subtasks whose
    interference set contains ``o``, ``reads[k]`` the bounds subtask
    ``k``'s jitters are built from (its own and its interferers'
    predecessors), ``components`` SA/DS's visit order over them, and
    ``gathers[k]`` picks ``k``'s interferers' entries out of a list.

    None of this depends on execution times, so a region build, which
    probes one shape at many execution vectors, compiles it once and
    probes each vector through :meth:`at`.
    """

    __slots__ = (
        "timebase",
        "sids",
        "period",
        "interferers",
        "predecessor",
        "is_last",
        "deadline",
        "inter_period",
        "_readers",
        "_reads",
        "_components",
        "_gathers",
    )

    def __init__(self, system: System, timebase: Timebase = FLOAT) -> None:
        self.timebase = timebase
        convert = timebase.convert
        self.sids = system.subtask_ids
        stages = []
        self.period = period = []
        self.predecessor = predecessor = []
        self.is_last = is_last = []
        self.deadline = deadline = []
        for task in system.tasks:
            task_period = convert(task.period)
            task_deadline = task.relative_deadline
            last = len(task.subtasks) - 1
            for j, stage in enumerate(task.subtasks):
                predecessor.append(len(stages) - 1 if j else -1)
                stages.append(stage)
                period.append(task_period)
                is_last.append(j == last)
                deadline.append(task_deadline)
        processor = [stage.processor for stage in stages]
        priority = [stage.priority for stage in stages]
        on_processor: dict[str, list[int]] = {}
        for k, name in enumerate(processor):
            on_processor.setdefault(name, []).append(k)
        self.interferers = [
            tuple(
                [
                    other
                    for other in on_processor[processor[k]]
                    if other != k and priority[other] <= priority[k]
                ]
            )
            for k in range(len(stages))
        ]
        self.inter_period = [
            tuple([period[other] for other in interferers])
            for interferers in self.interferers
        ]
        self._readers = self._reads = None
        self._components = self._gathers = None

    @property
    def readers(self) -> list[list[int]]:
        if self._readers is None:
            self._readers = [[] for _ in self.sids]
            for k, interferers in enumerate(self.interferers):
                for other in interferers:
                    self._readers[other].append(k)
        return self._readers

    @property
    def reads(self) -> list[list[int]]:
        if self._reads is None:
            predecessor = self.predecessor
            self._reads = [
                [
                    predecessor[o]
                    for o in (k, *interferers)
                    if predecessor[o] >= 0
                ]
                for k, interferers in enumerate(self.interferers)
            ]
        return self._reads

    @property
    def gathers(self) -> list:
        """``gathers[k](values)`` is the tuple of ``values[o]`` for ``o``
        in ``interferers[k]``, in that order (an ``itemgetter`` where it
        can be one)."""
        if self._gathers is None:
            self._gathers = [_gather(others) for others in self.interferers]
        return self._gathers

    @property
    def components(self) -> list[list[int]]:
        """The strongly connected components of the ``reads`` graph,
        each in ``sids`` order, every component after the ones its
        subtasks read (a topological order of the condensation)."""
        if self._components is None:
            self._components = _condensation(self.reads)
        return self._components

    def at(self, execution_times: Sequence) -> "CompiledSystem":
        """This shape at one execution vector (``sids`` order), with no
        :class:`~repro.model.system.System` behind it."""
        return CompiledSystem(
            None, self.timebase, shape=self, execution_times=execution_times
        )


def _gather(indices: Sequence[int]):
    """A function of a sequence: its items at ``indices``, as a tuple."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    if indices:
        (only,) = indices
        return lambda values: (values[only],)
    return lambda values: ()


def _condensation(reads: Sequence[Sequence[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components of the graph with an edge
    ``k -> r`` for every ``r`` in ``reads[k]``, iteratively.

    Tarjan emits a component only after every component reachable from
    it, so each component comes after the ones its members read.  Roots
    are tried in index order, and each component is sorted.
    """
    count = len(reads)
    index = [-1] * count
    low = [0] * count
    on_stack = [False] * count
    stack: list[int] = []
    components: list[list[int]] = []
    visited = 0
    for root in range(count):
        if index[root] >= 0:
            continue
        index[root] = low[root] = visited
        visited += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(reads[root]))]
        while work:
            node, edges = work[-1]
            for target in edges:
                if index[target] < 0:
                    index[target] = low[target] = visited
                    visited += 1
                    stack.append(target)
                    on_stack[target] = True
                    work.append((target, iter(reads[target])))
                    break
                if on_stack[target] and index[target] < low[node]:
                    low[node] = index[target]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[node] < low[parent]:
                        low[parent] = low[node]
                if low[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack[member] = False
                        component.append(member)
                        if member == node:
                            break
                    component.sort()
                    components.append(component)
    return components


class CompiledSystem:
    """A system as index arrays, in one timebase.

    The execution-time-independent arrays (``sids``, ``period``,
    ``interferers``, ``predecessor``, ``is_last``) are those of
    ``shape``, a :class:`CompiledShape`; ``execution_times[k]`` is
    subtask ``k``'s execution time as given (unconverted) and
    ``terms[k]`` holds the jitter-independent part of its analysis.
    Built once per analysis call (or once per admission decision,
    shared by its analyses; see :func:`compiled_for`) and dropped with
    it.  A compilation made by :meth:`CompiledShape.at` has ``system``
    ``None``.

    ``sa_pm_records`` holds the :class:`WarmStart` record of every
    subtask's kernel run in the last SA/PM over this compilation
    (``None`` before one), which SA/DS over it starts from.
    """

    __slots__ = (
        "system",
        "timebase",
        "shape",
        "execution_times",
        "sids",
        "period",
        "interferers",
        "predecessor",
        "is_last",
        "terms",
        "sa_pm_records",
    )

    def __init__(
        self,
        system: System | None,
        timebase: Timebase = FLOAT,
        *,
        shape: CompiledShape | None = None,
        execution_times: Sequence | None = None,
    ) -> None:
        if shape is None:
            shape = CompiledShape(system, timebase)
        if execution_times is None:
            execution_times = [
                stage.execution_time
                for task in system.tasks
                for stage in task.subtasks
            ]
        self.system = system
        self.timebase = timebase = shape.timebase
        self.shape = shape
        self.execution_times = execution_times
        self.sids = sids = shape.sids
        self.period = period = shape.period
        self.interferers = interferers = shape.interferers
        self.predecessor = shape.predecessor
        self.is_last = shape.is_last
        wcet = list(map(timebase.convert, execution_times))
        inter_period = shape.inter_period
        self.terms = [
            SubtaskTerms(
                sid,
                wcet[k],
                period[k],
                tuple([wcet[other] for other in interferers[k]]),
                inter_period[k],
                timebase,
            )
            for k, sid in enumerate(sids)
        ]
        self.sa_pm_records = None


def compiled_for(
    system: System, timebase: Timebase, compiled: CompiledSystem | None
) -> CompiledSystem:
    """``compiled`` when given, else a fresh compilation of ``system``.

    A compilation handed in by the caller must be of this very system in
    this very timebase.
    """
    if compiled is None:
        return CompiledSystem(system, timebase)
    if compiled.system is not system or compiled.timebase is not timebase:
        raise AnalysisError(
            "compiled system does not match the analysed system and "
            f"timebase ({timebase.name})"
        )
    return compiled


class WarmStart:
    """One subtask's fixed points from its previous kernel run.

    SA/DS re-runs the kernel for a subtask on every IEERT pass whose
    inputs changed.  The jitters only grow from pass to pass, and every
    demand function is non-decreasing in its jitters, so last pass's
    busy period ``D`` and completions ``C(m)`` lie at or below this
    pass's least fixed points and are valid iteration starts (see
    :func:`busy_period_kernel`).  The record keeps the inputs it was
    computed under; :meth:`covers` admits it only for inputs at least
    as large, so a decreasing input starts cold.  Values are in the
    analysis' timebase, never the kernel's per-call scaled integers.
    An empty record (``terms is None``) covers nothing.

    A float run also keeps its ``result`` tuple, whether it was
    ``tolerant`` (its demands have steps within the solver's stopping
    tolerance, so where its iterations stop depends on where they start)
    and whether it is ``settled``: not tolerant, unaborted, and its busy
    period and every completion are exact fixed points (``W(t) == t``)
    of its demands.  A settled record lets the kernel return ``result``
    again without solving (see :func:`_reused`).
    """

    __slots__ = (
        "terms",
        "own_jitter",
        "inter_jitter",
        "blocking",
        "busy_period",
        "completions",
        "tolerant",
        "settled",
        "result",
    )

    def __init__(self) -> None:
        self.terms = None
        self.tolerant = self.settled = False

    def copy(self) -> "WarmStart":
        """An independent record with this one's contents (a run
        replaces a record's fields; it never mutates them)."""
        record = WarmStart()
        if self.terms is not None:
            record.terms = self.terms
            record.own_jitter = self.own_jitter
            record.inter_jitter = self.inter_jitter
            record.blocking = self.blocking
            record.busy_period = self.busy_period
            record.completions = self.completions
            record.tolerant = self.tolerant
            record.settled = self.settled
            record.result = self.result
        return record

    def covers(self, terms: SubtaskTerms, own_jitter, inter_jitter, blocking):
        """Whether this record may seed a run of ``terms`` on these
        inputs: same subtask, and no input below the recorded one."""
        return (
            self.terms is terms
            and own_jitter >= self.own_jitter
            and blocking >= self.blocking
            and all(map(operator.ge, inter_jitter, self.inter_jitter))
        )


def _solve_packed(
    packed: list, base, onto_base: bool, start, cap, exact: bool
):
    """Least fixed point at or above ``start`` of the demand
    ``W(t) = base + sum ceil((t + J)/p) e`` over ``(e, p, J)`` triples.

    This is :func:`~repro.core.analysis.fixpoint.solve_fixed_point` run
    on that demand, with the demand summed in the solver's own loop
    instead of a callable: the same convergence rule per timebase, the
    same guards and messages, the same iterates.  With ``onto_base`` the
    terms are accumulated left to right onto ``base`` (a busy period);
    otherwise they are summed from zero and ``base`` is added last (a
    completion).  Float results depend on that order.

    Returns ``(fixed point, demand evaluations, settled)``: the fixed
    point is ``None`` once an iterate passes ``cap``, and ``settled``
    says the last evaluation returned its own argument, ``W(t) == t``
    (every exact stop; a float stop within the tolerance may not be).
    """
    if start <= 0:
        raise AnalysisError(f"fixed-point start must be > 0, got {start!r}")
    current = start
    if exact:
        # Floor division works on ints and Fractions alike and skips the
        # normalized-Fraction construction a true division would pay for;
        # ``-(-a // b)`` is exact ceiling division for positive periods.
        for step in range(DEFAULT_MAX_ITERATIONS):
            if current > cap:
                return None, step, False
            total = base if onto_base else 0
            for e, p, j in packed:
                total += -(-(current + j) // p) * e
            if not onto_base:
                total = base + total
            if total < current:
                raise AnalysisError(
                    "demand function is not monotone: "
                    f"W({fmt(current)}) = {fmt(total)} < {fmt(current)}"
                )
            if total == current:
                return total, step + 1, True
            current = total
    else:
        ceil, eps = math.ceil, REL_EPS
        for step in range(DEFAULT_MAX_ITERATIONS):
            if current > cap:
                return None, step, False
            total = base if onto_base else 0.0
            for e, p, j in packed:
                total += ceil((current + j) / p - eps) * e
            if not onto_base:
                total = base + total
            # ``eps * max(1.0, abs(current))``: the start is positive and
            # below 1 the monotonicity check lets an iterate fall by at
            # most ``eps`` per step, so within the budget none reaches -1.
            tolerance = eps * current if current > 1.0 else eps
            if total < current - tolerance:
                raise AnalysisError(
                    "demand function is not monotone: "
                    f"W({current:g}) = {total:g} < {current:g}"
                )
            if total - current <= tolerance:
                return total, step + 1, total == current
            current = total
    raise AnalysisError(
        "fixed-point iteration did not settle within "
        f"{DEFAULT_MAX_ITERATIONS} steps (last iterate {fmt(current)}, "
        f"cap {fmt(cap)})"
    )


def busy_period_kernel(
    terms: SubtaskTerms,
    own_jitter,
    inter_jitter: Sequence,
    blocking,
    abort_above,
    timebase: Timebase,
    warm: WarmStart | None = None,
    packed: Sequence | None = None,
    loads: Sequence | None = None,
) -> tuple:
    """Steps 1-5 for one subtask: the one busy-period implementation.

    ``own_jitter`` is the subtask's release jitter ``J_i,j``,
    ``inter_jitter`` one jitter per interferer (in ``terms`` order) and
    ``abort_above`` the optional cutoff, all already in ``timebase``;
    ``blocking`` is converted here.  Returns the fields of
    :class:`SubtaskBusyPeriod` after ``sid``: ``(busy_period,
    instance_count, per_instance_bounds, bound, aborted)``.  The result
    is a pure function of the arguments, which is what lets SA/DS carry
    a subtask's bound forward while its inputs are unchanged.

    ``warm`` is the subtask's :class:`WarmStart` record, read and then
    overwritten with this run's fixed points.  When it covers these
    inputs, Step 1 starts at ``max(sum e + B, D_prev)`` and Step 3 at
    ``max(base, C(m-1) + e, C_prev(m))``.  Every start stays at or below
    the least fixed point it iterates to, so under the exact timebase
    the result is the cold result; ``docs/analysis.md`` gives the float
    argument.  A settled float record whose points are still fixed
    points returns its result without a solve (:func:`_reused`).

    ``packed`` and ``loads`` are for a float caller that keeps, per
    interferer, its ``(e, p, J)`` triple and its jitter load
    ``(J/p + 1)·e`` and rebuilds them only when its jitter moves: the
    interferers' triples and loads under ``inter_jitter``, in ``terms``
    order.  Without them the kernel builds both.

    The timebase is dispatched once, here: the float steps run below as
    straight-line float code, the exact ones in :func:`_exact_kernel`.
    Every expression that reaches a result or a guard keeps the
    operation order of ``docs/analysis.md``'s float-order invariants.
    """
    if own_jitter < 0:
        raise AnalysisError(
            f"negative jitter for {terms.sid}: {own_jitter!r}"
        )
    if blocking < 0:
        raise AnalysisError(f"negative blocking for {terms.sid}: {blocking!r}")
    if terms.diverged:
        return _DIVERGED
    if timebase.exact:
        return _exact_kernel(
            terms,
            own_jitter,
            inter_jitter,
            timebase.convert(blocking),
            abort_above,
            timebase,
            warm,
        )
    blocking = float(blocking)
    solve = _solve_packed
    period, wcet = terms.period, terms.wcet
    warm_busy = None
    if warm is not None and warm.covers(
        terms, own_jitter, inter_jitter, blocking
    ):
        warm_busy, warm_completions = warm.busy_period, warm.completions

    # Analytic caps: a demand W(t) = base + sum ceil((t + J)/p) e obeys
    # W(t) <= base + U' t + sum (J/p + 1) e with U' the terms' utilization,
    # so its least fixed point is at most (base + sum (J/p + 1) e)/(1 - U').
    # Doubling gives a safety net that a correct iteration can never hit.
    if packed is None:
        packed = list(zip(terms.inter_e, terms.inter_p, inter_jitter))
        loads = [(j / p + 1) * e for e, p, j in packed]
    jitter_load_interference = sum(loads)
    cap_busy = (
        2
        * (
            (sum([*loads, (own_jitter / period + 1) * wcet]) + blocking)
            / terms.slack
        )
        + period
    )
    # The solver stops once an iterate grows by at most REL_EPS
    # (relative).  Every iterate is at most cap_busy, so when each demand
    # step is well above that tolerance, both a cold and a warm iteration
    # stop only on a fixed point and they agree.  Otherwise where the
    # iteration stops depends on where it starts: start cold, and do not
    # call the run settled.
    tolerant = terms.smallest_step <= _WARM_GATE * (
        cap_busy if cap_busy > 1.0 else 1.0
    )
    if tolerant:
        warm_busy = None
    elif (
        warm_busy is not None
        and warm.settled
        and own_jitter == warm.own_jitter
        and blocking == warm.blocking
    ):
        reused = _reused(warm, terms, inter_jitter, abort_above)
        if reused is not None:
            return reused

    # Step 1: busy-period length D_i,j (self term included).
    start = terms.wcet_sum + blocking
    if warm_busy is not None and warm_busy > start:
        start = warm_busy
    busy_period, _, settled = solve(
        [*packed, (wcet, period, own_jitter)],
        blocking,
        True,
        start,
        cap_busy,
        False,
    )
    if busy_period is None:  # pragma: no cover - cap is analytic, see above
        return _DIVERGED

    # Step 2: number of instances in the busy period.
    instance_count = math.ceil((busy_period + own_jitter) / period - REL_EPS)
    if instance_count < 1:
        instance_count = 1

    # Steps 3-5: completion bound per instance, response/IEER bound, max.
    if warm_busy is None:
        warm_completions = ()
    warm_count = len(warm_completions)
    interference_slack = terms.interference_slack
    per_instance: list = []
    completions: list = []
    bound, aborted = None, False
    completion = 0.0
    for m in range(1, instance_count + 1):
        base = m * wcet + blocking
        # C(m) >= C(m-1) + e; the first base is at least e already.
        start = completion + wcet
        if start < base:
            start = base
        cap_completion = (
            2 * ((base + jitter_load_interference) / interference_slack)
            + period
        )
        if m <= warm_count and warm_completions[m - 1] > start:
            start = warm_completions[m - 1]
        completion, _, exact_stop = solve(
            packed, base, False, start, cap_completion, False
        )
        if completion is None:  # pragma: no cover - analytic cap
            break
        settled = settled and exact_stop
        completions.append(completion)
        instance_bound = completion + own_jitter - (m - 1) * period
        per_instance.append(instance_bound)
        if abort_above is not None and instance_bound > abort_above:
            aborted = True
            break
    else:
        bound = max(per_instance)
    result = (busy_period, instance_count, tuple(per_instance), bound, aborted)
    if warm is not None:
        warm.terms = terms
        warm.own_jitter = own_jitter
        warm.inter_jitter = inter_jitter
        warm.blocking = blocking
        warm.busy_period, warm.completions = busy_period, completions
        warm.tolerant = tolerant
        warm.settled = settled and not tolerant and bound is not None
        warm.result = result
    return result


def _reused(
    warm: WarmStart, terms: SubtaskTerms, inter_jitter: Sequence, abort_above
) -> tuple | None:
    """The recorded result of a float run, when a warm run on these
    inputs would return it; else ``None``.

    ``warm`` covers these inputs, passed the warm-start gate, is
    ``settled`` (its busy period and every completion are exact fixed
    points, ``W(t) == t``, of the recorded demands, and the run ended
    unaborted) and has this run's own jitter and blocking term.  So
    only the interferers whose jitter moved can change a demand, and
    only through their ceiling counts.  If none of those counts moves
    at the recorded busy period or at any recorded completion, each of
    those points is an exact fixed point of the new demand too (the
    same float sum of the same terms) and below its cap (the caps only
    grew), so a warm run would start at each of them, return it after
    one evaluation and rebuild the recorded result, unless the result
    passes ``abort_above``.  The record then takes the new inputs, as
    that run would have written them.
    """
    result = warm.result
    if abort_above is not None and result[3] > abort_above:
        return None
    ceil, eps = math.ceil, REL_EPS
    points = None
    for p, j, old in zip(terms.inter_p, inter_jitter, warm.inter_jitter):
        if j == old:
            continue
        if points is None:
            points = (warm.busy_period, *warm.completions)
        for t in points:
            if ceil((t + j) / p - eps) != ceil((t + old) / p - eps):
                return None
    warm.inter_jitter = inter_jitter
    return result


def _exact_kernel(
    terms: SubtaskTerms,
    own_jitter,
    inter_jitter: Sequence,
    blocking,
    abort_above,
    timebase: Timebase,
    warm: WarmStart | None,
) -> tuple:
    """Steps 1-5 under the exact timebase (see :func:`busy_period_kernel`,
    which has checked and converted the inputs)."""
    given = (own_jitter, inter_jitter, blocking)
    warm_busy, warm_completions = None, ()
    if warm is not None and warm.covers(terms, *given):
        warm_busy, warm_completions = warm.busy_period, warm.completions
    period, wcet, wcet_sum = terms.period, terms.wcet, terms.wcet_sum
    inter_e, inter_p = terms.inter_e, terms.inter_p

    # Rescale the whole analysis by the LCM of every denominator in
    # play, so the fixpoint iterations below run on plain machine
    # integers (ceiling division, int compares) instead of normalized
    # Fractions paying a gcd per operation.  Results are descaled on the
    # way out; the arithmetic is identical.  Converted floats are dyadic
    # rationals, so the LCM is just the largest denominator.  A
    # non-rational input (an infinity sentinel) keeps the generic
    # Fraction arithmetic.  Warm starts are dynamic inputs too: they are
    # rescaled with everything else.
    out = None
    dynamic = [own_jitter, blocking, *inter_jitter]
    if abort_above is not None:
        dynamic.append(abort_above)
    if warm_busy is not None:
        dynamic.append(warm_busy)
        dynamic.extend(warm_completions)
    if all(isinstance(v, (int, Fraction)) for v in dynamic):
        scale = _denominator_lcm(dynamic, terms.scale)
        if scale > 1:

            def up(value):
                if isinstance(value, Fraction):
                    return value.numerator * (scale // value.denominator)
                return value * scale

            period, wcet, wcet_sum = up(period), up(wcet), up(wcet_sum)
            inter_e = [up(e) for e in inter_e]
            inter_p = [up(p) for p in inter_p]
            inter_jitter = [up(j) for j in inter_jitter]
            own_jitter, blocking = up(own_jitter), up(blocking)
            if abort_above is not None:
                abort_above = up(abort_above)
            if warm_busy is not None:
                warm_busy = up(warm_busy)
                warm_completions = [up(c) for c in warm_completions]

            def out(value):
                return timebase.convert(Fraction(value, scale))

    # Analytic caps, as in the float steps.
    inter_loads = [
        (Fraction(j, p) + 1) * e
        for e, p, j in zip(inter_e, inter_p, inter_jitter)
    ]
    jitter_load_all = sum(
        inter_loads + [(Fraction(own_jitter, period) + 1) * wcet]
    )
    jitter_load_interference = sum(inter_loads)
    cap_busy = 2 * Fraction(jitter_load_all + blocking, terms.slack) + period

    # Step 1: busy-period length D_i,j (self term included).
    packed = list(zip(inter_e, inter_p, inter_jitter))
    start = wcet_sum + blocking
    if warm_busy is not None and warm_busy > start:
        start = warm_busy
    busy_period = _solve_packed(
        packed + [(wcet, period, own_jitter)],
        blocking,
        True,
        start,
        cap_busy,
        True,
    )[0]
    if busy_period is None:  # pragma: no cover - cap is analytic, see above
        return _DIVERGED

    # Step 2: number of instances in the busy period.
    instance_count = max(1, -(-(busy_period + own_jitter) // period))

    # Steps 3-5: completion bound per instance, response/IEER bound, max.
    per_instance: list = []
    completions: list = []
    bound, aborted = None, False
    for m in range(1, instance_count + 1):
        base = m * wcet + blocking
        # C(m) >= C(m-1) + e; the first base is at least e already.
        start = base if m == 1 else max(base, completion + wcet)
        cap_completion = (
            2
            * Fraction(
                base + jitter_load_interference, terms.interference_slack
            )
            + period
        )
        if m <= len(warm_completions) and warm_completions[m - 1] > start:
            start = warm_completions[m - 1]
        completion = _solve_packed(
            packed, base, False, start, cap_completion, True
        )[0]
        if completion is None:  # pragma: no cover - analytic cap
            break
        completions.append(completion)
        instance_bound = completion + own_jitter - (m - 1) * period
        per_instance.append(instance_bound)
        if abort_above is not None and instance_bound > abort_above:
            aborted = True
            break
    else:
        bound = max(per_instance)
    if warm is not None:
        warm.terms = terms
        warm.own_jitter, warm.inter_jitter, warm.blocking = given
        warm.tolerant = warm.settled = False
        warm.result = None
        if out is None:
            warm.busy_period, warm.completions = busy_period, completions
        else:
            warm.busy_period = out(busy_period)
            warm.completions = [out(c) for c in completions]
    if out is None:
        return busy_period, instance_count, tuple(per_instance), bound, aborted
    return (
        out(busy_period),
        instance_count,
        tuple(out(v) for v in per_instance),
        None if bound is None else out(bound),
        aborted,
    )


def subtask_terms(
    system: System,
    sid: SubtaskId,
    interferers: Sequence[SubtaskId],
    timebase: Timebase = FLOAT,
) -> SubtaskTerms:
    """``sid``'s terms with ``interferers`` as its interference set, in
    that order, read from ``system`` and converted to ``timebase``."""
    convert = timebase.convert
    return SubtaskTerms(
        sid,
        convert(system.subtask(sid).execution_time),
        convert(system.period_of(sid)),
        tuple(convert(system.subtask(o).execution_time) for o in interferers),
        tuple(convert(system.period_of(o)) for o in interferers),
        timebase,
    )


def analyze_subtask(
    system: System,
    sid: SubtaskId,
    jitter: Mapping[SubtaskId, float] | None = None,
    *,
    abort_above: float | None = None,
    blocking: float = 0.0,
    timebase: Timebase = FLOAT,
) -> SubtaskBusyPeriod:
    """Run Steps 1-5 for one subtask under the given jitter assignment.

    Parameters
    ----------
    jitter:
        Release jitter ``J_u,v`` per subtask; missing entries are 0.
        ``None`` means the SA/PM case (all zero).
    abort_above:
        When given, the per-instance loop stops as soon as some
        ``R_i,j(m)`` exceeds this value, reporting the bound as infinite
        (``None`` with ``aborted=True``).  SA/DS uses the paper's
        300-period failure cutoff here to keep diverging analyses cheap.
    blocking:
        A constant blocking term ``B_i,j`` added to every demand
        equation -- the standard way to account for non-preemptive
        sections or dedicated communication resources (the paper's
        Section 2 suggests modelling dedicated links "as blocking times
        of the sending subtasks", and Section 6 lists resource
        contention as the open extension).  Under priority-ceiling-style
        resource protocols one lower-priority critical section can block
        each busy period.
    timebase:
        Arithmetic backend: the default float backend reproduces the
        historical tolerant iteration; the exact backend converts every
        parameter to scaled-integer/rational form and solves the fixed
        points with exact ceilings and ``==`` convergence.
    """
    jitter = jitter or {}
    convert = timebase.convert
    interferers = system.interference_set(sid)
    record = busy_period_kernel(
        subtask_terms(system, sid, interferers, timebase),
        convert(jitter.get(sid, 0)),
        [convert(jitter.get(o, 0)) for o in interferers],
        blocking,
        None if abort_above is None else convert(abort_above),
        timebase,
    )
    return SubtaskBusyPeriod(sid, *record)
