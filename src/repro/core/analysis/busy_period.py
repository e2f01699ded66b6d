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
(:class:`CompiledSystem`: index arrays in the call's timebase plus the
jitter-independent part of every subtask's analysis), and
:func:`busy_period_kernel` runs Steps 1-5 for one subtask over them.
:func:`analyze_subtask`, Algorithm IEERT and SA/PM are thin adapters
over the kernel; ``docs/analysis.md`` describes the layout and the
float-order invariants the kernel keeps.
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
        # Ratios (utilizations, caps) stay exact under the exact backend.
        ratio = Fraction if timebase.exact else operator.truediv
        shares = [ratio(e, p) for e, p in zip(inter_e, inter_p)]
        # Divergence pre-check: the long-run demand rate of H ∪ {self}.
        level_utilization = sum(shares + [ratio(wcet, period)])
        self.diverged = (
            level_utilization >= 1
            if timebase.exact
            else level_utilization >= 1.0 - ABS_EPS
        )
        self.slack = 1 - level_utilization
        self.interference_slack = 1 - sum(shares)
        self.wcet_sum = sum(inter_e + (wcet,))
        self.smallest_step = min(inter_e + (wcet,))
        self.scale = (
            _denominator_lcm((period, wcet) + inter_e + inter_p)
            if timebase.exact
            else 1
        )


class CompiledSystem:
    """A system as index arrays, in one timebase.

    Subtask ``k`` is ``sids[k]`` (``System.subtask_ids`` order).
    ``period[k]`` is converted once (``terms[k]`` also holds the
    execution time); ``interferers[k]`` lists the indices of ``H_k`` in
    ``System.interference_set`` order; ``predecessor[k]`` is the previous
    subtask on the chain (``-1`` for a first subtask); ``is_last[k]``
    flags chain ends; ``terms[k]`` holds the jitter-independent part of
    subtask ``k``'s analysis.  Built once per analysis call (or once
    per admission decision, shared by its analyses; see
    :func:`compiled_for`) and dropped with it.
    """

    __slots__ = (
        "system",
        "timebase",
        "sids",
        "period",
        "interferers",
        "predecessor",
        "is_last",
        "terms",
    )

    def __init__(self, system: System, timebase: Timebase = FLOAT) -> None:
        self.system = system
        self.timebase = timebase
        convert = timebase.convert
        self.sids = sids = system.subtask_ids
        stages = []
        self.period = period = []
        self.predecessor = []
        self.is_last = []
        for k, sid in enumerate(sids):
            task = system.tasks[sid.task_index]
            stages.append(task.subtasks[sid.subtask_index])
            period.append(convert(task.period))
            self.predecessor.append(k - 1 if sid.subtask_index else -1)
            self.is_last.append(sid.subtask_index == task.chain_length - 1)
        wcet = [convert(stage.execution_time) for stage in stages]
        on_processor: dict[str, list[int]] = {}
        for k, stage in enumerate(stages):
            on_processor.setdefault(stage.processor, []).append(k)
        self.interferers = [
            tuple(
                other
                for other in on_processor[stage.processor]
                if other != k and stages[other].priority <= stage.priority
            )
            for k, stage in enumerate(stages)
        ]
        self.terms = [
            SubtaskTerms(
                sid,
                wcet[k],
                period[k],
                tuple(wcet[other] for other in self.interferers[k]),
                tuple(period[other] for other in self.interferers[k]),
                timebase,
            )
            for k, sid in enumerate(sids)
        ]


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
    """

    __slots__ = (
        "terms",
        "own_jitter",
        "inter_jitter",
        "blocking",
        "busy_period",
        "completions",
    )

    def __init__(self) -> None:
        self.terms = None

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

    Returns ``(fixed point, demand evaluations)``; the fixed point is
    ``None`` once an iterate passes ``cap``.
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
                return None, step
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
                return total, step + 1
            current = total
    else:
        ceil, eps = math.ceil, REL_EPS
        for step in range(DEFAULT_MAX_ITERATIONS):
            if current > cap:
                return None, step
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
                return total, step + 1
            current = total
    raise AnalysisError(
        "fixed-point iteration did not settle within "
        f"{DEFAULT_MAX_ITERATIONS} steps (last iterate {fmt(current)}, "
        f"cap {fmt(cap)})"
    )


def _finish(busy_period, instance_count, per_instance, bound, aborted, out):
    if out is None:
        return busy_period, instance_count, tuple(per_instance), bound, aborted
    return (
        out(busy_period),
        instance_count,
        tuple(out(v) for v in per_instance),
        None if bound is None else out(bound),
        aborted,
    )


def busy_period_kernel(
    terms: SubtaskTerms,
    own_jitter,
    inter_jitter: Sequence,
    blocking,
    abort_above,
    timebase: Timebase,
    warm: WarmStart | None = None,
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
    argument.
    """
    if own_jitter < 0:
        raise AnalysisError(
            f"negative jitter for {terms.sid}: {own_jitter!r}"
        )
    if blocking < 0:
        raise AnalysisError(f"negative blocking for {terms.sid}: {blocking!r}")
    if terms.diverged:
        return _DIVERGED
    exact = timebase.exact
    blocking = timebase.convert(blocking)
    given = (own_jitter, inter_jitter, blocking)
    warm_busy, warm_completions = None, ()
    if warm is not None and warm.covers(terms, *given):
        warm_busy, warm_completions = warm.busy_period, warm.completions
    period, wcet, wcet_sum = terms.period, terms.wcet, terms.wcet_sum
    inter_e, inter_p = terms.inter_e, terms.inter_p

    # Exact fast path: rescale the whole analysis by the LCM of every
    # denominator in play, so the fixpoint iterations below run on plain
    # machine integers (ceiling division, int compares) instead of
    # normalized Fractions paying a gcd per operation.  Results are
    # descaled on the way out; the arithmetic is identical.  Converted
    # floats are dyadic rationals, so the LCM is just the largest
    # denominator.  A non-rational input (an infinity sentinel) keeps the
    # generic Fraction arithmetic.  Warm starts are dynamic inputs too:
    # they are rescaled with everything else.
    out = None
    if exact:
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

    # Analytic caps: a demand W(t) = base + sum ceil((t + J)/p) e obeys
    # W(t) <= base + U' t + sum (J/p + 1) e with U' the terms' utilization,
    # so its least fixed point is at most (base + sum (J/p + 1) e)/(1 - U').
    # Doubling gives a safety net that a correct iteration can never hit.
    ratio = Fraction if exact else operator.truediv
    inter_loads = [
        (ratio(j, p) + 1) * e
        for e, p, j in zip(inter_e, inter_p, inter_jitter)
    ]
    jitter_load_all = sum(
        inter_loads + [(ratio(own_jitter, period) + 1) * wcet]
    )
    jitter_load_interference = sum(inter_loads)
    cap_busy = 2 * ratio(jitter_load_all + blocking, terms.slack) + period
    # Float: the solver stops once an iterate grows by at most REL_EPS
    # (relative).  Every iterate is at most cap_busy, so when each demand
    # step is well above that tolerance, both a cold and a warm iteration
    # stop only on a fixed point and they agree.  Otherwise where the
    # iteration stops depends on where it starts: start cold.
    if not exact and terms.smallest_step <= 2 * REL_EPS * max(
        1.0, cap_busy
    ):
        warm_busy, warm_completions = None, ()

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
        exact,
    )[0]
    if busy_period is None:  # pragma: no cover - cap is analytic, see above
        return _DIVERGED

    # Step 2: number of instances in the busy period.
    if exact:
        instance_count = max(1, -(-(busy_period + own_jitter) // period))
    else:
        instance_count = max(
            1, math.ceil((busy_period + own_jitter) / period - REL_EPS)
        )

    # Steps 3-5: completion bound per instance, response/IEER bound, max.
    per_instance: list = []
    completions: list = []
    bound, aborted = None, False
    for m in range(1, instance_count + 1):
        base = m * wcet + blocking
        # C(m) >= C(m-1) + e; the first base is at least e already.
        start = base if m == 1 else max(base, completion + wcet)
        cap_completion = (
            2 * ratio(base + jitter_load_interference, terms.interference_slack)
            + period
        )
        if m <= len(warm_completions) and warm_completions[m - 1] > start:
            start = warm_completions[m - 1]
        completion = _solve_packed(
            packed, base, False, start, cap_completion, exact
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
        if out is None:
            warm.busy_period, warm.completions = busy_period, completions
        else:
            warm.busy_period = out(busy_period)
            warm.completions = [out(c) for c in completions]
    return _finish(
        busy_period, instance_count, per_instance, bound, aborted, out
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
    subtask = system.subtask(sid)
    interferers = system.interference_set(sid)
    terms = SubtaskTerms(
        sid,
        convert(subtask.execution_time),
        convert(system.period_of(sid)),
        tuple(convert(system.subtask(o).execution_time) for o in interferers),
        tuple(convert(system.period_of(o)) for o in interferers),
        timebase,
    )
    record = busy_period_kernel(
        terms,
        convert(jitter.get(sid, 0)),
        [convert(jitter.get(o, 0)) for o in interferers],
        blocking,
        None if abort_above is None else convert(abort_above),
        timebase,
    )
    return SubtaskBusyPeriod(sid, *record)
