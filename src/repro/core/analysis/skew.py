"""Skew-aware SA/PM: schedulability bounds under imperfect local clocks.

Algorithm SA/PM (Section 4.1/4.2) assumes every protocol timer measures
time perfectly.  With the clock models of :mod:`repro.clocks` the timers
of MPM and the guards of RG run on *local* clocks inside a drift
envelope ``|rate| <= rho`` with step discontinuities up to ``jump``
(resynchronization).  A pure offset cancels for both protocols (they
only measure durations), so the residual error is:

* an MPM relay timer armed for local duration ``R_i,k`` fires within
  ``[R / (1 + rho), R / (1 - rho) + jump]`` of true time -- a one-sided
  stretch of at most ``delta_i,k = R_i,k * rho / (1 - rho) + jump``;
* an RG rule-1 guard of period ``p_i`` spans a true duration at least
  ``p_i / (1 + rho) - jump`` -- consecutive releases may compress below
  the period by ``delta_g_i,j = p_i * rho / (1 - rho) + jump``
  (conservatively using the same first-order envelope).

This module folds both effects into the jitter-generalized busy-period
core (:mod:`repro.core.analysis.busy_period`), which is exactly the
machinery Algorithm SA/DS uses for its release wander.  Both runs below
share one compilation of the system:

1. run plain SA/PM to get the unskewed per-subtask bounds ``R0``;
2. give every subtask ``T_i,j`` the release jitter
   ``J_i,j = sum_{k<j} 2 * delta_i,k + delta_g_i,j`` (timer stretch can
   move each chained release both ways; the guard term covers RG's
   period compression);
3. re-run the busy-period analysis with that jitter map, yielding
   ``R1``;
4. report the skew-inflated subtask bounds ``R1_i,j + delta_i,j`` and
   task bounds ``R_i = sum_j (R1_i,j + delta_i,j)``.

With ``rho = jump = 0`` every correction vanishes and the result equals
plain SA/PM bit for bit.  The inflation is a conservative first-order
envelope -- our extension in the spirit of the parametric-sensitivity
literature (PAPERS.md), not a theorem of the paper -- and it is
validated empirically by the fuzz oracle ``sa-pm-skew-soundness``
(MPM/RG simulated under bounded-skew clocks stay within these bounds).

**PM is deliberately out of scope**: its phase table lives in absolute
local time, so a clock *offset* shifts its releases against the
environment's true-time arrivals -- no duration-based inflation can
repair that, which is the paper's Section 3 argument against PM on
unsynchronized platforms (and what the ``clock-study`` experiment
demonstrates).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping

from repro.clocks.config import ClockConfig
from repro.clocks.models import ClockMap
from repro.core.analysis.busy_period import (
    CompiledSystem,
    busy_period_kernel,
    compiled_for,
)
from repro.core.analysis.results import AnalysisResult
from repro.core.analysis.sa_pm import analyze_sa_pm, task_sums
from repro.errors import ConfigurationError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, Timebase, get_timebase

__all__ = ["analyze_sa_pm_skewed", "skew_terms"]


def _stretch_factor(rate, timebase: Timebase):
    """``rate / (1 - rate)`` without falling back to float when exact."""
    denominator = 1 - rate
    if timebase.exact:
        denominator = Fraction(denominator)
    return rate / denominator


def skew_terms(
    system: System,
    *,
    rate: float,
    jump: float,
    timebase: Timebase | str = FLOAT,
) -> tuple[dict[SubtaskId, float], dict[SubtaskId, float]]:
    """The per-subtask timer-stretch and release-jitter terms.

    Returns ``(delta, jitter)``: ``delta[sid]`` is the one-sided stretch
    of the stage timer armed for ``R0[sid]`` plus the guard-compression
    term of the subtask's own period; ``jitter[sid]`` is the accumulated
    release wobble used as ``J_i,j`` in the busy-period core.  Both are
    identically zero when ``rate == jump == 0``.
    """
    tb = get_timebase(timebase)
    _check_envelope(rate, jump)
    return _skew_terms(
        system, analyze_sa_pm(system, timebase=tb), rate, jump, tb
    )


def _check_envelope(rate: float, jump: float) -> None:
    if not (0 <= rate) or not (0 <= jump) or not math.isfinite(jump):
        raise ConfigurationError(
            f"skew analysis needs rate >= 0 and finite jump >= 0, "
            f"got rate={rate!r} jump={jump!r}"
        )


def _skew_terms(
    system: System, base: AnalysisResult, rate, jump, tb: Timebase
) -> tuple[dict[SubtaskId, float], dict[SubtaskId, float]]:
    """:func:`skew_terms` from ``base``, the plain SA/PM result of
    ``system`` in ``tb``."""
    delta: dict[SubtaskId, float] = {}
    jitter: dict[SubtaskId, float] = {}
    if rate >= 1:
        # The drift envelope no longer bounds durations from above.
        for sid in system.subtask_ids:
            delta[sid] = math.inf
            jitter[sid] = math.inf
        return delta, jitter
    rate_c = tb.convert(rate)
    jump_c = tb.convert(jump)
    stretch = _stretch_factor(rate_c, tb)
    skewed = rate != 0 or jump != 0
    for task_index, task in enumerate(system.tasks):
        accumulated = tb.zero
        for j in range(task.chain_length):
            sid = SubtaskId(task_index, j)
            bound = base.subtask_bounds[sid]
            if math.isinf(bound):
                delta[sid] = math.inf
            elif skewed:
                delta[sid] = stretch * bound + jump_c
            else:
                delta[sid] = tb.zero
            if j == 0 or not skewed:
                # First subtasks are environment-released in true time.
                jitter[sid] = tb.zero
            else:
                period = tb.convert(system.period_of(sid))
                guard_term = stretch * period + jump_c
                jitter[sid] = (
                    accumulated + guard_term
                    if not math.isinf(accumulated)
                    else math.inf
                )
            if math.isinf(delta[sid]) or math.isinf(accumulated):
                accumulated = math.inf
            else:
                accumulated = accumulated + 2 * delta[sid]
    return delta, jitter


def analyze_sa_pm_skewed(
    system: System,
    *,
    rate: float = 0.0,
    jump: float = 0.0,
    clocks: ClockMap | ClockConfig | None = None,
    blocking: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
    compiled: CompiledSystem | None = None,
    sa_pm: AnalysisResult | None = None,
) -> AnalysisResult:
    """Algorithm SA/PM inflated by a clock-skew envelope.

    ``rate`` (the drift envelope rho) and ``jump`` (the largest resync
    step) may be given directly, or derived from a
    :class:`~repro.clocks.ClockMap` / :class:`~repro.clocks.ClockConfig`
    via ``clocks`` (explicit numbers win when both are present and
    larger).  The returned bounds are valid for MPM and RG under any
    clock assignment inside the envelope; see the module docstring for
    why PM is excluded.  With ``rate = jump = 0`` the result equals
    :func:`~repro.core.analysis.sa_pm.analyze_sa_pm` exactly.

    ``compiled`` is ``system`` already compiled in ``timebase``, when
    the caller shares one compilation between analyses; ``sa_pm`` is
    plain SA/PM's result on ``system`` in ``timebase``, when the caller
    already ran it, and is not run again.
    """
    tb = get_timebase(timebase)
    compiled = compiled_for(system, tb, compiled)
    if clocks is not None:
        if isinstance(clocks, ClockConfig):
            rate = max(rate, clocks.rate_bound())
            jump = max(jump, clocks.jump_bound())
        else:
            rate = max(rate, clocks.max_rate())
            jump = max(jump, clocks.max_jump())
    _check_envelope(rate, jump)
    if sa_pm is None:
        sa_pm = analyze_sa_pm(system, timebase=tb, compiled=compiled)
    delta, jitter = _skew_terms(
        system,
        sa_pm,
        rate,
        jump,
        tb,
    )
    blocking = blocking or {}
    subtask_bounds: dict[SubtaskId, float] = {}
    if any(math.isinf(value) for value in jitter.values()):
        # An unbounded wobble anywhere poisons every demand equation.
        subtask_bounds = dict.fromkeys(compiled.sids, math.inf)
    else:
        jitters = [tb.convert(jitter[sid]) for sid in compiled.sids]
        for k, sid in enumerate(compiled.sids):
            if math.isinf(delta[sid]):
                subtask_bounds[sid] = math.inf
                continue
            bound = busy_period_kernel(
                compiled.terms[k],
                jitters[k],
                [jitters[other] for other in compiled.interferers[k]],
                blocking.get(sid, 0.0),
                None,
                tb,
            )[3]
            subtask_bounds[sid] = (
                math.inf if bound is None else bound + delta[sid]
            )
    return AnalysisResult(
        system=system,
        algorithm="SA/PM-skew",
        subtask_bounds=subtask_bounds,
        task_bounds=task_sums(compiled, subtask_bounds.values()),
        iterations=2,
    )
