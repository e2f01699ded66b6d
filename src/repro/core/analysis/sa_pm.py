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
from typing import Mapping

from repro.core.analysis.busy_period import (
    CompiledSystem,
    SubtaskBusyPeriod,
    busy_period_kernel,
)

# Unused here, but kept bound at this module's name: the benchmark's
# tracer (perfbench/spans.py) wraps ``sa_pm.analyze_subtask``.
from repro.core.analysis.busy_period import analyze_subtask  # noqa: F401
from repro.core.analysis.results import AnalysisResult
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
) -> dict[SubtaskId, SubtaskBusyPeriod]:
    """Steps 1-4 for every subtask: full busy-period records.

    ``jitter`` is *interference* jitter (suspension-as-jitter deferral
    of lock-holding subtasks -- see :mod:`repro.locks.analysis`): it
    widens the arrival windows of interfering subtasks but is never
    applied to the analyzed subtask's own releases, which stay strictly
    periodic under PM/MPM/RG.  An infinite blocking term short-circuits
    to a diverged record (the exact backend cannot represent infinite
    demand).
    """
    blocking = blocking or {}
    jitter = jitter or {}
    timebase = get_timebase(timebase)
    compiled = CompiledSystem(system, timebase)
    inter_jitter = [
        timebase.convert(jitter.get(sid, 0)) for sid in compiled.sids
    ]
    details: dict[SubtaskId, SubtaskBusyPeriod] = {}
    for k, sid in enumerate(compiled.sids):
        own_blocking = blocking.get(sid, 0.0)
        if math.isinf(own_blocking):
            details[sid] = SubtaskBusyPeriod(
                sid=sid,
                busy_period=None,
                instance_count=0,
                per_instance_bounds=(),
                bound=None,
            )
            continue
        details[sid] = SubtaskBusyPeriod(
            sid,
            *busy_period_kernel(
                compiled.terms[k],
                timebase.zero,
                [inter_jitter[other] for other in compiled.interferers[k]],
                own_blocking,
                None,
                timebase,
            ),
        )
    return details


def analyze_sa_pm(
    system: System,
    *,
    blocking: Mapping[SubtaskId, float] | None = None,
    jitter: Mapping[SubtaskId, float] | None = None,
    timebase: Timebase | str = FLOAT,
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
    exact.
    """
    timebase = get_timebase(timebase)
    details = sa_pm_subtask_details(
        system, blocking, jitter=jitter, timebase=timebase
    )
    subtask_bounds = {
        sid: (math.inf if record.bound is None else record.bound)
        for sid, record in details.items()
    }
    task_bounds = []
    for task_index, task in enumerate(system.tasks):
        total = timebase.zero
        for j in range(task.chain_length):
            total += subtask_bounds[SubtaskId(task_index, j)]
        task_bounds.append(total)
    return AnalysisResult(
        system=system,
        algorithm="SA/PM",
        subtask_bounds=subtask_bounds,
        task_bounds=tuple(task_bounds),
        iterations=1,
    )
