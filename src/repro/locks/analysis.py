"""Blocking-aware schedulability analysis under DPCP / DPCP-p.

Locking changes the analyses in exactly two ways, both additive:

**Remote blocking** ``B_i,j``.  A subtask that requests a resource may
wait for the synchronization processor to work through other agents.
While its request is outstanding (queued or executing), the host
processor continuously runs agent work -- agents outrank every normal
subtask there -- so the time from request to release of a section ``s``
with duration ``d_s`` on host ``P`` is bounded by the least fixed point

    W = d_s + sum_{u != i,j : c_{u,P} > 0}
            (floor((W + J_u) / p_u) + 1) c_{u,P}

where ``c_{u,P}`` is the total agent work subtask ``u`` places on ``P``
per instance, ``p_u`` its task's period and ``J_u`` its deferral jitter
(below).  The per-section blocking is ``X_s = W - d_s`` (the section's
own execution is already inside the WCET) and ``B_i,j = sum_s X_s``.
This bound is deliberately coarse -- it does not credit DPCP's
priority-ordered queue over DPCP-p's FIFO -- so one formula serves both
protocols; they differ through the *assignment* (which ``c_{u,P}``
terms land on which processor).

**Agent interference.**  Agent chunks preempt normal subtasks on their
host processor.  Each (subtask, section) pair contributes a pseudo task:
period of the owner, one subtask of execution time ``d_s`` on the host
at the owner's boosted agent priority.  The pseudo tasks are appended
*after* the real tasks (original indices and ids survive) and stripped
from the result, leaving bounds for the real system only.

**Suspension as jitter** ``J_i,j``.  A subtask that is away on a
synchronization processor *defers* its home-processor execution: its
releases stay strictly periodic, but its demand can land late and then
clump with the next instance's, which plain periodic interference
counting misses.  The standard sound repair charges each lock-using
subtask's deferral as release jitter ``J_i,j = R_i,j - e_i,j``
(response bound minus execution) in every demand equation it
*interferes* with -- never in its own, whose waiting is already covered
by ``B_i,j``.  Agent pseudo tasks inherit their owner's jitter (a
deferred owner requests late).  ``R`` depends on ``J`` and ``J`` on
``R``, so blocking terms, jitters and bounds are resolved as one joint
least fixed point, iterated from zero; failing to stabilize within
:data:`_MAX_DEFERRAL_PASSES` declares every resourceful bound infinite
(sound: the iteration is monotone from below).

**One problem per analysis.**  A blocking-aware call builds the static
half once: the lock assignment, a table of each section's duration and
the agent work that can delay it (or its saturated host), and the
augmented system with its owner map, both from the one place that
appends agents (:func:`agent_augmented_system`), compiled once.  Each
pass re-evaluates only the dynamic inputs: the section windows under
the current jitters, and the analysis on that compilation.

Charging the full WCET on the home processor *and* the section time as
agent interference *and* the blocking term double-counts section time;
every count is an upper bound, so the composition stays sound.

Both entry points reduce *exactly* to the base analyses on a system
without critical sections: they return the base result object itself,
so resource-free bounds are bit-identical with or without this module.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Mapping

from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.results import FAILURE_FACTOR, AnalysisResult
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.locks.assignment import LockAssignment, build_assignment
from repro.locks.config import LockingConfig
from repro.model.system import System
from repro.model.task import Subtask, SubtaskId, Task
from repro.timebase import FLOAT, REL_EPS, Timebase, get_timebase

__all__ = [
    "agent_augmented_system",
    "analyze_sa_pm_blocking",
    "analyze_sa_ds_blocking",
    "blocking_terms",
    "resolved_blocking_terms",
]

#: Fixed-point iteration cap; the utilization guard makes divergence
#: detectable beforehand, so hitting the cap means pathological creep --
#: reported as an infinite term, which is sound.
_MAX_FIXPOINT_PASSES = 10_000

#: Outer joint-fixpoint cap for blocking terms + suspension jitters.
#: The iteration is monotone from below, so failing to stabilize means
#: the augmented system is effectively unschedulable; every resourceful
#: bound is then declared infinite, which is sound.
_MAX_DEFERRAL_PASSES = 60


def _section_table(
    system: System, assignment: LockAssignment, tb: Timebase
) -> dict[SubtaskId, list]:
    """The static half of the remote-blocking fixpoint.

    Per resourceful subtask, one entry per critical section in order:
    ``None`` when the section's host is saturated (total agent
    utilization at least 1), else ``(d_s, others)`` with ``others`` the
    ``(u, p_u, c_{u,P})`` of every other subtask that places agent work
    on the host.
    """
    periods = {
        sid: tb.convert(system.period_of(sid)) for sid in system.subtask_ids
    }
    # Agent work and utilization per synchronization processor.
    work_on = {
        processor: assignment.agent_work_on(system, processor)
        for processor in set(assignment.sync_processor.values())
    }
    agent_utilization = {
        processor: sum(
            tb.convert(c) / periods[u] for u, c in work.items()
        )
        for processor, work in work_on.items()
    }
    table: dict[SubtaskId, list] = {}
    for sid in system.subtask_ids:
        entries = []
        for section in system.subtask(sid).critical_sections:
            host = assignment.host_of(section.resource)
            if agent_utilization[host] >= 1:
                entries.append(None)
                continue
            others = [
                (u, periods[u], tb.convert(c))
                for u, c in work_on[host].items()
                if u != sid
            ]
            entries.append((tb.convert(section.duration), others))
        if entries:
            table[sid] = entries
    return table


def _windows(
    table: Mapping[SubtaskId, list],
    deferral: Mapping[SubtaskId, float],
    zero,
) -> dict[SubtaskId, float]:
    """The dynamic half: every section's window under ``deferral``,
    summed into ``B_i,j`` per subtask of ``table``."""
    terms: dict[SubtaskId, float] = {}
    for sid, entries in table.items():
        total = zero
        for entry in entries:
            if entry is None:
                total = math.inf
                break
            duration, others = entry
            jitters = [deferral.get(u, 0) for (u, _p, _c) in others]
            if any(math.isinf(j) for j in jitters):
                total = math.inf
                break
            window = duration
            for _pass in range(_MAX_FIXPOINT_PASSES):
                demand = duration
                for (_u, period, c), j in zip(others, jitters):
                    demand += (math.floor((window + j) / period) + 1) * c
                if demand == window:
                    break
                window = demand
            else:
                window = math.inf
            total += window - duration
        terms[sid] = total
    return terms


def blocking_terms(
    system: System,
    locking: LockingConfig | None = None,
    *,
    timebase: Timebase | str = FLOAT,
    deferral: Mapping[SubtaskId, float] | None = None,
) -> dict[SubtaskId, float]:
    """Remote-blocking bound ``B_i,j`` per resourceful subtask.

    Subtasks without critical sections are absent from the mapping
    (their term is zero).  A synchronization processor whose total
    agent utilization reaches 1 yields infinite terms for every subtask
    it serves -- requests there have no bounded wait.  ``deferral``
    widens the arrival window of each interfering requester by its
    suspension jitter ``J_u`` (see the module docstring); callers
    normally obtain terms through :func:`resolved_blocking_terms` or
    the blocking-aware analyses, which iterate deferrals to their
    fixed point.
    """
    tb = get_timebase(timebase)
    table = _section_table(system, build_assignment(system, locking), tb)
    return _windows(table, deferral or {}, tb.zero)


def _augment(
    system: System, assignment: LockAssignment
) -> tuple[System, dict[SubtaskId, SubtaskId]]:
    """The augmented system and its owner map (agent pseudo-subtask id
    -> owning real subtask id); see :func:`agent_augmented_system`."""
    agents: list[Task] = []
    owners: dict[SubtaskId, SubtaskId] = {}
    for sid in system.subtask_ids:
        for index, section in enumerate(
            system.subtask(sid).critical_sections
        ):
            owners[SubtaskId(len(system.tasks) + len(agents), 0)] = sid
            agents.append(
                Task(
                    period=system.task_of(sid).period,
                    subtasks=(
                        Subtask(
                            execution_time=section.duration,
                            processor=assignment.host_of(section.resource),
                            priority=assignment.agent_priority[sid],
                            name=f"agent:{sid}:{index}:{section.resource}",
                        ),
                    ),
                    name=f"agent:{sid}:{index}",
                )
            )
    augmented = System(
        system.tasks + tuple(agents), name=f"{system.name}+agents"
    )
    return augmented, owners


def agent_augmented_system(
    system: System, locking: LockingConfig | None = None
) -> System:
    """The system plus one pseudo task per (subtask, critical section).

    Each pseudo task models the agent load a section places on its
    synchronization processor: the owner's period, a single subtask of
    the section's duration, on the host, at the owner's agent priority
    (numerically below every normal priority, as in the runtime).  Real
    tasks come first, so every real :class:`SubtaskId` is unchanged.
    Its one implementation, ``_augment``, also returns which real
    subtask owns each pseudo subtask.
    """
    return _augment(system, build_assignment(system, locking))[0]


def _strip_agents(
    result: AnalysisResult, system: System, label: str
) -> AnalysisResult:
    """Project an augmented-system result back onto the real system."""
    real = set(system.subtask_ids)
    notes = list(result.notes)
    dropped = [
        (sid, bound)
        for sid, bound in result.subtask_bounds.items()
        if sid not in real and math.isinf(bound)
    ]
    if dropped:
        notes.append(
            f"{len(dropped)} agent pseudo-task bound(s) diverged "
            f"(agent overload is reflected in the blocking terms)"
        )
    return replace(
        result,
        system=system,
        algorithm=label,
        subtask_bounds={
            sid: bound
            for sid, bound in result.subtask_bounds.items()
            if sid in real
        },
        task_bounds=tuple(result.task_bounds[: len(system.tasks)]),
        notes=tuple(notes),
    )


def _maps_close(
    new: Mapping[SubtaskId, float],
    old: Mapping[SubtaskId, float],
    tb: Timebase,
) -> bool:
    """Convergence test for one fixpoint pass (exact: equality)."""
    if set(new) != set(old):
        return False
    for key, value in new.items():
        other = old[key]
        if math.isinf(value) or math.isinf(other):
            if value != other:
                return False
        elif tb.exact:
            if value != other:
                return False
        elif abs(value - other) > REL_EPS * max(1.0, abs(other)):
            return False
    return True


def _apply_infinite_deferrals(
    result: AnalysisResult, inf_sids: set[SubtaskId]
) -> AnalysisResult:
    """Bounds reachable from an infinitely deferred subtask are infinite.

    A subtask whose deferral jitter diverged can backlog arbitrarily
    many instances, so everything it interferes with (same processor,
    lower or equal priority) has no finite bound either.
    """
    if not inf_sids:
        return result
    augmented = result.system
    subtask_bounds = dict(result.subtask_bounds)
    for sid in subtask_bounds:
        if sid in inf_sids or inf_sids.intersection(
            augmented.interference_set(sid)
        ):
            subtask_bounds[sid] = math.inf
    task_bounds = tuple(
        math.inf
        if any(
            math.isinf(subtask_bounds[SubtaskId(i, j)])
            for j in range(task.chain_length)
        )
        else bound
        for (i, task), bound in zip(
            enumerate(augmented.tasks), result.task_bounds
        )
    )
    return replace(
        result, subtask_bounds=subtask_bounds, task_bounds=task_bounds
    )


def _resolve(
    system: System,
    locking: LockingConfig | None,
    timebase: Timebase | str,
    sa_ds: Mapping | None = None,
) -> tuple[dict[SubtaskId, float], AnalysisResult]:
    """Joint least fixpoint of blocking terms, jitters and bounds.

    The one driver of the blocking-aware analyses of a sectioned
    system, by SA/PM or (given its ``sa_ds`` options) SA/DS, on one
    DPCP problem (see the module docstring).  Returns ``(terms,
    result)``, ``result`` projected onto ``system``.
    """
    tb = get_timebase(timebase)
    locking = locking if locking is not None else LockingConfig()
    assignment = build_assignment(system, locking)
    table = _section_table(system, assignment, tb)
    augmented, owners = _augment(system, assignment)
    options = {
        "timebase": tb,
        "compiled": CompiledSystem(augmented, tb),
        **(sa_ds or {}),
    }

    def analyze(blocking, jitter) -> AnalysisResult:
        if sa_ds is None:
            return analyze_sa_pm(
                augmented, blocking=blocking, jitter=jitter, **options
            )
        return analyze_sa_ds(
            augmented, blocking=blocking, extra_jitter=jitter, **options
        )

    executions = {
        sid: tb.convert(system.subtask(sid).execution_time) for sid in table
    }
    # Practical-infinity cutoff (the paper's SA/DS failure reading): a
    # deferral beyond FAILURE_FACTOR periods is declared infinite rather
    # than iterated further -- the creep toward divergence would
    # otherwise make every subsequent analysis pass slower.
    cutoffs = {
        sid: tb.convert(FAILURE_FACTOR) * tb.convert(system.period_of(sid))
        for sid in table
    }
    jitter: dict[SubtaskId, float] = {sid: tb.zero for sid in table}
    terms = _windows(table, jitter, tb.zero)
    for _pass in range(_MAX_DEFERRAL_PASSES):
        full = dict(jitter)
        for agent_sid, owner in owners.items():
            full[agent_sid] = jitter[owner]
        finite = {u: v for u, v in full.items() if not math.isinf(v)}
        inf_sids = {u for u, v in full.items() if math.isinf(v)}
        result = analyze(terms, finite)
        result = _apply_infinite_deferrals(result, inf_sids)
        new_jitter: dict[SubtaskId, float] = {}
        for sid in table:
            bound = result.subtask_bounds[sid]
            if (
                math.isinf(bound)
                or math.isinf(terms.get(sid, 0))
                or bound - executions[sid] > cutoffs[sid]
            ):
                new_jitter[sid] = math.inf
            else:
                new_jitter[sid] = max(tb.zero, bound - executions[sid])
        new_terms = _windows(table, new_jitter, tb.zero)
        converged = _maps_close(new_jitter, jitter, tb) and _maps_close(
            new_terms, terms, tb
        )
        jitter, terms = new_jitter, new_terms
        if converged:
            break
    else:
        # Still creeping after the cap: declare every resourceful bound
        # (and everything it interferes with) infinite.
        terms = {sid: math.inf for sid in table}
        result = _apply_infinite_deferrals(
            analyze({}, {}), set(table) | set(owners)
        )
    label = f"{result.algorithm}+{locking.protocol}"
    return terms, _strip_agents(result, system, label)


def resolved_blocking_terms(
    system: System,
    locking: LockingConfig | None = None,
    *,
    timebase: Timebase | str = FLOAT,
) -> dict[SubtaskId, float]:
    """Deferral-aware blocking bounds ``B_i,j``, resolved to fixpoint.

    These are the terms the blocking-aware SA/PM bounds embed -- and
    the reference the blocking-term-soundness fuzz oracle checks
    measured waits against.  Empty on a resource-free system.
    """
    if not system.has_critical_sections:
        return {}
    return _resolve(system, locking, timebase)[0]


def analyze_sa_pm_blocking(
    system: System,
    *,
    locking: LockingConfig | None = None,
    timebase: Timebase | str = FLOAT,
) -> AnalysisResult:
    """SA/PM with DPCP / DPCP-p blocking, agent interference and
    suspension-as-jitter deferrals.

    On a system without critical sections this *is*
    :func:`~repro.core.analysis.sa_pm.analyze_sa_pm` -- same result
    object, bit-identical bounds.
    """
    if not system.has_critical_sections:
        return analyze_sa_pm(system, timebase=timebase)
    return _resolve(system, locking, timebase)[1]


def analyze_sa_ds_blocking(
    system: System,
    *,
    locking: LockingConfig | None = None,
    failure_factor: float = FAILURE_FACTOR,
    max_iterations: int = 300,
    timebase: Timebase | str = FLOAT,
) -> AnalysisResult:
    """SA/DS with DPCP / DPCP-p blocking, agent interference and
    suspension-as-jitter deferrals.

    On a system without critical sections this *is*
    :func:`~repro.core.analysis.sa_ds.analyze_sa_ds`.
    """
    options = {
        "failure_factor": failure_factor,
        "max_iterations": max_iterations,
    }
    if not system.has_critical_sections:
        return analyze_sa_ds(system, timebase=timebase, **options)
    return _resolve(system, locking, timebase, options)[1]
