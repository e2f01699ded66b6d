"""Audsley's Optimal Priority Assignment (OPA) for subtasks.

The paper assumes subtask priorities "have been assigned according to
some priority assignment algorithm" and cites Audsley's optimal
assignment [6] among the candidates; its evaluation uses the simpler
Proportional-Deadline-Monotonic heuristic.  This module implements the
real thing for the paper's model: per processor, assign priority levels
from lowest to highest, at each level picking any subtask whose
busy-period response bound fits its local deadline when every
still-unassigned subtask is presumed higher-priority.

Audsley's argument applies because the busy-period bound of a subtask
depends only on the *set* of higher-or-equal-priority subtasks on its
processor, not on their relative order: if any total order is feasible,
the greedy level-by-level search finds one.  The local deadlines default
to the paper's proportional deadlines, so the schedulability notion
matches the slicing view (:mod:`repro.core.analysis.local_deadline`).

Note on power: for any *fixed* map of local deadlines (each at most its
task's period), deadline-monotonic ordering is already optimal on a
single processor (Leung & Whitehead), so with the default deadlines OPA
accepts exactly the systems PD-monotonic slicing accepts -- a fact the
test suite pins.  Its value here is (a) as an independently derived
check of that optimality, and (b) for custom ``local_deadline``
functions produced by deadline-assignment algorithms, where a caller
may want feasibility w.r.t. deadlines that are not the sorting key.
"""

from __future__ import annotations

from typing import Callable

from repro.core.analysis.busy_period import busy_period_kernel, subtask_terms
from repro.model.priority import proportional_deadline
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import FLOAT, REL_EPS

__all__ = ["audsley_assignment"]

#: Maps (system, subtask) to the subtask's local deadline.
LocalDeadline = Callable[[System, SubtaskId], float]


def _fits(
    system: System,
    sid: SubtaskId,
    higher: set[SubtaskId],
    deadline: float,
) -> bool:
    """Does ``sid`` meet ``deadline`` with exactly ``higher`` above it?

    The probe is one kernel run: ``sid``'s terms with ``higher`` as its
    interference set, in ``subtasks_on`` order (the order
    ``System.interference_set`` yields on a system so prioritized), all
    release jitters and the blocking term zero.
    """
    interferers = [
        other
        for other in system.subtasks_on(system.subtask(sid).processor)
        if other in higher
    ]
    bound = busy_period_kernel(
        subtask_terms(system, sid, interferers),
        0.0,
        [0.0] * len(interferers),
        0.0,
        None,
        FLOAT,
    )[3]
    return bound is not None and bound <= deadline + (
        REL_EPS * max(1.0, deadline)
    )


def audsley_assignment(
    system: System,
    local_deadline: LocalDeadline = proportional_deadline,
) -> System | None:
    """Find a feasible per-processor priority assignment, or None.

    Returns a copy of ``system`` with dense per-processor priorities
    (0 = highest) under which every subtask's busy-period response bound
    fits its local deadline -- or ``None`` when no fixed-priority order
    achieves that (in which case no order does, by OPA's optimality).
    """
    assignment: dict[SubtaskId, int] = {}
    for processor in system.processors:
        local = list(system.subtasks_on(processor))
        unassigned = set(local)
        # Assign from the lowest level upward.
        for level in range(len(local) - 1, -1, -1):
            placed = None
            for candidate in sorted(unassigned):
                higher = unassigned - {candidate}
                deadline = local_deadline(system, candidate)
                if _fits(system, candidate, higher, deadline):
                    placed = candidate
                    break
            if placed is None:
                return None
            assignment[placed] = level
            unassigned.remove(placed)
    return system.with_priorities(assignment)
