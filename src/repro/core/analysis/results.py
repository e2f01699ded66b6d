"""Result containers for schedulability analyses.

Both analyses produce, for every subtask, an upper bound -- a response
time bound for SA/PM (valid for the PM, MPM and RG protocols), an IEER
bound for SA/DS -- and, for every task, an upper bound on the end-to-end
response (EER) time.  Infinity encodes the paper's *failure* condition
(a bound exceeding ``failure_factor`` times the period).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

from repro.model.system import System
from repro.model.task import SubtaskId
from repro.timebase import REL_EPS

__all__ = ["AnalysisResult", "FAILURE_FACTOR", "within_deadline"]

#: The paper declares a bound larger than 300 periods "for all practical
#: purposes equal to infinity".
FAILURE_FACTOR = 300.0


def deadline_guard(deadline: float) -> float:
    """The largest float bound :func:`within_deadline` accepts."""
    return deadline + REL_EPS * max(1.0, deadline)


def within_deadline(bound, deadline: float) -> bool:
    """EER bound no greater than the relative deadline.

    Bounds from an exact-timebase analysis (ints/Fractions) are
    compared with a plain ``<=``; float bounds keep the historical
    relative guard.  Python compares rationals against the float
    deadline exactly, so no conversion is needed here.
    """
    if not isinstance(bound, float):
        return bound <= deadline
    return bound <= deadline_guard(deadline)


@dataclass(frozen=True)
class AnalysisResult:
    """Outcome of one schedulability analysis over one system.

    Attributes
    ----------
    algorithm:
        ``"SA/PM"``, ``"SA/DS"`` or ``"holistic"``.
    subtask_bounds:
        For SA/PM: upper bounds ``R_i,j`` on subtask response times.
        For SA/DS: upper bounds on subtask IEER times (completion of
        ``T_i,j(m)`` minus release of ``T_i,1(m)``).
        ``math.inf`` marks a failed (diverged) bound.
    task_bounds:
        Upper bounds on the end-to-end response time of each task, by
        task index; ``math.inf`` on failure.
    iterations:
        Outer iterations used (1 for SA/PM; for SA/DS the Gauss-Seidel
        sweeps when their result is served, else the Jacobi passes).
    """

    system: System
    algorithm: str
    subtask_bounds: Mapping[SubtaskId, float]
    task_bounds: tuple[float, ...]
    iterations: int = 1
    notes: tuple[str, ...] = field(default_factory=tuple)

    # ------------------------------------------------------------------
    # Failure / schedulability queries
    # ------------------------------------------------------------------
    @property
    def failed(self) -> bool:
        """True when any task's bound is infinite (the paper's failure)."""
        return any(math.isinf(bound) for bound in self.task_bounds)

    @property
    def all_finite(self) -> bool:
        """True when every task bound is finite."""
        return not self.failed

    def task_bound(self, task_index: int) -> float:
        """The EER upper bound of one task."""
        return self.task_bounds[task_index]

    def subtask_bound(self, sid: SubtaskId) -> float:
        """The per-subtask bound (response time or IEER, per algorithm)."""
        return self.subtask_bounds[sid]

    def is_task_schedulable(self, task_index: int) -> bool:
        """EER bound no greater than the task's relative deadline (see
        :func:`within_deadline`)."""
        return within_deadline(
            self.task_bounds[task_index],
            self.system.tasks[task_index].relative_deadline,
        )

    @property
    def schedulable(self) -> bool:
        """True iff every task's bound is within its deadline."""
        return all(
            self.is_task_schedulable(index)
            for index in range(len(self.system.tasks))
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line summary of the bounds, for reports and the CLI."""
        lines = [
            f"{self.algorithm} analysis of {self.system.name!r} "
            f"({self.iterations} iteration(s)):"
        ]
        for index, task in enumerate(self.system.tasks):
            bound = self.task_bounds[index]
            deadline = task.relative_deadline
            verdict = (
                "FAIL (unbounded)"
                if math.isinf(bound)
                else ("ok" if self.is_task_schedulable(index) else "MISS")
            )
            shown = "inf" if math.isinf(bound) else f"{bound:g}"
            label = task.name or f"T{index + 1}"
            lines.append(
                f"  {label}: EER bound {shown} vs deadline {deadline:g} "
                f"[{verdict}]"
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)
