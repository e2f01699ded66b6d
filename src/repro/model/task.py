"""Core task model: subtasks, end-to-end tasks, and processors.

The model follows Section 2 of Sun & Liu (ICDCS 1996).  A *task* ``T_i`` is
a chain of *subtasks* ``T_i,1 ... T_i,n_i``; each subtask executes on one
processor under a fixed-priority preemptive scheduler.  Only the first
subtask of each task is released by the environment -- periodically, with
the task's period and phase; the releases of later subtasks are governed by
a synchronization protocol (:mod:`repro.core.protocols`).

Conventions used throughout the library
---------------------------------------

* Time is modelled with floats; any non-negative value is a valid instant.
* ``priority`` is an integer where a **numerically smaller value means a
  higher priority** (priority 0 beats priority 5).  This matches the common
  "deadline-monotonic index" convention.  Analyses treat *equal* priority
  as interfering (the paper's H_i,j contains subtasks of higher **or
  equal** priority); the simulator breaks equal-priority ties by release
  time and then by a deterministic subtask key.
* Subtasks are identified by :class:`SubtaskId` -- the pair of task index
  and subtask index within the chain, both 0-based.  Human-readable names
  like ``"T2,1"`` use the paper's 1-based convention and are derived, never
  stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterator, Sequence

from repro.errors import ModelError

__all__ = [
    "ProcessorId",
    "SubtaskId",
    "CriticalSection",
    "Subtask",
    "Task",
    "subtask_display_name",
]

#: Processors are identified by opaque strings, e.g. ``"P1"`` or ``"link"``.
ProcessorId = str


@dataclass(frozen=True, order=True)
class SubtaskId:
    """Identity of a subtask: 0-based task index and position in the chain.

    The display form follows the paper's 1-based convention:
    ``SubtaskId(1, 0)`` renders as ``"T2,1"``.
    """

    task_index: int
    subtask_index: int

    def __post_init__(self) -> None:
        if self.task_index < 0:
            raise ModelError(f"task_index must be >= 0, got {self.task_index}")
        if self.subtask_index < 0:
            raise ModelError(
                f"subtask_index must be >= 0, got {self.subtask_index}"
            )

    @property
    def predecessor(self) -> "SubtaskId | None":
        """Id of the immediately preceding sibling, or None for the first."""
        if self.subtask_index == 0:
            return None
        return SubtaskId(self.task_index, self.subtask_index - 1)

    @property
    def successor(self) -> "SubtaskId":
        """Id of the immediately following sibling position.

        The position is purely syntactic; whether a subtask actually exists
        there depends on the owning task's chain length.
        """
        return SubtaskId(self.task_index, self.subtask_index + 1)

    def __str__(self) -> str:
        return subtask_display_name(self.task_index, self.subtask_index)


def subtask_display_name(task_index: int, subtask_index: int) -> str:
    """Render the paper's 1-based name for a subtask, e.g. ``"T2,1"``."""
    return f"T{task_index + 1},{subtask_index + 1}"


@dataclass(frozen=True)
class CriticalSection:
    """A shared-resource access inside one subtask's execution.

    The section is an interval of the subtask's *own* execution: it
    begins after ``start`` units of the subtask's work and holds
    ``resource`` for ``duration`` units.  Section time is part of the
    subtask's ``execution_time`` (so WCET conservation holds whether the
    section runs on the home processor or, under DPCP, as a remote agent
    on a synchronization processor).

    Sections within one subtask must be disjoint -- the model rejects
    nested or overlapping sections outright, which is what makes the
    locking protocols deadlock-free by construction (a lock holder never
    requests a second resource while holding the first).
    """

    resource: str
    start: float
    duration: float

    def __post_init__(self) -> None:
        if not isinstance(self.resource, str) or not self.resource:
            raise ModelError(
                f"critical-section resource must be a non-empty string, "
                f"got {self.resource!r}"
            )
        if not math.isfinite(self.start) or self.start < 0:
            raise ModelError(
                f"critical-section start must be finite and >= 0, "
                f"got {self.start!r}"
            )
        if not math.isfinite(self.duration) or self.duration <= 0:
            raise ModelError(
                f"critical-section duration must be positive and finite, "
                f"got {self.duration!r}"
            )

    @property
    def end(self) -> float:
        """Offset into the subtask's execution at which the lock releases."""
        return self.start + self.duration


@dataclass(frozen=True)
class Subtask:
    """One stage of an end-to-end task chain.

    Attributes
    ----------
    execution_time:
        Worst-case execution time ``e_i,j`` (the paper's epsilon).  Must be
        positive.  The simulator executes each instance for exactly this
        long unless an execution-time variation model
        (:mod:`repro.sim.variation`) shrinks individual instances.
    processor:
        The processor this subtask is statically bound to.
    priority:
        Fixed priority on that processor; smaller is higher.
    name:
        Optional human-readable label (``"sample"``, ``"transfer"`` ...).
        Defaults to the positional name once the subtask is embedded in a
        :class:`Task` inside a :class:`repro.model.system.System`.
    critical_sections:
        Shared-resource accesses inside this subtask's execution, as
        disjoint :class:`CriticalSection` intervals of
        ``[0, execution_time]``.  Stored sorted by start offset; nested
        or overlapping sections are rejected (no lock holder may request
        another resource).
    """

    execution_time: float
    processor: ProcessorId
    priority: int = 0
    name: str = ""
    critical_sections: tuple[CriticalSection, ...] = ()

    def __post_init__(self) -> None:
        if not math.isfinite(self.execution_time) or self.execution_time <= 0:
            raise ModelError(
                "subtask execution_time must be a positive finite number, "
                f"got {self.execution_time!r}"
            )
        if not isinstance(self.processor, str) or not self.processor:
            raise ModelError(
                f"subtask processor must be a non-empty string, "
                f"got {self.processor!r}"
            )
        if not isinstance(self.priority, int):
            raise ModelError(
                f"subtask priority must be an int, got {self.priority!r}"
            )
        if self.critical_sections == ():
            return  # the common resource-free stage: nothing to order
        if not isinstance(self.critical_sections, tuple):
            object.__setattr__(
                self, "critical_sections", tuple(self.critical_sections)
            )
        for section in self.critical_sections:
            if not isinstance(section, CriticalSection):
                raise ModelError(
                    f"critical_sections must contain CriticalSection "
                    f"instances, got {section!r}"
                )
            if section.end > self.execution_time:
                raise ModelError(
                    f"critical section on {section.resource!r} ends at "
                    f"offset {section.end!r}, beyond the subtask's "
                    f"execution time {self.execution_time!r}"
                )
        ordered = tuple(
            sorted(self.critical_sections, key=lambda s: (s.start, s.end))
        )
        for earlier, later in zip(ordered, ordered[1:]):
            if later.start < earlier.end:
                raise ModelError(
                    f"critical sections on {earlier.resource!r} and "
                    f"{later.resource!r} overlap (nested resource holds "
                    f"are not part of the model)"
                )
        object.__setattr__(self, "critical_sections", ordered)

    def with_priority(self, priority: int) -> "Subtask":
        """Return a copy of this subtask with a different priority."""
        return replace(self, priority=priority)

    @property
    def critical_time(self) -> float:
        """Total execution time spent holding any resource."""
        return sum(section.duration for section in self.critical_sections)


@dataclass(frozen=True)
class Task:
    """A periodic end-to-end task: a chain of subtasks plus timing metadata.

    Attributes
    ----------
    period:
        Minimum inter-release time ``p_i`` of the first subtask.
    subtasks:
        Non-empty chain; consecutive subtasks may not share a processor in
        paper-generated workloads, but the model itself permits it (the
        Harbour et al. single-processor case is then expressible).
    phase:
        Release time ``f_i`` of the first instance of the first subtask.
    deadline:
        End-to-end relative deadline ``D_i``.  Defaults to the period, as
        in the paper's evaluation.
    name:
        Human-readable label; defaults to ``"T<k+1>"`` once embedded in a
        system.
    """

    period: float
    subtasks: tuple[Subtask, ...]
    phase: float = 0.0
    deadline: float | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if not math.isfinite(self.period) or self.period <= 0:
            raise ModelError(
                f"task period must be a positive finite number, "
                f"got {self.period!r}"
            )
        if not isinstance(self.subtasks, tuple):
            object.__setattr__(self, "subtasks", tuple(self.subtasks))
        if len(self.subtasks) == 0:
            raise ModelError("a task must contain at least one subtask")
        for stage in self.subtasks:
            if not isinstance(stage, Subtask):
                raise ModelError(
                    f"task subtasks must be Subtask instances, got {stage!r}"
                )
        if not math.isfinite(self.phase) or self.phase < 0:
            raise ModelError(
                f"task phase must be a finite number >= 0, got {self.phase!r}"
            )
        if self.deadline is not None and (
            not math.isfinite(self.deadline) or self.deadline <= 0
        ):
            raise ModelError(
                f"task deadline must be positive and finite when given, "
                f"got {self.deadline!r}"
            )

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def relative_deadline(self) -> float:
        """The end-to-end relative deadline; the period when unspecified."""
        return self.period if self.deadline is None else self.deadline

    @property
    def chain_length(self) -> int:
        """Number of subtasks ``n_i`` in the chain."""
        return len(self.subtasks)

    @property
    def total_execution_time(self) -> float:
        """Sum of the execution times of all subtasks on the chain."""
        return sum(stage.execution_time for stage in self.subtasks)

    @property
    def utilization(self) -> float:
        """Total utilization of the task across all its processors."""
        return self.total_execution_time / self.period

    def subtask_utilization(self, subtask_index: int) -> float:
        """Utilization ``e_i,j / p_i`` of one subtask of this task."""
        return self.subtasks[subtask_index].execution_time / self.period

    def cumulative_execution_time(self, subtask_index: int) -> float:
        """Sum of execution times of subtasks ``0..subtask_index`` inclusive.

        This is the initial IEER estimate used by Algorithm SA/DS.
        """
        if not 0 <= subtask_index < len(self.subtasks):
            raise ModelError(
                f"subtask_index {subtask_index} out of range for task with "
                f"{len(self.subtasks)} subtasks"
            )
        return sum(
            stage.execution_time for stage in self.subtasks[: subtask_index + 1]
        )

    def processors(self) -> tuple[ProcessorId, ...]:
        """Processors visited by the chain, in chain order (with repeats)."""
        return tuple(stage.processor for stage in self.subtasks)

    def release_times(self, horizon: float) -> Iterator[float]:
        """Yield environment release times of the first subtask up to
        ``horizon`` (exclusive)."""
        release = self.phase
        while release < horizon:
            yield release
            release += self.period

    def with_subtasks(self, subtasks: Sequence[Subtask]) -> "Task":
        """Return a copy of this task with a replaced subtask chain."""
        return replace(self, subtasks=tuple(subtasks))

    def with_phase(self, phase: float) -> "Task":
        """Return a copy of this task with a different phase."""
        return replace(self, phase=phase)
