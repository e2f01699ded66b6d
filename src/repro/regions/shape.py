"""Shape canonicalization: a task set minus its execution times.

A *shape* is everything about an admission request that survives when
the concrete execution times are stripped: the task/subtask topology,
periods, phases, deadlines, priorities, processor placement, the
relative layout of critical sections, the requested protocols, the
clock envelope and the analysis options.  Two requests with the same
shape differ only in the execution-time vector -- which is exactly the
parameter space the feasibility regions of
:mod:`repro.regions.compute` are computed over.

Canonicalization rules
----------------------

* execution times are dropped; what remains of each subtask is its
  processor, priority and critical-section *fractions* -- every
  section's start and duration are stored as exact rationals of the
  subtask's execution time (``Fraction(start) / Fraction(e)``), so
  proportionally scaled instances of one layout share a shape and the
  fractions re-materialize losslessly at any concrete point;
* system, task and subtask *names* are dropped (they are labels, not
  decision content -- renaming a task must not fragment the region
  cache);
* verdict-relevant options are kept (:data:`SHAPE_OPTIONS`): protocols,
  ``synchronized_clocks``, the clock envelope, ``shared_resources`` and
  ``sa_ds_max_iterations``.  The advisor-only questions
  (``jitter_sensitive`` and friends) are deliberately *excluded*: they
  influence which certified protocol the advisor prefers, never whether
  a protocol certifies, and region-tier decisions pick their protocol
  by the service's fallback order instead.

Like the decision keys of :mod:`repro.service.hashing`, shape keys are
SHA-256 digests of a canonical JSON encoding -- stable across
processes, runs and machines.  The rules live there too: the admission
pipeline takes a request's shape payload and execution vector from the
one pass that keys it (:func:`~repro.service.hashing.walk_request`),
and :func:`shape_key` hashes what that pass yields.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Any

from repro.model.system import System
from repro.service.hashing import (
    SHAPE_FORMAT,
    SHAPE_OPTIONS,
    canonical_json,
    section_shapes,
    walk_request,
)
from repro.service.requests import AdmissionRequest

__all__ = [
    "SHAPE_FORMAT",
    "SHAPE_OPTIONS",
    "shape_payload",
    "shape_key",
    "task_shape_token",
    "execution_vector",
    "dimension_names",
    "system_at",
]


def _subtask_shape(stage) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "processor": stage.processor,
        "priority": stage.priority,
    }
    if stage.critical_sections:
        entry["critical_sections"] = section_shapes(stage)
    return entry


def _task_shape(task) -> dict[str, Any]:
    return {
        "period": task.period,
        "phase": task.phase,
        "deadline": task.deadline,
        "subtasks": [_subtask_shape(stage) for stage in task.subtasks],
    }


def shape_payload(request: AdmissionRequest) -> dict[str, Any]:
    """The exact dictionary that gets hashed (useful for debugging).

    Built task by task, apart from the admission pipeline's
    :func:`~repro.service.hashing.walk_request`, which yields the same
    dictionary from the pass that keys the request.
    """
    return {
        "format": SHAPE_FORMAT,
        "tasks": [_task_shape(task) for task in request.system.tasks],
        **{name: getattr(request, name) for name in SHAPE_OPTIONS},
    }


def shape_key(request: AdmissionRequest) -> str:
    """The SHA-256 hex digest identifying a request's shape."""
    return walk_request(request).shape_key


def task_shape_token(task) -> str:
    """One task's shape as a canonical JSON string (for task matching).

    Two tasks with equal tokens are interchangeable dimensions of a
    region: same period, phase, deadline, placement, priorities and
    section layout.  The incremental layer uses this to align the
    surviving tasks of an edited system with the cached region.
    """
    return canonical_json(_task_shape(task))


def execution_vector(system: System) -> tuple:
    """The concrete execution times, one per subtask.

    Dimension order is the canonical subtask order of
    :attr:`repro.model.system.System.subtask_ids` -- (task index,
    subtask index) ascending -- everywhere in this package.
    """
    return tuple(
        system.tasks[sid.task_index].subtasks[sid.subtask_index].execution_time
        for sid in system.subtask_ids
    )


def dimension_names(system: System) -> tuple[str, ...]:
    """Display names of the region dimensions (paper-style ``"T2,1"``)."""
    return tuple(str(sid) for sid in system.subtask_ids)


def system_at(system: System, vector) -> System:
    """A copy of ``system`` with execution times set to ``vector``.

    ``vector`` follows the canonical dimension order.  Each subtask's
    critical sections scale proportionally with its execution time (the
    same consistency rule as
    :func:`repro.core.analysis.sensitivity.scale_execution_times`), so
    every point of the parameter space is a valid model and the
    blocking terms track the scaled contention.
    """
    values = list(vector)
    expected = len(system.subtask_ids)
    if len(values) != expected:
        raise ValueError(
            f"execution vector has {len(values)} components, "
            f"system has {expected} subtasks"
        )
    cursor = 0
    tasks = []
    for task in system.tasks:
        subtasks = []
        for stage in task.subtasks:
            target = values[cursor]
            cursor += 1
            if target == stage.execution_time:
                subtasks.append(stage)
                continue
            exact = not isinstance(target, float)
            if exact:
                # Exact points stay exact: a rational target yields
                # rational section offsets (float * Fraction would
                # silently fall back to float).
                ratio = Fraction(target) / Fraction(stage.execution_time)
            else:
                ratio = target / float(stage.execution_time)
            sections = []
            for section in stage.critical_sections:
                start = (
                    Fraction(section.start) if exact else section.start
                ) * ratio
                duration = (
                    Fraction(section.duration) if exact else section.duration
                ) * ratio
                if start + duration > target:
                    duration = target - start
                sections.append(
                    replace(section, start=start, duration=duration)
                )
            subtasks.append(
                replace(
                    stage,
                    execution_time=target,
                    critical_sections=tuple(sections),
                )
            )
        tasks.append(task.with_subtasks(tuple(subtasks)))
    return system.with_tasks(tasks)
