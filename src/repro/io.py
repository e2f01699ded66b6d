"""Serialization: systems, analysis results and surfaces to/from JSON.

Systems round-trip losslessly, so workloads can be generated once,
archived, and re-analyzed elsewhere; analysis results and experiment
surfaces export for plotting with external tools (infinities are encoded
as the string ``"inf"`` to stay inside strict JSON).
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.core.analysis.results import AnalysisResult
from repro.errors import ConfigurationError
from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task

if TYPE_CHECKING:
    from repro.experiments.surface import Surface

__all__ = [
    "encode_bound",
    "decode_bound",
    "system_to_dict",
    "system_from_dict",
    "save_system",
    "load_system",
    "analysis_result_to_dict",
    "surface_to_dict",
    "surface_from_dict",
    "surface_to_csv",
    "config_to_dict",
    "config_from_dict",
    "save_evaluations",
    "load_evaluations",
]

_FORMAT = "repro-system-v1"


def encode_bound(value: float) -> float | str:
    """A bound as a JSON-safe value (infinity becomes ``"inf"``)."""
    return "inf" if math.isinf(value) else value


def decode_bound(value: float | str) -> float:
    """Inverse of :func:`encode_bound`."""
    return math.inf if value == "inf" else float(value)


# Backwards-compatible internal aliases.
_encode_bound = encode_bound
_decode_bound = decode_bound


# ---------------------------------------------------------------------------
# Systems
# ---------------------------------------------------------------------------


def _subtask_to_dict(stage: Subtask) -> dict[str, Any]:
    entry: dict[str, Any] = {
        "name": stage.name,
        "execution_time": stage.execution_time,
        "processor": stage.processor,
        "priority": stage.priority,
    }
    # Emitted only when present: resource-free systems keep the exact
    # historical v1 document shape (and therefore their content hashes).
    if stage.critical_sections:
        entry["critical_sections"] = [
            {
                "resource": section.resource,
                "start": section.start,
                "duration": section.duration,
            }
            for section in stage.critical_sections
        ]
    return entry


def system_to_dict(system: System) -> dict[str, Any]:
    """A JSON-ready description of a system (lossless)."""
    return {
        "format": _FORMAT,
        "name": system.name,
        "tasks": [
            {
                "name": task.name,
                "period": task.period,
                "phase": task.phase,
                "deadline": task.deadline,
                "subtasks": [
                    _subtask_to_dict(stage) for stage in task.subtasks
                ],
            }
            for task in system.tasks
        ],
    }


def system_from_dict(data: dict[str, Any]) -> System:
    """Rebuild a system from :func:`system_to_dict` output."""
    if not isinstance(data, Mapping):
        raise ConfigurationError(
            f"a system must be a JSON object, got {type(data).__name__}"
        )
    if data.get("format") != _FORMAT:
        raise ConfigurationError(
            f"not a {_FORMAT} document (format={data.get('format')!r})"
        )
    tasks = []
    for entry in data["tasks"]:
        period = float(entry["period"])
        phase = float(entry.get("phase", 0.0))
        deadline = entry.get("deadline")
        if deadline is not None:
            deadline = float(deadline)
        name = entry.get("name", "")
        subtasks = []
        for stage in entry["subtasks"]:
            execution_time = float(stage["execution_time"])
            processor = str(stage["processor"])
            priority = int(stage.get("priority", 0))
            stage_name = stage.get("name", "")
            sections = ()
            if "critical_sections" in stage:
                sections = tuple(
                    [
                        CriticalSection(
                            resource=str(section["resource"]),
                            start=float(section["start"]),
                            duration=float(section["duration"]),
                        )
                        for section in stage["critical_sections"]
                    ]
                )
            subtasks.append(
                Subtask(
                    execution_time=execution_time,
                    processor=processor,
                    priority=priority,
                    name=stage_name,
                    critical_sections=sections,
                )
            )
        tasks.append(
            Task(
                period=period,
                phase=phase,
                deadline=deadline,
                name=name,
                subtasks=tuple(subtasks),
            )
        )
    return System(tuple(tasks), name=data.get("name", "system"))


def save_system(system: System, path: str | Path) -> None:
    """Write a system to a JSON file."""
    Path(path).write_text(
        json.dumps(system_to_dict(system), indent=2) + "\n"
    )


def load_system(path: str | Path) -> System:
    """Read a system from a JSON file written by :func:`save_system`."""
    return system_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Analysis results and surfaces
# ---------------------------------------------------------------------------


def analysis_result_to_dict(result: AnalysisResult) -> dict[str, Any]:
    """Export an analysis result (bounds keyed by display names)."""
    return {
        "algorithm": result.algorithm,
        "system": result.system.name,
        "iterations": result.iterations,
        "failed": result.failed,
        "schedulable": result.schedulable,
        "task_bounds": [
            _encode_bound(bound) for bound in result.task_bounds
        ],
        "subtask_bounds": {
            str(sid): _encode_bound(bound)
            for sid, bound in sorted(result.subtask_bounds.items())
        },
        "notes": list(result.notes),
    }


def surface_to_dict(surface: Surface) -> dict[str, Any]:
    """Export a figure surface with its confidence metadata."""
    return {
        "name": surface.name,
        "cells": [
            {
                "subtasks": cell.subtasks,
                "utilization_percent": cell.utilization_percent,
                "value": (
                    None if math.isnan(cell.value) else cell.value
                ),
                "ci_half_width": cell.ci_half_width,
                "sample_count": cell.sample_count,
            }
            for cell in surface
        ],
    }


def surface_from_dict(data: dict[str, Any]) -> Surface:
    """Rebuild a surface exported by :func:`surface_to_dict`."""
    from repro.experiments.surface import Surface

    surface = Surface(data["name"])
    for cell in data["cells"]:
        surface.put(
            int(cell["subtasks"]),
            int(cell["utilization_percent"]),
            float("nan") if cell["value"] is None else float(cell["value"]),
            ci_half_width=float(cell.get("ci_half_width", 0.0)),
            sample_count=int(cell.get("sample_count", 0)),
        )
    return surface


# ---------------------------------------------------------------------------
# Sweep evaluations (suite persistence / resumable big runs)
# ---------------------------------------------------------------------------


def config_to_dict(config) -> dict[str, Any]:
    """Export a :class:`~repro.workload.config.WorkloadConfig`."""
    from dataclasses import asdict

    return asdict(config)


def config_from_dict(data: dict[str, Any]):
    """Rebuild a workload configuration from :func:`config_to_dict`."""
    from repro.workload.config import WorkloadConfig

    return WorkloadConfig(**data)


def _evaluation_to_dict(record) -> dict[str, Any]:
    return {
        "seed": record.seed,
        "task_count": record.task_count,
        "task_deadlines": list(record.task_deadlines),
        "sa_pm_task_bounds": [
            _encode_bound(b) for b in record.sa_pm_task_bounds
        ],
        "sa_ds_task_bounds": [
            _encode_bound(b) for b in record.sa_ds_task_bounds
        ],
        "sa_ds_failed": record.sa_ds_failed,
        "sa_ds_iterations": record.sa_ds_iterations,
        "average_eer": {
            protocol: [None if math.isnan(v) else v for v in values]
            for protocol, values in record.average_eer.items()
        },
        "output_jitter": {
            protocol: list(values)
            for protocol, values in record.output_jitter.items()
        },
        "precedence_violations": dict(record.precedence_violations),
    }


def _evaluation_from_dict(config, data: dict[str, Any]):
    from repro.experiments.evaluation import SystemEvaluation

    return SystemEvaluation(
        config=config,
        seed=int(data["seed"]),
        task_count=int(data["task_count"]),
        task_deadlines=tuple(float(d) for d in data["task_deadlines"]),
        sa_pm_task_bounds=tuple(
            _decode_bound(b) for b in data["sa_pm_task_bounds"]
        ),
        sa_ds_task_bounds=tuple(
            _decode_bound(b) for b in data["sa_ds_task_bounds"]
        ),
        sa_ds_failed=bool(data["sa_ds_failed"]),
        sa_ds_iterations=int(data["sa_ds_iterations"]),
        average_eer={
            protocol: tuple(
                math.nan if v is None else float(v) for v in values
            )
            for protocol, values in data["average_eer"].items()
        },
        output_jitter={
            protocol: tuple(float(v) for v in values)
            for protocol, values in data["output_jitter"].items()
        },
        precedence_violations={
            protocol: int(count)
            for protocol, count in data["precedence_violations"].items()
        },
    )


def save_evaluations(evaluations, path: str | Path) -> None:
    """Persist a sweep's per-system evaluations as JSON.

    ``evaluations`` is the mapping returned by
    :func:`repro.experiments.runner.sweep_grid` (or its parallel twin);
    loading it back with :func:`load_evaluations` reproduces every
    figure without re-running anything -- the natural checkpoint format
    for paper-scale replications split across sessions or machines.
    """
    document = [
        {
            "config": config_to_dict(config),
            "records": [_evaluation_to_dict(record) for record in records],
        }
        for config, records in evaluations.items()
    ]
    Path(path).write_text(
        json.dumps({"format": "repro-evaluations-v1", "sweeps": document})
        + "\n"
    )


def load_evaluations(path: str | Path):
    """Load a sweep saved by :func:`save_evaluations`."""
    data = json.loads(Path(path).read_text())
    if data.get("format") != "repro-evaluations-v1":
        raise ConfigurationError(
            f"not a repro-evaluations-v1 document "
            f"(format={data.get('format')!r})"
        )
    evaluations = {}
    for entry in data["sweeps"]:
        config = config_from_dict(entry["config"])
        evaluations[config] = tuple(
            _evaluation_from_dict(config, record)
            for record in entry["records"]
        )
    return evaluations


def surface_to_csv(surface: Surface) -> str:
    """The surface as CSV: one row per cell, ready for external plotting."""
    lines = ["subtasks,utilization_percent,value,ci_half_width,sample_count"]
    for cell in surface:
        value = "" if math.isnan(cell.value) else f"{cell.value!r}"
        lines.append(
            f"{cell.subtasks},{cell.utilization_percent},{value},"
            f"{cell.ci_half_width!r},{cell.sample_count}"
        )
    return "\n".join(lines) + "\n"
