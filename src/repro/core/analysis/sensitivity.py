"""Sensitivity analysis: breakdown execution-time scaling.

A classic summary of schedulability margin: the largest factor by which
*all* execution times can be scaled before the system stops being
certifiably schedulable.  A factor above 1 measures headroom; below 1,
the relative overload.  Comparing the factor under SA/PM (the PM/MPM/RG
verdict) against SA/DS (the DS verdict) prices the protocol choice in
capacity terms -- by how much faster a processor must be before DS
becomes certifiable -- turning the paper's Figure-13 bound ratios into
an engineering number.

The search is a bisection over the scaling factor; each probe scales
every subtask's execution time and re-runs the chosen analysis.
Monotonicity (larger executions never help) makes bisection exact up to
the requested tolerance.  The same monotone search and the same probe
dispatch build the per-subtask feasibility regions of
:mod:`repro.regions`: breakdown scaling is their uniform stage.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import sa_ds_schedulable
from repro.core.analysis.sa_pm import sa_pm_schedulable
from repro.errors import ConfigurationError
from repro.model.system import System
from repro.timebase import ABS_EPS, FLOAT, Timebase

__all__ = ["scale_execution_times", "breakdown_scaling"]


def _scale_subtask(stage, factor):
    """One subtask with execution time *and* critical sections scaled.

    Critical sections are intervals of the subtask's own execution, so
    they must scale with it: leaving them fixed would reject any
    downscaling outright (a section ending beyond the shrunken
    execution time is a model error) and silently under-scale the
    blocking terms on upscaling, breaking the proportionality the
    breakdown search relies on.  The end offset is clamped against the
    scaled execution time to absorb the one-ulp float rounding of
    ``start*f + duration*f`` versus ``end*f``.
    """
    execution_time = stage.execution_time * factor
    sections = []
    for section in stage.critical_sections:
        start = section.start * factor
        duration = section.duration * factor
        if start + duration > execution_time:
            duration = execution_time - start
        sections.append(replace(section, start=start, duration=duration))
    return replace(
        stage,
        execution_time=execution_time,
        critical_sections=tuple(sections),
    )


def scale_execution_times(system: System, factor: float) -> System:
    """A copy of ``system`` with every execution time multiplied.

    Critical sections scale proportionally with their subtask, so a
    lock-aware system stays a valid model at every factor and the
    blocking-aware analyses see consistently scaled contention.
    """
    if factor <= 0:
        raise ConfigurationError(f"factor must be > 0, got {factor!r}")
    return system.with_tasks(
        task.with_subtasks(
            tuple(_scale_subtask(stage, factor) for stage in task.subtasks)
        )
        for task in system.tasks
    )


def overloaded(utilization, timebase: Timebase) -> bool:
    """The utilization screen: a processor at or above full load."""
    if timebase.exact:
        return utilization >= 1
    return utilization >= 1.0 - ABS_EPS


def base_verdict(
    compiled: CompiledSystem, analysis: str, sa_ds_max_iterations: int
) -> bool:
    """``analyze_*(system).schedulable`` of a section-free system, read
    from the verdict-only runs without computing every bound."""
    if analysis == "SA/DS":
        return sa_ds_schedulable(
            compiled, max_iterations=sa_ds_max_iterations
        )
    return sa_pm_schedulable(compiled)


def probe_schedulable(
    system: System,
    analysis: str,
    *,
    sa_ds_max_iterations: int,
    timebase: Timebase,
) -> bool:
    """The SA/DS or SA/PM verdict on one concrete system: the
    utilization screen, then the blocking-aware analysis on a sectioned
    system, else verdict-only.  The blocking-aware variants are exactly
    the base analyses on section-free input and are what the admission
    service certifies with, so every caller prices the served verdict."""
    if overloaded(system.max_utilization, timebase):
        return False
    if system.has_critical_sections:
        from repro.locks import analyze_sa_ds_blocking, analyze_sa_pm_blocking

        if analysis == "SA/DS":
            return analyze_sa_ds_blocking(
                system, max_iterations=sa_ds_max_iterations, timebase=timebase
            ).schedulable
        return analyze_sa_pm_blocking(system, timebase=timebase).schedulable
    return base_verdict(
        CompiledSystem(system, timebase), analysis, sa_ds_max_iterations
    )


def bisect_boundary(ok, low, high, tolerance):
    """Bisect ``(low, high]`` down to ``tolerance``; return the verified
    low end.  ``ok(x) -> bool`` is monotone (True up to the boundary).
    A midpoint that rounds onto an end (a float tolerance below the
    ends' spacing) could move neither, so it ends the search."""
    while high - low > tolerance:
        mid = (low + high) / 2
        if not low < mid < high:
            break
        if ok(mid):
            low = mid
        else:
            high = mid
    return low


def largest_uniform_factor(ok, max_factor, tolerance, *, one=1.0):
    """The largest verified factor in ``(0, max_factor]``; zero = none.

    Probes ``max_factor``, seeds the bracket at ``one`` (the common
    case), then bisects.  ``Fraction(1)`` as ``one`` keeps it exact.
    """
    if ok(max_factor):
        return max_factor
    if ok(one):
        return bisect_boundary(ok, one, max_factor, tolerance)
    return bisect_boundary(ok, one - one, one, tolerance)


def breakdown_scaling(
    system: System,
    analysis: str = "SA/PM",
    *,
    tolerance: float = 1e-3,
    max_factor: float = 16.0,
    sa_ds_max_iterations: int = 60,
) -> float:
    """The largest execution-time scaling keeping the system certifiable.

    Returns a factor in ``(0, max_factor]``; 0.0 when the system is
    unschedulable at *any* positive scale the search can resolve (i.e.
    below ``tolerance``).  ``analysis`` is ``"SA/PM"`` or ``"SA/DS"``.
    """
    if analysis not in ("SA/PM", "SA/DS"):
        raise ConfigurationError(
            f"analysis must be 'SA/PM' or 'SA/DS', got {analysis!r}"
        )
    if tolerance <= 0:
        raise ConfigurationError(f"tolerance must be > 0, got {tolerance!r}")
    if max_factor <= 0:
        raise ConfigurationError(
            f"max_factor must be > 0, got {max_factor!r}"
        )
    return largest_uniform_factor(
        lambda factor: probe_schedulable(
            scale_execution_times(system, factor),
            analysis,
            sa_ds_max_iterations=sa_ds_max_iterations,
            timebase=FLOAT,
        ),
        max_factor,
        tolerance,
    )
