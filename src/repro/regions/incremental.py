"""Incremental region maintenance for add/remove-one-task edits.

Admission traffic at scale is rarely de novo: the common edit is one
task joining or leaving an otherwise unchanged deployment.  Recomputing
the full region from scratch wastes everything already learned about
the surviving dimensions, so :func:`update_region` reuses the cached
corner as a *seed*:

* surviving tasks are aligned between the old and new shape by their
  canonical task-shape token (:func:`repro.regions.shape.task_shape_token`)
  with an order-preserving greedy match; their corner components carry
  over verbatim;
* dimensions of added tasks seed at the request's own execution times;
* the seed is then **re-verified jointly** -- reuse is an optimization,
  never a soundness shortcut.  A seed that fails (an added task can
  invalidate old headroom) shrinks by bisection along the monotone
  segment from the request's own execution vector up to the seed, so
  whenever the request's own point is schedulable the updated region
  still covers it; only when even that point fails does the search
  shrink along the ray ``lambda * seed`` toward the origin;
* coordinate ascent then runs only over the *touched* dimensions: the
  added task's own subtasks, plus every subtask sharing a processor
  (or, for sectioned shapes, a resource) with an added or removed
  task.  Untouched boundaries are inherited, which is where the probe
  savings come from.

When the edit is not an incremental one -- different timebase, changed
options, or the old region simply does not belong to ``old_request`` --
the function falls back to a fresh :func:`~repro.regions.compute.compute_region`,
so callers can use it unconditionally.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from repro.core.analysis.sensitivity import bisect_boundary
from repro.regions.compute import (
    DEFAULT_MAX_FACTOR,
    DEFAULT_TOLERANCE,
    _ascend,
    _Prober,
    _search_scalars,
    compute_region,
    required_analyses,
)
from repro.regions.region import FeasibilityRegion
from repro.regions.shape import (
    SHAPE_OPTIONS,
    dimension_names,
    execution_vector,
    shape_key,
    task_shape_token,
)
from repro.service.requests import AdmissionRequest
from repro.timebase import get_timebase

__all__ = ["update_region"]

def _match_tasks(old_system, new_system) -> dict[int, int | None]:
    """Order-preserving alignment of new task indices to old ones.

    Returns ``{new_index: old_index | None}``; ``None`` marks an added
    task.  Old indices absent from the values are removed tasks.
    """
    old_tokens = [task_shape_token(task) for task in old_system.tasks]
    mapping: dict[int, int | None] = {}
    cursor = 0
    for new_index, task in enumerate(new_system.tasks):
        token = task_shape_token(task)
        found = None
        for old_index in range(cursor, len(old_tokens)):
            if old_tokens[old_index] == token:
                found = old_index
                cursor = old_index + 1
                break
        mapping[new_index] = found
    return mapping


def _task_dims(system) -> list[tuple[int, ...]]:
    """Per task: the region dimension indices of its subtasks."""
    dims: list[tuple[int, ...]] = []
    cursor = 0
    for task in system.tasks:
        dims.append(tuple(range(cursor, cursor + task.chain_length)))
        cursor += task.chain_length
    return dims


def _touched_dimensions(old_system, new_system, mapping) -> set[int]:
    """New-shape dimensions whose boundaries the edit can move."""
    added = [i for i, old in mapping.items() if old is None]
    matched_old = {old for old in mapping.values() if old is not None}
    removed = [
        i for i in range(len(old_system.tasks)) if i not in matched_old
    ]
    processors: set[str] = set()
    resources: set[str] = set()
    edited = [new_system.tasks[i] for i in added]
    edited += [old_system.tasks[i] for i in removed]
    for task in edited:
        for stage in task.subtasks:
            processors.add(stage.processor)
            resources.update(s.resource for s in stage.critical_sections)
    touched: set[int] = set()
    new_dims = _task_dims(new_system)
    for new_index, task in enumerate(new_system.tasks):
        for offset, stage in enumerate(task.subtasks):
            if (
                mapping[new_index] is None
                or stage.processor in processors
                or any(s.resource in resources for s in stage.critical_sections)
            ):
                touched.add(new_dims[new_index][offset])
    return touched


def _grow_from_base(ok, base, seed, tolerance, one):
    """Largest verified point on the segment ``base -> max(seed, base)``.

    Every component is non-decreasing in the interpolation parameter,
    so monotonicity makes the verdict monotone in ``lambda`` and a
    bisection finds the boundary.  Returns ``None`` when even ``base``
    itself fails (the caller then falls back to the origin ray).
    """
    top = tuple(s if s > b else b for s, b in zip(seed, base))

    def at(factor):
        return tuple(
            b + (t - b) * factor for b, t in zip(base, top)
        )

    if ok(at(one)):
        return at(one)
    if not ok(base):
        return None
    return at(bisect_boundary(lambda f: ok(at(f)), one - one, one, tolerance))


def _shrink_to_verified(ok, seed, tolerance, one):
    """Largest verified point on the ray ``lambda * seed``, or None.

    Monotonicity makes the ray's verdict monotone in ``lambda``, so a
    bisection over ``(0, 1]`` finds the boundary; the returned point
    was directly probed schedulable.
    """

    def at(factor):
        return tuple(value * factor for value in seed)

    low = bisect_boundary(lambda f: ok(at(f)), one - one, one, tolerance)
    return at(low) if low > 0 else None


def update_region(
    region: FeasibilityRegion,
    old_request: AdmissionRequest,
    new_request: AdmissionRequest,
    *,
    timebase=None,
    tolerance: float = DEFAULT_TOLERANCE,
    max_factor: float = DEFAULT_MAX_FACTOR,
    ascent_rounds: int = 1,
) -> FeasibilityRegion:
    """The new request's region, reusing ``region`` where it can.

    ``region`` must be ``old_request``'s region; the edit from
    ``old_request`` to ``new_request`` is analyzed for reusable
    dimensions as described in the module docstring.  The result is
    always a fully verified region for the *new* shape -- soundness
    never depends on the reuse heuristics.
    """
    tb = get_timebase(timebase)
    tol, cap, one = _search_scalars(
        tolerance, max_factor, ascent_rounds, tb.exact
    )

    def fresh() -> FeasibilityRegion:
        return compute_region(
            new_request,
            timebase=tb,
            tolerance=tolerance,
            max_factor=max_factor,
            ascent_rounds=ascent_rounds,
        )

    if region.timebase != tb.name:
        return fresh()
    if region.shape_key != shape_key(old_request):
        return fresh()
    if any(
        getattr(old_request, name) != getattr(new_request, name)
        for name in SHAPE_OPTIONS
    ):
        return fresh()
    new_key = shape_key(new_request)
    if new_key == region.shape_key:
        return region

    old_system = old_request.system
    new_system = new_request.system
    mapping = _match_tasks(old_system, new_system)
    old_dims = _task_dims(old_system)
    touched = _touched_dimensions(old_system, new_system, mapping)
    e0 = tuple(tb.convert(e) for e in execution_vector(new_system))
    prober = _Prober(new_request, tb)
    corners: dict[str, tuple | None] = {}
    for analysis in required_analyses(new_request):
        ok = partial(prober, analysis)
        old_corner = region.corners.get(analysis)
        if old_corner is None:
            # Nothing to reuse: a removal can resurrect a shape whose
            # old search found no box, so search from scratch.
            fresh_region = fresh()
            return replace(
                fresh_region, probes=fresh_region.probes + prober.count
            )
        # Seed: carry surviving components over, cap at the growth
        # ceiling of the new request's own execution times.
        seed = []
        cursor = 0
        for new_index, task in enumerate(new_system.tasks):
            old_index = mapping[new_index]
            for offset in range(task.chain_length):
                base = e0[cursor]
                if old_index is None:
                    value = base
                else:
                    value = tb.convert(
                        old_corner[old_dims[old_index][offset]]
                    )
                    ceiling = base * cap
                    if value > ceiling:
                        value = ceiling
                seed.append(value)
                cursor += 1
        seed = tuple(seed)
        if ok(seed):
            corner = seed
        else:
            # Prefer the segment anchored at the request's own point:
            # if that point is schedulable the updated region keeps
            # covering it.  Only an unschedulable anchor falls back to
            # the origin ray.
            corner = _grow_from_base(ok, e0, seed, tol, one)
            if corner is None:
                corner = _shrink_to_verified(ok, seed, tol, one)
        if corner is None:
            corners[analysis] = None
            continue
        if ascent_rounds and touched:
            corner = _ascend(
                ok,
                corner,
                e0,
                cap,
                tol,
                ascent_rounds,
                dimensions=sorted(touched),
            )
        corners[analysis] = corner
    return FeasibilityRegion(
        shape_key=new_key,
        timebase=tb.name,
        dimensions=dimension_names(new_system),
        corners=corners,
        probes=prober.count,
    )
