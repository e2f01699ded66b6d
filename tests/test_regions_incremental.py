"""Incremental region maintenance: reuse is never a soundness shortcut.

``update_region`` must return a fully verified region for the *new*
shape no matter how the edit relates to the cached one -- the reuse
heuristics only decide how many probes that costs.  These tests cover
the add-one/remove-one fast paths (fewer probes than a fresh build),
the identity and fallback paths, and re-verify every corner directly.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError
from repro.model.system import System
from repro.model.task import Subtask, Task
from repro.regions.compute import compute_region, probe_point
from repro.regions.incremental import update_region
from repro.regions.shape import execution_vector, shape_key, system_at
from repro.service.requests import AdmissionRequest
from repro.timebase import get_timebase


def _task(period: float, executions, processor_cycle=("P1", "P2")):
    return Task(
        period=period,
        subtasks=tuple(
            Subtask(e, processor_cycle[i % len(processor_cycle)], priority=i)
            for i, e in enumerate(executions)
        ),
    )


def _base_system() -> System:
    return System(
        (
            _task(20.0, (2.0, 3.0)),
            _task(40.0, (4.0, 2.0)),
            _task(80.0, (5.0,), ("P3",)),
        ),
        name="incremental-base",
    )


def _with_extra_task(system: System) -> System:
    return system.with_tasks(tuple(system.tasks) + (_task(60.0, (3.0,), ("P3",)),))


def _verified(request: AdmissionRequest, region) -> None:
    tb = get_timebase(None)
    assert region.shape_key == shape_key(request)
    for analysis in region.analyses:
        corner = region.corner(analysis)
        if corner is None:
            continue
        assert probe_point(
            request, analysis, system_at(request.system, corner), tb
        ), f"updated corner for {analysis} is not directly schedulable"


class TestAddRemove:
    def test_add_one_task_reuses_and_stays_sound(self):
        old = AdmissionRequest(system=_base_system())
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        cached = compute_region(old)
        updated = update_region(cached, old, new)
        _verified(new, updated)
        fresh = compute_region(new)
        assert updated.probes < fresh.probes
        # The reused region is no worse than a fresh build at the
        # request's own point.
        e0 = execution_vector(new.system)
        for analysis in fresh.analyses:
            if fresh.covers(analysis, e0):
                assert updated.covers(analysis, e0)

    def test_remove_one_task_reuses_and_stays_sound(self):
        old = AdmissionRequest(system=_with_extra_task(_base_system()))
        new = AdmissionRequest(system=_base_system())
        cached = compute_region(old)
        updated = update_region(cached, old, new)
        _verified(new, updated)
        assert updated.probes < compute_region(new).probes

    def test_untouched_dimensions_inherit_their_boundary(self):
        # The third task lives alone on P3; adding a task on P3 touches
        # only its dimensions, so the P1/P2 boundaries carry over.
        old = AdmissionRequest(system=_base_system())
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        cached = compute_region(old)
        updated = update_region(cached, old, new)
        old_corner = cached.corner("SA/PM")
        new_corner = updated.corner("SA/PM")
        assert old_corner is not None and new_corner is not None
        # Dimensions 0-3 (tasks on P1/P2) are untouched by the edit.
        for k in range(4):
            assert new_corner[k] == min(old_corner[k], new_corner[k])

    def test_added_dimension_is_grown(self):
        old = AdmissionRequest(system=_base_system())
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        cached = compute_region(old)
        updated = update_region(cached, old, new)
        corner = updated.corner("SA/PM")
        assert corner is not None
        # The new task's dimension (last) seeds at e0 and then ascends;
        # it must at least reach its own execution time.
        assert corner[-1] >= execution_vector(new.system)[-1]


class TestFallbacks:
    def test_same_shape_returns_the_cached_region(self):
        old = AdmissionRequest(system=_base_system())
        cached = compute_region(old)
        rescaled = AdmissionRequest(
            system=system_at(
                _base_system(),
                tuple(0.5 * e for e in execution_vector(_base_system())),
            )
        )
        assert shape_key(old) == shape_key(rescaled)
        assert update_region(cached, old, rescaled) is cached

    def test_option_change_falls_back_fresh(self):
        old = AdmissionRequest(system=_base_system())
        cached = compute_region(old)
        new = AdmissionRequest(system=_base_system(), protocols=("DS",))
        updated = update_region(cached, old, new)
        _verified(new, updated)
        assert updated.analyses == ("SA/DS",)

    def test_timebase_mismatch_falls_back_fresh(self):
        old = AdmissionRequest(system=_base_system())
        cached = compute_region(old)  # float region
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        updated = update_region(cached, old, new, timebase="exact")
        assert updated.timebase == "exact"
        assert updated.shape_key == shape_key(new)

    def test_foreign_region_falls_back_fresh(self):
        old = AdmissionRequest(system=_base_system())
        other = AdmissionRequest(system=_with_extra_task(_base_system()))
        cached = compute_region(other)  # not old's region
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        updated = update_region(cached, old, new)
        _verified(new, updated)

    def test_exact_update_stays_rational(self):
        old = AdmissionRequest(system=_base_system())
        cached = compute_region(old, timebase="exact")
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        updated = update_region(cached, old, new, timebase="exact")
        _verified_exact = get_timebase("exact")
        for analysis in updated.analyses:
            corner = updated.corner(analysis)
            assert corner is not None
            assert all(not isinstance(v, float) for v in corner)
            assert probe_point(
                new,
                analysis,
                system_at(new.system, corner),
                _verified_exact,
            )

    def test_exact_tolerance_rounding_to_zero_is_refused(self, within):
        old = AdmissionRequest(system=_base_system())
        cached = compute_region(old, timebase="exact")
        new = AdmissionRequest(system=_with_extra_task(_base_system()))
        with within(30), pytest.raises(ConfigurationError):
            update_region(cached, old, new, timebase="exact", tolerance=1e-7)
