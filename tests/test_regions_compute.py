"""Region construction: verified corners, gating, exact boundaries.

The load-bearing invariant is that every non-``None`` corner is a
*directly verified* point -- ``covers`` then extends the certificate by
monotonicity.  These tests re-probe corners with the same ground truth
the search used (:func:`repro.regions.compute.probe_point`), pin the
shape-level analysis gating, and exercise the exact-timebase boundary
arithmetic the float backend cannot express.
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task
from repro.regions.compute import (
    DEFAULT_MAX_FACTOR,
    DEFAULT_TOLERANCE,
    compute_region,
    probe_point,
    required_analyses,
)
from repro.regions.region import region_from_dict, region_to_dict
from repro.regions.shape import execution_vector, shape_key, system_at
from repro.service.requests import AdmissionRequest
from repro.timebase import get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two
from repro.workload.generator import generate_system


def _light_request(seed: int = 3, **options) -> AdmissionRequest:
    config = WorkloadConfig(
        subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
    )
    return AdmissionRequest(system=generate_system(config, seed), **options)


def _verify_corner(request: AdmissionRequest, region, timebase=None):
    tb = get_timebase(timebase)
    for analysis in region.analyses:
        corner = region.corner(analysis)
        if corner is None:
            continue
        assert probe_point(
            request, analysis, system_at(request.system, corner), tb
        ), f"corner for {analysis} is not directly schedulable"


class TestRequiredAnalyses:
    def test_default_request_needs_both(self):
        assert required_analyses(_light_request()) == ("SA/DS", "SA/PM")

    def test_pm_gated_under_unsynchronized_clocks(self):
        request = _light_request(
            protocols=("PM",), synchronized_clocks=False
        )
        assert required_analyses(request) == ()

    def test_skew_switches_to_inflated_analysis(self):
        request = _light_request(
            protocols=("PM", "MPM", "RG"), clock_rate_bound=1e-4
        )
        assert required_analyses(request) == ("SA/PM-skew",)

    def test_skewed_sectioned_mpm_rg_gated(self):
        stage = Subtask(
            2.0,
            "P1",
            critical_sections=(CriticalSection("R1", 0.0, 1.0),),
        )
        system = System((Task(period=10.0, subtasks=(stage,)),))
        request = AdmissionRequest(
            system=system,
            protocols=("MPM", "RG"),
            shared_resources=True,
            clock_jump_bound=0.1,
        )
        assert required_analyses(request) == ()

    def test_deduplicates_shared_analysis(self):
        request = _light_request(protocols=("PM", "MPM", "RG"))
        assert required_analyses(request) == ("SA/PM",)


class TestComputeRegion:
    def test_corners_are_directly_verified(self):
        request = _light_request()
        region = compute_region(request)
        assert set(region.analyses) == {"SA/PM", "SA/DS"}
        assert region.probes > 0
        _verify_corner(request, region)

    def test_own_point_is_covered_when_schedulable(self):
        request = _light_request()
        region = compute_region(request)
        e0 = execution_vector(request.system)
        tb = get_timebase(None)
        for analysis in region.analyses:
            direct = probe_point(request, analysis, request.system, tb)
            assert region.covers(analysis, e0) == direct

    def test_covers_is_componentwise(self):
        request = _light_request()
        region = compute_region(request)
        corner = region.corner("SA/PM")
        assert corner is not None
        assert region.covers("SA/PM", corner)
        bumped = (corner[0] * 1.01,) + tuple(corner[1:])
        assert not region.covers("SA/PM", bumped)

    def test_ascent_only_grows_the_uniform_seed(self):
        request = _light_request()
        uniform = compute_region(request, ascent_rounds=0)
        ascended = compute_region(request, ascent_rounds=1)
        for analysis in uniform.analyses:
            seed = uniform.corner(analysis)
            grown = ascended.corner(analysis)
            assert seed is not None and grown is not None
            assert all(g >= s for g, s in zip(grown, seed))
        assert ascended.probes > uniform.probes
        _verify_corner(request, ascended)

    def test_overloaded_point_falls_outside_box(self):
        # Two near-full-utilization subtasks on one processor: the
        # request's own point is unschedulable, so the verified box must
        # stop below it (the tier would fall back, not falsely admit).
        system = System(
            (
                Task(period=10.0, subtasks=(Subtask(9.0, "P1"),)),
                Task(period=10.0, subtasks=(Subtask(9.0, "P1"),)),
            )
        )
        request = AdmissionRequest(system=system, protocols=("DS",))
        region = compute_region(request)
        assert region.corner("SA/DS") is not None
        assert not region.covers("SA/DS", execution_vector(system))
        _verify_corner(request, region)

    def test_box_free_shape_has_none_corner(self):
        # An iteration-starved SA/DS never certifies at any scaling:
        # the search records None rather than guessing a corner.
        system = System(
            (
                Task(period=10.0, subtasks=(Subtask(9.0, "P1"),)),
                Task(period=10.0, subtasks=(Subtask(9.0, "P1"),)),
            )
        )
        request = AdmissionRequest(
            system=system, protocols=("DS",), sa_ds_max_iterations=1
        )
        region = compute_region(request)
        assert region.corner("SA/DS") is None
        assert not region.covers("SA/DS", execution_vector(system))

    def test_single_subtask_shape(self, single_task_system):
        request = AdmissionRequest(system=single_task_system)
        region = compute_region(request)
        assert region.dimensions == ("T1,1",)
        _verify_corner(request, region)
        # One subtask, empty deadline slack aside: the verified box must
        # at least reach the task's own point.
        assert region.covers("SA/PM", (3.0,))
        assert region.covers("SA/DS", (3.0,))

    def test_sectioned_request_uses_blocking_analyses(self):
        stage_a = Subtask(
            2.0,
            "P1",
            priority=0,
            critical_sections=(CriticalSection("R1", 0.0, 1.0),),
        )
        stage_b = Subtask(
            3.0,
            "P2",
            priority=0,
            critical_sections=(CriticalSection("R1", 1.0, 1.0),),
        )
        system = System(
            (
                Task(period=20.0, subtasks=(stage_a,)),
                Task(period=30.0, subtasks=(stage_b,)),
            )
        )
        request = AdmissionRequest(system=system, shared_resources=True)
        region = compute_region(request)
        _verify_corner(request, region)
        plain = compute_region(
            AdmissionRequest(system=system, shared_resources=False)
        )
        corner = region.corner("SA/PM")
        free = plain.corner("SA/PM")
        assert corner is not None and free is not None
        # Blocking terms can only shrink the verified box.
        assert all(c <= f + 1e-9 for c, f in zip(corner, free))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tolerance": 0.0},
            {"tolerance": -1.0},
            {"max_factor": 0.0},
            {"ascent_rounds": -1},
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ConfigurationError):
            compute_region(_light_request(), **kwargs)


class TestExactTimebase:
    def test_corners_are_rational(self):
        request = _light_request()
        region = compute_region(request, timebase="exact")
        assert region.timebase == "exact"
        for analysis in region.analyses:
            corner = region.corner(analysis)
            assert corner is not None
            assert all(not isinstance(value, float) for value in corner)
        _verify_corner(request, region, timebase="exact")

    def test_boundary_membership_is_exact(self, single_task_system):
        request = AdmissionRequest(
            system=single_task_system, protocols=("DS",)
        )
        region = compute_region(request, timebase="exact")
        corner = region.corner("SA/DS")
        assert corner is not None
        (u,) = corner
        # The corner itself is in; one part in 10^12 beyond is out --
        # no epsilon window on either side.
        assert region.covers("SA/DS", (u,))
        assert not region.covers(
            "SA/DS", (u * (1 + Fraction(1, 10**12)),)
        )

    def test_exact_region_round_trips_losslessly(self):
        region = compute_region(_light_request(), timebase="exact")
        restored = region_from_dict(region_to_dict(region))
        assert restored == region

    def test_float_region_round_trips(self):
        region = compute_region(_light_request())
        assert region_from_dict(region_to_dict(region)) == region


class TestSearchTermination:
    """Regression: a tolerance finer than the search's scalars can
    resolve used to make the bisection endless."""

    @pytest.mark.parametrize(
        "kwargs", [{"tolerance": 1e-7}, {"max_factor": 1e-7}]
    )
    def test_exact_scalar_rounding_to_zero_is_refused(self, kwargs, within):
        # limit_denominator(2**20) rounds 1e-7 to 0, and Fraction
        # midpoints never meet.
        with within(30), pytest.raises(ConfigurationError, match="2\\*\\*-21"):
            compute_region(
                AdmissionRequest(system=example_two()),
                timebase="exact",
                **kwargs,
            )

    def test_exact_tolerance_above_resolution_builds(self, within):
        request = AdmissionRequest(system=example_two())
        with within(60):
            region = compute_region(request, timebase="exact", tolerance=1e-6)
        _verify_corner(request, region, timebase="exact")

    def test_float_tolerance_below_spacing_ends(
        self, single_task_system, within
    ):
        # Bisection ends meet adjacent floats long before 1e-300; a
        # midpoint that rounds onto an end stops the search.
        request = AdmissionRequest(system=single_task_system)
        with within(30):
            region = compute_region(request, tolerance=1e-300)
        _verify_corner(request, region)
        coarse = compute_region(request)
        for analysis in region.analyses:
            assert region.covers(analysis, coarse.corner(analysis))


class TestDefaults:
    def test_defaults_are_powers_of_two(self):
        # Power-of-two tolerance/cap keep exact bisection denominators
        # small; a drive-by change here would blow up Fraction sizes.
        assert DEFAULT_TOLERANCE == Fraction(1, 64)
        assert float(DEFAULT_MAX_FACTOR) == 16.0
