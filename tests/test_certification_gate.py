"""One certification gate: the region tier decides as the engine does.

:func:`repro.service.engine.certifying_analysis` states which analysis
certifies which protocol, and which shapes exclude a protocol outright.
:func:`~repro.service.engine.compute_decision` and the region tier both
read it, so on a schedulable system a region-backed decision must give
every protocol the same verdict as the direct computation, across every
protocol subset and every clock and resource shape.
"""

from __future__ import annotations

import itertools

import pytest

from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task
from repro.regions.tier import RegionTier
from repro.service.engine import certifying_analysis, compute_decision
from repro.service.requests import ALL_PROTOCOLS, AdmissionRequest

_SUBSETS = [
    subset
    for size in range(1, len(ALL_PROTOCOLS) + 1)
    for subset in itertools.combinations(ALL_PROTOCOLS, size)
]


def _light_system(sections: bool) -> System:
    held = (CriticalSection("R1", 0.0, 0.5),) if sections else ()
    return System(
        (
            Task(
                period=20.0,
                subtasks=(
                    Subtask(1.0, "P1", critical_sections=held),
                    Subtask(1.0, "P2"),
                ),
            ),
            Task(
                period=30.0,
                subtasks=(
                    Subtask(1.0, "P2", critical_sections=held),
                    Subtask(1.5, "P1"),
                ),
            ),
        )
    )


@pytest.mark.parametrize("sections", [False, True], ids=["free", "sectioned"])
@pytest.mark.parametrize("skew", [0.0, 1e-4], ids=["exact", "skewed"])
@pytest.mark.parametrize("synchronized", [True, False], ids=["sync", "unsync"])
@pytest.mark.parametrize("protocols", _SUBSETS, ids="+".join)
def test_region_verdicts_match_compute_decision(
    protocols, synchronized, skew, sections
):
    request = AdmissionRequest(
        system=_light_system(sections),
        protocols=protocols,
        synchronized_clocks=synchronized,
        clock_rate_bound=skew,
        shared_resources=sections,
    )
    # A coarse search keeps the build cheap; its corners are still
    # directly verified, and the request's own point is inside them.
    tier = RegionTier(build_threshold=1, tolerance=0.5, max_factor=2.0)
    tier.build(request)
    regional = tier.lookup(request)
    computed = compute_decision(request)
    assert regional is not None, "the region must cover its own point"
    assert regional.schedulable == computed.schedulable
    assert regional.admitted == computed.admitted


def test_gate_table():
    free = _light_system(False)
    sectioned = _light_system(True)

    def gate(protocol, system=free, **options):
        request = AdmissionRequest(system=system, **options)
        return certifying_analysis(request, protocol)

    assert gate("DS", synchronized_clocks=False, clock_jump_bound=1.0) == (
        "SA/DS"
    )
    assert gate("PM") == "SA/PM"
    assert gate("PM", synchronized_clocks=False) is None
    assert gate("PM", clock_rate_bound=1e-4) is None
    for protocol in ("MPM", "RG"):
        assert gate(protocol, synchronized_clocks=False) == "SA/PM"
        assert gate(protocol, clock_jump_bound=0.1) == "SA/PM-skew"
        assert gate(protocol, sectioned) == "SA/PM"
        assert gate(protocol, sectioned, clock_jump_bound=0.1) is None
