"""Golden region-build corpus: frozen corners and probe counts.

The corpus under ``tests/corpus/golden_regions/`` freezes what
:func:`repro.regions.compute.compute_region` (and, for one edit,
:func:`repro.regions.incremental.update_region`) builds for a fixed set
of shapes: every analysis' corner and the number of probes the search
spent.  A probe is a yes/no question, so the corners and the probe
count pin every verdict the search asked for, in order.  The shapes:

* a light generated shape and one with explicit deadlines below the
  periods, on both timebases;
* a shape with integer execution times and periods, on both timebases
  (the search's points compare equal to the request's own times there);
* a sectioned shape under ``shared_resources`` (blocking-aware probes);
* a shape under a clock-skew envelope (skew-inflated probes);
* a shape no scaling can make schedulable (no box);
* a single-subtask shape;
* a shape whose search trips SA/DS's failure cutoff;
* an add-one-task edit through ``update_region``;
* the 12 set-up builds of the benchmark's ``mixed-durable`` workload at
  seed 1 (each built from the shape's scaled-down variant, the request
  that trips the build).

Every corner component is stored as ``"<type>:<repr>"`` and compared
as text, so a last-ulp drift or ``int`` vs ``Fraction`` is a
difference.

Regenerate after an *intentional* change to the region search with::

    PYTHONPATH=src python tests/test_regions_golden.py --regenerate

and audit the resulting diff like any other golden-file update.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.analysis.sensitivity import scale_execution_times
from repro.locks.inject import inject_critical_sections
from repro.model.system import System
from repro.model.task import Subtask, Task
from repro.regions.compute import compute_region
from repro.regions.incremental import update_region
from repro.service.engine import compute_decision
from repro.service.requests import AdmissionRequest
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

CORPUS_DIR = Path(__file__).parent / "corpus" / "golden_regions"

TIMEBASES = ("float", "exact")


def _generated(n: int, u: float, tasks: int, processors: int, seed: int):
    config = WorkloadConfig(
        subtasks_per_task=n,
        utilization=u,
        tasks=tasks,
        processors=processors,
    )
    return generate_system(config, seed)


def _tight_deadlines(system: System) -> System:
    return system.with_tasks(
        replace(task, deadline=task.period * 0.8) for task in system.tasks
    )


def _integer_system() -> System:
    return System(
        (
            Task(10, (Subtask(2, "P1", 1), Subtask(3, "P2", 1)), deadline=15),
            Task(20, (Subtask(4, "P2", 0), Subtask(5, "P1", 0))),
            Task(40, (Subtask(6, "P1", 2),), deadline=30),
        )
    )


def _box_free_system() -> System:
    # Even 1/64 of the execution time overruns the deadline.
    return System(
        (
            Task(10.0, (Subtask(5.0, "P1"),), deadline=0.01),
            Task(20.0, (Subtask(2.0, "P1"),)),
        )
    )


def mixed_durable_requests(seed: int = 1, shapes: int = 12) -> list:
    """The requests that trip the set-up region builds of the
    ``mixed-durable`` benchmark workload: per shape, the base scaled by
    0.75 (the same generator draws as the workload's input builder)."""
    rng = random.Random(seed)
    bases: list[System] = []
    while len(bases) < shapes:
        system = generate_system(
            WorkloadConfig(
                subtasks_per_task=2,
                utilization=(0.5, 0.6)[len(bases) % 2],
                tasks=4,
                processors=2,
            ),
            rng.randrange(2**32),
        )
        decision = compute_decision(AdmissionRequest(system=system))
        if all(decision.schedulable.values()):
            bases.append(system)
    return [
        AdmissionRequest(system=scale_execution_times(base, 0.75))
        for base in bases
    ]


def _with_extra_task(system: System) -> System:
    extra = Task(
        system.tasks[0].period * 2,
        (Subtask(1.0, "P1", 5), Subtask(1.0, "P2", 5)),
    )
    return system.with_tasks(system.tasks + (extra,))


def corpus_builds() -> dict:
    """Case name -> ``() -> FeasibilityRegion``, in a stable order."""
    light = _generated(2, 0.5, 3, 2, 3)
    requests = {
        "light": AdmissionRequest(system=light),
        "tight_deadlines": AdmissionRequest(
            system=_tight_deadlines(_generated(2, 0.6, 4, 2, 5))
        ),
        "integers": AdmissionRequest(system=_integer_system()),
        "sectioned": AdmissionRequest(
            system=inject_critical_sections(
                _generated(2, 0.5, 3, 2, 4), ratio=0.3, seed=4
            ),
            shared_resources=True,
        ),
        "skewed": AdmissionRequest(
            system=light, clock_rate_bound=1e-4, clock_jump_bound=0.1
        ),
        "box_free": AdmissionRequest(system=_box_free_system()),
        "single_subtask": AdmissionRequest(
            system=System((Task(10.0, (Subtask(3.0, "P1"),)),))
        ),
        "cutoff_tripping": AdmissionRequest(
            system=_generated(3, 0.8, 3, 2, 1), protocols=("DS",)
        ),
    }
    builds = {}
    for name, request in requests.items():
        for tb in TIMEBASES:
            builds[f"{name}@{tb}"] = (
                lambda request=request, tb=tb: compute_region(
                    request, timebase=tb
                )
            )
    grown = AdmissionRequest(system=_with_extra_task(light))
    for tb in TIMEBASES:
        builds[f"incremental@{tb}"] = (
            lambda tb=tb: update_region(
                compute_region(requests["light"], timebase=tb),
                requests["light"],
                grown,
                timebase=tb,
            )
        )
    for index, request in enumerate(mixed_durable_requests()):
        builds[f"mixed_durable_seed1_{index}@float"] = (
            lambda request=request: compute_region(request)
        )
    return builds


def _token(value) -> str:
    """A number as ``"<type>:<repr>"``: type and last ulp both count."""
    return f"{type(value).__name__}:{value!r}"


def _record(region) -> dict:
    return {
        "shape_key": region.shape_key,
        "timebase": region.timebase,
        "dimensions": list(region.dimensions),
        "corners": {
            analysis: None
            if corner is None
            else [_token(value) for value in corner]
            for analysis, corner in region.corners.items()
        },
        "probes": region.probes,
    }


CORPUS_PATH = CORPUS_DIR / "regions.json"

_BUILDS = corpus_builds()


def test_corpus_is_present_and_complete():
    """Exactly the case matrix is frozen on disk."""
    frozen = json.loads(CORPUS_PATH.read_text())
    assert set(frozen) == set(_BUILDS), (
        "corpus drifted from the frozen matrix; regenerate with "
        "`PYTHONPATH=src python tests/test_regions_golden.py "
        "--regenerate` and audit the diff"
    )


def test_corpus_keeps_its_edge_cases():
    """The matrix still holds a box-free analysis, blocking-aware and
    skew-inflated corners, and both timebases."""
    frozen = json.loads(CORPUS_PATH.read_text())
    corners = [entry["corners"] for entry in frozen.values()]
    assert any(None in c.values() for c in corners)
    assert any("SA/PM-skew" in c for c in corners)
    assert {entry["timebase"] for entry in frozen.values()} == set(TIMEBASES)


@pytest.mark.parametrize("name", list(_BUILDS))
def test_region_build_matches_golden(name):
    """Each build reproduces its frozen corners and probe count."""
    golden = json.loads(CORPUS_PATH.read_text())[name]
    assert _record(_BUILDS[name]()) == golden


def _regenerate() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    document = {name: _record(build()) for name, build in _BUILDS.items()}
    CORPUS_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH.name}: {len(document)} entries")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
