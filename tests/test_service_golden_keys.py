"""Golden key corpus: every admission-request key vs its frozen digest.

Cache keys (:func:`repro.service.hashing.request_key`) are persisted:
sqlite and JSONL decision caches outlive the process that wrote them,
and the load generator's decision digest hashes the ``key`` field of
every decision.  A key that drifts by one byte silently cold-starts
every persisted cache, so ``tests/corpus/golden_keys/keys.json`` freezes
the key of a fixed set of requests:

* resource-free requests (key format v2): the paper's Example 2, a
  generated paper-size system, a hand-built system with phases,
  deadlines and a ``-0.0`` phase, and one built from Python ints;
* every protocol subset shape, each advisor flag, the clock fields and
  a non-default SA/DS iteration budget;
* shared-resource requests (key format v3): a system carrying critical
  sections, and ``shared_resources`` declared on a section-free system;
* exact-timebase systems whose numbers are ``fractions.Fraction`` (with
  and without critical sections), which key through the canonical
  ``"num/den"`` tokens;
* caller metadata (``request_id``, ``tenant``), which must not move a
  key.

Regenerate after an *intentional* key-format change with::

    PYTHONPATH=src python tests/test_service_golden_keys.py --regenerate

and audit the diff: a changed key orphans every persisted entry under
the old one.
"""

from __future__ import annotations

import json
from fractions import Fraction
from pathlib import Path

import pytest

from repro.locks.inject import inject_critical_sections
from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task
from repro.service.hashing import request_key
from repro.service.requests import AdmissionRequest, request_to_dict
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two
from repro.workload.generator import generate_system

CORPUS_FILE = Path(__file__).parent / "corpus" / "golden_keys" / "keys.json"


def _paper_system() -> System:
    return generate_system(
        WorkloadConfig(subtasks_per_task=4, utilization=0.6), 7
    )


def _lock_system() -> System:
    config = WorkloadConfig(
        subtasks_per_task=3, utilization=0.6, tasks=6, processors=3
    )
    return inject_critical_sections(
        generate_system(config, 2), ratio=0.3, seed=2
    )


def _hand_built() -> System:
    return System(
        (
            Task(
                period=10.0,
                phase=1.5,
                deadline=9.25,
                subtasks=(
                    Subtask(2.0, "P1", priority=1, name="sample"),
                    Subtask(3.125, "P2", priority=0),
                ),
                name="pipe",
            ),
            Task(
                period=25.0,
                phase=-0.0,
                subtasks=(Subtask(0.1, "P2", priority=2),),
            ),
        ),
        name="hand-built",
    )


def _int_system() -> System:
    return System(
        (
            Task(
                period=10,
                subtasks=(Subtask(2, "P1"), Subtask(3, "P2", priority=1)),
            ),
        ),
        name="ints",
    )


def _exact_system(sections: bool) -> System:
    critical = (
        (CriticalSection("R1", Fraction(1, 3), Fraction(1, 2)),)
        if sections
        else ()
    )
    return System(
        (
            Task(
                period=Fraction(10),
                phase=Fraction(1, 4),
                deadline=Fraction(19, 2),
                subtasks=(
                    Subtask(Fraction(3, 2), "P1", critical_sections=critical),
                    Subtask(Fraction(7, 3), "P2", priority=1),
                ),
            ),
            Task(
                period=Fraction(35, 2),
                subtasks=(Subtask(Fraction(2), "P2"),),
            ),
        ),
        name="exact",
    )


def corpus_requests() -> dict[str, AdmissionRequest]:
    """Case name -> request, in a stable order."""
    example = example_two()
    paper = _paper_system()
    return {
        "example2": AdmissionRequest(system=example),
        "paper_n4_u60": AdmissionRequest(system=paper),
        "hand_built": AdmissionRequest(system=_hand_built()),
        "int_system": AdmissionRequest(system=_int_system()),
        "protocols_ds": AdmissionRequest(system=paper, protocols=("DS",)),
        "protocols_rg_pm": AdmissionRequest(
            system=paper, protocols=("RG", "PM")
        ),
        "protocols_mpm": AdmissionRequest(system=paper, protocols=("MPM",)),
        "jitter_sensitive": AdmissionRequest(
            system=example, jitter_sensitive=True
        ),
        "wcets_untrusted": AdmissionRequest(
            system=example, wcets_trusted=False
        ),
        "clock_sync_available": AdmissionRequest(
            system=example, clock_sync_available=True
        ),
        "strictly_periodic": AdmissionRequest(
            system=example, strictly_periodic_arrivals=True
        ),
        "unsynchronized_clocks": AdmissionRequest(
            system=paper, synchronized_clocks=False
        ),
        "clock_rate_bound": AdmissionRequest(
            system=paper, clock_rate_bound=1e-4
        ),
        "clock_jump_bound": AdmissionRequest(
            system=paper, clock_jump_bound=0.25
        ),
        "sa_ds_iterations_50": AdmissionRequest(
            system=paper, sa_ds_max_iterations=50
        ),
        "v3_sections": AdmissionRequest(system=_lock_system()),
        "v3_sections_ds_unsynchronized": AdmissionRequest(
            system=_lock_system(),
            protocols=("DS",),
            synchronized_clocks=False,
        ),
        "v3_declared_without_sections": AdmissionRequest(
            system=paper, shared_resources=True
        ),
        "exact_system": AdmissionRequest(system=_exact_system(False)),
        "exact_sections": AdmissionRequest(system=_exact_system(True)),
        "caller_metadata": AdmissionRequest(
            system=example, request_id="r-17", tenant="acme"
        ),
    }


_REQUESTS = corpus_requests()


def _frozen() -> dict[str, str]:
    return json.loads(CORPUS_FILE.read_text())


def test_corpus_is_present_and_complete():
    """Exactly the case matrix is frozen on disk."""
    assert set(_frozen()) == set(_REQUESTS), (
        "corpus drifted from the frozen matrix; regenerate with "
        "`PYTHONPATH=src python tests/test_service_golden_keys.py "
        "--regenerate` and audit the diff"
    )


def test_corpus_covers_both_key_formats():
    """The matrix still holds v2 and v3 requests and exact systems."""
    shared = [r for r in _REQUESTS.values() if r.shared_resources]
    assert len(shared) >= 3
    assert any(not r.system.has_critical_sections for r in shared)
    assert any(
        isinstance(task.period, Fraction)
        for request in _REQUESTS.values()
        for task in request.system.tasks
    )


def test_caller_metadata_does_not_move_the_key():
    frozen = _frozen()
    assert frozen["caller_metadata"] == frozen["example2"]


@pytest.mark.parametrize("name", list(_REQUESTS))
def test_key_matches_golden(name):
    """Each request keys to its frozen digest, byte for byte."""
    assert request_key(_REQUESTS[name]) == _frozen()[name]


@pytest.mark.parametrize("name", list(_REQUESTS))
def test_document_key_matches_golden(name):
    """The request's document keys to the same digest: through JSON as
    on the wire, or in memory where exact values are not JSON."""
    document = request_to_dict(_REQUESTS[name])
    try:
        document = json.loads(json.dumps(document))
    except TypeError:  # Fraction fields
        pass
    assert request_key(document) == _frozen()[name]


def _regenerate() -> None:
    CORPUS_FILE.parent.mkdir(parents=True, exist_ok=True)
    document = {
        name: request_key(request) for name, request in _REQUESTS.items()
    }
    CORPUS_FILE.write_text(json.dumps(document, indent=1) + "\n")
    print(f"wrote {CORPUS_FILE.name}: {len(document)} keys")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
