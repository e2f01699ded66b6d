"""Golden analysis corpus: every analysis vs frozen bounds, repr for repr.

The corpus under ``tests/corpus/golden_bounds/`` freezes the results of
the schedulability analyses on a fixed set of systems:

* the paper's Example 2;
* corners of the Fig. 12 grid -- light (2, 50%) and heavy (8, 90%)
  configurations at the paper's 12 tasks / 4 processors, the heavy ones
  including systems on which SA/DS trips its failure cutoff;
* generated systems carrying critical sections (``repro.locks``).

Each system gets one JSON file (``<case>.json``) with one entry per
``<analysis>@<timebase>`` pair: SA/PM, SA/DS and skew-aware SA/PM on
every system, plus blocking-aware SA/PM and SA/DS under DPCP and DPCP-p
on the systems with critical sections, each on both the ``float`` and
the ``exact`` timebase.  An entry records the subtask bounds, the task
bounds, ``iterations``, ``failed`` and ``notes``.

Every number is stored as ``"<type>:<repr>"`` and compared as text, so
``0.0`` vs ``-0.0``, a last-ulp float drift and ``int`` vs ``Fraction``
all count as differences.

Regenerate after an *intentional* change to the analyses with::

    PYTHONPATH=src python tests/test_analysis_golden.py --regenerate

and audit the resulting diff like any other golden-file update.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.analysis.skew import analyze_sa_pm_skewed
from repro.locks.analysis import analyze_sa_ds_blocking, analyze_sa_pm_blocking
from repro.locks.config import LockingConfig
from repro.locks.inject import inject_critical_sections
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two
from repro.workload.generator import generate_system

CORPUS_DIR = Path(__file__).parent / "corpus" / "golden_bounds"

TIMEBASES = ("float", "exact")

#: Fig. 12 grid corners: (subtasks per task, utilization %, seed).
GRID_POINTS = ((2, 50, 1), (2, 50, 2), (8, 90, 1), (8, 90, 2))

#: Systems with critical sections: (subtasks, utilization %, seed, ratio).
LOCK_POINTS = ((3, 60, 1, 0.2), (3, 60, 2, 0.3))


def _grid_system(n: int, u_pct: int, seed: int):
    config = WorkloadConfig(
        subtasks_per_task=n,
        utilization=u_pct / 100.0,
        tasks=12,
        processors=4,
    )
    return generate_system(config, seed)


def _lock_system(n: int, u_pct: int, seed: int, ratio: float):
    config = WorkloadConfig(
        subtasks_per_task=n,
        utilization=u_pct / 100.0,
        tasks=6,
        processors=3,
    )
    return inject_critical_sections(
        generate_system(config, seed), ratio=ratio, seed=seed
    )


def corpus_systems() -> dict:
    """Case name -> system, in a stable order."""
    systems = {"example2": example_two()}
    for n, u_pct, seed in GRID_POINTS:
        systems[f"n{n}_u{u_pct}_seed{seed}"] = _grid_system(n, u_pct, seed)
    for n, u_pct, seed, ratio in LOCK_POINTS:
        name = f"locks_n{n}_u{u_pct}_seed{seed}"
        systems[name] = _lock_system(n, u_pct, seed, ratio)
    return systems


def _analyses(system) -> dict:
    """Analysis label -> ``f(system, timebase)`` for one system."""
    analyses = {
        "SA/PM": lambda s, tb: analyze_sa_pm(s, timebase=tb),
        "SA/DS": lambda s, tb: analyze_sa_ds(s, timebase=tb),
        "SA/PM-skew": lambda s, tb: analyze_sa_pm_skewed(
            s, rate=0.001, jump=0.25, timebase=tb
        ),
    }
    if system.has_critical_sections:
        for protocol in ("DPCP", "DPCP-p"):
            locking = LockingConfig(protocol)
            analyses[f"SA/PM+{protocol}"] = (
                lambda s, tb, locking=locking: analyze_sa_pm_blocking(
                    s, locking=locking, timebase=tb
                )
            )
            analyses[f"SA/DS+{protocol}"] = (
                lambda s, tb, locking=locking: analyze_sa_ds_blocking(
                    s, locking=locking, timebase=tb
                )
            )
    return analyses


def _token(value) -> str:
    """A number as ``"<type>:<repr>"``: type and last ulp both count."""
    return f"{type(value).__name__}:{value!r}"


def _record(result) -> dict:
    return {
        "subtask_bounds": {
            str(sid): _token(bound)
            for sid, bound in result.subtask_bounds.items()
        },
        "task_bounds": [_token(bound) for bound in result.task_bounds],
        "iterations": result.iterations,
        "failed": result.failed,
        "notes": list(result.notes),
    }


def _case_path(name: str) -> Path:
    return CORPUS_DIR / f"{name}.json"


_SYSTEMS = corpus_systems()
_ENTRIES = [
    (name, f"{label}@{tb}")
    for name, system in _SYSTEMS.items()
    for label in _analyses(system)
    for tb in TIMEBASES
]


def test_corpus_is_present_and_complete():
    """Exactly the case matrix is frozen on disk, entry for entry."""
    on_disk = {path.stem for path in CORPUS_DIR.glob("*.json")}
    assert on_disk == set(_SYSTEMS), (
        "corpus drifted from the frozen matrix; regenerate with "
        "`PYTHONPATH=src python tests/test_analysis_golden.py "
        "--regenerate` and audit the diff"
    )
    expected: dict[str, set[str]] = {}
    for name, key in _ENTRIES:
        expected.setdefault(name, set()).add(key)
    for name, keys in expected.items():
        frozen = json.loads(_case_path(name).read_text())
        assert set(frozen) == keys, name


def test_corpus_keeps_failures_and_sections():
    """The matrix still holds failing SA/DS runs and blocking-aware runs."""
    failing = blocking = 0
    for name in _SYSTEMS:
        frozen = json.loads(_case_path(name).read_text())
        failing += sum(
            entry["failed"]
            for key, entry in frozen.items()
            if key.startswith("SA/DS@")
        )
        blocking += sum("+DPCP" in key for key in frozen)
    assert failing >= 2
    assert blocking >= 8


@pytest.mark.parametrize(
    "name,key", _ENTRIES, ids=[f"{n}-{k}" for n, k in _ENTRIES]
)
def test_analysis_matches_golden(name, key):
    """Each analysis reproduces its frozen record exactly."""
    label, timebase = key.rsplit("@", 1)
    system = _SYSTEMS[name]
    result = _analyses(system)[label](system, timebase)
    golden = json.loads(_case_path(name).read_text())[key]
    assert _record(result) == golden


def _regenerate() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for stale in CORPUS_DIR.glob("*.json"):
        stale.unlink()
    for name, system in corpus_systems().items():
        document = {
            f"{label}@{tb}": _record(analyze(system, tb))
            for label, analyze in _analyses(system).items()
            for tb in TIMEBASES
        }
        path = _case_path(name)
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(document)} entries")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
