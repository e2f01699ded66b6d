"""Golden breakdown corpus: frozen breakdown-scaling factors, repr for repr.

The corpus under ``tests/corpus/golden_breakdown/`` freezes what
:func:`repro.core.analysis.sensitivity.breakdown_scaling` returns on a
fixed set of systems:

* the paper's Example 2 and the monitor example (Example 1);
* generated section-free systems of three shapes, two seeds each, the
  densest of which makes SA/DS trip its failure cutoff under a small
  pass budget;
* the same generated systems with critical sections drawn onto them
  (``inject_critical_sections``), so the probes run the blocking-aware
  analyses;
* a search capped at ``max_factor`` and a system no resolvable scaling
  makes schedulable (factor ``0.0``).

Each system is searched under SA/PM and SA/DS at tolerances 1e-2 and
1e-3, SA/DS at pass budgets 2, 4 and 60 (2 fails every multi-subtask
system, 4 binds only part-way up some searches).  A factor is the
verified low end of a bisection, so it pins every verdict the search
asked for, in order.  Factors are stored as ``"<type>:<repr>"`` and
compared as text.

Regenerate after an *intentional* change to the search with::

    PYTHONPATH=src python tests/test_sensitivity_golden.py --regenerate

and audit the resulting diff like any other golden-file update.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.analysis.sensitivity import breakdown_scaling
from repro.locks.inject import inject_critical_sections
from repro.model.system import System
from repro.model.task import Subtask, Task
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two, monitor_task_example
from repro.workload.generator import generate_system

CORPUS_PATH = (
    Path(__file__).parent / "corpus" / "golden_breakdown" / "breakdown.json"
)

#: Generated shapes: (subtasks per task, utilization, tasks, processors).
SHAPES = ((2, 0.5, 4, 2), (3, 0.6, 4, 3), (4, 0.8, 5, 2))

SEEDS = (1, 2)

TOLERANCES = (1e-2, 1e-3)

BUDGETS = (2, 4, 60)


def corpus_systems() -> dict:
    """Case name -> system, in a stable order."""
    systems = {"example2": example_two(), "monitor": monitor_task_example()}
    for n, u, tasks, processors in SHAPES:
        for seed in SEEDS:
            name = f"n{n}_u{round(u * 100)}_seed{seed}"
            system = generate_system(
                WorkloadConfig(
                    subtasks_per_task=n,
                    utilization=u,
                    tasks=tasks,
                    processors=processors,
                ),
                seed,
            )
            systems[name] = system
            systems[f"{name}_sections"] = inject_critical_sections(
                system, ratio=0.3, seed=seed
            )
    return systems


def corpus_searches() -> dict:
    """Entry name -> ``() -> factor``, in a stable order."""
    searches = {}
    for name, system in corpus_systems().items():
        for tolerance in TOLERANCES:
            searches[f"{name}-SA/PM-tol{tolerance}"] = (
                lambda system=system, tolerance=tolerance: breakdown_scaling(
                    system, "SA/PM", tolerance=tolerance
                )
            )
            for budget in BUDGETS:
                searches[f"{name}-SA/DS-b{budget}-tol{tolerance}"] = (
                    lambda system=system, tolerance=tolerance, budget=budget: (
                        breakdown_scaling(
                            system,
                            "SA/DS",
                            tolerance=tolerance,
                            sa_ds_max_iterations=budget,
                        )
                    )
                )
    searches["monitor-SA/PM-capped"] = lambda: breakdown_scaling(
        monitor_task_example(), "SA/PM", max_factor=2.0
    )
    hopeless = System(
        (Task(period=1.0, subtasks=(Subtask(100.0, "A", priority=0),)),)
    )
    for analysis in ("SA/PM", "SA/DS"):
        searches[f"hopeless-{analysis}-zero"] = (
            lambda analysis=analysis: breakdown_scaling(
                hopeless, analysis, tolerance=0.02
            )
        )
    return searches


def _token(value) -> str:
    """A number as ``"<type>:<repr>"``: type and last ulp both count."""
    return f"{type(value).__name__}:{value!r}"


_SEARCHES = corpus_searches()


def test_corpus_is_present_and_complete():
    """Exactly the case matrix is frozen on disk."""
    frozen = json.loads(CORPUS_PATH.read_text())
    assert set(frozen) == set(_SEARCHES), (
        "corpus drifted from the frozen matrix; regenerate with "
        "`PYTHONPATH=src python tests/test_sensitivity_golden.py "
        "--regenerate` and audit the diff"
    )


def test_corpus_keeps_its_edge_cases():
    """The matrix still holds a capped search, a zero factor, factors
    on both sides of 1 and a pass budget that binds part-way up a
    search."""
    frozen = json.loads(CORPUS_PATH.read_text())
    factors = {
        name: float(token.split(":")[1]) for name, token in frozen.items()
    }
    assert factors["monitor-SA/PM-capped"] == 2.0
    assert 0.0 in factors.values()
    assert any(0 < f < 1 for f in factors.values())
    assert any(1 < f < 16 for f in factors.values())
    assert any(
        0 < factors[name] < factors[name.replace("-b4-", "-b60-")]
        for name in factors
        if "-b4-" in name
    )


@pytest.mark.parametrize("name", list(_SEARCHES))
def test_breakdown_matches_golden(name):
    """Each search reproduces its frozen factor exactly."""
    golden = json.loads(CORPUS_PATH.read_text())[name]
    assert _token(_SEARCHES[name]()) == golden


def _regenerate() -> None:
    CORPUS_PATH.parent.mkdir(parents=True, exist_ok=True)
    document = {name: _token(search()) for name, search in _SEARCHES.items()}
    CORPUS_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {CORPUS_PATH.name}: {len(document)} entries")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
