"""Golden busy-period kernel records, work counts and OPA assignments.

The corpus under ``tests/corpus/golden_kernel/`` freezes what the
busy-period kernel computes and how much work the analyses built on it
do, so a change to the kernel's code path shows up here even where the
final bounds (``test_analysis_golden.py``) would hide it:

* ``records.json`` -- the ``repr`` of every
  :class:`~repro.core.analysis.busy_period.SubtaskBusyPeriod` that
  :func:`sa_pm_subtask_details` returns, and of
  :func:`analyze_subtask` run with release jitter, a blocking term and
  (on every other subtask) an ``abort_above`` cutoff, on both
  timebases.  The systems are Example 2, the monitor example and one
  system of each of the benchmark's twelve miss cells.
* ``work.json`` -- per miss cell, the kernel runs, busy-period solves
  and demand evaluations that :func:`analyze_sa_ds` and
  :func:`sa_ds_schedulable` make: float over ten systems per cell,
  exact over one.  They are counted at the module names the analyses
  resolve (``sa_ds.busy_period_kernel`` and
  ``busy_period._solve_packed``), so the counting seams stay live.
  ``sum()`` of floats is compensated from Python 3.12 on, so the float
  SA/DS seeds (chain sums) can differ in the last ulp and the float
  runs take other paths to the same bounds: the counts are frozen once
  per summation, ``plain`` (before 3.12) and ``compensated``.  The
  ``locks_*`` cells pin the blocking-aware analyses likewise: ratio-0.1
  critical sections on four of the miss cells, and per protocol the
  kernel runs, solves and demand evaluations of SA/PM+ and SA/DS+ and
  the passes of their deferral loop (analyses run at the names
  :mod:`repro.locks.analysis` resolves), float over three systems per
  cell, exact over one.
* ``opa.json`` -- the priorities :func:`audsley_assignment` returns on
  generated systems, with the default proportional local deadlines
  and with a custom one.

``repr`` keeps the type and the last ulp of every number, so ``5`` vs
``5.0``, ``0.0`` vs ``-0.0`` and a one-ulp drift all count as
differences.

Regenerate after an *intentional* change with::

    PYTHONPATH=src python tests/test_analysis_kernel_golden.py --regenerate

and audit the resulting diff like any other golden-file update.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from repro.core.analysis import busy_period as busy_period_module
from repro.core.analysis import sa_ds as sa_ds_module
from repro.core.analysis import sa_pm as sa_pm_module
from repro.core.analysis.busy_period import CompiledSystem, analyze_subtask
from repro.core.analysis.opa import audsley_assignment
from repro.core.analysis.sa_ds import analyze_sa_ds, sa_ds_schedulable
from repro.core.analysis.sa_pm import sa_pm_subtask_details
from repro.locks import analysis as locks_analysis_module
from repro.locks import (
    LockingConfig,
    analyze_sa_ds_blocking,
    analyze_sa_pm_blocking,
    inject_critical_sections,
)
from repro.timebase import get_timebase
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two, monitor_task_example
from repro.workload.generator import generate_system

CORPUS_DIR = Path(__file__).parent / "corpus" / "golden_kernel"

TIMEBASES = ("float", "exact")

#: The benchmark's miss-compute cells: (subtasks per task, utilization),
#: paper-size systems of 12 tasks on 4 processors.
MISS_CELLS = [(n, u) for n in (2, 3, 4, 5) for u in (0.5, 0.6, 0.7)]

#: Systems per miss cell whose work is counted, per timebase.
WORK_SEEDS = {"float": range(10), "exact": range(1)}

#: Sectioned miss cells: ratio-0.1 critical sections on these cells.
SECTIONED_CELLS = [(n, u) for n in (2, 3) for u in (0.5, 0.6)]

#: Sectioned systems per cell whose work is counted, per timebase.
SECTIONED_SEEDS = {"float": range(3), "exact": range(1)}

#: Which ``sum()`` of floats this interpreter has (see ``work.json``).
SUMMATION = "compensated" if sys.version_info >= (3, 12) else "plain"

#: OPA systems: (subtasks per task, utilization, tasks, processors),
#: each drawn for ``OPA_SEEDS``.
OPA_CONFIGS = ((3, 0.6, 4, 3), (2, 0.7, 6, 2), (3, 0.8, 5, 3))
OPA_SEEDS = range(20)


def _miss_system(n: int, u: float, seed: int):
    return generate_system(
        WorkloadConfig(subtasks_per_task=n, utilization=u), seed
    )


def _sectioned_system(n: int, u: float, seed: int):
    return inject_critical_sections(
        _miss_system(n, u, seed), ratio=0.1, seed=seed
    )


@functools.cache
def record_systems() -> dict:
    """Case name -> system for ``records.json``, in a stable order."""
    systems = {"example2": example_two(), "monitor": monitor_task_example()}
    for n, u in MISS_CELLS:
        systems[f"n{n}_u{round(u * 100)}_seed0"] = _miss_system(n, u, 0)
    return systems


def _subtask_records(system, timebase: str) -> list[str]:
    """``repr`` of the kernel's record for every subtask: SA/PM's, then
    one run per subtask with jitter and blocking, every other one also
    with an ``abort_above`` cutoff of 1.5 periods."""
    records = [
        repr(record)
        for record in sa_pm_subtask_details(
            system, timebase=timebase
        ).values()
    ]
    sids = system.subtask_ids
    jitter = {
        sid: 0.375 * k * system.subtask(sid).execution_time
        for k, sid in enumerate(sids)
    }
    for k, sid in enumerate(sids):
        records.append(
            repr(
                analyze_subtask(
                    system,
                    sid,
                    jitter,
                    blocking=0.25 * system.subtask(sid).execution_time,
                    abort_above=(
                        1.5 * system.period_of(sid) if k % 2 else None
                    ),
                    timebase=get_timebase(timebase),
                )
            )
        )
    return records


def _records() -> dict:
    return {
        f"{name}@{tb}": _subtask_records(system, tb)
        for name, system in record_systems().items()
        for tb in TIMEBASES
    }


@contextmanager
def counted_work():
    """Count SA/PM and SA/DS kernel runs, busy-period solves and demand
    evaluations inside the block, at the names the analyses resolve."""
    counts = {"runs": 0, "solves": 0, "evaluations": 0}
    solve = busy_period_module._solve_packed

    def counted_solve(*args):
        result = solve(*args)
        counts["solves"] += 1
        counts["evaluations"] += result[1]
        return result

    with pytest.MonkeyPatch.context() as patch:
        for module in (sa_pm_module, sa_ds_module):
            kernel = module.busy_period_kernel

            def counted_kernel(*args, kernel=kernel):
                counts["runs"] += 1
                return kernel(*args)

            patch.setattr(module, "busy_period_kernel", counted_kernel)
        patch.setattr(busy_period_module, "_solve_packed", counted_solve)
        yield counts


@contextmanager
def counted_passes(counts: dict):
    """Count the deferral loop's analysis passes into ``counts``, at the
    names :mod:`repro.locks.analysis` resolves."""
    counts["passes"] = 0
    with pytest.MonkeyPatch.context() as patch:
        for name in ("analyze_sa_pm", "analyze_sa_ds"):
            analyze = getattr(locks_analysis_module, name)

            def counted(*args, analyze=analyze, **kwargs):
                counts["passes"] += 1
                return analyze(*args, **kwargs)

            patch.setattr(locks_analysis_module, name, counted)
        yield counts


def _cell_work(n: int, u: float, timebase: str) -> dict:
    tb = get_timebase(timebase)
    work = {}
    for label in ("analyze_sa_ds", "sa_ds_schedulable"):
        with counted_work() as counts:
            for seed in WORK_SEEDS[timebase]:
                system = _miss_system(n, u, seed)
                if label == "analyze_sa_ds":
                    analyze_sa_ds(system, timebase=tb)
                else:
                    sa_ds_schedulable(CompiledSystem(system, tb))
        work[label] = counts
    return work


def _sectioned_cell_work(n: int, u: float, timebase: str) -> dict:
    tb = get_timebase(timebase)
    work = {}
    for label, analyze in (
        ("SA/PM+", analyze_sa_pm_blocking),
        ("SA/DS+", analyze_sa_ds_blocking),
    ):
        for protocol in ("DPCP", "DPCP-p"):
            locking = LockingConfig(protocol)
            with counted_work() as counts, counted_passes(counts):
                for seed in SECTIONED_SEEDS[timebase]:
                    system = _sectioned_system(n, u, seed)
                    analyze(system, locking=locking, timebase=tb)
            work[label + protocol] = counts
    return work


def _work() -> dict:
    work = {
        f"n{n}_u{round(u * 100)}@{tb}": _cell_work(n, u, tb)
        for tb in TIMEBASES
        for n, u in MISS_CELLS
    }
    for tb in TIMEBASES:
        for n, u in SECTIONED_CELLS:
            work[f"locks_n{n}_u{round(u * 100)}@{tb}"] = _sectioned_cell_work(
                n, u, tb
            )
    return work


def _cumulative_deadline(system, sid) -> float:
    """A custom local deadline: the task's deadline prorated by chain
    position, not by execution time."""
    task = system.task_of(sid)
    return task.relative_deadline * (sid.subtask_index + 1) / task.chain_length


def opa_systems() -> dict:
    systems = {}
    for n, u, tasks, processors in OPA_CONFIGS:
        config = WorkloadConfig(
            subtasks_per_task=n,
            utilization=u,
            tasks=tasks,
            processors=processors,
        )
        for seed in OPA_SEEDS:
            name = f"n{n}_u{round(u * 100)}_t{tasks}_p{processors}_seed{seed}"
            systems[name] = generate_system(config, seed)
    return systems


def _priorities(assigned):
    if assigned is None:
        return None
    return [assigned.subtask(sid).priority for sid in assigned.subtask_ids]


def _opa() -> dict:
    return {
        name: {
            "proportional": _priorities(audsley_assignment(system)),
            "cumulative": _priorities(
                audsley_assignment(system, _cumulative_deadline)
            ),
        }
        for name, system in opa_systems().items()
    }


def _frozen(name: str) -> dict:
    return json.loads((CORPUS_DIR / f"{name}.json").read_text())


_RECORD_KEYS = [f"{name}@{tb}" for name in record_systems() for tb in TIMEBASES]


@pytest.mark.parametrize("key", _RECORD_KEYS)
def test_kernel_records_match_golden(key):
    """Every kernel record, repr for repr, on both timebases."""
    name, timebase = key.rsplit("@", 1)
    system = record_systems()[name]
    assert _subtask_records(system, timebase) == _frozen("records")[key]


def test_records_cover_aborts_and_blocking():
    """The frozen records still exercise the cutoff and both paths."""
    frozen = _frozen("records")
    assert set(frozen) == set(_RECORD_KEYS)
    flat = [record for records in frozen.values() for record in records]
    assert sum("aborted=True" in record for record in flat) >= 20
    assert sum("Fraction(" in record for record in flat) >= 20


@pytest.mark.parametrize("cell", [f"n{n}_u{round(u * 100)}" for n, u in MISS_CELLS])
def test_sa_ds_work_matches_golden(cell):
    """Kernel runs, solves and demand evaluations of the full and the
    verdict-only SA/DS over the miss cells are the frozen ones."""
    n, u = next(
        (n, u) for n, u in MISS_CELLS if cell == f"n{n}_u{round(u * 100)}"
    )
    frozen = _frozen("work")[SUMMATION]
    for tb in TIMEBASES:
        assert _cell_work(n, u, tb) == frozen[f"{cell}@{tb}"], tb


@pytest.mark.parametrize(
    "cell", [f"locks_n{n}_u{round(u * 100)}" for n, u in SECTIONED_CELLS]
)
def test_sectioned_work_matches_golden(cell):
    """Kernel runs, solves, demand evaluations and deferral passes of
    SA/PM+ and SA/DS+ under both protocols over the sectioned cells are
    the frozen ones."""
    n, u = next(
        (n, u)
        for n, u in SECTIONED_CELLS
        if cell == f"locks_n{n}_u{round(u * 100)}"
    )
    frozen = _frozen("work")[SUMMATION]
    for tb in TIMEBASES:
        assert _sectioned_cell_work(n, u, tb) == frozen[f"{cell}@{tb}"], tb


def test_opa_assignments_match_golden():
    """Audsley's search returns the frozen priorities (or ``None``)."""
    frozen = _frozen("opa")
    assert _opa() == frozen
    outcomes = [v for entry in frozen.values() for v in entry.values()]
    assert len(frozen) >= 50
    assert any(v is None for v in outcomes)
    assert sum(v is not None for v in outcomes) >= 20


def _work_document() -> dict:
    """``work.json`` with this interpreter's summation regenerated and
    the other one kept."""
    path = CORPUS_DIR / "work.json"
    document = json.loads(path.read_text()) if path.exists() else {}
    document[SUMMATION] = _work()
    return document


def _regenerate() -> None:
    CORPUS_DIR.mkdir(parents=True, exist_ok=True)
    for name, build in (
        ("records", _records),
        ("work", _work_document),
        ("opa", _opa),
    ):
        document = build()
        path = CORPUS_DIR / f"{name}.json"
        path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
        print(f"wrote {path.name}: {len(document)} entries")


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
