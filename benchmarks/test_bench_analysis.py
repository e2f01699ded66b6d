"""Benchmark E4 + analysis micro-benchmarks.

Pins the worked Section 4.3 numbers on Example 2, measures the
throughput of both schedulability analyses on paper-sized systems, and
prints where a miss's analysis time goes, sectioned misses included
(``test_analysis_cost_table``).
"""

from __future__ import annotations

import time

import pytest

from repro.core.analysis import busy_period as busy_period_module
from repro.core.analysis import sa_ds as sa_ds_module
from repro.core.analysis import sa_pm as sa_pm_module
from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import analyze_sa_ds, ieert_pass, initial_ieer_bounds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.locks import (
    analyze_sa_ds_blocking,
    analyze_sa_pm_blocking,
    inject_critical_sections,
)
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two
from repro.workload.generator import generate_system

from conftest import save_and_print


def test_sa_pm_example2_bounds(benchmark):
    system = example_two()
    result = benchmark(lambda: analyze_sa_pm(system))
    assert result.task_bounds == pytest.approx((2.0, 7.0, 5.0))
    save_and_print("sa_pm_example2", result.describe())


def test_sa_ds_example2_bound(benchmark):
    """Section 4.3's worked example.

    The paper prints "7" for T3's SA/DS bound, but its own Figure 3
    shows T3 responding in 8 time units, so a correct bound cannot be
    below 8; Algorithm IEERT as printed yields exactly 8 (tight).  See
    EXPERIMENTS.md for the discrepancy note.
    """
    system = example_two()
    result = benchmark(lambda: analyze_sa_ds(system))
    assert result.task_bounds[2] == pytest.approx(8.0)
    assert not result.is_task_schedulable(2)  # paper's conclusion: 8 > 6
    save_and_print("sa_ds_example2", result.describe())


def test_sa_pm_throughput_paper_sized_system(benchmark):
    """SA/PM over one 12-task, 4-processor, 5-stage system."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), seed=0
    )
    result = benchmark(lambda: analyze_sa_pm(system))
    assert result.all_finite


def test_sa_ds_throughput_paper_sized_system(benchmark):
    """Full SA/DS fixed point over one converging (5,70) system."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=5, utilization=0.7), seed=0
    )
    result = benchmark.pedantic(
        lambda: analyze_sa_ds(system), rounds=3, iterations=1
    )
    assert not result.failed


def test_ieert_single_pass_throughput(benchmark):
    """One IEERT pass (the inner loop of SA/DS) on a (8,80) system."""
    system = generate_system(
        WorkloadConfig(subtasks_per_task=8, utilization=0.8), seed=3
    )
    seeds = initial_ieer_bounds(system)
    bounds = benchmark(lambda: ieert_pass(system, seeds))
    assert all(bounds[sid] >= seeds[sid] - 1e-9 for sid in seeds)


#: The benchmark's miss-compute cells: (subtasks per task, utilization),
#: paper-size systems of 12 tasks on 4 processors; ten seeds each.
MISS_CELLS = [(n, u) for n in (2, 3, 4, 5) for u in (0.5, 0.6, 0.7)]

#: Sectioned miss cells: ratio-0.1 critical sections on the n in {2, 3},
#: u in {0.5, 0.6} cells, three seeds each -- the float systems of the
#: sectioned cells in ``tests/corpus/golden_kernel/work.json``.
SECTIONED_CELLS = [(n, u) for n in (2, 3) for u in (0.5, 0.6)]


def _best_total(rounds: int, thunks) -> float:
    """Best-of-``rounds`` wall time of running every thunk once."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for thunk in thunks:
            thunk()
        best = min(best, time.perf_counter() - start)
    return best


def _decision_times(rounds: int, systems) -> tuple[float, float]:
    """Best-of-``rounds`` SA/PM and SA/DS wall times over ``systems``,
    each decision as ``compute_decision`` runs it: a fresh compilation,
    SA/PM on it, then SA/DS on it (seeded with SA/PM's fixed points)."""
    best_pm = best_ds = float("inf")
    clock = time.perf_counter
    for _ in range(rounds):
        sa_pm_s = sa_ds_s = 0.0
        for system in systems:
            compiled = CompiledSystem(system)
            start = clock()
            analyze_sa_pm(system, compiled=compiled)
            middle = clock()
            analyze_sa_ds(system, compiled=compiled)
            sa_pm_s += middle - start
            sa_ds_s += clock() - middle
        best_pm, best_ds = min(best_pm, sa_pm_s), min(best_ds, sa_ds_s)
    return best_pm, best_ds


def test_analysis_cost_table(monkeypatch):
    """Where a miss's analysis time goes, on the 120 miss-cell systems.

    Report-only (no floor): compile, SA/PM and SA/DS time per decision
    as ``compute_decision`` runs them (a fresh float compilation per
    decision, SA/PM then SA/DS on it); the kernel runs, busy-period
    solves and demand evaluations they make, and SA/DS's kernel runs and
    evaluations with and without SA/PM's seeds; and the time per kernel
    run, split into the solver (the recorded solves replayed on their
    own) and the rest (the kernel's own steps and the drivers around
    it).  Then SA/PM+ and SA/DS+ (DPCP, float) time per decision on the
    sectioned cells.
    """
    systems = [
        generate_system(WorkloadConfig(subtasks_per_task=n, utilization=u), seed)
        for n, u in MISS_CELLS
        for seed in range(10)
    ]
    rounds = 5
    compile_s = _best_total(
        rounds, [lambda s=s: CompiledSystem(s) for s in systems]
    )
    sa_pm_s, sa_ds_s = _decision_times(rounds, systems)

    # Counted passes: every kernel run, and every solve's arguments.
    counts = {"runs": 0, "evaluations": 0}
    solves: list[tuple] = []
    solve = busy_period_module._solve_packed

    def counted_solve(*args):
        result = solve(*args)
        solves.append(args)
        counts["evaluations"] += result[1]
        return result

    for module in (sa_pm_module, sa_ds_module):
        kernel = module.busy_period_kernel

        def counted_kernel(*args, kernel=kernel):
            counts["runs"] += 1
            return kernel(*args)

        monkeypatch.setattr(module, "busy_period_kernel", counted_kernel)
    monkeypatch.setattr(busy_period_module, "_solve_packed", counted_solve)
    sa_ds_work = {}
    for s in systems:
        compiled = CompiledSystem(s)
        analyze_sa_pm(s, compiled=compiled)
        before = dict(counts)
        analyze_sa_ds(s, compiled=compiled)
        for name, value in counts.items():
            key = ("seeded", name)
            sa_ds_work[key] = sa_ds_work.get(key, 0) + value - before[name]
    runs, evaluations = counts["runs"], counts["evaluations"]
    replayed = list(solves)
    for s in systems:
        before = dict(counts)
        analyze_sa_ds(s)
        for name, value in counts.items():
            key = ("unseeded", name)
            sa_ds_work[key] = sa_ds_work.get(key, 0) + value - before[name]
    monkeypatch.undo()
    solver_s = _best_total(
        rounds, [lambda: [solve(*args) for args in replayed]]
    )

    count = len(systems)
    per_run = (sa_pm_s + sa_ds_s) / runs * 1e6
    solver_per_run = solver_s / runs * 1e6
    lines = [
        f"analysis cost over {count} miss-cell systems (float, fresh "
        f"compilation per decision, best of {rounds})",
        f"  compile {compile_s / count * 1e6:8.1f} us/decision",
        f"  SA/PM   {sa_pm_s / count * 1e6:8.1f} us/decision",
        f"  SA/DS   {sa_ds_s / count * 1e6:8.1f} us/decision",
        f"  kernel runs {runs}, solves {len(replayed)}, "
        f"demand evaluations {evaluations}",
        "  SA/DS kernel runs seeded "
        f"{sa_ds_work['seeded', 'runs']}, unseeded "
        f"{sa_ds_work['unseeded', 'runs']}; demand evaluations seeded "
        f"{sa_ds_work['seeded', 'evaluations']}, unseeded "
        f"{sa_ds_work['unseeded', 'evaluations']}",
        f"  per kernel run {per_run:6.2f} us = solver {solver_per_run:5.2f}"
        f" + rest {per_run - solver_per_run:5.2f}",
    ]
    sectioned = [
        inject_critical_sections(
            generate_system(
                WorkloadConfig(subtasks_per_task=n, utilization=u), seed
            ),
            ratio=0.1,
            seed=seed,
        )
        for n, u in SECTIONED_CELLS
        for seed in range(3)
    ]
    sa_pm_plus_s = _best_total(
        rounds, [lambda s=s: analyze_sa_pm_blocking(s) for s in sectioned]
    )
    sa_ds_plus_s = _best_total(
        rounds, [lambda s=s: analyze_sa_ds_blocking(s) for s in sectioned]
    )
    lines += [
        f"sectioned miss cells, {len(sectioned)} systems (ratio 0.1, DPCP, "
        f"float, best of {rounds})",
        f"  SA/PM+  {sa_pm_plus_s / len(sectioned) * 1e6:8.1f} us/decision",
        f"  SA/DS+  {sa_ds_plus_s / len(sectioned) * 1e6:8.1f} us/decision",
    ]
    save_and_print("analysis_cost", "\n".join(lines))
    assert runs > 0 and replayed
