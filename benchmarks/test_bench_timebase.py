"""Timebase micro-benchmarks: the price of exact arithmetic.

The ``float`` backend is the default precisely because it is the fast
path; the ``exact`` backend buys tolerance-free semantics with rational
arithmetic.  These benchmarks pin the contract from the change that
introduced the layer: the float path is unregressed (it *is* the
historical code), and exact analysis stays within 5x of float on
paper-sized systems.
"""

from __future__ import annotations

import time

from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.timebase import EXACT
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

from conftest import save_and_print

_CONFIG = WorkloadConfig(subtasks_per_task=5, utilization=0.7)


def test_sa_pm_exact_throughput(benchmark):
    """SA/PM under the exact backend, paper-sized system."""
    system = generate_system(_CONFIG, seed=0)
    result = benchmark(lambda: analyze_sa_pm(system, timebase=EXACT))
    assert result.all_finite


def test_sa_ds_exact_throughput(benchmark):
    """Full SA/DS fixed point under the exact backend."""
    system = generate_system(_CONFIG, seed=0)
    result = benchmark.pedantic(
        lambda: analyze_sa_ds(system, timebase=EXACT), rounds=3, iterations=1
    )
    assert not result.failed


def _best_of(repetitions, thunk):
    best = float("inf")
    for _ in range(repetitions):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def test_exact_analysis_within_5x_of_float():
    """The acceptance bound: exact analysis <= 5x float, best-of-5.

    The whole table is measured and saved before any row is checked, so
    one analysis over the bound does not hide the other's ratio.
    """
    system = generate_system(_CONFIG, seed=0)
    lines = ["analysis      float      exact    ratio"]
    ratios = {}
    for label, run in (
        ("SA/PM", lambda tb: analyze_sa_pm(system, timebase=tb)),
        ("SA/DS", lambda tb: analyze_sa_ds(system, timebase=tb)),
    ):
        float_best = _best_of(5, lambda: run("float"))
        exact_best = _best_of(5, lambda: run("exact"))
        ratios[label] = ratio = exact_best / float_best
        lines.append(
            f"{label:<10} {float_best * 1e3:7.2f}ms {exact_best * 1e3:7.2f}ms"
            f" {ratio:7.2f}x"
        )
    save_and_print("timebase_ratio", "\n".join(lines))
    over = [
        f"{label}: exact is {ratio:.2f}x float"
        for label, ratio in ratios.items()
        if ratio >= 5.0
    ]
    assert not over, "; ".join(over) + " (limit 5x)"
