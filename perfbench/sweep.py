"""The ``sweep-sim`` workload: the Figs. 14-16 simulation sweep.

Systems of the 3x3 sub-grid N in {2, 5, 8} x U in {.5, .7, .9}
(paper-size: 12 tasks on 4 processors, random phases) are simulated
under DS, PM and RG for 10 periods on the batch engine -- the
simulations ``repro-rts suite --engine batch`` runs per system
(Figs. 14-16 need no analyses).  Cells take turns, so every window of
whole rounds has the same mix.  No service code runs.

An operation is one system (its three simulations; generating it is
not timed).  ``throughput_per_s`` counts simulated events per second:
per-system work varies a hundredfold with the shortest period, events
do not.  The latency metrics are per-system times.  After timing, the
first two systems of every cell are simulated again on the reference
kernel and must produce identical metrics.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
import time

import repro.api as api
from repro.workload.config import WorkloadConfig, paper_grid
from repro.workload.generator import generate_system

from common import (
    SETUP_REPS,
    WINDOWS,
    Outcome,
    Window,
    host_speed,
    peak_rss_mb,
)

__all__ = ["run_sweep"]

SUBTASK_COUNTS = (2, 5, 8)
UTILIZATIONS = (0.5, 0.7, 0.9)
PROTOCOLS = ("DS", "PM", "RG")
REFERENCE_PER_CELL = 2
HORIZON_PERIODS = 10.0
TAIL = 0.90


def _simulate(system, engine: str) -> list:
    """The system under every protocol, as the figure sweep runs it."""
    return [
        api.run_protocol(
            system, protocol, horizon_periods=HORIZON_PERIODS, engine=engine
        )
        for protocol in PROTOCOLS
    ]


def _canonical(results) -> str:
    """Every simulated metric the figures use, NaN-safe, as text."""
    return repr(
        [
            (
                result.protocol,
                result.metrics.average_eer_vector(),
                [task.output_jitter for task in result.metrics.tasks],
                result.metrics.precedence_violations,
            )
            for result in results
        ]
    )


def run_sweep(
    seed: int,
    seconds: float,
    *,
    tracer=None,
    smoke: bool = False,
    expected_digest: str | None = None,
) -> Outcome:
    outcome = Outcome()
    configs = paper_grid(
        subtask_counts=SUBTASK_COUNTS,
        utilizations=UTILIZATIONS,
        random_phases=True,
    )
    rng = random.Random(seed)
    checked_count = len(configs) * (1 if smoke else REFERENCE_PER_CELL)

    # Set-up: one warm system, so lazy imports and first calls are paid
    # before timing (the sweep has no other set-up).
    warm = generate_system(WorkloadConfig(subtasks_per_task=2, utilization=0.5), 0)
    setups = []
    if tracer is not None:
        tracer.phase = "setup"
        tracer.install()
    for _ in range(1 if (tracer is not None or smoke) else SETUP_REPS):
        speed = host_speed()
        started = time.perf_counter()
        _simulate(warm, "batch")
        setups.append((time.perf_counter() - started) * speed)
    outcome.trace_context["setup_wall_s"] = setups[-1] / speed

    if tracer is not None:
        tracer.phase = "timed"
    gc.collect()
    gc.freeze()
    started = time.perf_counter()
    cpu_started = time.process_time()
    windows, to_check = _timed_phase(
        configs, rng, seconds, tracer, checked_count, 4 if smoke else WINDOWS
    )
    outcome.trace_context["cpu_s"] = time.process_time() - cpu_started
    outcome.trace_context["timed_wall_s"] = time.perf_counter() - started
    gc.unfreeze()
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if tracer is None:
        outcome.report_phase(windows, TAIL, setups)
    else:
        tracer.uninstall()
        outcome.report_traced(windows)

    # The reference kernel is the conformance oracle, run after timing.
    checked = [_canonical(results) for _system, results in to_check]
    mismatches = sum(
        _canonical(_simulate(system, "reference")) != expected
        for (system, _results), expected in zip(to_check, checked)
    )
    outcome.attempted = sum(window.count for window in windows) + len(checked)
    outcome.check(
        "batch and reference metrics identical",
        mismatches,
        f"{mismatches} of {len(checked)} systems differ",
    )
    digest = hashlib.sha256("\n".join(checked).encode("utf-8")).hexdigest()
    outcome.notes.append(f"evaluation digest {digest}")
    if expected_digest is not None:
        outcome.check(
            "evaluation digest matches the committed one",
            int(digest != expected_digest),
            f"{digest[:16]} vs {expected_digest[:16]}",
        )
    return outcome


def _timed_phase(configs, rng, seconds, tracer, checked_count, windows_wanted):
    """Simulate systems window by window until ``seconds`` have passed.

    A window closes at its time boundary once it holds whole rounds of
    the cells.  Returns the windows and, for the reference check, the
    (system, batch results) of the first ``checked_count`` systems.  In a
    traced run every other window is traced.
    """
    windows: list[Window] = []
    to_check: list[tuple] = []
    cells = itertools.cycle(configs)
    issued = 0
    speed = host_speed()
    phase_end = time.perf_counter() + seconds
    for index in itertools.count():
        # Two windows at least, so a traced run has a traced one.
        if index >= 2 and issued >= checked_count and time.perf_counter() >= phase_end:
            break
        window = Window(traced=tracer is not None and index % 2 == 1)
        if tracer is not None:
            if window.traced:
                tracer.install()
            else:
                tracer.uninstall()
        boundary = time.perf_counter() + seconds / windows_wanted
        while True:
            system = generate_system(next(cells), rng.randrange(2**32))
            begun = time.perf_counter()
            results = _simulate(system, "batch")
            window.latencies.append(time.perf_counter() - begun)
            window.work += sum(result.events_processed for result in results)
            if issued < checked_count:
                to_check.append((system, results))
            issued += 1
            if issued % len(configs) == 0 and time.perf_counter() >= boundary:
                break
        window.count = len(window.latencies)
        window.busy = sum(window.latencies)
        after = host_speed()
        window.speed = (speed + after) / 2
        speed = after
        windows.append(window)
    return windows, to_check
