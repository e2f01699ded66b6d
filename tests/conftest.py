"""Shared fixtures, hypothesis profiles and the test-tier gate.

Test tiers
----------
**Tier 1 (default)** is everything ``pytest -q`` collects: unit and
integration tests plus the scaled-down study and conformance suites,
budgeted to stay around a minute on a laptop.  Simulation-heavy
fixtures inside this tier (the paper-reproduction corners, the scaled
expectation suite) run on the batch engine, whose metric identity with
the reference kernel is itself enforced in the tier by
``test_batch_conformance.py`` and ``test_batch_properties.py``.

**Tier 2 (``--runslow``)** adds tests marked ``@pytest.mark.slow``:
multi-minute fuzz campaigns, exhaustive phase-space searches and the
full-size tightness study.  CI's fuzz job runs this tier (with
``HYPOTHESIS_PROFILE=ci`` for a derandomized, replayable example
stream) alongside the budgeted fuzz campaigns.

**Benchmarks** live outside ``testpaths`` under ``benchmarks/`` and
carry their own gates (figure shapes, batch-engine speedup floors);
run them explicitly with ``pytest benchmarks/``.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, settings

from repro.model.system import System
from repro.model.task import Subtask, Task
from repro.workload.config import WorkloadConfig
from repro.workload.examples import example_two, monitor_task_example
from repro.workload.generator import generate_system

# Property tests draw whole systems, so example generation dominates
# runtime; the "ci" profile additionally derandomizes so every CI run
# executes the identical example stream and failures print a replayable
# blob.  Select with HYPOTHESIS_PROFILE=ci (default: "default").
settings.register_profile("default", deadline=None)
settings.register_profile(
    "ci",
    deadline=None,
    derandomize=True,
    print_blob=True,
    suppress_health_check=(HealthCheck.too_slow,),
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="also run tests marked slow (fuzz campaigns, exhaustive search)",
    )


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip_slow = pytest.mark.skip(reason="needs --runslow")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@pytest.fixture
def example2() -> System:
    """The paper's Example 2 (Figs. 2, 3, 5, 7)."""
    return example_two()


@pytest.fixture
def monitor() -> System:
    """The paper's Example 1 (the monitor task of Fig. 1)."""
    return monitor_task_example()


@pytest.fixture
def single_task_system() -> System:
    """One single-subtask task on one processor."""
    return System(
        (
            Task(
                period=10.0,
                subtasks=(Subtask(3.0, "P1", priority=0),),
                name="solo",
            ),
        ),
        name="single",
    )


@pytest.fixture
def two_stage_pipeline() -> System:
    """One two-stage chain across two processors, no interference."""
    return System(
        (
            Task(
                period=10.0,
                subtasks=(
                    Subtask(2.0, "P1", priority=0),
                    Subtask(3.0, "P2", priority=0),
                ),
                name="pipe",
            ),
        ),
        name="pipeline",
    )


@pytest.fixture
def small_config() -> WorkloadConfig:
    """A light synthetic configuration for fast generator-based tests."""
    return WorkloadConfig(
        subtasks_per_task=3,
        utilization=0.6,
        tasks=4,
        processors=3,
    )


@pytest.fixture
def small_system(small_config) -> System:
    """One deterministic synthetic system from ``small_config``."""
    return generate_system(small_config, seed=42)


@pytest.fixture
def within():
    """``with within(seconds):`` fails the enclosed call with a
    ``TimeoutError`` if it is still running after ``seconds`` -- for
    regressions whose failure mode is a loop that never ends."""

    @contextmanager
    def guard(seconds: float):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return guard
