"""One-call conveniences tying protocols, analyses and simulation together.

These are the functions a downstream user reaches for first; the
underlying pieces (:mod:`repro.core`, :mod:`repro.sim`,
:mod:`repro.workload`) stay fully usable on their own.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.clocks.config import ClockConfig
from repro.clocks.models import ClockMap
from repro.core.analysis.results import AnalysisResult
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.core.protocols.factory import make_controller
from repro.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.sim.network import SignalLatencyModel
from repro.sim.simulator import SimulationResult, simulate
from repro.sim.variation import ExecutionModel, ReleaseJitterModel

__all__ = [
    "run_protocol",
    "analyze",
    "compare_protocols",
    "admit",
    "admit_many",
    "admit_service",
    "sensitivity",
    "region",
    "service_chaos",
    "fuzz_once",
]


def run_protocol(
    system: System,
    protocol: str,
    *,
    bounds: Mapping[SubtaskId, float] | None = None,
    horizon: float | None = None,
    horizon_periods: float = 20.0,
    execution_model: ExecutionModel | None = None,
    jitter_model: ReleaseJitterModel | None = None,
    latency_model: SignalLatencyModel | None = None,
    record_segments: bool = False,
    strict_precedence: bool = False,
    warmup: float = 0.0,
    clocks: ClockMap | ClockConfig | None = None,
    timebase: str = "float",
    faults: FaultConfig | None = None,
    engine: str = "reference",
) -> SimulationResult:
    """Simulate ``system`` under the named protocol (DS/PM/MPM/RG).

    PM and MPM derive their response-time bounds from Algorithm SA/PM
    unless ``bounds`` is given.  ``clocks`` assigns per-processor local
    clocks: either a ready :class:`~repro.clocks.ClockMap` or a
    :class:`~repro.clocks.ClockConfig` (instantiated over the system's
    processors).  ``faults`` arms the fault-injection plane
    (:class:`~repro.faults.FaultConfig`); the run's fault log lands on
    ``result.trace.faults`` and its summary on
    ``result.metrics.faults``.  ``engine`` selects the simulation
    backend (``"reference"`` or ``"batch"``; see
    :mod:`repro.sim.simulator` for the fallback contract).  See
    :func:`repro.sim.simulate` for the remaining knobs.
    """
    if isinstance(clocks, ClockConfig):
        clocks = clocks.build(system.processors)
    controller = make_controller(protocol, system, bounds=bounds)
    return simulate(
        system,
        controller,
        horizon=horizon,
        horizon_periods=horizon_periods,
        execution_model=execution_model,
        jitter_model=jitter_model,
        latency_model=latency_model,
        record_segments=record_segments,
        strict_precedence=strict_precedence,
        warmup=warmup,
        clocks=clocks,
        timebase=timebase,
        faults=faults,
        engine=engine,
    )


def analyze(system: System, protocol: str) -> AnalysisResult:
    """Run the schedulability analysis appropriate for a protocol.

    ``PM``, ``MPM`` and ``RG`` share Algorithm SA/PM (Theorem 1); ``DS``
    uses Algorithm SA/DS.
    """
    canonical = protocol.upper()
    if canonical in ("PM", "MPM", "RG"):
        return analyze_sa_pm(system)
    if canonical == "DS":
        return analyze_sa_ds(system)
    raise ConfigurationError(
        f"unknown protocol {protocol!r}; expected DS, PM, MPM or RG"
    )


def compare_protocols(
    system: System,
    protocols: tuple[str, ...] = ("DS", "PM", "RG"),
    **simulate_kwargs,
) -> dict[str, SimulationResult]:
    """Simulate the same system under several protocols.

    Returns results keyed by protocol name; keyword arguments are passed
    through to :func:`run_protocol` for every protocol.
    """
    return {
        protocol: run_protocol(system, protocol, **simulate_kwargs)
        for protocol in protocols
    }


def admit(system: System, **options):
    """Admission-control verdict for one system, in one call.

    Options are :class:`~repro.service.requests.AdmissionRequest`
    fields (``protocols``, ``jitter_sensitive``, ...).  This computes
    from scratch every time; sustained traffic should hold a
    :class:`~repro.service.engine.AdmissionController`, which memoizes
    decisions through a content-hash cache.  Returns an
    :class:`~repro.service.requests.AdmissionDecision`.
    """
    # Imported here so that the simulation entry points load no service
    # module (tests/test_import_closure.py pins it).
    from repro.service.engine import compute_decision
    from repro.service.requests import AdmissionRequest

    return compute_decision(AdmissionRequest(system=system, **options))


def admit_many(
    systems: Sequence[System] | Iterable[System],
    *,
    workers: int | None = None,
    cache=None,
    **options,
) -> list:
    """Batch admission over a process pool; decisions in input order.

    ``options`` apply to every system; pass a
    :class:`~repro.service.cache.DecisionCache` to reuse decisions
    across calls (and across duplicate systems within one call).
    """
    from repro.service.batch import admit_batch
    from repro.service.requests import AdmissionRequest

    requests = [
        AdmissionRequest(system=system, **options) for system in systems
    ]
    return admit_batch(requests, cache=cache, workers=workers)


def admit_service(
    systems: Sequence[System] | Iterable[System],
    *,
    frontend_config=None,
    **options,
) -> list:
    """Admit systems through the sharded async frontend, in one call.

    Spins up an :class:`~repro.service.frontend.AdmissionFrontend`
    (shape from ``frontend_config``, a
    :class:`~repro.service.frontend.FrontendConfig`), drives every
    request through its quota/queue/shard path, and tears it down.
    ``options`` apply to every system.  Decisions come back in input
    order; persistent deployments should hold the frontend (and its
    cache) across calls instead.
    """
    import asyncio

    from repro.service.frontend import AdmissionFrontend
    from repro.service.requests import AdmissionRequest

    requests = [
        AdmissionRequest(system=system, **options) for system in systems
    ]

    async def run() -> list:
        async with AdmissionFrontend(frontend_config) as frontend:
            return [await frontend.admit(r) for r in requests]

    return asyncio.run(run())


def service_chaos(**options):
    """Run the service-plane chaos harness, in one call.

    ``options`` are :func:`repro.service.chaos.run_service_chaos`
    keywords (``requests``, ``systems``, ``seed``, ``scenarios``,
    ``workdir``, ...).  Returns a
    :class:`~repro.service.chaos.ServiceChaosReport`; check
    ``report.gate_passed`` or print ``report.render()``.
    """
    from repro.service.chaos import run_service_chaos

    return run_service_chaos(**options)


def sensitivity(
    system: System,
    analyses: tuple[str, ...] = ("SA/PM", "SA/DS"),
    *,
    tolerance: float = 1e-3,
    max_factor: float = 16.0,
    sa_ds_max_iterations: int = 60,
) -> dict[str, float]:
    """Breakdown execution-time scaling per analysis, in one call.

    Returns ``{analysis: factor}`` where ``factor`` is the largest
    uniform execution-time scaling keeping the system certifiable under
    that analysis (see
    :func:`repro.core.analysis.sensitivity.breakdown_scaling`).  A
    factor above 1 is headroom, below 1 relative overload; the SA/PM
    versus SA/DS gap prices the protocol choice in processor-capacity
    terms.  Systems with critical sections are priced with the
    blocking-aware analyses automatically.
    """
    from repro.core.analysis.sensitivity import breakdown_scaling

    return {
        analysis: breakdown_scaling(
            system,
            analysis,
            tolerance=tolerance,
            max_factor=max_factor,
            sa_ds_max_iterations=sa_ds_max_iterations,
        )
        for analysis in analyses
    }


def region(
    system: System,
    *,
    timebase: str | None = None,
    tolerance=None,
    max_factor=None,
    ascent_rounds: int = 1,
    **options,
):
    """Compute the system's feasibility region, in one call.

    ``options`` are :class:`~repro.service.requests.AdmissionRequest`
    fields (``protocols``, ``shared_resources``, ...); they decide which
    analyses the region must cover.  Returns a
    :class:`~repro.regions.region.FeasibilityRegion` whose per-analysis
    corners span the verified inner box: any execution vector
    componentwise below a corner is certifiably schedulable under that
    analysis (see :mod:`repro.regions`).  Repeated admission against one
    shape should enable the region tier on an
    :class:`~repro.service.engine.AdmissionController` instead
    (``region_backend=``), which serves in-box requests analysis-free
    and attaches per-dimension sensitivity ``margins`` to decisions.
    """
    from repro.regions.compute import (
        DEFAULT_MAX_FACTOR,
        DEFAULT_TOLERANCE,
        compute_region,
    )
    from repro.service.requests import AdmissionRequest

    return compute_region(
        AdmissionRequest(system=system, **options),
        timebase=timebase,
        tolerance=tolerance if tolerance is not None else DEFAULT_TOLERANCE,
        max_factor=(
            max_factor if max_factor is not None else DEFAULT_MAX_FACTOR
        ),
        ascent_rounds=ascent_rounds,
    )


def fuzz_once(
    seed: int,
    *,
    config=None,
    horizon_periods: float = 5.0,
    oracles: tuple[str, ...] | None = None,
    timebase: str = "float",
):
    """One differential-fuzzing case, in one call.

    Generates the seeded system (``config`` defaults to the fuzzer's
    first default-profile configuration), simulates all four protocols,
    and judges every applicable oracle.  Returns a
    :class:`~repro.fuzz.campaign.CaseOutcome`; ``outcome.failed`` means
    some paper-derived cross-check was violated.  With
    ``timebase="exact"`` the oracles run tolerance-free and the case is
    differentially cross-checked against the float backend.  Sustained
    fuzzing should use :func:`repro.fuzz.run_campaign`, which adds
    budgets, process-pool parallelism, shrinking and corpus persistence.
    """
    # Imported lazily to keep the fuzz subsystem optional at import time.
    from repro.fuzz.campaign import PROFILES, fuzz_one

    effective = config if config is not None else PROFILES["default"][0]
    return fuzz_one(
        effective,
        seed,
        horizon_periods=horizon_periods,
        oracles=oracles,
        timebase=timebase,
    )
