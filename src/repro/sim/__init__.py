"""Discrete-event simulation of distributed fixed-priority scheduling."""

from repro._facade import lazy_exports

__all__ = [
    "ActiveInstance",
    "DeterministicExecution",
    "EventQueue",
    "ExecutionModel",
    "FixedLatency",
    "Kernel",
    "NoJitter",
    "OverrunInjection",
    "PrecedenceViolation",
    "ProcessorScheduler",
    "ProcessorStatistics",
    "processor_statistics",
    "ReleaseController",
    "ReleaseJitterModel",
    "Segment",
    "SignalLatencyModel",
    "SimulationResult",
    "TaskMetrics",
    "Trace",
    "TraceMetrics",
    "TruncatedNormalExecution",
    "UniformLatency",
    "UniformReleaseJitter",
    "UniformScaledExecution",
    "ZeroLatency",
    "compute_metrics",
    "default_horizon",
    "output_jitter",
    "simulate",
    "validate_trace",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.sim.engine": ("EventQueue", "Kernel"),
        "repro.sim.interfaces": ("ReleaseController",),
        "repro.sim.metrics": (
            "TaskMetrics",
            "TraceMetrics",
            "compute_metrics",
            "output_jitter",
        ),
        "repro.sim.network": (
            "FixedLatency",
            "SignalLatencyModel",
            "UniformLatency",
            "ZeroLatency",
        ),
        "repro.sim.processor_stats": (
            "ProcessorStatistics",
            "processor_statistics",
        ),
        "repro.sim.scheduler": ("ActiveInstance", "ProcessorScheduler"),
        "repro.sim.simulator": (
            "SimulationResult",
            "default_horizon",
            "simulate",
        ),
        "repro.sim.trace_validation": ("validate_trace",),
        "repro.sim.tracing": ("PrecedenceViolation", "Segment", "Trace"),
        "repro.sim.variation": (
            "DeterministicExecution",
            "ExecutionModel",
            "NoJitter",
            "OverrunInjection",
            "ReleaseJitterModel",
            "TruncatedNormalExecution",
            "UniformReleaseJitter",
            "UniformScaledExecution",
        ),
    },
)
