"""repro -- synchronization protocols in distributed real-time systems.

A production-quality reproduction of Jun Sun & Jane W.-S. Liu,
"Synchronization Protocols in Distributed Real-Time Systems" (ICDCS
1996): the DS, PM, MPM and RG synchronization protocols, the SA/PM and
SA/DS schedulability analyses, a discrete-event simulator for
fixed-priority end-to-end task chains, the paper's synthetic workload
generator, and an experiment harness regenerating every figure of the
evaluation.

Quickstart::

    from repro import example_two, run_protocol, analyze

    system = example_two()
    print(analyze(system, "DS").describe())      # SA/DS: T3 bound = 7 > 6
    result = run_protocol(system, "RG")
    print(result.average_eer(2))                  # T3 meets its deadline
"""

from repro._facade import lazy_exports

__version__ = "1.0.0"

__all__ = [
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionRequest",
    "AnalysisError",
    "AnalysisResult",
    "ConfigurationError",
    "DecisionCache",
    "DirectSynchronization",
    "FAILURE_FACTOR",
    "ModelError",
    "ModifiedPhaseModification",
    "PAPER_GRID",
    "PROTOCOL_COSTS",
    "PROTOCOL_NAMES",
    "PhaseModification",
    "Recommendation",
    "ReleaseGuard",
    "ReproError",
    "recommend_protocol",
    "ServiceMetrics",
    "SimulationError",
    "SimulationResult",
    "Subtask",
    "SubtaskId",
    "System",
    "Task",
    "Trace",
    "WorkloadConfig",
    "WorkloadError",
    "admit",
    "admit_many",
    "analyze",
    "analyze_sa_ds",
    "analyze_sa_pm",
    "compare_protocols",
    "example_two",
    "fuzz_once",
    "generate_system",
    "make_controller",
    "monitor_task_example",
    "paper_grid",
    "proportional_deadline_monotonic",
    "run_protocol",
    "simulate",
    "validate_system",
    "__version__",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.advisor": ("Recommendation", "recommend_protocol"),
        "repro.api": (
            "admit",
            "admit_many",
            "analyze",
            "compare_protocols",
            "fuzz_once",
            "run_protocol",
        ),
        "repro.core.analysis": (
            "FAILURE_FACTOR",
            "AnalysisResult",
            "analyze_sa_ds",
            "analyze_sa_pm",
        ),
        "repro.core.protocols": (
            "PROTOCOL_COSTS",
            "PROTOCOL_NAMES",
            "DirectSynchronization",
            "ModifiedPhaseModification",
            "PhaseModification",
            "ReleaseGuard",
            "make_controller",
        ),
        "repro.errors": (
            "AnalysisError",
            "ConfigurationError",
            "ModelError",
            "ReproError",
            "SimulationError",
            "WorkloadError",
        ),
        "repro.model": (
            "Subtask",
            "SubtaskId",
            "System",
            "Task",
            "proportional_deadline_monotonic",
            "validate_system",
        ),
        "repro.service": (
            "AdmissionController",
            "AdmissionDecision",
            "AdmissionRequest",
            "DecisionCache",
            "ServiceMetrics",
        ),
        "repro.sim": ("SimulationResult", "Trace", "simulate"),
        "repro.workload": (
            "PAPER_GRID",
            "WorkloadConfig",
            "example_two",
            "generate_system",
            "monitor_task_example",
            "paper_grid",
        ),
    },
)
