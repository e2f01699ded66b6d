"""Schedulability analyses: SA/PM (valid for PM, MPM, RG) and SA/DS."""

from repro._facade import lazy_exports

__all__ = [
    "FAILURE_FACTOR",
    "AnalysisResult",
    "SubtaskBusyPeriod",
    "analyze_local_deadline",
    "analyze_sa_ds",
    "analyze_sa_pm",
    "analyze_subtask",
    "analyze_with_overhead",
    "breakdown_scaling",
    "ceil_tolerant",
    "inflate_for_overhead",
    "scale_execution_times",
    "ieert_pass",
    "initial_ieer_bounds",
    "interference_terms",
    "sa_pm_subtask_details",
    "solve_fixed_point",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.analysis.busy_period": (
            "SubtaskBusyPeriod",
            "analyze_subtask",
            "interference_terms",
        ),
        "repro.core.analysis.fixpoint": ("ceil_tolerant", "solve_fixed_point"),
        "repro.core.analysis.local_deadline": ("analyze_local_deadline",),
        "repro.core.analysis.overheads": (
            "analyze_with_overhead",
            "inflate_for_overhead",
        ),
        "repro.core.analysis.results": ("FAILURE_FACTOR", "AnalysisResult"),
        "repro.core.analysis.sa_ds": (
            "analyze_sa_ds",
            "ieert_pass",
            "initial_ieer_bounds",
        ),
        "repro.core.analysis.sa_pm": (
            "analyze_sa_pm",
            "sa_pm_subtask_details",
        ),
        "repro.core.analysis.sensitivity": (
            "breakdown_scaling",
            "scale_execution_times",
        ),
    },
)
