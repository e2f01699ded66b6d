"""Experiment harness regenerating the paper's evaluation (Figs. 12-16)."""

from repro._facade import lazy_exports

__all__ = [
    "Cell",
    "Expectation",
    "MeanWithCI",
    "PAPER_EXPECTATIONS",
    "TightnessStudy",
    "check_suite",
    "measure_tightness",
    "parallel_sweep_grid",
    "render_report",
    "schedulability_surface",
    "suite_report",
    "SuiteResult",
    "Surface",
    "SystemEvaluation",
    "bound_ratio_surface",
    "eer_ratio_surface",
    "evaluate_config",
    "evaluate_system",
    "failure_rate_surface",
    "mean_with_ci",
    "run_suite",
    "sweep_grid",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.experiments.evaluation": (
            "SystemEvaluation",
            "evaluate_config",
            "evaluate_system",
        ),
        "repro.experiments.expectations": (
            "PAPER_EXPECTATIONS",
            "Expectation",
            "check_suite",
            "render_report",
        ),
        "repro.experiments.figures": (
            "bound_ratio_surface",
            "eer_ratio_surface",
            "failure_rate_surface",
            "schedulability_surface",
        ),
        "repro.experiments.parallel": ("parallel_sweep_grid",),
        "repro.experiments.report": ("suite_report",),
        "repro.experiments.tightness": ("TightnessStudy", "measure_tightness"),
        "repro.experiments.runner": ("SuiteResult", "run_suite", "sweep_grid"),
        "repro.experiments.stats": ("MeanWithCI", "mean_with_ci"),
        "repro.experiments.surface": ("Cell", "Surface"),
    },
)
