"""Synthetic workloads (§5.1) and the paper's worked examples."""

from repro._facade import lazy_exports

__all__ = [
    "PAPER_GRID",
    "WorkloadConfig",
    "example_two",
    "generate_batch",
    "generate_system",
    "monitor_task_example",
    "paper_grid",
    "split_utilization",
    "truncated_exponential",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.workload.config": (
            "PAPER_GRID",
            "WorkloadConfig",
            "paper_grid",
        ),
        "repro.workload.distributions": (
            "split_utilization",
            "truncated_exponential",
        ),
        "repro.workload.examples": ("example_two", "monitor_task_example"),
        "repro.workload.generator": ("generate_batch", "generate_system"),
    },
)
