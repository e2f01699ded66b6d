"""Static task model: tasks, subtasks, systems, priorities, validation."""

from repro._facade import lazy_exports

__all__ = [
    "DEADLINE_STRATEGIES",
    "deadline_map",
    "effective_deadline",
    "equal_slack_deadline",
    "ultimate_deadline",
    "insert_link_stages",
    "uniform_link",
    "CriticalSection",
    "ProcessorId",
    "Subtask",
    "SubtaskId",
    "Task",
    "System",
    "POLICIES",
    "assign_by_key",
    "deadline_monotonic",
    "equal_flexibility",
    "get_policy",
    "proportional_deadline",
    "proportional_deadline_monotonic",
    "rate_monotonic",
    "ValidationReport",
    "check_consecutive_placement",
    "require_feasible_utilization",
    "validate_system",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.model.deadlines": (
            "DEADLINE_STRATEGIES",
            "deadline_map",
            "effective_deadline",
            "equal_slack_deadline",
            "ultimate_deadline",
        ),
        "repro.model.links": ("insert_link_stages", "uniform_link"),
        "repro.model.priority": (
            "POLICIES",
            "assign_by_key",
            "deadline_monotonic",
            "equal_flexibility",
            "get_policy",
            "proportional_deadline",
            "proportional_deadline_monotonic",
            "rate_monotonic",
        ),
        "repro.model.system": ("System",),
        "repro.model.task": (
            "CriticalSection",
            "ProcessorId",
            "Subtask",
            "SubtaskId",
            "Task",
        ),
        "repro.model.validation": (
            "ValidationReport",
            "check_consecutive_placement",
            "require_feasible_utilization",
            "validate_system",
        ),
    },
)
