"""The paper's synchronization protocols: DS, PM, MPM and RG."""

from repro._facade import lazy_exports

__all__ = [
    "PROTOCOL_COSTS",
    "PROTOCOL_NAMES",
    "DirectSynchronization",
    "ModifiedPhaseModification",
    "PhaseModification",
    "ProtocolCosts",
    "ReleaseGuard",
    "compute_modified_phases",
    "make_controller",
    "overhead_per_instance",
    "pm_bounds_for",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.core.protocols.costs": (
            "PROTOCOL_COSTS",
            "ProtocolCosts",
            "overhead_per_instance",
        ),
        "repro.core.protocols.direct": ("DirectSynchronization",),
        "repro.core.protocols.factory": (
            "PROTOCOL_NAMES",
            "make_controller",
            "pm_bounds_for",
        ),
        "repro.core.protocols.modified_pm": ("ModifiedPhaseModification",),
        "repro.core.protocols.phase_modification": (
            "PhaseModification",
            "compute_modified_phases",
        ),
        "repro.core.protocols.release_guard": ("ReleaseGuard",),
    },
)
