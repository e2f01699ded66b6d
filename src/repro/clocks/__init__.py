"""Per-processor clock models and their serializable configurations.

The simulator's true time is global; this package models what each
processor's *local* wall clock reads, so that the paper's Section 3
claims about PM (needs synchronized clocks) versus MPM/RG (local timers
only) become testable.  See :mod:`repro.clocks.models` for the model
zoo and the conversion semantics, :mod:`repro.clocks.config` for the
JSON-friendly specs used by the CLI, the fuzz campaign and the
admission service, and :mod:`repro.core.analysis.skew` for the
skew-aware schedulability bounds built on the models' error envelopes.
"""

from repro._facade import lazy_exports

__all__ = [
    "CLOCK_KINDS",
    "ClockConfig",
    "ClockMap",
    "ClockModel",
    "PerfectClock",
    "FixedOffset",
    "BoundedDrift",
    "ResyncClock",
    "clock_config_from_dict",
    "clock_config_to_dict",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.clocks.config": (
            "CLOCK_KINDS",
            "ClockConfig",
            "clock_config_from_dict",
            "clock_config_to_dict",
        ),
        "repro.clocks.models": (
            "BoundedDrift",
            "ClockMap",
            "ClockModel",
            "FixedOffset",
            "PerfectClock",
            "ResyncClock",
        ),
    },
)
