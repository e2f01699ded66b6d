"""Deterministic fault injection and recovery for the simulator.

The paper's protocols hang off one fragile primitive -- the
inter-processor synchronization signal (DS, MPM, RG) or a trusted local
timer (PM) -- and assume it never fails.  This package drops that
assumption, deterministically: a :class:`FaultConfig` describes which
faults to inject (signal drop/duplicate/reorder, timer loss, processor
crash-restart windows, WCET overruns) and which recovery mechanisms to
arm (ack/retransmit watchdog, duplicate-release suppression, overrun
policing, idle-point loss tolerance); a :class:`FaultPlane` turns the
config into seeded per-category decision streams plus a
:class:`FaultLog` of everything that happened; a :class:`FaultyChannel`
wraps any :class:`~repro.sim.network.SignalLatencyModel` with the
signal-level faults.

Everything is reproducible: the same config and seed produce the same
faults, the same recoveries and the same trace, under both the float and
the exact timebase.  A config whose :attr:`FaultConfig.is_null` is true
injects nothing and leaves the simulation byte-identical to a run
without a fault plane (the ``fault-free-identity`` oracle).

See ``docs/faults.md`` for the fault model and which protocol survives
which fault.
"""

from repro._facade import lazy_exports

__all__ = [
    "FAULT_KINDS",
    "OVERRUN_POLICIES",
    "VIOLATION_KINDS",
    "FaultConfig",
    "FaultEvent",
    "FaultLog",
    "FaultPlane",
    "FaultyChannel",
    "fault_config_from_dict",
    "fault_config_to_dict",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.faults.channel": ("FaultyChannel",),
        "repro.faults.config": (
            "FAULT_KINDS",
            "OVERRUN_POLICIES",
            "FaultConfig",
            "fault_config_from_dict",
            "fault_config_to_dict",
        ),
        "repro.faults.plane": (
            "VIOLATION_KINDS",
            "FaultEvent",
            "FaultLog",
            "FaultPlane",
        ),
    },
)
