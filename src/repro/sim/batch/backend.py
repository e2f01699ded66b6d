"""Support gating for the batch engine.

The batch engine implements exactly the paper's ideal Section 3 domain:
the float timebase, perfect clocks, zero signal latency, deterministic
WCET execution, strictly periodic environment releases, no fault plane
and no critical sections, under one of the four stock protocol
controllers.  Anything else runs on the reference kernel -- *explicitly*:
:func:`batch_fallback_reason` names the first unsupported feature, the
facade records it on ``SimulationResult.engine_fallback``, and tests
assert on it.  A silent wrong-engine run is not a failure mode this
design permits.

Controller recognition is by exact type, not ``isinstance``: a subclass
may override hooks in ways the flat engine does not replicate.  A
subclass that changes nothing observable can opt in by declaring
``batch_equivalent = "<protocol>"`` in its *own* class body (the fuzz
harness's ``CheckedReleaseGuard`` does; the attribute is looked up on
the exact class only, so further subclasses must opt in again).
"""

from __future__ import annotations

from repro.clocks.models import ClockMap
from repro.core.protocols.direct import DirectSynchronization
from repro.core.protocols.modified_pm import ModifiedPhaseModification
from repro.core.protocols.phase_modification import PhaseModification
from repro.core.protocols.release_guard import ReleaseGuard
from repro.faults.config import FaultConfig
from repro.locks.config import LockingConfig
from repro.model.system import System
from repro.sim.batch.engine import BATCH_PROTOCOLS
from repro.sim.interfaces import ReleaseController
from repro.sim.network import SignalLatencyModel, ZeroLatency
from repro.sim.variation import (
    DeterministicExecution,
    ExecutionModel,
    NoJitter,
    ReleaseJitterModel,
)
from repro.timebase import Timebase, get_timebase

__all__ = ["batch_fallback_reason", "batch_protocol_of"]


def batch_protocol_of(controller: ReleaseController) -> str | None:
    """The batch protocol a controller maps to, or None if unrecognized.

    Exact-type matches for the four stock controllers; subclasses only
    via an explicit ``batch_equivalent`` declaration in their own class
    body (see module docstring).
    """
    kind = type(controller)
    if kind is DirectSynchronization:
        return "DS"
    if kind is PhaseModification:
        return "PM"
    if kind is ModifiedPhaseModification:
        return "MPM"
    if kind is ReleaseGuard:
        return "RG"
    declared = vars(kind).get("batch_equivalent")
    if declared in BATCH_PROTOCOLS:
        return declared
    return None


def batch_fallback_reason(
    system: System,
    controller: ReleaseController,
    *,
    execution_model: ExecutionModel | None = None,
    jitter_model: ReleaseJitterModel | None = None,
    latency_model: SignalLatencyModel | None = None,
    clocks: ClockMap | None = None,
    timebase: Timebase | str = "float",
    faults: FaultConfig | None = None,
    locking: LockingConfig | None = None,
) -> str | None:
    """Why this run must use the reference kernel; None when batch-safe.

    The returned string is stable enough to assert on in tests and ends
    up verbatim on ``SimulationResult.engine_fallback``.
    """
    if get_timebase(timebase).name != "float":
        return "non-float timebase"
    if clocks is not None and not clocks.is_perfect:
        return "imperfect local clocks"
    if faults is not None:
        return "fault plane armed"
    if system.has_critical_sections:
        return "system declares critical sections"
    # ``locking`` on a resource-free system is contractually inert
    # (see Kernel docs), so it alone forces nothing.
    del locking
    if execution_model is not None and type(execution_model) is not (
        DeterministicExecution
    ):
        return "non-deterministic execution model"
    if jitter_model is not None and type(jitter_model) is not NoJitter:
        return "release-jitter model"
    if latency_model is not None and type(latency_model) is not ZeroLatency:
        return "signal-latency model"
    if batch_protocol_of(controller) is None:
        return f"unrecognized controller type {type(controller).__name__}"
    return None
