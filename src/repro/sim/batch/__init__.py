"""Batch simulation backend: flat-array kernel, packed traces, gating.

A second engine behind ``simulate(..., engine="batch")``
(:mod:`repro.sim.simulator`): same observable schedules as the reference
kernel on the float timebase for clock-free, fault-free, lock-free
systems under DS/PM/MPM/RG, at a fraction of the per-event cost.  The
reference kernel remains the oracle of record; conformance is enforced
by the golden-trace corpus (``tests/corpus/golden_traces/``), the
``batch-vs-reference-identity`` fuzz oracle, and property tests.  See
``docs/batch-engine.md`` for the design.
"""

from repro._facade import lazy_exports

__all__ = [
    "BATCH_PROTOCOLS",
    "BatchRun",
    "CalendarQueue",
    "PackedTrace",
    "batch_fallback_reason",
    "batch_protocol_of",
    "encode",
    "run_batch",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.sim.batch.backend": (
            "batch_fallback_reason",
            "batch_protocol_of",
        ),
        "repro.sim.batch.calendar": ("CalendarQueue",),
        "repro.sim.batch.engine": ("BATCH_PROTOCOLS", "BatchRun", "run_batch"),
        "repro.sim.batch.packed": ("PackedTrace", "encode"),
    },
)
