"""Shared-resource subsystem: critical sections under distributed locking.

The model (:mod:`repro.model.task`) lets a subtask declare disjoint
:class:`~repro.model.task.CriticalSection` intervals on named resources.
This package supplies everything above the model:

* :class:`LockingConfig` -- which distributed locking protocol arbitrates
  the resources: **DPCP** (the classic Distributed Priority Ceiling
  Protocol shape: every resource lives on one synchronization processor,
  requests queue in priority order, sections execute as remote *agents*
  at boosted priority) or **DPCP-p** (the parallel-request variant of
  Yang et al.: resources spread across the accessors' processors and
  queue FIFO, so independent resources are served in parallel);
* :func:`build_assignment` -- the static resource-to-processor mapping,
  priority ceilings and agent priorities implied by a config;
* :class:`LockManager` -- the simulation runtime: phase-splits each
  resourceful instance into home-processor execution chunks and
  synchronization-processor agent chunks, suspends requesters while a
  lock is held, and keeps the kernel's idle-point logic honest while
  lock holders are away from their home processor;
* :class:`LockLog` -- the observable request/acquire/release history,
  consumed by the lock-aware trace validator and the fuzz oracles;
* :mod:`repro.locks.analysis` -- blocking-aware SA/PM and SA/DS:
  remote-blocking terms plus agent interference, reducing exactly to
  the base analyses on resource-free systems;
* :func:`inject_critical_sections` -- the seeded post-pass that adds
  sections to generated workloads without perturbing the generator's
  own draws.
"""

from repro._facade import lazy_exports

__all__ = [
    "LOCKING_PROTOCOLS",
    "LockingConfig",
    "locking_config_from_dict",
    "locking_config_to_dict",
    "LockAssignment",
    "build_assignment",
    "LockEvent",
    "LockLog",
    "LockManager",
    "agent_augmented_system",
    "analyze_sa_pm_blocking",
    "analyze_sa_ds_blocking",
    "blocking_terms",
    "inject_critical_sections",
]

__getattr__, __dir__ = lazy_exports(
    globals(),
    {
        "repro.locks.analysis": (
            "agent_augmented_system",
            "analyze_sa_ds_blocking",
            "analyze_sa_pm_blocking",
            "blocking_terms",
        ),
        "repro.locks.assignment": ("LockAssignment", "build_assignment"),
        "repro.locks.config": (
            "LOCKING_PROTOCOLS",
            "LockingConfig",
            "locking_config_from_dict",
            "locking_config_to_dict",
        ),
        "repro.locks.inject": ("inject_critical_sections",),
        "repro.locks.log": ("LockEvent", "LockLog"),
        "repro.locks.manager": ("LockManager",),
    },
)
