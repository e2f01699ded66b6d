"""Parametric feasibility regions: O(1) admission for repeat shapes.

Following the parametric-schedulability line of work (see PAPERS.md),
a task set's *shape* -- its topology, periods, deadlines, priorities,
placement, section layout and analysis options, everything except the
concrete execution times -- determines a feasibility region over the
execution-time parameter space.  This package computes conservative
inner-box approximations of that region by monotone bisection against
the repository's own analyses, caches them by shape hash, and serves
point-in-box admission in O(dimensions) with zero analysis runs.

Layers
------

:mod:`~repro.regions.shape`
    Shape canonicalization and hashing; execution-vector helpers.
:mod:`~repro.regions.region`
    The :class:`FeasibilityRegion` container and its soundness
    argument (inside the box == certifiably schedulable).
:mod:`~repro.regions.compute`
    Boundary search: uniform breakdown bisection plus jointly verified
    coordinate ascent, per analysis, on either timebase.
:mod:`~repro.regions.incremental`
    Add/remove-one-task updates that reuse untouched boundaries.
:mod:`~repro.regions.store`
    ``shape_key -> region`` stores (memory LRU / sqlite WAL), the same
    contract as the decision-cache backends.
:mod:`~repro.regions.tier`
    The service integration: the cache tier above the decision cache
    in :class:`repro.service.engine.AdmissionController` and the
    sharded frontend.
"""

from repro.regions.compute import (
    DEFAULT_MAX_FACTOR,
    DEFAULT_TOLERANCE,
    compute_region,
    probe_point,
    required_analyses,
)
from repro.regions.incremental import update_region
from repro.regions.region import (
    REGION_ANALYSES,
    FeasibilityRegion,
    region_from_dict,
    region_to_dict,
)
from repro.regions.shape import (
    SHAPE_FORMAT,
    dimension_names,
    execution_vector,
    shape_key,
    shape_payload,
    system_at,
    task_shape_token,
)
from repro.regions.store import (
    REGION_STORES,
    MemoryRegionStore,
    SqliteRegionStore,
)
from repro.regions.tier import RegionTier

__all__ = [
    "DEFAULT_MAX_FACTOR",
    "DEFAULT_TOLERANCE",
    "FeasibilityRegion",
    "MemoryRegionStore",
    "REGION_ANALYSES",
    "REGION_STORES",
    "RegionTier",
    "SHAPE_FORMAT",
    "SqliteRegionStore",
    "compute_region",
    "dimension_names",
    "execution_vector",
    "probe_point",
    "region_from_dict",
    "region_to_dict",
    "required_analyses",
    "shape_key",
    "shape_payload",
    "system_at",
    "task_shape_token",
    "update_region",
]
