"""Region stores: ``shape_key -> FeasibilityRegion``, memory or sqlite.

The region cache is the tier *above* the decision cache: a decision
cache entry answers one exact request; a region answers every request
of one shape whose execution vector lands inside the verified box.
Both tiers keep their entries in the same store
(:mod:`repro.service.store`) -- ``get``/``put``/``stats``/``save``/
``load``, LRU eviction, process-local counters, framed JSONL snapshots,
sqlite/WAL sharing and quarantine -- so everything operators learned
about the decision tier (capacity planning, persistence, the sharing
model) transfers unchanged.  Only the codec differs:
``{"shape_key": ..., "region": ...}`` records and a ``regions`` table.
"""

from __future__ import annotations

from repro.regions.region import region_from_dict, region_to_dict
from repro.service.store import MemoryStore, SqliteStore, StoreCodec

__all__ = [
    "REGION_CODEC",
    "REGION_STORES",
    "MemoryRegionStore",
    "SqliteRegionStore",
]

#: The region stores' codec.  Regions are a few hundred bytes each but
#: *expensive to rebuild*, so the default capacity errs large.
REGION_CODEC = StoreCodec(
    format="repro-region-store-v1",
    key_field="shape_key",
    value_field="region",
    table="regions",
    label="region",
    to_dict=region_to_dict,
    from_dict=region_from_dict,
    capacity=1024,
)


class MemoryRegionStore(MemoryStore):
    """LRU-bounded, thread-safe map from shape key to region.

    The in-process engine bound to :data:`REGION_CODEC`; ``path`` is an
    optional JSONL snapshot it warm-starts from and :meth:`save` /
    :meth:`close` rewrite atomically.
    """

    codec = REGION_CODEC


class SqliteRegionStore(SqliteStore):
    """LRU region store on sqlite/WAL; same interface as the memory one.

    The sqlite engine bound to :data:`REGION_CODEC`: a real ``db_path``
    is durable and shareable between frontend processes on one host,
    ``":memory:"`` is private.
    """

    codec = REGION_CODEC


#: Backend name -> region store class, for
#: :func:`~repro.service.store.make_store`.
REGION_STORES = {"memory": MemoryRegionStore, "sqlite": SqliteRegionStore}
