"""Admission control: schedulability analysis served as a decision API.

The paper's analyses decide *offline* whether a distributed task set is
schedulable under DS/PM/MPM/RG; an online admission controller answers
exactly that query, at scale.  This package productizes the decision
procedure:

* :mod:`repro.service.requests` -- request/decision dataclasses with
  JSON(L) codecs;
* :mod:`repro.service.hashing` -- canonical, process-stable content
  keys (SHA-256 over canonical JSON);
* :mod:`repro.service.store` -- the one keyed LRU store (a memory
  engine and a sqlite/WAL engine, generic over a value codec) that
  both the decision cache and the region tier use, and
  :func:`make_store`, its config-driven factory;
* :mod:`repro.service.cache` -- the in-process decision cache, and the
  single-flight table that collapses concurrent misses on one key;
* :mod:`repro.service.backends` -- the sqlite/WAL decision cache behind
  the same interface;
* :mod:`repro.service.engine` -- the :class:`AdmissionController`
  (analyses + Section 6 advisor behind the cache);
* :mod:`repro.service.batch` -- batch admission over a process pool
  with deterministic output order;
* :mod:`repro.service.sharding` -- the consistent-hash ring that maps
  content keys to worker shards;
* :mod:`repro.service.frontend` -- the sharded asyncio frontend:
  bounded queues, tenant quotas, explicit shedding, retry-ladder
  degradation, and a JSONL-over-TCP server;
* :mod:`repro.service.loadgen` -- seeded open/closed-loop load
  generation with latency percentiles and a decision digest;
* :mod:`repro.service.metrics` -- counters and latency percentiles;
* :mod:`repro.service.durability` -- checksummed record framing,
  atomic snapshot writes, valid-prefix salvage and sqlite
  integrity-check/quarantine for every persistence path;
* :mod:`repro.service.supervision` -- per-shard circuit breakers
  (closed/open/half-open) that route traffic around failing shards;
* :mod:`repro.service.chaos` -- the service-plane chaos harness:
  seeded storage damage and shard failure with recovery oracles.

The optional **region tier** (:mod:`repro.regions`, re-exported here as
:class:`RegionTier`) sits above the decision cache: it maps request
*shapes* to precomputed feasibility regions and serves repeat-shape
admissions analysis-free.  Enable with ``region_backend=`` on
:class:`AdmissionController` / :class:`FrontendConfig`; it is off by
default.

Quickstart::

    from repro.service import AdmissionController, AdmissionRequest

    controller = AdmissionController()
    decision = controller.admit(AdmissionRequest(system=my_system))
    if decision.admitted:
        deploy(my_system, protocol=decision.protocol)
"""

from repro.service.backends import DECISION_STORES, SqliteDecisionCache
from repro.service.batch import admit_batch
from repro.service.cache import CacheStats, DecisionCache, SingleFlight
from repro.service.durability import RecoveryReport
from repro.service.engine import AdmissionController, compute_decision
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    TenantQuota,
    serve_frontend,
)
from repro.service.hashing import request_key, system_key
from repro.service.loadgen import LoadgenConfig, LoadReport, run_campaign, run_load
from repro.service.metrics import ServiceMetrics
from repro.service.sharding import ShardRing
from repro.service.store import STORE_BACKENDS, StoreCodec, make_store
from repro.service.supervision import BreakerConfig, CircuitBreaker
from repro.service.requests import (
    ALL_PROTOCOLS,
    AdmissionDecision,
    AdmissionRequest,
    decision_from_dict,
    decision_to_dict,
    load_decisions_jsonl,
    load_requests_jsonl,
    request_from_dict,
    request_to_dict,
    save_decisions_jsonl,
)

__all__ = [
    "ALL_PROTOCOLS",
    "DECISION_STORES",
    "AdmissionController",
    "AdmissionDecision",
    "AdmissionFrontend",
    "AdmissionRequest",
    "BreakerConfig",
    "CacheStats",
    "CircuitBreaker",
    "DecisionCache",
    "FrontendConfig",
    "LoadReport",
    "LoadgenConfig",
    "RecoveryReport",
    "RegionTier",
    "ServiceChaosReport",
    "ServiceMetrics",
    "STORE_BACKENDS",
    "ShardRing",
    "SingleFlight",
    "SqliteDecisionCache",
    "StoreCodec",
    "TenantQuota",
    "admit_batch",
    "compute_decision",
    "decision_from_dict",
    "decision_to_dict",
    "load_decisions_jsonl",
    "load_requests_jsonl",
    "make_store",
    "request_from_dict",
    "request_key",
    "request_to_dict",
    "run_campaign",
    "run_load",
    "run_service_chaos",
    "save_decisions_jsonl",
    "serve_frontend",
    "system_key",
]


def __getattr__(name: str):
    # Lazy: repro.regions.tier imports repro.service submodules, so a
    # top-level import here would be circular.  The chaos harness is
    # lazy too -- it pulls in the region tier.
    if name == "RegionTier":
        from repro.regions.tier import RegionTier

        return RegionTier
    if name in ("ServiceChaosReport", "run_service_chaos"):
        from repro.service import chaos

        return getattr(chaos, name)
    raise AttributeError(
        f"module {__name__!r} has no attribute {name!r}"
    )
