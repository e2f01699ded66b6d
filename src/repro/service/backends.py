"""Pluggable decision-cache backends behind one interface.

The in-process :class:`~repro.service.cache.DecisionCache` is the
fastest backend but its contents die with the process and cannot be
shared between frontends.  :class:`SqliteDecisionCache` keeps the exact
same interface (``get``/``put``/``stats``/``save``/``load``/
``flights``/...) on top of a sqlite file in WAL mode, so

* a restarted service starts warm without replaying a JSONL file,
* several frontend processes on one host share one decision store, and
* the store survives crashes (WAL journalling, synchronous=NORMAL).

Both are one store (:mod:`repro.service.store`) bound to the decision
codec.  :data:`DECISION_STORES` names them for
:func:`~repro.service.store.make_store`, the config-driven factory the
admission controller uses: ``backend="memory"`` or ``backend="sqlite"``;
anything else is a configuration error, never a silent default.
"""

from __future__ import annotations

from repro.service.cache import DECISION_CODEC, DecisionCache, _Flights
from repro.service.store import SqliteStore

__all__ = ["DECISION_STORES", "SqliteDecisionCache"]


class SqliteDecisionCache(_Flights, SqliteStore):
    """LRU decision cache on sqlite/WAL; same interface as DecisionCache.

    The sqlite engine (:class:`~repro.service.store.SqliteStore`) bound
    to :data:`~repro.service.cache.DECISION_CODEC`: capacity (default
    4096), ``db_path``, ``fsync`` and ``rebuild_from`` are the engine's.
    """

    codec = DECISION_CODEC
    # Bound here, not inherited: the perfbench tracer
    # (perfbench/spans.py) wraps ``get``/``put`` through this class's
    # own ``__dict__``, and region stores, which resolve them on the
    # engine, must stay out of its ``cache.*`` counts.
    get = SqliteStore.get
    put = SqliteStore.put


#: Backend name -> decision store class, for
#: :func:`~repro.service.store.make_store`.
DECISION_STORES = {"memory": DecisionCache, "sqlite": SqliteDecisionCache}
