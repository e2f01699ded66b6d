"""One keyed LRU store: a memory engine and a sqlite engine over a codec.

The service memoizes in two tiers -- exact decisions (content key ->
:class:`~repro.service.requests.AdmissionDecision`) and feasibility
regions (shape key -> :class:`~repro.regions.region.FeasibilityRegion`)
-- and both tiers keep their entries in the same store:

* a bounded, thread-safe map that evicts the least recently *used*
  (looked up or stored) entry first;
* process-local hit/miss/eviction counters, read as :class:`CacheStats`
  (counters are observability, not state);
* an atomic CRC-framed JSONL snapshot that salvages a torn tail on load
  (see :mod:`repro.service.durability`);
* close/context management, so ``with`` leaves a complete snapshot.

That store is written once per engine here:

* :class:`MemoryStore` keeps an ``OrderedDict`` in process.  Its
  ``path`` is the JSONL snapshot it warm-starts from and closes to.
* :class:`SqliteStore` keeps a sqlite table in WAL mode.  A real
  ``db_path`` is durable and shared by every process on the host that
  opens it; ``":memory:"`` is private.  Recency is a monotone ``seq``
  column.  A hit only remembers its touch in memory; the touches are
  written behind, in hit order, by the handle's next write (see
  :meth:`SqliteStore.get`).  A database that fails ``PRAGMA
  integrity_check`` on open is quarantined and started fresh, then
  rebuilt from the constructor's ``rebuild_from`` snapshot if one is
  given.

Everything that differs between a decision store and a region store is
a :class:`StoreCodec`: the snapshot format tag, the record's field names
(which are also the table's columns), the table name, the label used in
errors and salvage logs, the value's ``to_dict``/``from_dict`` and the
default capacity.  The public classes
(:class:`~repro.service.cache.DecisionCache`,
:class:`~repro.service.backends.SqliteDecisionCache`,
:class:`~repro.regions.store.MemoryRegionStore`,
:class:`~repro.regions.store.SqliteRegionStore`) only bind a codec to an
engine, and :func:`make_store` builds one from configuration.  Snapshots
of either engine load into the other: they share one file format.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import OrderedDict, namedtuple
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Mapping

from repro.errors import ConfigurationError
from repro.service.durability import (
    FSYNC_POLICIES,
    RecoveryReport,
    atomic_write_text,
    frame_line,
    load_jsonl_salvaging,
    open_sqlite_checked,
)

__all__ = [
    "STORE_BACKENDS",
    "CacheStats",
    "MemoryStore",
    "SqliteStore",
    "StoreCodec",
    "make_store",
]

#: Recognized :func:`make_store` backend names.
STORE_BACKENDS: tuple[str, ...] = ("memory", "sqlite")


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of a store's counters.

    ``coalesced`` counts lookups that found the key *in flight* rather
    than resident: the caller waited for the leader's computation
    instead of starting its own (see
    :class:`~repro.service.cache.SingleFlight`).  Only decision caches
    coalesce; region stores report 0.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    capacity: int
    coalesced: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits over lookups; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        extra = (
            f", {self.coalesced} coalesced" if self.coalesced else ""
        )
        return (
            f"cache: {self.size}/{self.capacity} entries, "
            f"{self.hits} hits / {self.misses} misses "
            f"(rate {self.hit_rate:.1%}), {self.evictions} evictions"
            f"{extra}"
        )


@dataclass(frozen=True)
class StoreCodec:
    """Every fact that differs between two kinds of keyed store.

    ``format`` tags each snapshot record; ``key_field`` and
    ``value_field`` name the record's fields and the sqlite table's
    columns; ``table`` names the table; ``label`` names the store in
    errors and salvage logs; ``to_dict``/``from_dict`` convert a value
    to and from its JSON document; ``capacity`` is the default size.
    """

    format: str
    key_field: str
    value_field: str
    table: str
    label: str
    to_dict: Callable[[Any], dict]
    from_dict: Callable[[dict], Any]
    capacity: int


class _KeyedStore:
    """What both engines share: validation, counters, snapshots."""

    #: Bound by each public subclass.
    codec: StoreCodec
    #: Lookups that joined an in-flight computation; only decision
    #: caches, which own a single-flight table, count any.
    coalesced = 0

    def __init__(self, capacity: int | None, fsync: str) -> None:
        codec = self.codec
        if capacity is None:
            capacity = codec.capacity
        if capacity < 1:
            raise ConfigurationError(
                f"{codec.label} capacity must be >= 1, got {capacity}"
            )
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"unknown fsync policy {fsync!r}; expected one of "
                f"{'/'.join(FSYNC_POLICIES)}"
            )
        self._capacity = capacity
        self._fsync = fsync
        self._path: Path | None = None
        self._lock = threading.RLock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self.last_recovery: RecoveryReport | None = None
        self.integrity_failures = 0

    # ------------------------------------------------------------------
    # Lookups (each engine defines ``get`` and ``_read``)
    # ------------------------------------------------------------------
    def _counted(self, value):
        """``value``, counted as a hit, or None as a miss; called under
        the lock by each engine's ``get``."""
        if value is None:
            self._misses += 1
        else:
            self._hits += 1
        return value

    def recheck(self, key: str):
        """:meth:`get` without counting a hit or a miss.

        For a second look at a key whose counted lookup already missed:
        the frontend's shard worker takes one after the queue, so every
        request counts one lookup.  A hit refreshes recency like
        :meth:`get`.
        """
        with self._lock:
            return self._read(key)

    def _read(self, key: str):
        """The value for ``key`` or None, refreshing recency on a hit;
        called under the lock."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self._capacity

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self),
                capacity=self._capacity,
                coalesced=self.coalesced,
            )

    # ------------------------------------------------------------------
    # Snapshots (warm restarts, engine interchange, sqlite rebuilds)
    # ------------------------------------------------------------------
    def save(self, path: str | Path | None = None) -> Path:
        """Snapshot every entry as CRC-framed JSONL, LRU first (so a
        smaller-capacity reload keeps the hottest entries).

        ``path`` defaults to a memory store's constructor path; with
        neither, :class:`ConfigurationError`.  The write is atomic
        (temp file + rename under the constructor's fsync policy): a
        crash mid-save leaves the previous complete snapshot, never a
        torn file.  Returns the path written.
        """
        target = Path(path) if path is not None else self._path
        if target is None:
            raise ConfigurationError(
                "no persistence path: pass one to save() or the constructor"
            )
        codec = self.codec
        lines = [
            frame_line(
                json.dumps(
                    {
                        "format": codec.format,
                        codec.key_field: key,
                        codec.value_field: document,
                    },
                    sort_keys=True,
                )
            )
            for key, document in self._documents()
        ]
        return atomic_write_text(
            target,
            "\n".join(lines) + ("\n" if lines else ""),
            fsync=self._fsync,
        )

    def load(self, path: str | Path) -> int:
        """Merge entries from a :meth:`save` file; returns the count.

        Lines are applied in file order, so the file's most recently
        used entries end up most recently used here too.  A torn or
        truncated tail (crash mid-append) is *salvaged*: the valid
        prefix loads, the damage is logged and reported in
        ``last_recovery``.  A parseable line of a foreign format, or a
        well-formed record this store cannot apply, still raises
        :class:`ConfigurationError` -- those are configuration/writer
        bugs, not storage damage.  Legacy unframed files load too.
        """
        codec = self.codec

        def apply(entry: dict) -> None:
            self.put(
                entry[codec.key_field],
                codec.from_dict(entry[codec.value_field]),
            )

        report = load_jsonl_salvaging(
            path,
            expected_format=codec.format,
            apply=apply,
            label=codec.label,
        )
        self.last_recovery = report
        return report.loaded

    def _documents(self) -> list[tuple[str, dict]]:
        """``(key, to_dict document)`` per entry, LRU first."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Lifecycle (each engine defines ``close``)
    # ------------------------------------------------------------------
    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryStore(_KeyedStore):
    """The in-process engine: an LRU ``OrderedDict`` under a lock.

    Parameters
    ----------
    capacity:
        Maximum number of entries retained; the codec's default when
        omitted.
    path:
        Optional JSONL snapshot.  When given and present, the store
        warm-starts from it on construction; :meth:`save` and
        :meth:`close` rewrite it atomically.
    fsync:
        Snapshot fsync policy, one of
        :data:`repro.service.durability.FSYNC_POLICIES`.

    After a warm start, ``last_recovery`` holds the load's
    :class:`~repro.service.durability.RecoveryReport` (salvage counts
    for a torn file, or a clean report).
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        path: str | Path | None = None,
        fsync: str = "data",
    ) -> None:
        super().__init__(capacity, fsync)
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self._path = None if path is None else Path(path)
        if self._path is not None and self._path.exists():
            self.load(self._path)

    def get(self, key: str):
        """The stored value for ``key``, or None; counts hit/miss."""
        with self._lock:
            return self._counted(self._read(key))

    def _read(self, key: str):
        value = self._entries.get(key)
        if value is not None:
            self._entries.move_to_end(key)
        return value

    def put(self, key: str, value) -> None:
        """Store (or refresh) a value, evicting LRU entries if full."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def __contains__(self, key: str) -> bool:
        """Membership without touching recency or the counters."""
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> tuple[str, ...]:
        """Current keys, least recently used first."""
        with self._lock:
            return tuple(self._entries)

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        with self._lock:
            self._entries.clear()

    def _documents(self) -> list[tuple[str, dict]]:
        to_dict = self.codec.to_dict
        with self._lock:
            return [
                (key, to_dict(value)) for key, value in self._entries.items()
            ]

    def close(self) -> None:
        """Flush to the constructor's snapshot path, if any.

        Idempotent; a path-less store has nothing to do.  This is what
        makes ``with DecisionCache(path=...) as cache:`` crash-restart
        friendly: normal teardown leaves a complete snapshot behind.
        """
        if self._path is not None:
            self.save()


_Statements = namedtuple(
    "_Statements",
    "schema next_seq select touch upsert evict contains count keys rows clear",
)


@functools.cache
def _statements(codec: StoreCodec) -> _Statements:
    """The SQL one codec's table needs, built once per codec."""
    table, key, value = codec.table, codec.key_field, codec.value_field
    return _Statements(
        schema=f"""
CREATE TABLE IF NOT EXISTS {table} (
    {key} TEXT PRIMARY KEY,
    {value} TEXT NOT NULL,
    seq INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS {table}_seq ON {table} (seq);
""",
        next_seq=f"SELECT COALESCE(MAX(seq), 0) + 1 FROM {table}",
        select=f"SELECT {value} FROM {table} WHERE {key} = ?",
        touch=f"UPDATE {table} SET seq = ? WHERE {key} = ?",
        upsert=(
            f"INSERT INTO {table} ({key}, {value}, seq) "
            f"VALUES (?, ?, ?) ON CONFLICT({key}) DO UPDATE SET "
            f"{value} = excluded.{value}, seq = excluded.seq"
        ),
        evict=(
            f"DELETE FROM {table} WHERE {key} IN ("
            f"SELECT {key} FROM {table} ORDER BY seq LIMIT ?)"
        ),
        contains=f"SELECT 1 FROM {table} WHERE {key} = ?",
        count=f"SELECT COUNT(*) FROM {table}",
        keys=f"SELECT {key} FROM {table} ORDER BY seq",
        rows=f"SELECT {key}, {value} FROM {table} ORDER BY seq",
        clear=f"DELETE FROM {table}",
    )


class SqliteStore(_KeyedStore):
    """The shared engine: an LRU table on sqlite/WAL.

    Parameters
    ----------
    capacity:
        Maximum number of entries retained (LRU eviction by ``seq``);
        the codec's default when omitted.
    db_path:
        The sqlite file.  ``":memory:"`` gives a private in-memory
        database (useful in tests); a real path is durable and shared.
    fsync:
        Fsync policy for :meth:`save` snapshots (the database itself
        runs ``synchronous=NORMAL`` under WAL).
    rebuild_from:
        Optional JSONL snapshot (a :meth:`save` file from either
        engine).  When opening ``db_path`` finds corruption (``PRAGMA
        integrity_check`` fails), the damaged file is quarantined, a
        fresh database is started, and -- if this snapshot exists --
        the store rebuilds from it; ``last_recovery`` reports all of
        it and ``integrity_failures`` counts the corruption events.

    Recency is written behind (see :meth:`get`): a hit reads and
    commits nothing.  Within one handle, LRU order, evictions and
    snapshots are those of a store that wrote every touch at once.
    """

    def __init__(
        self,
        capacity: int | None = None,
        *,
        db_path: str | Path = ":memory:",
        fsync: str = "data",
        rebuild_from: str | Path | None = None,
    ) -> None:
        super().__init__(capacity, fsync)
        self._sql = _statements(self.codec)
        self._db_path = str(db_path)
        self._closed = False
        # Keys hit since the last write, least recent first (see get).
        self._touched: dict[str, None] = {}
        self._conn, quarantined = open_sqlite_checked(
            self._db_path, self._sql.schema
        )
        if quarantined is not None:
            self.integrity_failures += 1
            loaded = 0
            if rebuild_from is not None and Path(rebuild_from).exists():
                loaded = self.load(rebuild_from)
            self.last_recovery = RecoveryReport(
                path=self._db_path,
                kind="sqlite",
                loaded=loaded,
                reason="integrity check failed; rebuilt from snapshot"
                if loaded
                else "integrity check failed; no snapshot to rebuild from",
                quarantined=quarantined,
            )

    def _next_seq(self) -> int:
        return int(self._conn.execute(self._sql.next_seq).fetchone()[0])

    def get(self, key: str):
        """The stored value for ``key``, or None; counts hit/miss.

        A hit records its recency in memory only: it issues one
        ``SELECT`` and no write.  Pending touches are written in hit
        order, each with a fresh ``seq``, inside the next :meth:`put`'s
        transaction before it decides what to evict, and before
        :meth:`keys`, a snapshot or :meth:`close` read or leave the
        table.  So this handle's LRU order, evictions and snapshots are
        exactly those of writing each touch at once.  Another handle on
        the same file sees this handle's touches only after one of
        those writes, and a crash loses the pending touches -- recency,
        never a value.  The pending set holds distinct keys that were
        rows when hit, so within one handle the capacity bounds it; a
        hit that finds it larger (other handles replaced rows
        meanwhile) writes it at once.
        """
        with self._lock:
            return self._counted(self._read(key))

    def _read(self, key: str):
        row = self._conn.execute(self._sql.select, (key,)).fetchone()
        if row is None:
            return None
        self._touched.pop(key, None)
        self._touched[key] = None
        if len(self._touched) > self._capacity:
            # Only other handles' writes let distinct hits outnumber
            # this handle's capacity; write them rather than grow.
            self._flush_touches()
        return self.codec.from_dict(json.loads(row[0]))

    def _write_touches(self) -> int:
        """Give each pending touch a fresh ``seq``, in hit order, in the
        open transaction; returns the next free ``seq``.  Called under
        the lock."""
        seq = self._next_seq()
        if self._touched:
            self._conn.executemany(
                self._sql.touch,
                [
                    (number, key)
                    for number, key in enumerate(self._touched, start=seq)
                ],
            )
            seq += len(self._touched)
            self._touched.clear()
        return seq

    def _flush_touches(self) -> None:
        """Write and commit the pending touches; called under the lock."""
        if self._touched:
            self._write_touches()
            self._conn.commit()

    def put(self, key: str, value) -> None:
        """Store (or refresh) a value, evicting LRU rows if full.

        One transaction: the pending touches (see :meth:`get`), the
        row, then the eviction.
        """
        encoded = json.dumps(self.codec.to_dict(value), sort_keys=True)
        with self._lock:
            seq = self._write_touches()
            self._conn.execute(self._sql.upsert, (key, encoded, seq))
            over = len(self) - self._capacity
            if over > 0:
                self._conn.execute(self._sql.evict, (over,))
                self._evictions += over
            self._conn.commit()

    def __contains__(self, key: str) -> bool:
        """Membership without touching recency or the counters."""
        with self._lock:
            row = self._conn.execute(self._sql.contains, (key,)).fetchone()
            return row is not None

    def __len__(self) -> int:
        with self._lock:
            return int(self._conn.execute(self._sql.count).fetchone()[0])

    def keys(self) -> tuple[str, ...]:
        """Current keys, least recently used first."""
        with self._lock:
            self._flush_touches()
            rows = self._conn.execute(self._sql.keys).fetchall()
            return tuple(row[0] for row in rows)

    def clear(self) -> None:
        """Drop every row (counters are kept)."""
        with self._lock:
            self._touched.clear()
            self._conn.execute(self._sql.clear)
            self._conn.commit()

    def _documents(self) -> list[tuple[str, dict]]:
        with self._lock:
            self._flush_touches()
            rows = self._conn.execute(self._sql.rows).fetchall()
        return [(key, json.loads(encoded)) for key, encoded in rows]

    def close(self) -> None:
        """Write the pending touches and close the connection
        (idempotent; the connection closes even if the write fails)."""
        with self._lock:
            if not self._closed:
                try:
                    self._flush_touches()
                finally:
                    self._conn.close()
                    self._closed = True


def make_store(
    stores: Mapping[str, type[_KeyedStore]],
    backend: str,
    *,
    capacity: int | None = None,
    path: str | Path | None = None,
    fsync: str = "data",
):
    """Build one store of a kind from configuration.

    ``stores`` maps each of :data:`STORE_BACKENDS` to the kind's public
    class (:data:`repro.service.backends.DECISION_STORES` or
    :data:`repro.regions.store.REGION_STORES`).  ``path`` is the memory
    store's JSONL snapshot, or the sqlite database (private in-memory
    when omitted); ``fsync`` is the snapshot policy.  Any other
    ``backend`` is a configuration error, never a silent default.
    """
    if backend not in STORE_BACKENDS:
        raise ConfigurationError(
            f"unknown {stores['memory'].codec.label} backend {backend!r}; "
            f"expected one of {'/'.join(STORE_BACKENDS)}"
        )
    if backend == "sqlite":
        return stores[backend](
            capacity,
            db_path=":memory:" if path is None else path,
            fsync=fsync,
        )
    return stores[backend](capacity, path=path, fsync=fsync)
