"""One store contract, checked on {memory, sqlite} x {decision, region}.

The decision cache and the region tier keep their entries in the same
keyed store (:mod:`repro.service.store`): an LRU map with counters, a
framed JSONL snapshot with salvage, and a sqlite/WAL table with
integrity-check quarantine.  Every case here runs on each engine bound
to each codec, so the four public classes cannot drift apart.
"""

from __future__ import annotations

import dataclasses
import sqlite3
import threading
from fractions import Fraction

import pytest

from repro.errors import ConfigurationError
from repro.regions.region import FeasibilityRegion
from repro.regions.store import (
    REGION_CODEC,
    REGION_STORES,
    MemoryRegionStore,
    SqliteRegionStore,
)
from repro.service.backends import DECISION_STORES, SqliteDecisionCache
from repro.service.cache import DECISION_CODEC, DecisionCache
from repro.service.requests import AdmissionDecision
from repro.service.store import STORE_BACKENDS, MemoryStore, SqliteStore


def _decision(tag: str) -> AdmissionDecision:
    return AdmissionDecision(
        admitted=tag != "b",
        protocol="RG" if tag != "b" else None,
        rationale=f"decision {tag}",
        schedulable={"DS": False, "RG": tag != "b"},
        task_bounds={
            "SA/PM": (1.0, 2.5),
            "SA/DS": (1.0, float("inf")),
        },
        worst_bound_ratio=float("inf"),
        key=f"key-{tag}",
        system_name=f"system-{tag}",
    )


def _region(tag: str) -> FeasibilityRegion:
    if tag == "x":  # exact timebase: rational corners
        return FeasibilityRegion(
            shape_key="shape-x",
            timebase="exact",
            dimensions=("T1,1", "T1,2"),
            corners={
                "SA/DS": (Fraction(7, 3), Fraction(123456789, 65536)),
                "SA/PM": None,
            },
            probes=31,
        )
    return FeasibilityRegion(
        shape_key=f"shape-{tag}",
        timebase="float",
        dimensions=("T1,1",),
        corners={"SA/PM": (float(ord(tag[0])),)},
        probes=7,
    )


class Kind:
    """One codec's public classes plus a value maker."""

    def __init__(self, name, stores, codec, value) -> None:
        self.name = name
        self.stores = stores
        self.codec = codec
        self.value = value

    def open(self, engine: str, capacity: int | None = None, **options):
        return self.stores[engine](capacity, **options)


KINDS = {
    "decision": Kind("decision", DECISION_STORES, DECISION_CODEC, _decision),
    "region": Kind("region", REGION_STORES, REGION_CODEC, _region),
}


@pytest.fixture(params=list(KINDS))
def kind(request) -> Kind:
    return KINDS[request.param]


@pytest.fixture(params=STORE_BACKENDS)
def engine(request) -> str:
    return request.param


@pytest.fixture
def store(kind, engine):
    built = kind.open(engine, 3)
    yield built
    if engine == "sqlite":
        built.close()


def _typed(value):
    """``value`` with each leaf paired with its type name, dicts sorted."""
    if dataclasses.is_dataclass(value):
        return _typed(dataclasses.asdict(value))
    if isinstance(value, dict):
        return sorted((name, _typed(item)) for name, item in value.items())
    if isinstance(value, (tuple, list)):
        return [_typed(item) for item in value]
    return type(value).__name__, value


def _fill(store, kind: Kind, tags: str) -> None:
    for tag in tags:
        store.put(tag, kind.value(tag))


class TestMap:
    def test_get_put_round_trip(self, store, kind):
        assert store.get("a") is None
        store.put("a", kind.value("a"))
        assert store.get("a") == kind.value("a")
        assert "a" in store and len(store) == 1

    def test_counters_and_stats(self, store, kind):
        assert store.stats().hit_rate == 0.0
        _fill(store, kind, "a")
        store.get("a")
        store.get("a")
        store.get("missing")
        stats = store.stats()
        assert (stats.hits, stats.misses) == (2, 1)
        assert (stats.size, stats.capacity) == (1, 3)
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert "rate" in stats.describe()

    def test_eviction_is_least_recently_used(self, store, kind):
        _fill(store, kind, "abc")
        assert store.get("a") is not None  # refresh a; b is now LRU
        store.put("d", kind.value("d"))
        assert len(store) == 3
        assert "b" not in store
        assert store.keys() == ("c", "a", "d")
        assert store.stats().evictions == 1

    def test_put_refreshes_recency_and_value(self, store, kind):
        _fill(store, kind, "abc")
        store.put("a", kind.value("z"))  # re-store refreshes a
        store.put("d", kind.value("d"))
        assert store.keys() == ("c", "a", "d")
        assert store.get("a") == kind.value("z")

    def test_restoring_a_key_keeps_one_entry(self, store, kind):
        store.put("a", kind.value("a"))
        store.put("a", kind.value("z"))
        assert len(store) == 1 and store.keys() == ("a",)
        assert store.get("a") == kind.value("z")

    def test_eviction_order_across_many(self, store, kind):
        _fill(store, kind, "abcde")
        assert store.keys() == ("c", "d", "e")
        assert store.stats().evictions == 2

    def test_contains_does_not_touch_stats_or_recency(self, store, kind):
        _fill(store, kind, "abc")
        assert "a" in store  # not a use
        store.put("d", kind.value("d"))
        assert "a" not in store  # a was still LRU
        assert store.stats().lookups == 0

    def test_clear_keeps_counters(self, store, kind):
        _fill(store, kind, "a")
        store.get("a")
        store.get("b")
        store.clear()
        stats = store.stats()
        assert len(store) == 0 and "a" not in store
        assert (stats.hits, stats.misses) == (1, 1)

    def test_concurrent_mixed_use(self, kind, engine):
        store = kind.open(engine, 8)
        tags = "abcdefghijkl"
        errors: list[BaseException] = []

        def worker(offset: int) -> None:
            try:
                for i in range(50):
                    tag = tags[(offset * 5 + i) % len(tags)]
                    store.put(tag, kind.value(tag))
                    store.get(tags[i % len(tags)])
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        try:
            assert not any(thread.is_alive() for thread in threads)
            assert not errors
            assert len(store) <= 8
            assert store.stats().lookups == 4 * 50
        finally:
            store.close()


class TestConfiguration:
    def test_default_capacity_is_the_codecs(self, kind, engine):
        with kind.open(engine) as built:
            assert built.capacity == kind.codec.capacity

    def test_capacity_below_one_rejected(self, kind, engine):
        with pytest.raises(ConfigurationError, match="capacity"):
            kind.open(engine, 0)

    def test_unknown_fsync_policy_rejected(self, kind, engine):
        with pytest.raises(ConfigurationError, match="fsync"):
            kind.open(engine, 2, fsync="sometimes")

    def test_save_without_a_path_rejected(self, store):
        with pytest.raises(ConfigurationError, match="persistence path"):
            store.save()

    def test_single_flight_only_on_decision_caches(self, store, kind):
        if kind.name == "decision":
            leader, _ = store.flights.begin("k")
            follower, _ = store.flights.begin("k")
            store.flights.finish("k", None)
            assert leader and not follower
            assert store.stats().coalesced == 1
        else:
            assert not hasattr(store, "flights")
            assert store.stats().coalesced == 0


class TestSnapshots:
    @pytest.mark.parametrize("target", STORE_BACKENDS)
    def test_round_trip_across_engines(self, store, kind, target, tmp_path):
        _fill(store, kind, "abx")
        store.get("a")  # order is b, x, a
        path = store.save(tmp_path / "snap.jsonl")
        with kind.open(target, 8) as reloaded:
            assert reloaded.load(path) == 3
            assert reloaded.last_recovery.clean
            assert reloaded.keys() == ("b", "x", "a")
            for tag in "abx":
                assert reloaded.get(tag) == kind.value(tag)

    def test_values_keep_their_types(self, store, kind, tmp_path):
        """Exact corners stay rational and infinite bounds stay floats."""
        _fill(store, kind, "ax")
        path = store.save(tmp_path / "snap.jsonl")
        with kind.open("memory", 4) as reloaded:
            reloaded.load(path)
            for tag in "ax":
                assert _typed(store.get(tag)) == _typed(kind.value(tag))
                assert _typed(reloaded.get(tag)) == _typed(kind.value(tag))

    def test_smaller_reload_keeps_hottest(self, store, kind, tmp_path):
        _fill(store, kind, "abc")
        path = store.save(tmp_path / "snap.jsonl")
        with kind.open("memory", 2) as small:
            small.load(path)
            assert small.keys() == ("b", "c")

    def test_fsync_policy_applies_to_saves(self, kind, engine, tmp_path):
        with kind.open(engine, 2, fsync="never") as built:
            _fill(built, kind, "a")
            path = built.save(tmp_path / "snap.jsonl")
        with kind.open("memory", 2, path=path) as reloaded:
            assert reloaded.keys() == ("a",)

    def test_torn_tail_is_salvaged(self, store, kind, tmp_path):
        _fill(store, kind, "abc")
        path = store.save(tmp_path / "snap.jsonl")
        text = path.read_text()
        path.write_text(text[: len(text) - 20])  # tear the last record
        with kind.open("memory", 8) as salvaged:
            assert salvaged.load(path) == 2
            report = salvaged.last_recovery
            assert (report.loaded, report.dropped) == (2, 1)
            assert not report.clean
            assert salvaged.keys() == ("a", "b")

    def test_foreign_format_rejected(self, store, tmp_path):
        path = tmp_path / "foreign.jsonl"
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(ConfigurationError, match="format"):
            store.load(path)

    def test_kinds_do_not_load_each_other(self, kind, tmp_path):
        other = KINDS["region" if kind.name == "decision" else "decision"]
        with other.open("memory", 2) as source:
            _fill(source, other, "a")
            path = source.save(tmp_path / "other.jsonl")
        with pytest.raises(ConfigurationError, match=kind.codec.format):
            kind.open("memory", 2).load(path)


class TestMemoryEngine:
    def test_constructor_path_warm_starts_and_close_saves(
        self, kind, tmp_path
    ):
        path = tmp_path / "snap.jsonl"
        with kind.open("memory", 4, path=path) as first:
            _fill(first, kind, "ab")
        with kind.open("memory", 4, path=path) as second:
            assert second.keys() == ("a", "b")
            assert second.get("b") == kind.value("b")
            assert second.last_recovery.clean

    def test_missing_file_starts_empty(self, kind, tmp_path):
        built = kind.open("memory", 4, path=tmp_path / "absent.jsonl")
        assert len(built) == 0 and built.last_recovery is None


class TestSqliteEngine:
    def test_durable_across_reopen(self, kind, tmp_path):
        db = tmp_path / "store.db"
        with kind.open("sqlite", 4, db_path=db) as first:
            _fill(first, kind, "ax")
            first.get("a")
        with kind.open("sqlite", 4, db_path=db) as second:
            assert second.keys() == ("x", "a")
            assert second.get("x") == kind.value("x")

    def test_two_handles_share_one_file(self, kind, tmp_path):
        db = tmp_path / "shared.db"
        with kind.open("sqlite", 4, db_path=db) as writer:
            with kind.open("sqlite", 4, db_path=db) as reader:
                writer.put("a", kind.value("a"))
                assert reader.get("a") == kind.value("a")

    def test_table_and_columns_come_from_the_codec(self, kind, tmp_path):
        db = tmp_path / "store.db"
        with kind.open("sqlite", 4, db_path=db) as built:
            _fill(built, kind, "a")
        conn = sqlite3.connect(db)
        try:
            codec = kind.codec
            rows = conn.execute(
                f"SELECT {codec.key_field}, {codec.value_field}, seq "
                f"FROM {codec.table}"
            ).fetchall()
        finally:
            conn.close()
        assert [row[0] for row in rows] == ["a"]

    @pytest.mark.parametrize("with_snapshot", [True, False])
    def test_corrupt_database_quarantined_and_rebuilt(
        self, kind, tmp_path, with_snapshot
    ):
        db = tmp_path / "store.db"
        snapshot = tmp_path / "snap.jsonl"
        with kind.open("sqlite", 4, db_path=db) as first:
            _fill(first, kind, "ab")
            if with_snapshot:
                first.save(snapshot)
        with open(db, "r+b") as handle:
            handle.write(b"\xff" * 100)  # smash the sqlite header
        with kind.open(
            "sqlite", 4, db_path=db, rebuild_from=snapshot
        ) as rebuilt:
            assert rebuilt.integrity_failures == 1
            report = rebuilt.last_recovery
            assert report.kind == "sqlite" and not report.clean
            assert (tmp_path / "store.db.quarantined-0").exists()
            assert report.quarantined.endswith("quarantined-0")
            if with_snapshot:
                assert report.loaded == 2
                assert rebuilt.keys() == ("a", "b")
                assert rebuilt.get("a") == kind.value("a")
            else:
                assert report.loaded == 0 and len(rebuilt) == 0
                assert "no snapshot" in report.reason

    def test_close_is_idempotent(self, kind):
        built = kind.open("sqlite", 2)
        built.close()
        built.close()


def test_lookups_are_bound_on_the_decision_classes():
    """``get``/``put`` live in each decision class's own ``__dict__``,
    so wrapping them there leaves the region stores' lookups alone."""
    for cls, engine in (
        (DecisionCache, MemoryStore),
        (SqliteDecisionCache, SqliteStore),
    ):
        for name in ("get", "put"):
            assert cls.__dict__[name] is engine.__dict__[name]
    for cls in (MemoryRegionStore, SqliteRegionStore):
        assert "get" not in cls.__dict__ and "put" not in cls.__dict__
