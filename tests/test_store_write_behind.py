"""Write-behind recency: a sqlite hit commits nothing, yet the store
behaves exactly like one that wrote every touch at once.

:meth:`repro.service.store.SqliteStore.get` keeps a hit's recency in
memory and writes the pending touches, in hit order, inside the next
``put`` transaction and before ``keys()``, a snapshot or ``close()``.
Within one handle that must leave every observable the same as the
memory engine's: the property below drives both engines of one codec
with the same random get/put/contains/keys/save/close sequence and
compares every result, the eviction and hit/miss counts and the
snapshot bytes.  The remaining tests pin the documented rule for a
second handle on the same file, the bound on a reading handle's
pending touches, and what a crash loses.

Run under ``HYPOTHESIS_PROFILE=ci`` in CI's fuzz job.
"""

from __future__ import annotations

import random
import subprocess
import sys
import tempfile
import threading
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions.region import FeasibilityRegion
from repro.regions.store import MemoryRegionStore, SqliteRegionStore
from repro.service.backends import SqliteDecisionCache
from repro.service.cache import DecisionCache
from repro.service.requests import AdmissionDecision

KEYS = "abcdef"
TAGS = "xyz"


def _decision(tag: str) -> AdmissionDecision:
    return AdmissionDecision(
        admitted=tag != "z",
        protocol=None if tag == "z" else "RG",
        rationale=f"decision {tag}",
        schedulable={"RG": tag != "z"},
        task_bounds={"SA/PM": (1.0, 2.5), "SA/DS": (1.0, float("inf"))},
        worst_bound_ratio=float("inf"),
        key=f"key-{tag}",
    )


def _region(tag: str) -> FeasibilityRegion:
    return FeasibilityRegion(
        shape_key=f"shape-{tag}",
        timebase="float",
        dimensions=("T1,1",),
        corners={"SA/PM": (float(ord(tag)),)},
        probes=7,
    )


#: codec name -> (memory class, sqlite class, value maker)
CODECS = {
    "decision": (DecisionCache, SqliteDecisionCache, _decision),
    "region": (MemoryRegionStore, SqliteRegionStore, _region),
}

_operations = st.lists(
    st.one_of(
        st.tuples(st.just("get"), st.sampled_from(KEYS)),
        st.tuples(
            st.just("put"), st.sampled_from(KEYS), st.sampled_from(TAGS)
        ),
        st.tuples(st.just("contains"), st.sampled_from(KEYS)),
        st.just(("keys",)),
        st.just(("save",)),
        st.just(("close",)),
    ),
    max_size=40,
)


def _document(store, value):
    return None if value is None else store.codec.to_dict(value)


@settings(max_examples=60, deadline=None)
@given(
    codec=st.sampled_from(sorted(CODECS)),
    file_backed=st.booleans(),
    capacity=st.integers(1, 4),
    operations=_operations,
)
def test_sqlite_store_matches_the_memory_store(
    codec, file_backed, capacity, operations
):
    memory_class, sqlite_class, value = CODECS[codec]
    with tempfile.TemporaryDirectory() as scratch:
        root = Path(scratch)
        db_path = root / "store.sqlite" if file_backed else ":memory:"
        reference = memory_class(capacity)
        store = sqlite_class(capacity, db_path=db_path)
        # Counters of closed handles, carried into the running totals.
        carried = [0, 0, 0]

        def counts(stats):
            return (stats.hits, stats.misses, stats.evictions)

        try:
            for operation in operations:
                name = operation[0]
                if name == "get":
                    key = operation[1]
                    assert _document(store, store.get(key)) == _document(
                        reference, reference.get(key)
                    )
                elif name == "put":
                    _, key, tag = operation
                    store.put(key, value(tag))
                    reference.put(key, value(tag))
                elif name == "contains":
                    assert (operation[1] in store) == (
                        operation[1] in reference
                    )
                elif name == "keys":
                    assert store.keys() == reference.keys()
                elif name == "save":
                    ours = store.save(root / "sqlite.jsonl")
                    theirs = reference.save(root / "memory.jsonl")
                    assert ours.read_bytes() == theirs.read_bytes()
                else:  # close: a file reopens; a private database ends
                    keys = reference.keys()
                    carried = [
                        a + b for a, b in zip(carried, counts(store.stats()))
                    ]
                    store.close()
                    if not file_backed:
                        break
                    store = sqlite_class(capacity, db_path=db_path)
                    assert store.keys() == keys
                totals = tuple(
                    a + b for a, b in zip(carried, counts(store.stats()))
                )
                assert totals == counts(reference.stats())
            else:
                assert store.keys() == reference.keys()
        finally:
            store.close()


def _fill(path: Path, tags: str) -> SqliteDecisionCache:
    store = SqliteDecisionCache(3, db_path=path)
    for tag in tags:
        store.put(tag, _decision(tag))
    return store


def test_second_handle_sees_touches_after_the_first_writes(tmp_path):
    """Another handle on the file sees a hit's touch only once the
    touching handle writes: its next put, or its close."""
    path = tmp_path / "shared.sqlite"
    first = _fill(path, "abc")
    second = SqliteDecisionCache(3, db_path=path)
    try:
        assert first.get("a") is not None
        assert first.keys() == ("b", "c", "a")  # this handle: at once
        first.put("d", _decision("d"))  # writes the touch, evicts b
        assert second.keys() == ("c", "a", "d")
        assert first.get("c") is not None
        assert second.keys() == ("c", "a", "d")  # pending in first
        first.close()
        assert second.keys() == ("a", "d", "c")
    finally:
        first.close()
        second.close()


def test_keys_write_the_pending_touches(tmp_path):
    path = tmp_path / "shared.sqlite"
    first = _fill(path, "ab")
    second = SqliteDecisionCache(3, db_path=path)
    try:
        first.get("a")
        assert second.keys() == ("a", "b")
        assert first.keys() == ("b", "a")
        assert second.keys() == ("b", "a")
    finally:
        first.close()
        second.close()


def test_pending_touches_never_outgrow_the_capacity(tmp_path):
    """A handle that only reads, while another writes, writes its
    touches once more keys are pending than it can hold."""
    path = tmp_path / "shared.sqlite"
    writer = _fill(path, "abc")
    reader = SqliteDecisionCache(1, db_path=path)
    try:
        reader.get("a")
        assert writer.keys() == ("a", "b", "c")
        reader.get("b")  # two pending, capacity one: written
        assert writer.keys() == ("c", "a", "b")
    finally:
        writer.close()
        reader.close()


def test_concurrent_hits_and_puts_keep_the_store_consistent(tmp_path):
    """Threads hitting and putting on one handle (the region store's
    case: builds put from threads while the loop reads): every lookup
    is counted once, keys stay distinct and within the capacity, a hit
    returns its own key's value, and a reopened file holds what the
    handle last listed."""
    path = tmp_path / "stress.sqlite"
    store = SqliteDecisionCache(8, db_path=path)
    gets_per_thread, threads_count = 300, 8
    wrong = []

    def work(seed: int) -> None:
        rng = random.Random(seed)
        try:
            for _ in range(gets_per_thread):
                key = f"k{rng.randrange(12)}"
                if rng.random() < 0.3:
                    store.put(key, replace(_decision("x"), key=key))
                found = store.get(key)
                if found is not None and found.key != key:
                    wrong.append((key, found.key))
        except Exception as exc:  # noqa: BLE001 - reported below
            wrong.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=work, args=(seed,))
            for seed in range(threads_count)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    try:
        assert wrong == []
        stats = store.stats()
        assert stats.hits + stats.misses == gets_per_thread * threads_count
        keys = store.keys()
        assert len(set(keys)) == len(keys) <= 8
    finally:
        store.close()
    reopened = SqliteDecisionCache(8, db_path=path)
    try:
        assert reopened.keys() == keys
    finally:
        reopened.close()


_CRASH = """
import os, sys
sys.path.insert(0, sys.argv[2])
from repro.service.backends import SqliteDecisionCache
from repro.service.requests import AdmissionDecision

store = SqliteDecisionCache(3, db_path=sys.argv[1])
for tag in "ab":
    store.put(tag, AdmissionDecision(
        admitted=True, protocol="RG", rationale=tag, schedulable={},
        task_bounds={}, worst_bound_ratio=1.0, key=tag,
    ))
assert store.get("a") is not None
os._exit(0)  # a crash: the pending touch of "a" is never written
"""


def test_a_crash_loses_recency_never_a_value(tmp_path):
    path = tmp_path / "crashed.sqlite"
    source = Path(__file__).resolve().parents[1] / "src"
    subprocess.run(
        [sys.executable, "-c", _CRASH, str(path), str(source)],
        check=True,
        timeout=60,
    )
    reopened = SqliteDecisionCache(3, db_path=path)
    try:
        assert reopened.keys() == ("a", "b")  # the touch is lost
        assert reopened.get("a").rationale == "a"
        assert reopened.get("b").rationale == "b"
    finally:
        reopened.close()
