"""Golden persisted-store corpus: files written once, loaded forever.

Decision caches and region stores outlive the process that wrote them:
a restarted service warm-starts from its JSONL snapshot or reopens its
sqlite database.  ``tests/corpus/golden_stores/`` freezes one file of
each kind the stores write:

* ``decisions.jsonl`` -- a CRC-framed decision snapshot whose first
  line is a legacy unframed record (files written before framing);
* ``regions.jsonl`` -- a framed region snapshot holding float regions
  and one exact-timebase region with rational corners;
* ``decisions.sql`` / ``regions.sql`` -- sqlite databases as
  ``iterdump()`` SQL text, with a recency order that differs from
  insertion order.

``expected.json`` records, per file, the keys in least-recently-used
order and each entry's ``to_dict`` document.  Every file must load into
each store engine of its kind with exactly those keys, that order and
those documents, and re-saving a loaded JSONL snapshot must reproduce
the snapshot byte for byte (with its legacy lines framed).

Regenerate only after an *intentional* persistence-format change with::

    PYTHONPATH=src python tests/test_service_golden_stores.py --regenerate

and audit the diff: a changed format orphans every store on disk.
"""

from __future__ import annotations

import json
import sqlite3
from fractions import Fraction
from pathlib import Path

import pytest

from repro.regions.compute import compute_region
from repro.regions.region import (
    FeasibilityRegion,
    region_from_dict,
    region_to_dict,
)
from repro.regions.store import MemoryRegionStore, SqliteRegionStore
from repro.service.backends import SqliteDecisionCache
from repro.service.cache import DecisionCache
from repro.service.durability import frame_line, unframe_line
from repro.service.engine import compute_decision
from repro.service.requests import (
    AdmissionDecision,
    AdmissionRequest,
    decision_from_dict,
    decision_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

CORPUS = Path(__file__).parent / "corpus" / "golden_stores"

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

#: kind -> (memory class, sqlite class, to_dict, from_dict)
KINDS = {
    "decisions": (
        DecisionCache,
        SqliteDecisionCache,
        decision_to_dict,
        decision_from_dict,
    ),
    "regions": (
        MemoryRegionStore,
        SqliteRegionStore,
        region_to_dict,
        region_from_dict,
    ),
}


# ---------------------------------------------------------------------------
# The frozen entries (used only to regenerate)
# ---------------------------------------------------------------------------


def _decisions() -> list[tuple[str, AdmissionDecision]]:
    computed = [
        compute_decision(
            AdmissionRequest(system=generate_system(LIGHT, seed))
        )
        for seed in (1, 2, 3)
    ]
    refused = AdmissionDecision(
        admitted=False,
        protocol=None,
        rationale="no requested protocol certifies every deadline",
        schedulable={"DS": False, "PM": False, "RG": False},
        task_bounds={
            "SA/PM": (12.5, float("inf")),
            "SA/DS": (13.25, float("inf")),
        },
        worst_bound_ratio=float("inf"),
        key="f" * 64,
        system_name="hand-refused",
        margins={"SA/PM": {"T1,1": 0.5, "T2,1": 0.0}},
    )
    return [(d.key, d) for d in computed] + [(refused.key, refused)]


def _regions() -> list[tuple[str, FeasibilityRegion]]:
    built = compute_region(
        AdmissionRequest(system=generate_system(LIGHT, 5))
    )
    empty = FeasibilityRegion(
        shape_key="e" * 64,
        timebase="float",
        dimensions=("T1,1", "T1,2"),
        corners={"SA/PM": None, "SA/DS": (0.75, 1.5)},
        probes=3,
    )
    exact = FeasibilityRegion(
        shape_key="d" * 64,
        timebase="exact",
        dimensions=("T1,1", "T1,2"),
        corners={
            "SA/DS": (Fraction(7, 3), Fraction(123456789, 65536)),
            "SA/PM": (Fraction(5, 2), Fraction(4)),
        },
        probes=31,
    )
    return [(r.shape_key, r) for r in (built, empty, exact)]


def _regenerate() -> None:
    import tempfile

    CORPUS.mkdir(parents=True, exist_ok=True)
    expected: dict[str, dict] = {}
    for kind, entries in (
        ("decisions", _decisions()),
        ("regions", _regions()),
    ):
        memory_cls, sqlite_cls, to_dict, _from_dict = KINDS[kind]
        with tempfile.TemporaryDirectory() as scratch:
            # JSONL: save, then rewrite the first record in the legacy
            # unframed form (decisions only).
            memory = memory_cls(capacity=16)
            for key, value in entries:
                memory.put(key, value)
            memory.get(entries[0][0])  # recency != insertion order
            snapshot = Path(memory.save(Path(scratch) / "snap.jsonl"))
            lines = snapshot.read_text().splitlines()
            if kind == "decisions":
                lines[0] = unframe_line(lines[0])[0]
            (CORPUS / f"{kind}.jsonl").write_text("\n".join(lines) + "\n")
            # sqlite: a durable database, dumped as SQL text.
            db = Path(scratch) / "store.db"
            store = sqlite_cls(capacity=16, db_path=db)
            for key, value in entries:
                store.put(key, value)
            store.get(entries[1][0])
            store.close()
            conn = sqlite3.connect(db)
            dump = "\n".join(conn.iterdump()) + "\n"
            conn.close()
            (CORPUS / f"{kind}.sql").write_text(dump)
        for suffix, order in (
            ("jsonl", [k for k, _ in entries[1:]] + [entries[0][0]]),
            (
                "sql",
                [entries[0][0]]
                + [k for k, _ in entries[2:]]
                + [entries[1][0]],
            ),
        ):
            values = dict(entries)
            expected[f"{kind}.{suffix}"] = {
                "keys": order,
                "values": {
                    key: json.loads(
                        json.dumps(to_dict(values[key]), sort_keys=True)
                    )
                    for key in order
                },
            }
    (CORPUS / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n"
    )
    print(f"wrote {len(expected)} golden store files to {CORPUS}")


# ---------------------------------------------------------------------------
# The replay
# ---------------------------------------------------------------------------


def _expected() -> dict[str, dict]:
    return json.loads((CORPUS / "expected.json").read_text())


def _document(to_dict, value) -> dict:
    return json.loads(json.dumps(to_dict(value), sort_keys=True))


def _open(name: str, engine: str, tmp_path: Path):
    """The store of ``engine`` holding golden file ``name``."""
    kind, suffix = name.split(".")
    memory_cls, sqlite_cls, _to, _from = KINDS[kind]
    source = CORPUS / name
    if suffix == "sql":
        db = tmp_path / f"{kind}.db"
        conn = sqlite3.connect(db)
        conn.executescript(source.read_text())
        conn.close()
        return sqlite_cls(capacity=16, db_path=db)
    if engine == "memory":
        return memory_cls(capacity=16, path=source)
    store = sqlite_cls(capacity=16)
    assert store.load(source) == len(_expected()[name]["keys"])
    return store


CASES = [
    ("decisions.jsonl", "memory"),
    ("decisions.jsonl", "sqlite"),
    ("regions.jsonl", "memory"),
    ("regions.jsonl", "sqlite"),
    ("decisions.sql", "sqlite"),
    ("regions.sql", "sqlite"),
]


def test_corpus_is_complete():
    names = {path.name for path in CORPUS.iterdir()}
    assert names == {name for name, _ in CASES} | {"expected.json"}
    assert set(_expected()) == {name for name, _ in CASES}


def test_decision_snapshot_keeps_a_legacy_line():
    lines = (CORPUS / "decisions.jsonl").read_text().splitlines()
    framed = [unframe_line(line)[1] for line in lines]
    assert not framed[0] and all(framed[1:])


def test_region_snapshot_holds_an_exact_region():
    values = _expected()["regions.jsonl"]["values"].values()
    assert {value["timebase"] for value in values} == {"float", "exact"}


@pytest.mark.parametrize("name,engine", CASES)
def test_golden_file_loads(name, engine, tmp_path):
    """Same keys, same LRU order, same ``to_dict`` documents."""
    expected = _expected()[name]
    to_dict = KINDS[name.split(".")[0]][2]
    store = _open(name, engine, tmp_path)
    try:
        assert store.last_recovery is None or store.last_recovery.clean
        assert store.keys() == tuple(expected["keys"])
        for key in expected["keys"]:
            assert _document(to_dict, store.get(key)) == (
                expected["values"][key]
            )
    finally:
        if engine == "sqlite":
            store.close()


@pytest.mark.parametrize(
    "name,engine", [case for case in CASES if case[0].endswith("jsonl")]
)
def test_resave_reproduces_the_snapshot(name, engine, tmp_path):
    """Re-saving a loaded snapshot rewrites it byte for byte; legacy
    lines come back framed."""
    store = _open(name, engine, tmp_path)
    try:
        written = Path(store.save(tmp_path / "resaved.jsonl"))
    finally:
        if engine == "sqlite":
            store.close()
    original = (CORPUS / name).read_text().splitlines()
    framed = [
        line if unframe_line(line)[1] else frame_line(line)
        for line in original
    ]
    assert written.read_bytes() == ("\n".join(framed) + "\n").encode()


if __name__ == "__main__":
    import sys

    if "--regenerate" in sys.argv:
        _regenerate()
    else:
        print(__doc__)
