"""The work each kind of request does, counted rather than timed.

A sqlite-backed frontend serves cache hits, a region hit, a fresh miss
and their repeats over the wire while every statement either store runs
is traced (``sqlite3.Connection.set_trace_callback``) and the
pipeline's hops are counted; then a frontend reopened over the
persisted cache serves a first sighting.  Per request:

* a hit on either store commits nothing (recency is written behind);
  a miss commits exactly once, its decision's put;
* the decision table is read with one ``SELECT`` by any hit, first
  sighting or remembered repeat, and four by a fresh miss (its counted
  lookup, the worker's re-check, and the put's sequence number and row
  count);
* a region hit is served before any shard queue;
* an observation whose build is not due stays on the event loop (no
  ``asyncio.to_thread``);
* a first sighting is decoded, walked (:func:`walk_request`) and keyed
  (``request_key``) exactly once; a remembered repeat -- a canonical or
  a non-canonical document alike -- is keyed by its fingerprint, so it
  is neither walked nor keyed, unless its decision is not cached (a
  region hit), when it is walked once for the region tier.

These are counts of work, so neighbours on the host cannot move them.
"""

from __future__ import annotations

import asyncio
import json

import repro.regions.tier as tier_module
import repro.service.engine as engine_module
import repro.service.frontend as frontend_module
from repro.regions.shape import execution_vector, system_at
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    serve_frontend,
)
from repro.service.requests import AdmissionRequest, request_to_dict
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

#: Modules whose ``walk_request`` and ``request_key`` the pipeline calls.
_PIPELINE = (frontend_module, engine_module, tier_module)


def _request(seed: int, scale: float = 1.0) -> AdmissionRequest:
    system = generate_system(LIGHT, seed)
    if scale != 1.0:
        system = system_at(
            system, tuple(scale * e for e in execution_vector(system))
        )
    return AdmissionRequest(system=system, request_id=f"s{seed}x{scale}")


def _line(request: AdmissionRequest, non_canonical: bool = False) -> bytes:
    document = request_to_dict(request)
    if non_canonical:
        # Decodes to the same request, keys the same, marshals apart.
        document["protocols"].reverse()
        document["extra"] = 1
    return (json.dumps(document) + "\n").encode()


class _Tally:
    """Counters the staged spies add to, reset per request."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.commits = {"cache": 0, "regions": 0}
        self.selects = self.keys = 0
        self.walks = self.enqueued = self.threads = 0


async def _serve_counted(fe: AdmissionFrontend, tally: _Tally, lines):
    """Serve ``(kind, line)`` pairs over one connection; per kind, the
    reply's rationale and what the tally counted."""
    stores = (("cache", fe.cache), ("regions", fe.regions.store))
    for name, store in stores:

        def trace(statement, name=name):
            tally.commits[name] += statement == "COMMIT"
            if name == "cache":
                tally.selects += statement.startswith("SELECT")

        store._conn.set_trace_callback(trace)
    server = await serve_frontend(fe, port=0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    counted = {}
    for kind, line in lines:
        tally.reset()
        writer.write(line)
        await writer.drain()
        reply = json.loads(await reader.readline())
        counted[kind] = (
            reply["rationale"],
            dict(tally.commits),
            tally.walks,
            tally.enqueued,
            tally.threads,
            tally.selects,
            tally.keys,
        )
    writer.close()
    server.close()
    await server.wait_closed()
    return counted


def test_work_per_request_kind(monkeypatch, tmp_path):
    tally = _Tally()
    base = _request(5)
    real_walk = frontend_module.walk_request
    real_key = frontend_module.request_key

    def walk(request):
        tally.walks += 1
        return real_walk(request)

    def key(request):
        tally.keys += 1
        return real_key(request)

    for module in _PIPELINE:
        monkeypatch.setattr(module, "walk_request", walk)
        monkeypatch.setattr(module, "request_key", key)
    real_enqueue = AdmissionFrontend._enqueue

    async def enqueue(self, *args):
        tally.enqueued += 1
        return await real_enqueue(self, *args)

    monkeypatch.setattr(AdmissionFrontend, "_enqueue", enqueue)
    real_to_thread = asyncio.to_thread

    async def to_thread(function, *args, **kwargs):
        tally.threads += 1
        return await real_to_thread(function, *args, **kwargs)

    monkeypatch.setattr(asyncio, "to_thread", to_thread)
    config = FrontendConfig(
        shards=1,
        cache_backend="sqlite",
        cache_path=tmp_path / "cache.sqlite",
        region_backend="sqlite",
        region_build_threshold=2,
    )

    async def run():
        async with AdmissionFrontend(config) as fe:
            # Two computations of the base shape: the second builds it.
            await fe.admit(base)
            await fe.admit(_request(5, 0.9))
            assert len(fe.regions.store) == 1
            region = _line(_request(5, 0.8))
            counted = await _serve_counted(
                fe,
                tally,
                [
                    ("cache hit", _line(base)),
                    ("region hit", region),
                    ("fresh miss", _line(_request(6))),
                    ("cache hit again", _line(base)),
                    ("region hit again", region),
                    ("non-canonical", _line(base, non_canonical=True)),
                    ("non-canonical again", _line(base, non_canonical=True)),
                ],
            )
            snapshot = fe.snapshot()
        async with AdmissionFrontend(config) as fe:
            counted |= await _serve_counted(
                fe, tally, [("reopened cache hit", _line(base))]
            )
        return counted, snapshot

    counted, snapshot = asyncio.run(run())
    nothing = {"cache": 0, "regions": 0}
    # (commits, walks, enqueued, threads, SELECTs, request_key calls)
    served = {
        "cache hit": (nothing, 1, 0, 0, 1, 1),
        "region hit": (nothing, 1, 0, 0, 1, 1),
        # One put commits; its shape's first sighting builds nothing.
        "fresh miss": ({"cache": 1, "regions": 0}, 1, 1, 0, 4, 1),
        "cache hit again": (nothing, 0, 0, 0, 1, 0),
        # Not cached: decoded and walked once for the region tier.
        "region hit again": (nothing, 1, 0, 0, 1, 0),
        "non-canonical": (nothing, 1, 0, 0, 1, 1),
        "non-canonical again": (nothing, 0, 0, 0, 1, 0),
        "reopened cache hit": (nothing, 1, 0, 0, 1, 1),
    }
    assert {kind: row[1:] for kind, row in counted.items()} == served
    for kind, (rationale, *_work) in counted.items():
        assert rationale.startswith("region tier:") == ("region" in kind)
        assert not rationale.startswith("service"), kind
    assert snapshot["aggregate"]["region_hits"] == 2
