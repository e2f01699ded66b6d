"""The work each kind of request does, counted rather than timed.

A sqlite-backed frontend serves a cache hit, a region hit and a fresh
miss over the wire while every statement either store runs is traced
(``sqlite3.Connection.set_trace_callback``) and the pipeline's hops are
counted.  Per request:

* a hit on either store commits nothing (recency is written behind);
  a miss commits exactly once, its decision's put;
* the decision table is read with one ``SELECT`` by a remembered
  repeat, two (membership probe, then the counted lookup) by a first
  sighting of a hit and five by a fresh miss;
* a region hit is served before any shard queue;
* an observation whose build is not due stays on the event loop (no
  ``asyncio.to_thread``);
* the system is walked at most once (:func:`walk_request`), and exactly
  once by any request that must be decoded.

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


def _request(seed: int, scale: float = 1.0) -> AdmissionRequest:
    system = generate_system(LIGHT, seed)
    if scale != 1.0:
        system = system_at(
            system, tuple(scale * e for e in execution_vector(system))
        )
    return AdmissionRequest(system=system, request_id=f"s{seed}x{scale}")


def _line(request: AdmissionRequest) -> bytes:
    return (json.dumps(request_to_dict(request)) + "\n").encode()


class _Tally:
    """Counters the staged spies add to, reset per request."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.commits = {"cache": 0, "regions": 0}
        self.selects = 0
        self.walks = self.enqueued = self.threads = 0


def test_work_per_request_kind(monkeypatch):
    tally = _Tally()
    base = _request(5)
    real_walk = frontend_module.walk_request

    def walk(request):
        tally.walks += 1
        return real_walk(request)

    for module in (frontend_module, engine_module, tier_module):
        monkeypatch.setattr(module, "walk_request", walk)
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

    async def run():
        config = FrontendConfig(
            shards=1,
            cache_backend="sqlite",
            region_backend="sqlite",
            region_build_threshold=2,
        )
        async with AdmissionFrontend(config) as fe:
            # Two computations of the base shape: the second builds it.
            await fe.admit(base)
            await fe.admit(_request(5, 0.9))
            assert len(fe.regions.store) == 1
            stores = (("cache", fe.cache), ("regions", fe.regions.store))
            for name, store in stores:

                def trace(statement, name=name):
                    tally.commits[name] += statement == "COMMIT"
                    if name == "cache":
                        tally.selects += statement.startswith("SELECT")

                store._conn.set_trace_callback(trace)
            server = await serve_frontend(fe, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            counted = {}
            for kind, request in (
                ("cache hit", base),
                ("region hit", _request(5, 0.8)),
                ("fresh miss", _request(6)),
                ("cache hit again", base),
            ):
                tally.reset()
                writer.write(_line(request))
                await writer.drain()
                reply = json.loads(await reader.readline())
                counted[kind] = (
                    reply["rationale"],
                    dict(tally.commits),
                    tally.walks,
                    tally.enqueued,
                    tally.threads,
                    tally.selects,
                )
            writer.close()
            server.close()
            await server.wait_closed()
            return counted, fe.snapshot()

    counted, snapshot = asyncio.run(run())
    nothing = {"cache": 0, "regions": 0}
    rationale, commits, walks, enqueued, threads, selects = counted[
        "cache hit"
    ]
    assert not rationale.startswith(("region tier:", "service"))
    assert (commits, walks, enqueued, threads) == (nothing, 0, 0, 0)
    assert selects == 2
    rationale, commits, walks, enqueued, threads, selects = counted[
        "region hit"
    ]
    assert rationale.startswith("region tier:")
    assert (commits, walks, enqueued, threads) == (nothing, 1, 0, 0)
    assert selects == 2
    rationale, commits, walks, enqueued, threads, selects = counted[
        "fresh miss"
    ]
    assert not rationale.startswith(("region tier:", "service"))
    # One put commits; its shape's first sighting builds nothing.
    assert commits == {"cache": 1, "regions": 0}
    assert (walks, enqueued, threads) == (1, 1, 0)
    assert selects == 5
    # A remembered repeat skips the membership probe.
    assert counted["cache hit again"][1:] == (nothing, 0, 0, 0, 1)
    assert snapshot["aggregate"]["region_hits"] == 1
