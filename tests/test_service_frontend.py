"""The sharded asyncio frontend: routing, backpressure, degradation.

No pytest-asyncio in the toolchain: each test drives its own event
loop with ``asyncio.run``.  Slow/failing computations are staged by
patching ``repro.service.frontend._shard_compute`` (resolved by module
global at call time, so thread executors see the patch).
"""

from __future__ import annotations

import asyncio
import ctypes
import gc
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
import warnings
from pathlib import Path

import pytest

import repro.service.frontend as frontend_module
from repro.errors import ConfigurationError
from repro.service.backends import SqliteDecisionCache
from repro.service.engine import compute_decision
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    TenantQuota,
    serve_frontend,
)
from repro.service.requests import (
    AdmissionRequest,
    request_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

_real_shard_compute = frontend_module._shard_compute


def _request(seed: int, request_id: str = "", tenant: str = "") -> AdmissionRequest:
    return AdmissionRequest(
        system=generate_system(LIGHT, seed),
        request_id=request_id or f"r{seed}",
        tenant=tenant,
    )


def _admit_all(config: FrontendConfig, requests, **frontend_kwargs):
    async def run():
        async with AdmissionFrontend(config, **frontend_kwargs) as fe:
            return [await fe.admit(r) for r in requests], fe.snapshot()

    return asyncio.run(run())


class TestDecisions:
    def test_matches_direct_computation(self):
        requests = [_request(seed) for seed in range(4)]
        decisions, _ = _admit_all(FrontendConfig(shards=2), requests)
        assert decisions == [compute_decision(r) for r in requests]

    def test_request_id_is_restored_on_hits(self):
        requests = [_request(1, "a"), _request(1, "b")]
        decisions, snapshot = _admit_all(
            FrontendConfig(shards=1), requests
        )
        assert decisions[0].request_id == "a"
        assert decisions[1].request_id == "b"
        assert decisions[0].key == decisions[1].key
        assert snapshot["aggregate"]["cache_hits"] == 1

    def test_identical_content_lands_on_one_shard(self):
        requests = [_request(3, f"dup{i}") for i in range(6)]
        _, snapshot = _admit_all(
            FrontendConfig(shards=4, cache_backend=None), requests
        )
        active = [
            s for s in snapshot["shards"] if s["requests"] > 0
        ]
        assert len(active) == 1
        assert active[0]["requests"] == 6

    def test_uncached_frontend_still_decides(self):
        requests = [_request(seed) for seed in range(3)]
        decisions, snapshot = _admit_all(
            FrontendConfig(shards=2, cache_backend=None), requests
        )
        assert decisions == [compute_decision(r) for r in requests]
        assert "cache" not in snapshot

    def test_sqlite_backend_through_config(self, tmp_path):
        config = FrontendConfig(
            shards=2,
            cache_backend="sqlite",
            cache_path=tmp_path / "fe.db",
        )
        requests = [_request(1, "a"), _request(1, "b")]
        decisions, snapshot = _admit_all(config, requests)
        assert decisions[0].admitted == decisions[1].admitted
        assert snapshot["cache"]["hits"] >= 1

    def test_shared_cache_instance_warms_across_frontends(self):
        shared = SqliteDecisionCache(capacity=64)
        requests = [_request(seed) for seed in range(3)]
        _admit_all(FrontendConfig(shards=1), requests, cache=shared)
        _, snapshot = _admit_all(
            FrontendConfig(shards=3), requests, cache=shared
        )
        assert snapshot["aggregate"]["cache_hits"] == 3
        shared.close()


class TestBackpressure:
    def test_quota_exhaustion_sheds_explicitly(self):
        config = FrontendConfig(
            shards=1,
            default_quota=TenantQuota(rate=0.001, burst=2),
        )
        requests = [_request(seed) for seed in range(5)]
        decisions, snapshot = _admit_all(config, requests)
        sheds = [
            d
            for d in decisions
            if d.rationale.startswith("service shed:")
        ]
        assert len(sheds) == 3  # burst of 2, negligible refill
        assert all(not d.admitted for d in sheds)
        assert "quota exceeded" in sheds[0].rationale
        assert snapshot["aggregate"]["shed"] == 3
        # Sheds are not served requests.
        assert snapshot["aggregate"]["requests"] == 2

    def test_named_tenant_quota_only_limits_that_tenant(self):
        config = FrontendConfig(
            shards=1,
            tenant_quotas={
                "limited": TenantQuota(rate=0.001, burst=1)
            },
        )
        requests = [
            _request(seed, f"lim{seed}", tenant="limited")
            for seed in range(3)
        ] + [
            _request(seed, f"free{seed}", tenant="other")
            for seed in range(3)
        ]
        decisions, _ = _admit_all(config, requests)
        limited = [d for d in decisions if d.request_id.startswith("lim")]
        free = [d for d in decisions if d.request_id.startswith("free")]
        assert (
            sum(
                1
                for d in limited
                if d.rationale.startswith("service shed:")
            )
            == 2
        )
        assert all(
            not d.rationale.startswith("service shed:") for d in free
        )

    def test_full_queue_sheds_with_shard_attribution(self, monkeypatch):
        release = None

        def stalling(payload):
            release.wait()
            return _real_shard_compute(payload)

        monkeypatch.setattr(
            frontend_module, "_shard_compute", stalling
        )

        async def run():
            nonlocal release
            import threading

            release = threading.Event()
            config = FrontendConfig(
                shards=1, queue_capacity=2, cache_backend=None
            )
            async with AdmissionFrontend(config) as fe:
                # Stall the worker on one request, then fill the queue
                # to capacity; the next arrival must shed.
                first = asyncio.ensure_future(fe.admit(_request(0)))
                for _ in range(200):  # until the worker dequeued it
                    await asyncio.sleep(0.005)
                    if fe.queue_depths() == [0]:
                        break
                fillers = [
                    asyncio.ensure_future(fe.admit(_request(seed)))
                    for seed in (1, 2)
                ]
                await asyncio.sleep(0.05)
                assert fe.queue_depths() == [2]
                shed = await fe.admit(_request(99))
                release.set()
                served = await asyncio.gather(first, *fillers)
                return shed, served, fe.metrics.snapshot()

        shed, served, snapshot = asyncio.run(run())
        assert shed.rationale.startswith("service shed:")
        assert "shard 0 queue full" in shed.rationale
        assert all(
            not d.rationale.startswith("service shed:") for d in served
        )
        assert snapshot["shed"] == 1

    def test_sheds_are_never_cached(self):
        config = FrontendConfig(
            shards=1, default_quota=TenantQuota(rate=0.001, burst=1)
        )

        async def run():
            async with AdmissionFrontend(config) as fe:
                first = await fe.admit(_request(1, "a"))
                shed = await fe.admit(_request(2, "b"))
                return first, shed, len(fe.cache)

        first, shed, cached = asyncio.run(run())
        assert not first.rationale.startswith("service shed:")
        assert shed.rationale.startswith("service shed:")
        assert cached == 1  # only the served decision


class TestDegradation:
    def test_failing_compute_degrades_after_ladder(self, monkeypatch):
        calls = []

        def always_raises(payload):
            calls.append(payload[0])
            raise RuntimeError("staged analysis crash")

        monkeypatch.setattr(
            frontend_module, "_shard_compute", always_raises
        )
        config = FrontendConfig(
            shards=1, max_retries=2, retry_backoff=0.0
        )
        decisions, snapshot = _admit_all(config, [_request(1)])
        assert decisions[0].rationale.startswith("service degraded:")
        assert "staged analysis crash" in decisions[0].rationale
        assert len(calls) == 3  # initial + 2 retries
        assert snapshot["aggregate"]["retries"] == 2
        assert snapshot["aggregate"]["degraded"] == 1

    def test_degraded_decisions_are_not_cached(self, monkeypatch):
        def always_raises(payload):
            raise RuntimeError("nope")

        monkeypatch.setattr(
            frontend_module, "_shard_compute", always_raises
        )

        async def run():
            config = FrontendConfig(
                shards=1, max_retries=0, retry_backoff=0.0
            )
            async with AdmissionFrontend(config) as fe:
                decision = await fe.admit(_request(1))
                return decision, len(fe.cache)

        decision, cached = asyncio.run(run())
        assert decision.rationale.startswith("service degraded:")
        assert cached == 0

    def test_timeout_degrades_that_request_only(self, monkeypatch):
        def slow_for_r0(payload):
            key, request = payload
            if request.request_id == "r0":
                time.sleep(2.0)
            return _real_shard_compute(payload)

        monkeypatch.setattr(
            frontend_module, "_shard_compute", slow_for_r0
        )
        config = FrontendConfig(
            shards=1,
            workers_per_shard=2,
            job_timeout=0.3,
            max_retries=0,
        )
        decisions, snapshot = _admit_all(
            config, [_request(seed) for seed in range(3)]
        )
        by_id = {d.request_id: d for d in decisions}
        assert by_id["r0"].rationale.startswith("service degraded:")
        assert "timed out" in by_id["r0"].rationale
        for rid in ("r1", "r2"):
            assert not by_id[rid].rationale.startswith(
                "service degraded:"
            )
        assert snapshot["aggregate"]["timeouts"] == 1


class TestStoreErrors:
    """A store read that raises on the wire path fails closed: one
    ``service degraded:`` reply per line, never cached, and the
    connection stays open for the next line."""

    @staticmethod
    def _locked(key):
        raise sqlite3.OperationalError("database is locked")

    @pytest.mark.parametrize("store", ["cache", "regions"])
    def test_store_read_error_degrades_and_keeps_the_connection(
        self, store, monkeypatch
    ):
        warm = _request(1, "warm")
        lines = [
            (json.dumps(request_to_dict(request)) + "\n").encode()
            for request in (warm, _request(2, "fresh"))
        ]
        lines += [b"not json\n", lines[1], lines[0]]

        async def run():
            config = FrontendConfig(
                shards=1, cache_backend="sqlite", region_backend="sqlite"
            )
            async with AdmissionFrontend(config) as fe:
                await fe.admit(warm)
                target = fe.cache if store == "cache" else fe.regions.store
                target.get = self._locked
                # The wire path's membership probe meets the lock too.
                monkeypatch.setattr(
                    type(target),
                    "__contains__",
                    lambda _store, key: self._locked(key),
                )
                server = await serve_frontend(fe, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                replies = []
                for line in lines:
                    writer.write(line)
                    await writer.drain()
                    replies.append(
                        await asyncio.wait_for(reader.readline(), 60)
                    )
                writer.close()
                server.close()
                await server.wait_closed()
                return replies, fe.snapshot(), len(fe.cache)

        replies, snapshot, cached = asyncio.run(run())
        assert all(reply.endswith(b"\n") for reply in replies)
        documents = [json.loads(reply) for reply in replies]
        assert "error" in documents[2]
        degraded = [
            document
            for document in documents
            if document.get("rationale", "").startswith("service degraded:")
        ]
        # The warm repeat reads only the decision cache; the fresh
        # request reads both stores.
        expected = {"cache": 4, "regions": 2}[store]
        assert len(degraded) == expected
        for document in degraded:
            assert document["admitted"] is False
            assert "database is locked" in document["rationale"]
        if store == "regions":
            assert documents[0]["request_id"] == "warm"
            assert documents[0]["admitted"] is compute_decision(warm).admitted
        assert snapshot["aggregate"]["degraded"] == expected
        assert cached == 1  # only the warm decision, never a refusal


class TestLifecycleAndValidation:
    def test_admit_before_start_is_an_error(self):
        frontend = AdmissionFrontend(FrontendConfig())
        with pytest.raises(ConfigurationError):
            asyncio.run(frontend.admit(_request(1)))

    def test_double_start_is_an_error(self):
        async def run():
            frontend = AdmissionFrontend(FrontendConfig())
            await frontend.start()
            try:
                with pytest.raises(ConfigurationError):
                    await frontend.start()
            finally:
                await frontend.stop()

        asyncio.run(run())

    def test_stop_drains_pending_work(self):
        async def run():
            config = FrontendConfig(shards=2)
            frontend = AdmissionFrontend(config)
            await frontend.start()
            pending = [
                asyncio.ensure_future(frontend.admit(_request(seed)))
                for seed in range(6)
            ]
            await asyncio.sleep(0)  # let every admit reach its queue
            await frontend.stop()
            return await asyncio.gather(*pending)

        decisions = asyncio.run(run())
        assert len(decisions) == 6
        assert all(d is not None for d in decisions)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"shards": 0},
            {"queue_capacity": 0},
            {"executor": "fiber"},
            {"workers_per_shard": 0},
            {"cache_backend": "redis"},
            {"job_timeout": 0.0},
            {"max_retries": -1},
            {"retry_backoff": -0.1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FrontendConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"rate": 0.0}, {"rate": -1.0}, {"rate": 1.0, "burst": 0.0}],
    )
    def test_bad_quota_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            TenantQuota(**{"burst": 8.0, **kwargs})


class TestSupervision:
    def test_breaker_opens_and_reroutes(self, monkeypatch):
        def crash_on_shard_zero(payload):
            if threading.current_thread().name.startswith(
                "repro-shard-0_"
            ):
                raise RuntimeError("injected shard fault")
            return _real_shard_compute(payload)

        monkeypatch.setattr(
            frontend_module, "_shard_compute", crash_on_shard_zero
        )
        config = FrontendConfig(
            shards=3,
            cache_backend=None,
            max_retries=0,
            breaker_failures=2,
            breaker_recovery=60.0,  # stays open for the whole test
        )
        requests = [_request(seed, f"s{seed}") for seed in range(24)]
        decisions, snapshot = _admit_all(config, requests)
        aggregate = snapshot["aggregate"]
        assert aggregate["breaker_opens"] >= 1
        assert aggregate["rerouted"] >= 1
        # Exactly the pre-trip shard-0 computations degraded; every
        # rerouted request was served normally by a healthy shard.
        degraded = [
            d
            for d in decisions
            if d.rationale.startswith("service degraded:")
        ]
        assert len(degraded) == config.breaker_failures
        assert (
            snapshot["breakers"][0]["state"] == "open"
        )

    def test_half_open_probe_restores_the_shard(self, monkeypatch):
        armed = {"on": True}

        def crash_while_armed(payload):
            if armed["on"] and threading.current_thread().name.startswith(
                "repro-shard-0_"
            ):
                raise RuntimeError("injected shard fault")
            return _real_shard_compute(payload)

        monkeypatch.setattr(
            frontend_module, "_shard_compute", crash_while_armed
        )
        config = FrontendConfig(
            shards=2,
            cache_backend=None,
            max_retries=0,
            breaker_failures=1,
            breaker_recovery=0.05,
        )

        async def run():
            async with AdmissionFrontend(config) as fe:
                ring = fe.ring
                shard0 = [
                    r
                    for r in (
                        _request(seed, f"p{seed}") for seed in range(40)
                    )
                    if ring.shard_for(
                        frontend_module.request_key(r)
                    ) == 0
                ]
                assert len(shard0) >= 2
                await fe.admit(shard0[0])  # degrades, opens breaker
                assert fe._shards[0].breaker.state == "open"
                armed["on"] = False
                await asyncio.sleep(0.08)  # past the cooldown
                probe = await fe.admit(shard0[1])
                assert not probe.rationale.startswith(
                    "service degraded:"
                )
                return (
                    fe._shards[0].breaker.state,
                    fe.metrics.snapshot(),
                )

        state, aggregate = asyncio.run(run())
        assert state == "closed"
        assert aggregate["breaker_half_opens"] >= 1
        assert aggregate["breaker_restores"] >= 1

    def test_all_open_falls_back_to_primary(self):
        # Liveness: supervision is advisory -- with every breaker open
        # the primary still takes the request rather than refusing all.
        config = FrontendConfig(
            shards=2,
            cache_backend=None,
            breaker_failures=1,
            breaker_recovery=60.0,
        )

        async def run():
            async with AdmissionFrontend(config) as fe:
                for shard in fe._shards:
                    shard.breaker.record_failure()
                assert all(
                    s.breaker.state == "open" for s in fe._shards
                )
                return await fe.admit(_request(5))

        decision = asyncio.run(run())
        assert decision == compute_decision(_request(5))

    def test_supervision_disabled_with_zero_failures(self):
        _, snapshot = _admit_all(
            FrontendConfig(shards=2, breaker_failures=0), [_request(1)]
        )
        assert snapshot["breakers"] == [None, None]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"breaker_failures": -1},
            {"breaker_recovery": 0.0},
            {"breaker_probes": 0},
            {"drain": "hang-up"},
            {"fsync": "sometimes"},
        ],
    )
    def test_bad_supervision_config_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            FrontendConfig(**kwargs)


class TestDrainAndTeardown:
    def test_shed_drain_resolves_queued_jobs(self):
        async def run():
            config = FrontendConfig(shards=1, drain="shed")
            frontend = AdmissionFrontend(config)
            await frontend.start()
            pending = [
                asyncio.ensure_future(frontend.admit(_request(seed)))
                for seed in range(6)
            ]
            await asyncio.sleep(0)  # let every admit reach its queue
            await frontend.stop()
            decisions = await asyncio.gather(*pending)
            return decisions, frontend.metrics.snapshot()

        decisions, aggregate = asyncio.run(run())
        assert len(decisions) == 6
        shed = [
            d
            for d in decisions
            if d.rationale.startswith("service shed:")
        ]
        # At least the never-dequeued tail was shed, and explicitly so.
        assert shed
        assert all("drain" in d.rationale for d in shed)
        assert aggregate["drain_shed"] == len(shed)
        assert aggregate["shed"] == len(shed)

    def test_flush_drain_counts_flushed_jobs(self):
        async def run():
            frontend = AdmissionFrontend(FrontendConfig(shards=1))
            await frontend.start()
            pending = [
                asyncio.ensure_future(frontend.admit(_request(seed)))
                for seed in range(4)
            ]
            await asyncio.sleep(0)
            await frontend.stop(drain="flush")
            decisions = await asyncio.gather(*pending)
            return decisions, frontend.metrics.snapshot()

        decisions, aggregate = asyncio.run(run())
        assert all(
            not d.rationale.startswith("service shed:")
            for d in decisions
        )
        assert aggregate["drain_flushed"] >= 1
        assert aggregate["drain_shed"] == 0

    def test_stop_rejects_unknown_drain_mode(self, tmp_path):
        """A bad drain mode raises before anything stops, so the retry
        still tears everything down."""
        config = FrontendConfig(
            shards=2, cache_backend="sqlite", cache_path=tmp_path / "c.db"
        )

        async def run():
            frontend = AdmissionFrontend(config)
            await frontend.start()
            with pytest.raises(ConfigurationError, match="drain"):
                await frontend.stop(drain="hang-up")
            await frontend.admit(_request(1))  # still serving
            await frontend.stop()
            return frontend

        frontend = asyncio.run(run())
        for shard in frontend._shards:
            assert all(worker.done() for worker in shard.workers)
            with pytest.raises(RuntimeError):
                shard.pool.executor.submit(int)
        with pytest.raises(sqlite3.ProgrammingError):
            frontend.cache._conn.execute("SELECT 1")

    def test_owned_sqlite_backend_closed_after_exception(self, tmp_path):
        """Satellite regression: no locked WAL, no leaked handle,
        even when the context body raises."""
        db = tmp_path / "cache.sqlite"
        config = FrontendConfig(
            shards=1, cache_backend="sqlite", cache_path=db
        )

        async def run():
            async with AdmissionFrontend(config) as fe:
                await fe.admit(_request(1))
                raise RuntimeError("boom")

        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            with pytest.raises(RuntimeError, match="boom"):
                asyncio.run(run())
            gc.collect()
        # The database is immediately writable by a fresh connection:
        # a still-open WAL handle would block this.
        fresh = SqliteDecisionCache(capacity=8, db_path=db)
        try:
            assert len(fresh) == 1  # the decision survived the crash
            decision = compute_decision(_request(2))
            fresh.put(decision.key, decision)
            assert len(fresh) == 2
        finally:
            fresh.close()

    def test_owned_memory_cache_flushed_on_stop(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        config = FrontendConfig(
            shards=1, cache_backend="memory", cache_path=path
        )
        _admit_all(config, [_request(1)])
        assert path.exists()  # stop() snapshotted the owned cache

    def test_caller_passed_cache_is_not_closed(self, tmp_path):
        db = tmp_path / "shared.sqlite"
        shared = SqliteDecisionCache(capacity=8, db_path=db)
        try:
            _admit_all(
                FrontendConfig(shards=1), [_request(1)], cache=shared
            )
            # Still usable: the frontend must not close what it was
            # handed (the caller owns its lifetime).
            decision = compute_decision(_request(2))
            shared.put(decision.key, decision)
            assert len(shared) == 2
        finally:
            shared.close()

    def test_admit_after_stop_raises(self):
        async def run():
            frontend = AdmissionFrontend(FrontendConfig())
            await frontend.start()
            await frontend.stop()
            with pytest.raises(ConfigurationError, match="not started"):
                await frontend.admit(_request(1))

        asyncio.run(run())


class TestObservability:
    def test_describe_includes_every_shard(self):
        requests = [_request(seed) for seed in range(4)]

        async def run():
            async with AdmissionFrontend(
                FrontendConfig(shards=3)
            ) as fe:
                for request in requests:
                    await fe.admit(request)
                return fe.describe(), fe.queue_depths()

        description, depths = asyncio.run(run())
        for index in range(3):
            assert f"shard {index}:" in description
        assert depths == [0, 0, 0]

    def test_snapshot_shape(self):
        decisions, snapshot = _admit_all(
            FrontendConfig(shards=2), [_request(1)]
        )
        assert set(snapshot) == {
            "aggregate",
            "shards",
            "queue_depths",
            "cache",
            "breakers",
        }
        assert len(snapshot["shards"]) == 2
        assert len(snapshot["breakers"]) == 2
        assert "latency_p999" in snapshot["aggregate"]


class TestTcpServer:
    def test_round_trip_and_error_lines(self):
        async def run():
            async with AdmissionFrontend(
                FrontendConfig(shards=2)
            ) as fe:
                server = await serve_frontend(fe, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                request = _request(1, "tcp-1")
                writer.write(
                    (json.dumps(request_to_dict(request)) + "\n").encode()
                )
                writer.write(b"this is not json\n")
                writer.write(b"\n")  # blank lines are skipped
                writer.write(
                    (json.dumps(request_to_dict(request)) + "\n").encode()
                )
                await writer.drain()
                lines = [await reader.readline() for _ in range(3)]
                writer.close()
                server.close()
                await server.wait_closed()
                return [json.loads(line) for line in lines]

        decision_doc, error_doc, second_doc = asyncio.run(run())
        assert decision_doc["request_id"] == "tcp-1"
        assert decision_doc["admitted"] == compute_decision(
            _request(1, "tcp-1")
        ).admitted
        assert "error" in error_doc
        assert second_doc["key"] == decision_doc["key"]

    @staticmethod
    def _exchange(lines: list[bytes]) -> list[dict]:
        """Send ``lines`` on one connection, then read replies to EOF."""

        async def run():
            async with AdmissionFrontend(FrontendConfig(shards=2)) as fe:
                server = await serve_frontend(fe, port=0)
                port = server.sockets[0].getsockname()[1]
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                for line in lines:
                    writer.write(line)
                    await writer.drain()
                writer.write_eof()
                replies = await asyncio.wait_for(reader.read(), 60)
                writer.close()
                server.close()
                await server.wait_closed()
                return [json.loads(r) for r in replies.splitlines()]

        return asyncio.run(run())

    @staticmethod
    def _line(request: AdmissionRequest) -> bytes:
        return (json.dumps(request_to_dict(request)) + "\n").encode()

    def test_non_utf8_line_answered_and_connection_kept(self):
        replies = self._exchange(
            [b"\xff\xfe not utf-8\n", self._line(_request(1, "after"))]
        )
        assert len(replies) == 2
        assert "error" in replies[0]
        assert replies[1]["request_id"] == "after"

    def test_oversized_line_answered_once_and_stream_realigned(self):
        # Well past the limit: the line spans several reads, so both the
        # "no newline yet" and the "newline beyond the limit" overruns
        # are discarded before the next line is read.
        oversized = b"x" * (3 * frontend_module.MAX_LINE_BYTES) + b"\n"
        replies = self._exchange(
            [oversized, self._line(_request(1, "after"))]
        )
        assert len(replies) == 2
        assert "longer than" in replies[0]["error"]
        assert replies[1]["request_id"] == "after"

    def test_non_boolean_flag_gets_error_not_decision(self):
        # "false" would coerce to True and let unsynchronized clocks be
        # certified for PM.
        document = request_to_dict(_request(1, "strict"))
        document["synchronized_clocks"] = "false"
        replies = self._exchange(
            [
                (json.dumps(document) + "\n").encode(),
                self._line(_request(1, "after")),
            ]
        )
        assert len(replies) == 2
        assert "synchronized_clocks" in replies[0]["error"]
        assert "admitted" not in replies[0]
        assert replies[1]["request_id"] == "after"

    @pytest.mark.parametrize(
        "line",
        [
            b"5\n",
            b"[1]\n",
            b'"text"\n',
            b'{"format":"repro-admission-request-v1","system":5}\n',
            b'{"format":"repro-admission-request-v1","system":[1]}\n',
            b"[" * 5000 + b"]" * 5000 + b"\n",
        ],
        ids=[
            "number",
            "array",
            "string",
            "system-number",
            "system-array",
            "deep",
        ],
    )
    def test_non_object_line_answered_and_connection_kept(self, line):
        replies = self._exchange([line, self._line(_request(1, "after"))])
        assert len(replies) == 2
        assert "bad request line" in replies[0]["error"]
        assert replies[1]["request_id"] == "after"

    @pytest.mark.parametrize(
        "change",
        [
            {"protocols": [5]},
            {"protocols": ["DS", None]},
        ],
        ids=["number", "null"],
    )
    def test_non_string_protocol_answered_and_connection_kept(self, change):
        document = request_to_dict(_request(1, "bad"))
        document.update(change)
        replies = self._exchange(
            [
                (json.dumps(document) + "\n").encode(),
                self._line(_request(1, "after")),
            ]
        )
        assert len(replies) == 2
        assert "protocol names must be strings" in replies[0]["error"]
        assert replies[1]["request_id"] == "after"

    def test_invalid_model_answered_and_connection_kept(self):
        document = request_to_dict(_request(1, "bad"))
        document["system"]["tasks"][0]["period"] = -5.0
        replies = self._exchange(
            [
                (json.dumps(document) + "\n").encode(),
                self._line(_request(1, "after")),
            ]
        )
        assert len(replies) == 2
        assert "period" in replies[0]["error"]
        assert replies[1]["request_id"] == "after"


def _glibc_with_mallinfo2() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION")) and hasattr(
            ctypes.CDLL(None), "mallinfo2"
        )
    except (AttributeError, OSError, TypeError, ValueError):
        return False


#: Runs in a fresh interpreter: how many chunks glibc maps for one
#: 256 KiB ``bytes`` (asyncio's socket read size), under glibc's initial
#: 128 KiB thresholds and then once ``serve_frontend`` has started.  Each
#: line is that count, then the raw ``mallinfo2`` readings it came from
#: (mapped chunks and mapped bytes, before and after).
_MAPPED_CHUNKS_SCRIPT = """
import asyncio, ctypes, gc
from repro.service.frontend import AdmissionFrontend, FrontendConfig
from repro.service.frontend import serve_frontend

class Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
        "fsmblks", "uordblks", "fordblks", "keepcost")]

libc = ctypes.CDLL(None)
libc.mallinfo2.argtypes, libc.mallinfo2.restype = [], Mallinfo2
libc.mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
libc.malloc_trim.argtypes = [ctypes.c_size_t]

def mapped_by_read_buffer():
    # A free heap chunk that large serves a 256 KiB request before glibc
    # maps or grows the heap, and how many the imports left free depends
    # on what they compiled.  So buffers are taken until one maps or
    # more than the heap's free bytes are held.
    gc.disable()  # no collection may free or map between the readings
    try:
        before = libc.mallinfo2()
        buffers = []
        for _ in range(before.fordblks // (256 * 1024) + 2):
            buffers.append(bytes(256 * 1024))
            if libc.mallinfo2().hblks != before.hblks:
                break
        after = libc.mallinfo2()
        taken = len(buffers)
        del buffers
    finally:
        gc.enable()
    print(after.hblks - before.hblks,
          "hblks", before.hblks, after.hblks,
          "hblkhd", before.hblkhd, after.hblkhd,
          "buffers", taken, "fordblks", before.fordblks)

# Back to glibc's initial thresholds (M_MMAP_THRESHOLD, M_TRIM_THRESHOLD),
# with the heap's free top returned: a 256 KiB chunk must be mapped.
libc.mallopt(-3, 128 * 1024)
libc.mallopt(-1, 128 * 1024)
libc.malloc_trim(0)
mapped_by_read_buffer()

async def serve():
    async with AdmissionFrontend(FrontendConfig(shards=1)) as fe:
        server = await serve_frontend(fe, port=0)
        mapped_by_read_buffer()
        server.close()
        await server.wait_closed()

asyncio.run(serve())
"""


@pytest.mark.skipif(
    not _glibc_with_mallinfo2(), reason="glibc (>= 2.33) allocator only"
)
def test_serving_keeps_socket_read_buffers_off_mmap():
    """A started server's 256 KiB read buffers come from the heap, however
    low the process' mmap threshold was before: the wire path does not
    map and fault in fresh pages on every read."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", _MAPPED_CHUNKS_SCRIPT],
        capture_output=True,
        text=True,
        env=env,
    )
    output = f"stdout:\n{completed.stdout}\nstderr:\n{completed.stderr}"
    assert completed.returncode == 0, output
    mapped = [line.split()[0] for line in completed.stdout.splitlines()]
    assert mapped == ["1", "0"], output
