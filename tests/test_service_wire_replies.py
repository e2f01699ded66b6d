"""The wire reply of a decision.

``serve_frontend`` answers a remembered repeat whose decision the cache
returns as the very object it returned before from that object's reply
bytes, split around the request id and encoded once.  Every reply,
reused or not, must be byte for byte the whole encoding of the decision
echoing the line's request id; a store that builds a fresh object per
hit (sqlite) must get no reuse and keep nothing alive.
"""

from __future__ import annotations

import asyncio
import json
import weakref
from dataclasses import replace
from functools import cache
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.regions.shape import execution_vector, system_at
from repro.service import frontend as frontend_module
from repro.service.batch import refusal
from repro.service.engine import AdmissionController, compute_decision
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    TenantQuota,
    _Replies,
    serve_frontend,
)
from repro.service.hashing import request_key
from repro.service.requests import (
    AdmissionRequest,
    decision_to_dict,
    request_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

LIGHT = WorkloadConfig(
    subtasks_per_task=2, utilization=0.5, tasks=3, processors=2
)

#: A name that spells the request id's key and value inside a string.
_FORGED = '", "request_id": "forged'

#: Request ids that need escaping, or spell the key, or are not ASCII.
_IDS = (
    "",
    "plain",
    'q"uote',
    "back\\slash",
    "café ☃ \U0001f600",
    "\x00\x1f\n\t\x7f",
    "\ud800",
    '"request_id": "x"',
    _FORGED,
)


def _request(
    scale: float = 1.0, name: str = "system", **options
) -> AdmissionRequest:
    system = replace(generate_system(LIGHT, 5), name=name)
    if scale != 1.0:
        system = system_at(
            system, tuple(scale * e for e in execution_vector(system))
        )
    return AdmissionRequest(system=system, **options)


def _line_of(decision) -> bytes:
    """The whole encoding of ``decision``'s reply line."""
    return (
        json.dumps(decision_to_dict(decision), sort_keys=True) + "\n"
    ).encode()


def _wire(request: AdmissionRequest) -> bytes:
    return (json.dumps(request_to_dict(request)) + "\n").encode()


async def _exchange(fe: AdmissionFrontend, lines) -> list[bytes]:
    """Each line's raw reply, sent one at a time over one connection."""
    server = await serve_frontend(fe, port=0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    replies = []
    for line in lines:
        writer.write(line)
        await writer.drain()
        replies.append(await asyncio.wait_for(reader.readline(), 60))
    writer.close()
    server.close()
    await server.wait_closed()
    return replies


# ---------------------------------------------------------------------------
# The reply bytes, over every kind of decision
# ---------------------------------------------------------------------------


@cache
def _bases() -> dict:
    """One decision of each kind the wire serves."""
    controller = AdmissionController(
        region_backend="memory", region_build_threshold=1
    )
    computed = controller.admit(_request())
    regional = controller.admit(_request(0.9))
    assert regional.margins is not None
    return {
        "computed": computed,
        "region": regional,
        "refused": refusal(_request(), "", "shed", "quota exceeded"),
    }


_text = st.text(st.characters(exclude_categories=()), max_size=12)
_names = st.one_of(_text, st.just(_FORGED), st.sampled_from(_IDS))


@st.composite
def _decisions(draw):
    kind = draw(st.sampled_from(sorted(_bases())))
    decision = replace(
        _bases()[kind],
        system_name=draw(_names),
        request_id=draw(_names),
    )
    if kind == "refused":
        decision = replace(
            decision, rationale=f"service shed: {draw(_names)}"
        )
    if kind == "region":
        decision = replace(
            decision,
            margins={
                analysis: {
                    draw(_names): draw(st.floats()) for _ in per_dim
                }
                for analysis, per_dim in decision.margins.items()
            },
        )
    return decision


@settings(max_examples=200)
@given(
    decision=_decisions(),
    request_ids=st.lists(
        st.one_of(_text, st.sampled_from(_IDS)), max_size=5
    ),
)
def test_reply_bytes_are_the_whole_encoding(decision, request_ids):
    """Served again and again (the first whole, the second making the
    halves, the rest from them), the object's reply is its whole
    encoding echoing each id."""
    replies = _Replies(capacity=2)
    for request_id in [*request_ids, *_IDS]:
        assert replies.reply("k", decision, request_id) == _line_of(
            replace(decision, request_id=request_id)
        )


def test_a_new_object_under_a_key_is_encoded_whole():
    decision = _bases()["computed"]
    twin = replace(decision, rationale="another decision")
    replies = _Replies(capacity=1)
    for served in (decision, decision, decision, twin, twin, decision):
        assert replies.reply("k", served, "id") == _line_of(
            replace(served, request_id="id")
        )
    replies.reply("other", decision, "id")
    assert list(replies._entries) == ["other"]


# ---------------------------------------------------------------------------
# Over the wire
# ---------------------------------------------------------------------------


def test_every_served_kind_echoes_any_request_id():
    """Computed, cached, region and quota-shed replies, for ids that need
    escaping and a system name that spells the request id's key, are
    the whole encoding of the decision the service decides."""
    base = _request(name=_FORGED)
    variant = _request(0.9, name=_FORGED)
    capped = _request(name=_FORGED, tenant="capped")
    config = FrontendConfig(
        shards=2,
        region_backend="memory",
        region_build_threshold=1,
        tenant_quotas={"capped": TenantQuota(rate=1e-9, burst=1)},
    )

    sent = [
        (kind, rid)
        for kind in ("base", "variant", "capped")
        for rid in _IDS
    ]
    requests = {"base": base, "variant": variant, "capped": capped}

    async def run():
        async with AdmissionFrontend(config) as fe:
            replies = await _exchange(
                fe,
                [
                    _wire(requests[kind].with_request_id(rid))
                    for kind, rid in sent
                ],
            )
            regional = fe.regions.lookup(variant, key=request_key(variant))
            return replies, regional

    replies, regional = asyncio.run(run())
    computed = compute_decision(base)
    shed = refusal(
        capped,
        "",
        "shed",
        "tenant 'capped' quota exceeded (429, retry later)",
    )
    expected = {
        "base": lambda rid: replace(computed, request_id=rid),
        "variant": lambda rid: replace(regional, request_id=rid),
        # The first capped line takes the bucket's one token.
        "capped": lambda rid: (
            replace(computed, request_id=rid)
            if rid == _IDS[0]
            else replace(shed, request_id=rid)
        ),
    }
    assert regional.margins is not None
    for (kind, rid), reply in zip(sent, replies):
        assert reply == _line_of(expected[kind](rid)), (kind, rid)


def test_store_error_on_a_remembered_line_answers_as_before():
    request = _request(request_id="r")

    async def run():
        async with AdmissionFrontend(FrontendConfig(shards=1)) as fe:
            await _exchange(fe, [_wire(request)])
            with mock.patch.object(
                fe.cache, "get", side_effect=RuntimeError("boom")
            ):
                return await _exchange(fe, [_wire(request)])

    [reply] = asyncio.run(run())
    degraded = refusal(
        request, request_key(request), "degraded", "store error: boom"
    )
    assert reply == _line_of(degraded)


def test_memory_cache_key_encodes_its_reply_at_most_twice():
    request = _request()
    ids = [f"id-{n}" for n in range(8)]

    async def run():
        async with AdmissionFrontend(FrontendConfig(shards=2)) as fe:
            await _exchange(fe, [_wire(request)])  # computed and cached
            with mock.patch.object(
                frontend_module,
                "decision_to_dict",
                wraps=frontend_module.decision_to_dict,
            ) as encode:
                replies = await _exchange(
                    fe, [_wire(request.with_request_id(rid)) for rid in ids]
                )
            return replies, encode.call_count, fe.snapshot()

    replies, encodes, snapshot = asyncio.run(run())
    assert encodes == 2
    assert snapshot["aggregate"]["cache_hits"] == len(ids)
    computed = compute_decision(request)
    for rid, reply in zip(ids, replies):
        assert reply == _line_of(replace(computed, request_id=rid))


def test_sqlite_hit_keeps_no_served_decision_alive(tmp_path):
    request = _request()
    config = FrontendConfig(
        shards=1,
        cache_backend="sqlite",
        cache_path=tmp_path / "decisions.sqlite",
    )
    served: list[weakref.ref] = []

    async def run():
        async with AdmissionFrontend(config) as fe:
            await _exchange(fe, [_wire(request)])
            read = fe.cache.get

            def get(key):
                decision = read(key)
                served.append(weakref.ref(decision))
                return decision

            server = await serve_frontend(fe, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            with mock.patch.object(fe.cache, "get", side_effect=get):
                for rid in "abcd":
                    writer.write(_wire(request.with_request_id(rid)))
                    await writer.drain()
                    replies.append(
                        await asyncio.wait_for(reader.readline(), 60)
                    )
                    # Answered: no reference to the hit's object is left.
                    assert served[-1]() is None, rid
            writer.close()
            server.close()
            await server.wait_closed()
            return replies

    replies = asyncio.run(run())
    assert len(served) == 4
    computed = compute_decision(request)
    for rid, reply in zip("abcd", replies):
        assert reply == _line_of(replace(computed, request_id=rid))


def test_bare_document_metadata_is_the_decoders():
    """A bare system document's ``request_id`` and ``tenant`` keys are
    not request metadata, remembered or not: the same line gets the
    same reply, charged to the anonymous tenant, every time."""
    document = request_to_dict(_request())["system"]
    document.update(request_id="abc", tenant="t1")
    config = FrontendConfig(
        shards=1,
        default_quota=TenantQuota(rate=1e9, burst=1e9),
        tenant_quotas={"t1": TenantQuota(rate=1e-9, burst=1)},
    )

    async def run():
        async with AdmissionFrontend(config) as fe:
            line = (json.dumps(document) + "\n").encode()
            return await _exchange(fe, [line] * 3), set(fe._buckets)

    replies, tenants = asyncio.run(run())
    assert replies[0] == replies[1] == replies[2]
    assert json.loads(replies[0])["request_id"] == ""
    assert tenants == {""}
