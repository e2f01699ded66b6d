"""Keying request documents: completeness, soundness, wire bookkeeping.

The frontend's wire path keys the decoded JSON document and looks the
decision up before it builds a model (``docs/service.md``, "Wire hit
path").  That is only correct if

* **completeness** -- every request and its ``request_to_dict``
  document, round-tripped through JSON, share one key, so exact
  repeats hit;
* **soundness** -- a document is served a cached decision only when it
  decodes to the very request that decision was computed for.  The
  live oracle below warms a real server, sends canonical documents and
  their mutations, and checks every reply against the decoder:
  an error line iff ``request_from_dict`` raises, otherwise exactly
  ``compute_decision(request_from_dict(document))``;
* **the memo** -- a repeat keyed by its fingerprint gets exactly the
  key the full check would give, and a miss is admitted under its
  request's key;
* **the one walk** -- the pass that keys a request in the admission
  pipeline yields byte for byte the content document, the shape
  payload and the execution vector of the reference codecs.

Run under ``HYPOTHESIS_PROFILE=ci`` in CI's fuzz job.
"""

from __future__ import annotations

import asyncio
import copy
import hashlib
import json
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model.system import System
from repro.model.task import CriticalSection, Subtask, Task
from repro.service.batch import refusal
from repro.service.engine import compute_decision
from repro.regions.shape import execution_vector, shape_payload
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    TenantQuota,
    serve_frontend,
)
from repro.service.hashing import (
    METADATA_FIELDS,
    _canonical_default,
    canonical_json,
    canonical_payload,
    request_key,
    walk_request,
)
from repro.service.requests import (
    ALL_PROTOCOLS,
    AdmissionRequest,
    decision_to_dict,
    decodes_verbatim,
    request_from_dict,
    request_to_dict,
)
from repro.workload.examples import example_two

# ---------------------------------------------------------------------------
# Completeness: a request and its document share one key
# ---------------------------------------------------------------------------

_times = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def _stages(draw, exact: bool):
    if exact:
        e = Fraction(draw(st.integers(1, 10**6)), draw(st.integers(1, 1000)))
    else:
        e = draw(_times)
    sections = []
    if draw(st.booleans()):
        # Offsets are fractions of e well inside [0, e], so the section
        # fits even after float rounding.
        start = e * draw(st.sampled_from([0, Fraction(1, 8), Fraction(2, 5)]))
        duration = e * draw(st.sampled_from([Fraction(1, 10), Fraction(1, 2)]))
        if not exact:
            start, duration = float(start), float(duration)
        sections.append(
            CriticalSection(
                draw(st.sampled_from(["R1", "R2"])), start, duration
            )
        )
    return Subtask(
        e,
        draw(st.sampled_from(["P1", "P2", "P3"])),
        priority=draw(st.integers(0, 9)),
        name=draw(st.text(max_size=4)),
        critical_sections=tuple(sections),
    )


@st.composite
def _systems(draw, exact: bool = False):
    tasks = []
    for _ in range(draw(st.integers(1, 3))):
        if exact:
            period = Fraction(
                draw(st.integers(1, 10**6)), draw(st.integers(1, 50))
            )
            phase = Fraction(
                draw(st.integers(0, 100)), draw(st.integers(1, 7))
            )
        else:
            period = draw(_times)
            phase = draw(st.sampled_from([0.0, -0.0, 0.5, 1e-9, 123.25]))
        deadline = draw(st.one_of(st.none(), st.just(period)))
        tasks.append(
            Task(
                period=period,
                phase=phase,
                deadline=deadline,
                name=draw(st.text(max_size=4)),
                subtasks=tuple(
                    draw(_stages(exact))
                    for _ in range(draw(st.integers(1, 3)))
                ),
            )
        )
    return System(tuple(tasks), name=draw(st.text(max_size=6)))


@st.composite
def _requests(draw, exact: bool = False):
    return AdmissionRequest(
        system=draw(_systems(exact)),
        protocols=tuple(
            draw(st.sets(st.sampled_from(ALL_PROTOCOLS), min_size=1))
        ),
        jitter_sensitive=draw(st.booleans()),
        wcets_trusted=draw(st.booleans()),
        clock_sync_available=draw(st.booleans()),
        strictly_periodic_arrivals=draw(st.booleans()),
        synchronized_clocks=draw(st.booleans()),
        clock_rate_bound=draw(st.sampled_from([0.0, 1e-4, 0.5])),
        clock_jump_bound=draw(st.sampled_from([0.0, 0.25, 1e3])),
        shared_resources=draw(st.booleans()),
        sa_ds_max_iterations=draw(st.integers(1, 1000)),
        request_id=draw(st.text(max_size=5)),
        tenant=draw(st.text(max_size=5)),
    )


@settings(max_examples=100)
@given(request=_requests())
def test_wire_document_keys_like_its_request(request):
    document = json.loads(json.dumps(request_to_dict(request)))
    assert request_key(document) == request_key(request)


@settings(max_examples=100)
@given(request=_requests())
def test_wire_document_decodes_to_its_request(request):
    """The other half of a document hit: it decodes to that request."""
    document = json.loads(json.dumps(request_to_dict(request)))
    assert decodes_verbatim(document)
    assert request_from_dict(document) == request


def _key_bytes(request_or_document) -> str:
    return json.dumps(
        canonical_payload(request_or_document),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
        default=_canonical_default,
    )


@settings(max_examples=100)
@given(request=st.one_of(_requests(), _requests(exact=True)))
def test_one_walk_yields_the_reference_keys_and_vector(request):
    """The walk's content document is ``request_to_dict`` without the
    metadata (type- and order-exact), it hashes to the same bytes, its
    shape payload encodes like ``shape_payload`` and its vector is
    ``execution_vector``."""
    walk = walk_request(request)
    document = request_to_dict(request)
    for name in METADATA_FIELDS:
        del document[name]
    # repr spells key order, types and signed zeros, as marshal would,
    # and also covers exact rationals, which marshal cannot write.
    assert repr(walk.document) == repr(document)
    assert _key_bytes(walk.document) == _key_bytes(request)
    assert request_key(walk.document) == request_key(request)
    reference = shape_payload(request)
    assert walk.shape == reference
    try:
        encoded = canonical_json(reference)
    except TypeError:  # exact rationals: no shape key, either way
        with pytest.raises(TypeError):
            walk.shape_key
    else:
        assert canonical_json(walk.shape) == encoded
        assert walk.shape_key == hashlib.sha256(encoded.encode()).hexdigest()
    assert walk.vector == execution_vector(request.system)


@settings(max_examples=50)
@given(request=_requests(exact=True))
def test_exact_request_document_keys_like_its_request(request):
    # Fractions are not JSON: the in-memory document keys through the
    # same canonical tokens as the request.
    assert request_key(request_to_dict(request)) == request_key(request)
    assert not decodes_verbatim(request_to_dict(request))


def _document(request: AdmissionRequest) -> dict:
    return json.loads(json.dumps(request_to_dict(request)))


class TestDocumentKey:
    def test_omitted_options_key_at_their_defaults(self):
        document = _document(AdmissionRequest(system=example_two()))
        full = request_key(document)
        for name in list(document):
            if name in ("format", "system"):
                continue
            trimmed = dict(document)
            del trimmed[name]
            assert request_key(trimmed) == full, name

    @pytest.mark.parametrize("value", ["false", 0, 1, None])
    def test_bad_flag_raises_the_decoders_error(self, value):
        document = _document(AdmissionRequest(system=example_two()))
        document["wcets_trusted"] = value
        with pytest.raises(ValueError, match="wcets_trusted"):
            request_key(document)
        with pytest.raises(ValueError, match="wcets_trusted"):
            request_from_dict(document)

    def test_declared_resources_key_as_v3(self):
        plain = AdmissionRequest(system=example_two())
        declared = AdmissionRequest(
            system=example_two(), shared_resources=True
        )
        assert request_key(_document(declared)) == request_key(declared)
        assert request_key(declared) != request_key(plain)


class TestDecodesVerbatim:
    def test_canonical_document(self):
        assert decodes_verbatim(
            _document(AdmissionRequest(system=example_two()))
        )

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d["system"]["tasks"][0].update(period=10),
            lambda d: d["system"]["tasks"][0].update(phase=0),
            lambda d: d["system"]["tasks"][0].update(deadline=7),
            lambda d: d["system"]["tasks"][0].update(period="3/2"),
            lambda d: d["system"]["tasks"][0]["subtasks"][0].update(
                execution_time=1
            ),
            lambda d: d["system"]["tasks"][0]["subtasks"][0].update(
                priority=True
            ),
            lambda d: d["system"]["tasks"][0]["subtasks"][0].update(
                priority=1.0
            ),
            lambda d: d["system"]["tasks"][0]["subtasks"][0].update(
                critical_sections=[
                    {"resource": "R1", "start": 0, "duration": 0.5}
                ]
            ),
            lambda d: d.update(clock_rate_bound=0),
            lambda d: d.update(clock_jump_bound="1/4"),
            lambda d: d.update(sa_ds_max_iterations=300.0),
            lambda d: d.update(system=5),
            lambda d: d["system"].update(tasks=[5]),
            lambda d: d.update(format="repro-system-v1"),
            lambda d: d.pop("system"),
        ],
    )
    def test_coerced_or_malformed_document(self, mutate):
        document = _document(AdmissionRequest(system=example_two()))
        mutate(document)
        assert not decodes_verbatim(document)

    @pytest.mark.parametrize("value", [5, [1], "text", None])
    def test_not_a_document(self, value):
        assert not decodes_verbatim(value)


# ---------------------------------------------------------------------------
# Soundness: a live server against the decoder
# ---------------------------------------------------------------------------


def _sectioned() -> System:
    return System(
        (
            Task(
                period=40.0,
                subtasks=(
                    Subtask(
                        6.0,
                        "P1",
                        critical_sections=(
                            CriticalSection("R1", 0.5, 1.0),
                            CriticalSection("R2", 3.0, 2.0),
                        ),
                    ),
                    Subtask(4.0, "P2"),
                ),
                name="locked",
            ),
            Task(
                period=25.0,
                subtasks=(
                    Subtask(3.0, "P1", priority=1),
                    Subtask(2.0, "P2", priority=1),
                ),
            ),
        ),
        name="sections",
    )


def _int_twin(system: System) -> System:
    """``system`` with every time an int (a request built in code)."""
    return System(
        tuple(
            Task(
                period=int(task.period),
                subtasks=tuple(
                    Subtask(
                        int(stage.execution_time),
                        stage.processor,
                        priority=stage.priority,
                        name=stage.name,
                    )
                    for stage in task.subtasks
                ),
                name=task.name,
            )
            for task in system.tasks
        ),
        name=system.name,
    )


def _integral_times() -> System:
    return System(
        (
            Task(
                period=20.0,
                subtasks=(Subtask(4.0, "P1"), Subtask(5.0, "P2")),
                name="a",
            ),
            Task(
                period=30.0,
                subtasks=(
                    Subtask(6.0, "P2", priority=1),
                    Subtask(2.0, "P1", priority=1),
                ),
                name="b",
            ),
        ),
        name="integral",
    )


def _exact_twin(system: System) -> System:
    return System(
        tuple(
            Task(
                period=Fraction(task.period),
                subtasks=tuple(
                    Subtask(
                        Fraction(stage.execution_time),
                        stage.processor,
                        priority=stage.priority,
                        name=stage.name,
                    )
                    for stage in task.subtasks
                ),
                name=task.name,
            )
            for task in system.tasks
        ),
        name=system.name,
    )


def _warm_requests() -> list[AdmissionRequest]:
    return [
        AdmissionRequest(system=example_two(), request_id="w-example"),
        AdmissionRequest(system=_sectioned(), request_id="w-sections"),
        AdmissionRequest(system=_integral_times(), request_id="w-integral"),
    ]


def _in_code_requests() -> list[AdmissionRequest]:
    """Requests only code can build: their keys spell ints/fractions."""
    return [
        AdmissionRequest(system=_int_twin(_integral_times())),
        AdmissionRequest(system=_exact_twin(_integral_times())),
        AdmissionRequest(system=_integral_times(), clock_rate_bound=0),
        AdmissionRequest(system=_integral_times(), sa_ds_max_iterations=300.0),
    ]


def _task(document: dict, index: int = 0) -> dict:
    return document["system"]["tasks"][index]


def _mutants() -> list[tuple[str, object]]:
    """(label, JSON value) lines for the oracle, canonical ones first."""
    example, sections, integral = (
        _document(request) for request in _warm_requests()
    )
    lines: list[tuple[str, object]] = [
        ("canonical-example", example),
        ("canonical-sections", sections),
        ("canonical-integral", integral),
    ]

    def mutant(label, base, change):
        document = copy.deepcopy(base)
        change(document)
        lines.append((label, document))

    # Coerced numbers: an in-code request may hold exactly these.
    mutant("int-period", integral, lambda d: [
        t.update(period=int(t["period"])) for t in d["system"]["tasks"]
    ])
    mutant("int-times", integral, lambda d: [
        s.update(execution_time=int(s["execution_time"]))
        for t in d["system"]["tasks"]
        for s in t["subtasks"]
    ] + [t.update(period=int(t["period"])) for t in d["system"]["tasks"]])
    mutant("fraction-string-period", integral, lambda d: _task(d).update(
        period="20"
    ))
    mutant("int-clock-rate", integral, lambda d: d.update(clock_rate_bound=0))
    mutant("float-iterations", integral, lambda d: d.update(
        sa_ds_max_iterations=300.0
    ))
    mutant("bool-priority", example, lambda d: _task(d)["subtasks"][0].update(
        priority=False
    ))
    # Critical sections: reordered, empty, dropped flag.
    mutant("unsorted-sections", sections, lambda d: _task(d)["subtasks"][0][
        "critical_sections"
    ].reverse())
    mutant("empty-sections", example, lambda d: _task(d)["subtasks"][0].update(
        critical_sections=[]
    ))
    mutant("sections-flag-false", sections, lambda d: d.update(
        shared_resources=False
    ))
    mutant("declared-resources", example, lambda d: d.update(
        shared_resources=True
    ))
    # Missing and extra keys.
    mutant("missing-protocols", example, lambda d: d.pop("protocols"))
    mutant("missing-iterations", example, lambda d: d.pop(
        "sa_ds_max_iterations"
    ))
    mutant("missing-phase", example, lambda d: _task(d).pop("phase"))
    mutant("missing-system", example, lambda d: d.pop("system"))
    mutant("missing-period", example, lambda d: _task(d).pop("period"))
    mutant("extra-top-level", example, lambda d: d.update(extra=1))
    mutant("extra-in-task", example, lambda d: _task(d).update(extra=1))
    # Protocols: case, order, duplicates, types.
    mutant("lowercase-protocols", example, lambda d: d.update(
        protocols=["ds", "rg"]
    ))
    mutant("reversed-protocols", example, lambda d: d.update(
        protocols=list(reversed(d["protocols"]))
    ))
    mutant("duplicate-protocols", example, lambda d: d.update(
        protocols=["DS", "DS"]
    ))
    mutant("non-string-protocol", example, lambda d: d.update(protocols=[5]))
    # Flags, metadata, structure.
    mutant("string-flag", example, lambda d: d.update(
        synchronized_clocks="false"
    ))
    mutant("other-tenant", example, lambda d: d.update(tenant="acme"))
    mutant("non-string-request-id", example, lambda d: d.update(request_id=7))
    mutant("system-not-object", example, lambda d: d.update(system=5))
    mutant("negative-time", example, lambda d: _task(d)["subtasks"][0].update(
        execution_time=-1.0
    ))
    mutant("nan-clock", example, lambda d: d.update(
        clock_rate_bound=float("nan")
    ))
    lines.append(("bare-system", example["system"]))
    lines.append(("number", 5))
    lines.append(("array", [1]))
    lines.append(("system-number", {
        "format": "repro-admission-request-v1", "system": 5,
    }))
    return lines


def _expected(document) -> dict | None:
    """What the decoder says the reply must be (None: an error line)."""
    try:
        request = request_from_dict(document)
    except Exception:  # noqa: BLE001 - any decode failure is an error line
        return None
    return json.loads(json.dumps(decision_to_dict(compute_decision(request))))


def _exchange_wire(frontend_config, warm_in_code, lines):
    async def run():
        async with AdmissionFrontend(frontend_config) as fe:
            for request in warm_in_code:
                await fe.admit(request)
            server = await serve_frontend(fe, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            replies = []
            for line in lines:
                writer.write(line)
                await writer.drain()
                replies.append(
                    json.loads(await asyncio.wait_for(reader.readline(), 60))
                )
            writer.close()
            server.close()
            await server.wait_closed()
            return replies, fe.snapshot()

    return asyncio.run(run())


def _wire(value) -> bytes:
    return (json.dumps(value, allow_nan=True) + "\n").encode()


def test_served_decision_is_the_decoders_decision():
    """Every line gets one reply, and it is what decoding would give."""
    mutants = _mutants()
    # Canonical documents twice: the second pass takes the document path.
    # Every line is sent twice: a second send that hits takes the memo.
    lines = [line for line in mutants[:3] + mutants for _ in range(2)]
    replies, _ = _exchange_wire(
        FrontendConfig(shards=2),
        _in_code_requests(),
        [_wire(value) for _, value in lines],
    )
    assert len(replies) == len(lines)
    for (label, document), reply in zip(lines, replies):
        expected = _expected(json.loads(json.dumps(document, allow_nan=True)))
        if expected is None:
            assert set(reply) == {"error"}, label
        else:
            assert reply == expected, label


def test_in_code_twins_are_never_served_to_wire_documents():
    """A document spelling an in-code request's ints or fractions is
    decoded, so it gets the float request's decision and key."""
    integral = _document(_warm_requests()[2])
    ints = copy.deepcopy(integral)
    for task in ints["system"]["tasks"]:
        task["period"] = int(task["period"])
    twin = AdmissionRequest(system=_int_twin(_integral_times()))
    assert request_key(ints) != request_key(integral)
    replies, _ = _exchange_wire(
        FrontendConfig(shards=1), [twin], [_wire(ints)] * 2
    )
    for reply in replies:
        assert reply["key"] == request_key(request_from_dict(ints))
        assert reply["key"] != request_key(twin)


# ---------------------------------------------------------------------------
# Bookkeeping: one token and one counted lookup per decoded request
# ---------------------------------------------------------------------------


def test_wire_hit_counts_like_an_admit_hit():
    request = _warm_requests()[0]
    line = _wire(_document(request))
    replies, snapshot = _exchange_wire(
        FrontendConfig(shards=2), [], [line, line, line, b"[1]\n"]
    )
    assert [reply["request_id"] for reply in replies[:3]] == ["w-example"] * 3
    assert "error" in replies[3]
    assert snapshot["aggregate"]["requests"] == 3
    assert snapshot["aggregate"]["cache_hits"] == 2
    assert snapshot["cache"]["hits"] == 2
    # One counted lookup per request: the miss's by admit (the worker's
    # re-check after the queue is uncounted), the two hits' their own.
    assert snapshot["cache"]["misses"] == 1
    assert sum(shard["cache_hits"] for shard in snapshot["shards"]) == 2


def test_bad_line_touches_no_counter():
    request = _warm_requests()[0]
    line = _wire(_document(request))
    bad = [b"5\n", b"[1]\n", _wire({"format": "repro-admission-request-v1"})]
    _, before = _exchange_wire(FrontendConfig(shards=1), [], [line])
    _, after = _exchange_wire(FrontendConfig(shards=1), [], [line, *bad])
    assert after["aggregate"] == before["aggregate"] | {
        key: after["aggregate"][key]
        for key in after["aggregate"]
        if key.startswith("latency")
    }
    assert after["cache"] == before["cache"]


def test_quota_shed_on_a_wire_hit():
    request = _warm_requests()[0]
    document = _document(request)
    document["tenant"] = "acme"
    config = FrontendConfig(
        shards=1,
        tenant_quotas={"acme": TenantQuota(rate=1e-9, burst=1)},
    )
    replies, snapshot = _exchange_wire(
        config, [request], [_wire(document), _wire(document)]
    )
    assert replies[0]["request_id"] == "w-example"
    assert "service shed:" not in replies[0]["rationale"]
    assert replies[1]["rationale"].startswith("service shed:")
    assert replies[1]["request_id"] == "w-example"
    assert replies[1]["key"] == ""
    assert snapshot["aggregate"]["shed"] == 1
    # One counted lookup for the warm admit, one for the served hit.
    assert snapshot["cache"]["hits"] == 1


def test_cached_key_is_pure_and_entry_loss_falls_back():
    request = _warm_requests()[0]
    document = _document(request)

    async def run():
        async with AdmissionFrontend(FrontendConfig(shards=1)) as fe:
            key, decoded = fe.decode_document(document)
            assert (key, decoded) == (request_key(request), request)
            await fe.admit(request)
            before = fe.snapshot()
            assert fe.decode_document(document) == (key, None)
            assert fe.snapshot() == before
            fe.cache.clear()  # the entry leaves between lookup and admit
            return await fe.admit_cached(document, key), fe.snapshot()

    decision, snapshot = asyncio.run(run())
    assert decision == compute_decision(request)
    assert snapshot["aggregate"]["requests"] == 2


# ---------------------------------------------------------------------------
# The fingerprint memo: a repeat is served the key the full check gives
# ---------------------------------------------------------------------------


def _float_iterations(d):
    d["sa_ds_max_iterations"] = float(d["sa_ds_max_iterations"])


def _int_clock(d):
    if d["clock_jump_bound"].is_integer():
        d["clock_jump_bound"] = int(d["clock_jump_bound"])


def _bool_priority(d):
    stage = _task(d)["subtasks"][0]
    if stage["priority"] in (0, 1):
        stage["priority"] = bool(stage["priority"])
    else:
        stage["priority"] = float(stage["priority"])


def _negative_zero(d):
    task = _task(d)
    if task["phase"] == 0.0:
        task["phase"] = -task["phase"]
    else:
        d["clock_rate_bound"] = -0.0 if d["clock_rate_bound"] == 0.0 else 0.0


def _reordered(d):
    items = list(d.items())
    d.clear()
    d.update(reversed(items))


def _reordered_task(d):
    task = _task(d)
    items = list(task.items())
    task.clear()
    task.update(reversed(items))


#: Type twins and near twins of a canonical document, applied in place.
_TWINS = [
    ("same", lambda d: None),
    ("other-metadata", lambda d: d.update(request_id="other", tenant="t")),
    ("no-metadata", lambda d: [d.pop("request_id"), d.pop("tenant")]),
    ("float-iterations", _float_iterations),
    ("int-clock", _int_clock),
    ("bool-priority", _bool_priority),
    ("negative-zero", _negative_zero),
    ("reordered-keys", _reordered),
    ("reordered-task", _reordered_task),
    ("extra-top-level", lambda d: d.update(extra=1)),
    ("extra-in-task", lambda d: _task(d).update(extra=1)),
    ("reversed-protocols", lambda d: d["protocols"].reverse()),
    ("int-flag", lambda d: d.update(wcets_trusted=int(d["wcets_trusted"]))),
    ("nan", lambda d: d.update(clock_rate_bound=float("nan"))),
    ("bare-system", None),  # the document's system alone
]


def _twin(document: dict, label: str) -> object:
    if label == "bare-system":
        return copy.deepcopy(document["system"])
    twin = copy.deepcopy(document)
    dict(_TWINS)[label](twin)
    return twin


def _full_check_key(document) -> str | None:
    """What the memo stands in for: the document key of a verbatim
    document (None when it has none)."""
    if not decodes_verbatim(document):
        return None
    try:
        return request_key(document)
    except ValueError:
        return None


def _stand_in(request: AdmissionRequest, key: str):
    """A decision to fill the cache with: only membership matters here."""
    return refusal(request, key, "shed", "stand-in")


@settings(max_examples=50, deadline=None)
@given(request=_requests(), twin_cached=st.booleans())
def test_memo_serves_what_the_full_check_serves(request, twin_cached):
    """Over a document and each of its twins, sent repeatedly: a key
    served (from the memo or not) is the document's own key, only a
    verbatim document is ever served, and a miss's key is its
    request's."""
    document = _document(request)
    key = request_key(request)
    for label, _ in _TWINS:
        twin = _twin(document, label)
        fe = AdmissionFrontend(FrontendConfig(shards=1, cache_capacity=4))
        fe.cache.put(key, _stand_in(request, key))
        if twin_cached and _full_check_key(twin) is not None:
            # As if a request built in code spelled the twin's tokens.
            fe.cache.put(_full_check_key(twin), _stand_in(request, key))
        for value in (document, twin, document, twin, twin):
            line = json.loads(json.dumps(value, allow_nan=True))
            expected = _full_check_key(line)
            try:
                served, decoded = fe.decode_document(line)
            except Exception:  # noqa: BLE001 - must be the decoder's error
                with pytest.raises(Exception):
                    request_from_dict(line)
                continue
            if decoded is None:
                assert decodes_verbatim(line), label
                assert served == expected == request_key(line), label
            else:
                assert expected is None or expected not in fe.cache, label
                assert decoded == request_from_dict(line), label
                assert served is None or served == request_key(decoded), label
        # The document itself was served from the memo on its repeat.
        assert key in fe._key_memo.values(), label


def test_repeated_line_is_keyed_from_the_memo():
    """The first hit runs the full check; every later repeat is keyed
    by its fingerprint alone, whatever its request id."""
    document = _document(_warm_requests()[0])
    first, again = dict(document), dict(document, request_id="again")
    calls = []

    def spy(value):
        calls.append(value)
        return request_key(value)

    with mock.patch("repro.service.frontend.request_key", spy):
        replies, snapshot = _exchange_wire(
            FrontendConfig(shards=2),
            [],
            [_wire(first)] * 2 + [_wire(again)] * 3,
        )
    # The miss keys once (the document's key admits it), the first hit
    # once, and the memo keys the rest.
    assert len(calls) == 2
    assert {reply["key"] for reply in replies} == {request_key(document)}
    assert [reply["request_id"] for reply in replies] == (
        ["w-example"] * 2 + ["again"] * 3
    )
    assert snapshot["aggregate"]["cache_hits"] == 4


def test_miss_on_a_non_canonical_document_keys_its_request():
    """A verbatim document that is not its request's canonical form
    (reordered protocols) is admitted under its request's key."""
    document = _document(_warm_requests()[0])
    document["protocols"].reverse()
    assert request_key(document) != request_key(request_from_dict(document))
    replies, _ = _exchange_wire(
        FrontendConfig(shards=1), [], [_wire(document)] * 2
    )
    for reply in replies:
        assert reply == _expected(document)


def test_memo_stays_within_the_cache_capacity():
    requests = [
        AdmissionRequest(system=example_two(), sa_ds_max_iterations=n)
        for n in range(100, 106)
    ]
    fe = AdmissionFrontend(FrontendConfig(shards=1, cache_capacity=3))
    for request in requests:
        key = request_key(request)
        fe.cache.put(key, _stand_in(request, key))
        assert fe.decode_document(_document(request)) == (key, None)
        assert len(fe._key_memo) <= 3
    assert len(fe._key_memo) == 3
    # The newest entries stay; an evicted one takes the full check again.
    assert list(fe._key_memo.values()) == [
        request_key(request) for request in requests[-3:]
    ]


def test_memo_hit_whose_decision_left_the_cache_is_computed():
    request = _warm_requests()[0]
    line = _wire(_document(request))

    async def run():
        async with AdmissionFrontend(FrontendConfig(shards=1)) as fe:
            server = await serve_frontend(fe, port=0)
            port = server.sockets[0].getsockname()[1]
            reader, writer = await asyncio.open_connection("127.0.0.1", port)

            async def send():
                writer.write(line)
                await writer.drain()
                return json.loads(await asyncio.wait_for(reader.readline(), 60))

            await send()  # computed
            await send()  # a hit: the memo learns the document
            assert len(fe._key_memo) == 1
            fe.cache.clear()
            reply = await send()  # a memo hit with nothing cached
            writer.close()
            server.close()
            await server.wait_closed()
            return reply, fe.snapshot()

    reply, snapshot = asyncio.run(run())
    assert reply == _expected(_document(request))
    assert snapshot["aggregate"]["requests"] == 3
    assert snapshot["aggregate"]["cache_hits"] == 1
    assert snapshot["cache"]["size"] == 1


def test_quota_shed_on_a_memo_hit():
    """A memo hit over quota is shed exactly like a full-check hit."""
    request = _warm_requests()[0]
    document = _document(request)
    document["tenant"] = "acme"
    config = FrontendConfig(
        shards=1,
        tenant_quotas={"acme": TenantQuota(rate=1e-9, burst=2)},
    )
    replies, snapshot = _exchange_wire(
        config, [request], [_wire(document)] * 3
    )
    # The first hit runs the full check, the second is a memo hit.
    assert [r["request_id"] for r in replies] == ["w-example"] * 3
    assert not any(
        r["rationale"].startswith("service shed:") for r in replies[:2]
    )
    shed = refusal(
        request_from_dict(document),
        "",
        "shed",
        "tenant 'acme' quota exceeded (429, retry later)",
    )
    assert replies[2] == json.loads(json.dumps(decision_to_dict(shed)))
    assert snapshot["aggregate"]["shed"] == 1
    assert snapshot["cache"]["hits"] == 2
