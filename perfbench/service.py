"""The admission-service workloads: ``hit-wire``, ``miss-compute``,
``mixed-durable``.

Load shape, shared by all three: one process and one event loop run an
:class:`AdmissionFrontend` (2 shards x 1 worker on the default thread
executor) behind ``serve_frontend`` on loopback, and this module's load
generator drives it over 2 TCP connections as a closed loop -- each
connection keeps one request outstanding, the way deployment tooling
that waits for every verdict calls the service.  A request's latency
runs from writing its line to reading its reply.

The timed phase is cut into windows (see ``common``).  A window closes
at its time boundary once its requests form whole rounds of the
workload's input cells; the next opens after the requests in flight
have drained and the host-speed probe has run.

Inputs are generated and JSON-encoded before any timing starts (the
per-request id is spliced into a pre-encoded template).  While timing,
replies only get byte checks; they are parsed after timing stops.
"""

from __future__ import annotations

import asyncio
import bisect
import gc
import itertools
import json
import math
import random
import shutil
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

from repro.core.analysis.sensitivity import scale_execution_times
from repro.service.engine import compute_decision
from repro.service.frontend import (
    AdmissionFrontend,
    FrontendConfig,
    serve_frontend,
)
from repro.service.loadgen import decision_digest
from repro.service.requests import (
    AdmissionRequest,
    decision_from_dict,
    decision_to_dict,
    request_to_dict,
)
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

from common import (
    SETUP_REPS,
    WINDOWS,
    Outcome,
    Window,
    host_speed,
    peak_rss_mb,
)

__all__ = ["SERVICE_WORKLOADS", "run_service"]

CONNECTIONS = 2
SHARDS = 2

#: Served decisions recomputed directly with ``compute_decision``.
CHECK_SAMPLE = 64

#: The first this-many decisions of the timed phase form the digest.
DIGEST_PREFIX = 16

_ERROR = b'{"error"'
_SHED = b'"rationale": "service shed:'
_DEGRADED = b'"rationale": "service degraded:'
_REGION = "region tier:"


def _template(request: AdmissionRequest) -> bytes:
    """The request line up to its id: ``...,"request_id":"``."""
    document = request_to_dict(request)
    del document["request_id"]
    text = json.dumps(document, separators=(",", ":"))
    return (text[:-1] + ',"request_id":"').encode("utf-8")


def _line(template: bytes, rid: str) -> bytes:
    return template + rid.encode("ascii") + b'"}\n'


@dataclass
class Inputs:
    """One run's generated requests, indexed by template number."""

    requests: list[AdmissionRequest] = field(default_factory=list)
    templates: list[bytes] = field(default_factory=list)
    #: Set-up traffic, one list per connection, sent in order.
    warmup: list[list[int]] = field(default_factory=list)
    #: Template of the timed request with issue number ``k`` (None: the
    #: generated pool ran dry).
    stream: Callable[[int], int | None] = lambda k: None

    def add(self, request: AdmissionRequest) -> int:
        self.requests.append(request)
        self.templates.append(_template(request))
        return len(self.requests) - 1


@dataclass(frozen=True)
class ServiceWorkload:
    name: str
    #: Percentile reported as ``latency_tail_ms``; a run of the committed
    #: length has well over 10 samples beyond it.
    tail: float
    #: Requests per round of the input cells; windows hold whole rounds.
    round_length: int
    inputs: Callable[[int, float, bool], Inputs]
    config: Callable[[Path], FrontendConfig]


# ---------------------------------------------------------------------------
# hit-wire: exact repeats of a warmed population
# ---------------------------------------------------------------------------

HIT_POPULATION = 64
HIT_CELLS = [(n, u) for n in (2, 3, 4, 5) for u in (0.5, 0.6)]


def _hit_inputs(seed: int, seconds: float, smoke: bool) -> Inputs:
    rng = random.Random(seed)
    inputs = Inputs()
    population = 8 if smoke else HIT_POPULATION
    for index in range(population):
        n, u = HIT_CELLS[index % len(HIT_CELLS)]
        inputs.add(
            AdmissionRequest(
                system=generate_system(
                    WorkloadConfig(subtasks_per_task=n, utilization=u),
                    rng.randrange(2**32),
                )
            )
        )
    inputs.warmup = [
        list(range(c, population, CONNECTIONS)) for c in range(CONNECTIONS)
    ]
    # Drawn as issued: the k-th call picks the k-th request.
    inputs.stream = lambda k: rng.randrange(population)
    return inputs


# ---------------------------------------------------------------------------
# miss-compute: every request a distinct paper-size system
# ---------------------------------------------------------------------------

MISS_CELLS = [(n, u) for n in (2, 3, 4, 5) for u in (0.5, 0.6, 0.7)]

#: Generated requests per timed second: several times the measured
#: capacity, so the pool lasts the phase unless misses get that much
#: faster (then the phase ends early and says so).
MISS_POOL_RATE = 80.0


def _miss_inputs(seed: int, seconds: float, smoke: bool) -> Inputs:
    rng = random.Random(seed)
    inputs = Inputs()

    def fresh(cell: int) -> int:
        n, u = MISS_CELLS[cell % len(MISS_CELLS)]
        return inputs.add(
            AdmissionRequest(
                system=generate_system(
                    WorkloadConfig(subtasks_per_task=n, utilization=u),
                    rng.randrange(2**32),
                )
            )
        )

    inputs.warmup = [[fresh(0)] for _ in range(CONNECTIONS)]
    # The cells take turns, so every window of whole rounds has one
    # request of each.
    pool = [fresh(k) for k in range(math.ceil(MISS_POOL_RATE * seconds))]
    inputs.stream = lambda k: pool[k] if k < len(pool) else None
    return inputs


# ---------------------------------------------------------------------------
# mixed-durable: sqlite cache + sqlite region tier, reads and writes mixed
# ---------------------------------------------------------------------------

MIXED_SHAPES = 12
MIXED_VARIANTS = 32
MIXED_CACHE_CAPACITY = 512
#: Per-request mix: exact repeat / same-shape variant / fresh system.
MIXED_WEIGHTS = (0.5, 0.3, 0.2)
#: A repeat re-sends a fresh request issued this many positions back,
#: so it is still cached (far fewer than the cache capacity of puts
#: happen in between) and no longer in flight on the other connection.
MIXED_REPEAT_WINDOW = (8, 256)
#: Generated requests per timed second (see MISS_POOL_RATE).
MIXED_POOL_RATE = 2000.0


def _mixed_system(rng: random.Random, utilization: float):
    return generate_system(
        WorkloadConfig(
            subtasks_per_task=2,
            utilization=utilization,
            tasks=4,
            processors=2,
        ),
        rng.randrange(2**32),
    )


def _mixed_inputs(seed: int, seconds: float, smoke: bool) -> Inputs:
    rng = random.Random(seed)
    inputs = Inputs()
    shapes = 3 if smoke else MIXED_SHAPES
    bases: list[int] = []
    # Bases every protocol certifies, so a scaled-down variant lies
    # inside every box its shape's region verifies.
    while len(bases) < shapes:
        system = _mixed_system(rng, (0.5, 0.6)[len(bases) % 2])
        decision = compute_decision(AdmissionRequest(system=system))
        if all(decision.schedulable.values()):
            bases.append(inputs.add(AdmissionRequest(system=system)))
    # Set-up sends each base, then one variant: the shape's second
    # computation trips the region build (build_threshold=2).
    inputs.warmup = [[] for _ in range(CONNECTIONS)]
    for position, base in enumerate(bases):
        variant = inputs.add(
            AdmissionRequest(
                system=scale_execution_times(inputs.requests[base].system, 0.75)
            )
        )
        inputs.warmup[position % CONNECTIONS] += [base, variant]
    variants = [
        inputs.add(
            AdmissionRequest(
                system=scale_execution_times(
                    inputs.requests[base].system, rng.uniform(0.5, 1.0)
                )
            )
        )
        for base in bases
        for _ in range(MIXED_VARIANTS)
    ]
    picks: list[int] = []
    fresh_at: list[int] = []  # issue positions of fresh requests
    low, high = MIXED_REPEAT_WINDOW
    for position in range(math.ceil(MIXED_POOL_RATE * seconds)):
        kind = rng.choices(range(3), MIXED_WEIGHTS)[0]
        if kind == 0:
            first = bisect.bisect_left(fresh_at, position - high)
            last = bisect.bisect_right(fresh_at, position - low)
            picks.append(
                picks[fresh_at[rng.randrange(first, last)]]
                if last > first
                else rng.choice(bases)
            )
        elif kind == 1:
            picks.append(rng.choice(variants))
        else:
            fresh_at.append(position)
            system = _mixed_system(rng, rng.choice((0.5, 0.6)))
            picks.append(inputs.add(AdmissionRequest(system=system)))
    inputs.stream = lambda k: picks[k] if k < len(picks) else None
    return inputs


# ---------------------------------------------------------------------------
# The workloads
# ---------------------------------------------------------------------------

HIT_WIRE = ServiceWorkload(
    name="hit-wire",
    tail=0.99,
    round_length=1,
    inputs=_hit_inputs,
    config=lambda workdir: FrontendConfig(shards=SHARDS, workers_per_shard=1),
)

MISS_COMPUTE = ServiceWorkload(
    name="miss-compute",
    tail=0.90,
    round_length=len(MISS_CELLS),
    inputs=_miss_inputs,
    config=lambda workdir: FrontendConfig(shards=SHARDS, workers_per_shard=1),
)

MIXED_DURABLE = ServiceWorkload(
    name="mixed-durable",
    tail=0.99,
    round_length=1,
    inputs=_mixed_inputs,
    config=lambda workdir: FrontendConfig(
        shards=SHARDS,
        workers_per_shard=1,
        cache_backend="sqlite",
        cache_capacity=MIXED_CACHE_CAPACITY,
        cache_path=workdir / "cache.sqlite",
        region_backend="sqlite",
        region_path=workdir / "regions.sqlite",
        region_build_threshold=2,
    ),
)

SERVICE_WORKLOADS = {
    workload.name: workload
    for workload in (HIT_WIRE, MISS_COMPUTE, MIXED_DURABLE)
}


# ---------------------------------------------------------------------------
# The rig: frontend + server + connections
# ---------------------------------------------------------------------------


class Rig:
    """A started frontend served on loopback, with open connections."""

    def __init__(self, frontend, server, connections) -> None:
        self.frontend = frontend
        self.server = server
        self.connections = connections

    @classmethod
    async def open(cls, config: FrontendConfig) -> "Rig":
        frontend = AdmissionFrontend(config)
        await frontend.start()
        server = await serve_frontend(frontend, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        connections = [
            await asyncio.open_connection("127.0.0.1", port)
            for _ in range(CONNECTIONS)
        ]
        return cls(frontend, server, connections)

    async def close(self) -> None:
        try:
            for _reader, writer in self.connections:
                writer.close()
                await writer.wait_closed()
            self.server.close()
            await self.server.wait_closed()
        finally:
            await self.frontend.stop()

    def counters(self) -> dict[str, int]:
        """The frontend's aggregate and store counters, flattened."""
        snapshot = self.frontend.snapshot()
        counters = {
            name: value
            for name, value in snapshot["aggregate"].items()
            if isinstance(value, int)
        }
        for store in ("cache", "regions"):
            for name, value in snapshot.get(store, {}).items():
                counters[f"{store}.{name}"] = value
        return counters


class Tally:
    """Replies of the timed phase, classified as they arrive.

    While timing, only byte checks run on a reply.  The first
    ``DIGEST_PREFIX`` replies and a seeded reservoir sample of
    ``CHECK_SAMPLE`` served replies are kept whole and parsed after
    timing stops, so the harness holds the same memory however many
    requests the service answers.
    """

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed + 7919)
        self.issued = self.served = 0
        self.errors = self.shed = self.degraded = 0
        self.prefix: list[tuple[int, tuple[int, str, bytes]]] = []
        self.sample: list[tuple[int, str, bytes]] = []

    def add(self, number: int, template: int, rid: str, reply: bytes) -> None:
        if not reply.endswith(b"\n") or reply.startswith(_ERROR):
            self.errors += 1
            return
        if _SHED in reply:
            self.shed += 1
            return
        self.served += 1
        if _DEGRADED in reply:
            self.degraded += 1
        item = (template, rid, reply)
        if number < DIGEST_PREFIX:
            self.prefix.append((number, item))
        if len(self.sample) < CHECK_SAMPLE:
            self.sample.append(item)
        else:
            slot = self.rng.randrange(self.served)
            if slot < CHECK_SAMPLE:
                self.sample[slot] = item


async def _send_all(rig: Rig, inputs: Inputs) -> list[bytes]:
    """Send each connection its set-up list in order; all replies."""

    async def one(connection, templates) -> list[bytes]:
        reader, writer = connection
        replies = []
        for number, template in enumerate(templates):
            writer.write(_line(inputs.templates[template], f"w{number}"))
            replies.append(await reader.readline())
        return replies

    batches = await asyncio.gather(
        *(one(c, t) for c, t in zip(rig.connections, inputs.warmup))
    )
    return [reply for batch in batches for reply in batch]


async def _timed_phase(
    rig: Rig,
    inputs: Inputs,
    seconds: float,
    round_length: int,
    tally: Tally,
    tracer,
    windows_wanted: int,
) -> tuple[list[Window], bool]:
    """The closed loop, window by window, until ``seconds`` have passed.

    Returns the windows and whether the generated pool ran dry.  In a
    traced run every other window is traced.
    """
    windows: list[Window] = []
    issued = 0
    dry = False
    speed = host_speed()
    phase_end = time.perf_counter() + seconds
    for index in itertools.count():
        # Two windows at least, so a traced run has a traced one.
        if dry or (index >= 2 and time.perf_counter() >= phase_end):
            break
        window = Window(traced=tracer is not None and index % 2 == 1)
        if tracer is not None:
            if window.traced:
                tracer.install()
            else:
                tracer.uninstall()
        start = time.perf_counter()
        boundary = start + seconds / windows_wanted
        in_window = 0

        def claim() -> tuple[int, int] | None:
            nonlocal issued, in_window, dry
            if (
                in_window % round_length == 0
                and issued >= DIGEST_PREFIX
                and time.perf_counter() >= boundary
            ):
                return None
            template = inputs.stream(issued)
            if template is None:
                dry = True
                return None
            issued += 1
            in_window += 1
            return issued - 1, template

        async def worker(reader, writer) -> None:
            while (claimed := claim()) is not None:
                number, template = claimed
                rid = f"c{number}"
                sent = time.perf_counter()
                writer.write(_line(inputs.templates[template], rid))
                reply = await reader.readline()
                done = time.perf_counter()
                window.latencies.append(done - sent)
                window.busy = done - start
                tally.add(number, template, rid, reply)

        await asyncio.gather(*(worker(r, w) for r, w in rig.connections))
        window.count = window.work = len(window.latencies)
        after = host_speed()
        window.speed = (speed + after) / 2
        speed = after
        windows.append(window)
    tally.issued = issued
    return windows, dry


async def _drive(workload, inputs, seconds, workdir, tracer, smoke, outcome, tally):
    """Set up (repeatedly), then run the timed phase on the last rig."""
    reps = 1 if (tracer is not None or smoke) else SETUP_REPS
    setups: list[float] = []
    for rep in range(reps):
        rep_dir = workdir / f"setup-{rep}"
        rep_dir.mkdir(parents=True)
        speed = host_speed()
        if tracer is not None:
            tracer.phase = "setup"
            tracer.install()
        started = time.perf_counter()
        rig = await Rig.open(workload.config(rep_dir))
        warm = await _send_all(rig, inputs)
        setups.append((time.perf_counter() - started) * speed)
        if rep < reps - 1:
            await rig.close()
            shutil.rmtree(rep_dir)
    outcome.trace_context["setup_wall_s"] = setups[-1] / speed
    bad = sum(1 for reply in warm if not reply or reply.startswith(_ERROR))
    outcome.check("set-up requests answered", bad, f"{len(warm)} sent")
    # The harness's own long-lived objects (inputs, templates) must not
    # make the service's garbage collections slower.
    gc.collect()
    gc.freeze()
    try:
        before = rig.counters()
        if tracer is not None:
            tracer.phase = "timed"
        started = time.perf_counter()
        cpu_started = time.process_time()
        windows, dry = await _timed_phase(
            rig,
            inputs,
            seconds,
            workload.round_length,
            tally,
            tracer,
            4 if smoke else WINDOWS,
        )
        outcome.trace_context["cpu_s"] = time.process_time() - cpu_started
        outcome.trace_context["timed_wall_s"] = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
        after = rig.counters()
    finally:
        await rig.close()
        gc.unfreeze()
    if dry:
        outcome.notes.append(
            "timed phase ended early: the generated request pool ran dry"
        )
    outcome.trace_context["counters"] = {
        name: after[name] - before.get(name, 0) for name in after
    }
    return setups, windows


def run_service(
    name: str,
    seed: int,
    seconds: float,
    workdir: Path,
    *,
    tracer=None,
    smoke: bool = False,
    expected_digest: str | None = None,
) -> Outcome:
    """Run one service workload; returns metrics and check results."""
    workload = SERVICE_WORKLOADS[name]
    outcome = Outcome()
    inputs = workload.inputs(seed, seconds, smoke)
    tally = Tally(seed)
    setups, windows = asyncio.run(
        _drive(workload, inputs, seconds, workdir, tracer, smoke, outcome, tally)
    )
    outcome.metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    if tracer is None:
        outcome.report_phase(windows, workload.tail, setups)
    else:
        outcome.report_traced(windows)
    _check(outcome, inputs, tally, expected_digest)
    return outcome


def _check(outcome, inputs, tally: Tally, expected_digest):
    """Correctness of the replies; counts failures into the outcome."""
    outcome.attempted = tally.issued
    # Unanswered requests and error lines are what break conservation.
    outcome.check(
        "issued == served + shed, no error lines",
        tally.issued - tally.served - tally.shed,
        f"{tally.issued} issued, {tally.served} served, {tally.shed} shed, "
        f"{tally.errors} error lines",
    )
    outcome.check("nothing shed", tally.shed, f"{tally.shed} shed")
    outcome.check(
        "nothing degraded", tally.degraded, f"{tally.degraded} degraded"
    )
    kept = [item for _number, item in sorted(tally.prefix)] + tally.sample
    documents = [json.loads(reply) for _template, _rid, reply in kept]
    outcome.check(
        "request ids echoed",
        sum(
            document["request_id"] != rid
            for document, (_template, rid, _reply) in zip(documents, kept)
        ),
    )
    digest = decision_digest(
        [decision_from_dict(d) for d in documents[: len(tally.prefix)]]
    )
    outcome.notes.append(f"decision digest {digest}")
    if expected_digest is not None:
        outcome.check(
            "decision digest matches the committed one",
            int(digest != expected_digest),
            f"{digest[:16]} vs {expected_digest[:16]}",
        )
    # Recompute the sample directly, bypassing cache, regions and wire.
    memo: dict[int, object] = {}
    mismatches = 0
    sample = list(zip(documents, kept))[len(tally.prefix):]
    for document, (template, rid, _reply) in sample:
        computed = memo.get(template)
        if computed is None:
            computed = memo[template] = compute_decision(inputs.requests[template])
        if document["rationale"].startswith(_REGION):
            ok = (
                document["admitted"]
                and computed.admitted
                and computed.schedulable.get(document["protocol"], False)
                and document["key"] == computed.key
            )
        else:
            expected = json.loads(
                json.dumps(
                    decision_to_dict(replace(computed, request_id=rid)),
                    sort_keys=True,
                )
            )
            ok = document == expected
        mismatches += not ok
    outcome.check(
        "sampled decisions equal direct recomputation",
        mismatches,
        f"{mismatches} of {len(sample)} differ",
    )
