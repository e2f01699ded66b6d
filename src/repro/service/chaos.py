"""Service-plane chaos: storage damage and shard failure, with oracles.

The sim-plane fault harness (:mod:`repro.faults`, ``repro-rts chaos``)
breaks the *modeled* system -- lost signals, crashed processors -- and
asks whether the synchronization protocols survive.  This module breaks
the *service itself* -- its persistence files, its sqlite stores, its
shard executors -- and asks whether the admission frontend recovers the
way :mod:`repro.service.durability` and
:mod:`repro.service.supervision` promise:

``torn-cache-tail`` / ``truncated-cache-file``
    a decision-cache snapshot loses bytes mid-record (the shape of a
    crash during append or of filesystem truncation); the reload must
    salvage the valid prefix, report the damage, and never raise.
``region-store-salvage``
    the same torn-tail damage against a region-store snapshot; on top
    of the salvage oracle, every region-served verdict from the
    salvaged store must agree with direct analysis (the tier's
    no-unsound-ACCEPT contract survives damage).
``sqlite-corruption``
    a sqlite decision store's header is smashed; opening must
    quarantine the damaged file and rebuild from the JSONL snapshot.
``shard-crash``
    one shard's executor raises on every computation; its breaker must
    open, traffic must reroute to ring neighbors, and -- once the
    injection stops -- a half-open probe must restore the shard.
``slow-backend``
    one shard's executor stalls past the job timeout; the retry ladder
    must degrade (fail closed), the breaker must open, and traffic
    must reroute.

Every scenario checks the same three recovery oracles on top of its
own: **no unsound ACCEPT** (anything served from salvaged state equals
the fault-free decision for the same content), **digest match** (the
:func:`~repro.service.loadgen.decision_digest` of surviving decisions
equals the fault-free digest over the same requests), and
**conservation** (``issued == served + shed`` and ``served == admitted
+ rejected`` -- a frontend that loses a request under faults fails the
gate).  Failures are *reported*, never raised: the CLI gate
(``repro-rts service-chaos --require-gate``) turns them into exit
status 1.

Everything is deterministic given ``seed``: the request population,
the bytes torn from each file, and the injected failures (keyed off
shard identity, not wall-clock timing).
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import repro.service.frontend as frontend_module
from repro.errors import ConfigurationError
from repro.service.backends import SqliteDecisionCache
from repro.service.cache import DecisionCache
from repro.service.engine import compute_decision
from repro.service.frontend import AdmissionFrontend, FrontendConfig
from repro.service.hashing import request_key
from repro.service.loadgen import LoadgenConfig, build_requests, decision_digest
from repro.service.requests import AdmissionDecision, AdmissionRequest
from repro.service.sharding import ShardRing

__all__ = [
    "SERVICE_CHAOS_SCENARIOS",
    "ScenarioResult",
    "ServiceChaosReport",
    "run_service_chaos",
]

#: Recognized scenario names, in run order.
SERVICE_CHAOS_SCENARIOS: tuple[str, ...] = (
    "torn-cache-tail",
    "truncated-cache-file",
    "region-store-salvage",
    "sqlite-corruption",
    "shard-crash",
    "slow-backend",
)

_SHED_PREFIX = "service shed:"
_DEGRADED_PREFIX = "service degraded:"
_REGION_PREFIX = "region tier:"


@dataclass(frozen=True)
class ScenarioResult:
    """One scenario's verdict: oracle failures and context notes."""

    name: str
    failures: tuple[str, ...]
    notes: tuple[str, ...] = ()

    @property
    def passed(self) -> bool:
        return not self.failures

    def describe(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        lines = [f"{self.name}: {status}"]
        lines += [f"  ! {failure}" for failure in self.failures]
        lines += [f"  - {note}" for note in self.notes]
        return "\n".join(lines)


@dataclass(frozen=True)
class ServiceChaosReport:
    """All scenario verdicts from one :func:`run_service_chaos`."""

    seed: int
    requests: int
    results: tuple[ScenarioResult, ...]

    @property
    def gate_passed(self) -> bool:
        return bool(self.results) and all(r.passed for r in self.results)

    def render(self) -> str:
        failed = sum(1 for r in self.results if not r.passed)
        lines = [
            (
                f"service chaos: {len(self.results)} scenario(s), "
                f"{failed} failed (seed {self.seed}, "
                f"{self.requests} requests each)"
            )
        ]
        lines += [result.describe() for result in self.results]
        lines.append(
            "gate: PASSED" if self.gate_passed else "gate: FAILED"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Shared machinery
# ---------------------------------------------------------------------------


class _Checks:
    """Failure/note accumulator with assert-like helpers."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.notes: list[str] = []

    def expect(self, condition: bool, failure: str) -> bool:
        if not condition:
            self.failures.append(failure)
        return condition

    def note(self, text: str) -> None:
        self.notes.append(text)


async def _drive(
    frontend: AdmissionFrontend,
    requests: list[AdmissionRequest],
    concurrency: int,
) -> list[AdmissionDecision]:
    """Closed-loop drive collecting every decision, in request order."""
    decisions: list[AdmissionDecision | None] = [None] * len(requests)
    cursor = iter(range(len(requests)))

    async def worker() -> None:
        for index in cursor:  # single shared iterator: no double-issue
            decisions[index] = await frontend.admit(requests[index])

    await asyncio.gather(*(worker() for _ in range(concurrency)))
    return list(decisions)  # type: ignore[arg-type]


def _run(
    config: FrontendConfig,
    requests: list[AdmissionRequest],
    concurrency: int,
    *,
    cache=None,
    region_tier=None,
) -> tuple[list[AdmissionDecision], dict]:
    """One frontend lifetime: start, drive, stop; decisions + snapshot."""

    async def session() -> tuple[list[AdmissionDecision], dict]:
        async with AdmissionFrontend(
            config, cache=cache, region_tier=region_tier
        ) as frontend:
            decisions = await _drive(frontend, requests, concurrency)
            return decisions, frontend.snapshot()

    return asyncio.run(session())


def _baseline(
    requests: list[AdmissionRequest],
) -> tuple[dict[str, AdmissionDecision], list[AdmissionDecision]]:
    """Fault-free reference decisions: pure computation, no service.

    Decisions are pure functions of request content, so this is the
    ground truth every faulted run's survivors must reproduce.
    """
    by_key: dict[str, AdmissionDecision] = {}
    decisions = []
    for request in requests:
        key = request_key(request)
        if key not in by_key:
            by_key[key] = compute_decision(request, key=key)
        decisions.append(
            replace(by_key[key], request_id=request.request_id)
        )
    return by_key, decisions


def _check_conservation(
    checks: _Checks,
    decisions: list[AdmissionDecision],
    snapshot: dict,
    issued: int,
) -> None:
    """The accounting oracle: nothing lost, nothing double-counted."""
    checks.expect(
        all(d is not None for d in decisions),
        "a request completed without a decision (silent drop)",
    )
    aggregate = snapshot["aggregate"]
    served = aggregate["requests"]
    shed = aggregate["shed"]
    checks.expect(
        issued == served + shed,
        f"conservation broken: {issued} issued != "
        f"{served} served + {shed} shed",
    )
    checks.expect(
        served == aggregate["admitted"] + aggregate["rejected"],
        f"conservation broken: {served} served != "
        f"{aggregate['admitted']} admitted + "
        f"{aggregate['rejected']} rejected",
    )


def _check_digest(
    checks: _Checks,
    decisions: list[AdmissionDecision],
    baseline_decisions: list[AdmissionDecision],
    *,
    label: str,
) -> None:
    """Survivor digest == fault-free digest over the same request ids.

    Shed and degraded decisions are timing- and fault-dependent, so
    they are excluded from both sides; everything that *was* served
    normally must be byte-identical to the fault-free run.
    """
    survivors = [
        d
        for d in decisions
        if not d.rationale.startswith(_SHED_PREFIX)
        and not d.rationale.startswith(_DEGRADED_PREFIX)
    ]
    surviving_ids = {d.request_id for d in survivors}
    reference = [
        d for d in baseline_decisions if d.request_id in surviving_ids
    ]
    checks.expect(
        decision_digest(survivors) == decision_digest(reference),
        f"{label}: surviving decisions diverge from the fault-free run",
    )
    checks.note(
        f"{label}: {len(survivors)}/{len(decisions)} decisions match "
        f"the fault-free digest"
    )


def _check_salvaged_cache_sound(
    checks: _Checks, cache, by_key: dict[str, AdmissionDecision]
) -> None:
    """No unsound ACCEPT: salvaged entries equal fault-free decisions."""
    unsound = 0
    for key in cache.keys():
        cached = cache.get(key)
        reference = by_key.get(key)
        if reference is None:
            unsound += 1  # a key the fault-free run never produced
            continue
        if (
            cached.admitted != reference.admitted
            or cached.protocol != reference.protocol
            or cached.schedulable != reference.schedulable
            or cached.worst_bound_ratio != reference.worst_bound_ratio
        ):
            unsound += 1
    checks.expect(
        unsound == 0,
        f"{unsound} salvaged cache entr(y/ies) diverge from direct "
        "analysis (unsound state survived recovery)",
    )


def _tear_tail(path: Path, rng: random.Random) -> int:
    """Cut a few bytes off the file's final record; lines before it."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    last = lines[-1]
    cut = rng.randrange(1, max(2, min(40, len(last))))
    path.write_text(text[: len(text) - cut - 1], encoding="utf-8")
    return len(lines) - 1


def _truncate_fraction(path: Path, fraction: float) -> int:
    """Truncate the file to ``fraction`` of its bytes; whole lines kept."""
    data = path.read_bytes()
    keep = max(1, int(len(data) * fraction))
    path.write_bytes(data[:keep])
    return data[:keep].count(b"\n")


# ---------------------------------------------------------------------------
# Storage-damage scenarios
# ---------------------------------------------------------------------------


def _scenario_cache_damage(
    name: str,
    workdir: Path,
    requests: list[AdmissionRequest],
    by_key: dict[str, AdmissionDecision],
    baseline_decisions: list[AdmissionDecision],
    rng: random.Random,
    concurrency: int,
) -> ScenarioResult:
    """Torn-tail / truncation damage against the decision-cache JSONL."""
    checks = _Checks()
    path = workdir / f"{name}-cache.jsonl"
    config = FrontendConfig(
        shards=2, cache_backend="memory", cache_path=path
    )
    _run(config, requests, concurrency)  # stop() snapshots to ``path``
    if not checks.expect(path.exists(), "no cache snapshot was written"):
        return ScenarioResult(name, tuple(checks.failures))
    if name == "torn-cache-tail":
        intact = _tear_tail(path, rng)
    else:
        intact = _truncate_fraction(path, 0.6)
    salvaged = DecisionCache(capacity=4096, path=path)
    report = salvaged.last_recovery
    if not checks.expect(
        report is not None and report.dropped >= 1,
        "damaged snapshot loaded without a recovery report",
    ):
        return ScenarioResult(name, tuple(checks.failures))
    checks.expect(
        report.loaded == intact,
        f"salvage kept {report.loaded} record(s), expected the "
        f"{intact} intact line(s)",
    )
    checks.note(report.describe())
    _check_salvaged_cache_sound(checks, salvaged, by_key)
    # Warm-start from the salvaged store and re-serve the campaign
    # (caller-passed, so the frontend neither owns nor re-saves it).
    decisions, snapshot = _run(
        FrontendConfig(shards=2, cache_backend=None),
        requests,
        concurrency,
        cache=salvaged,
    )
    _check_conservation(checks, decisions, snapshot, len(requests))
    _check_digest(
        checks, decisions, baseline_decisions, label="warm restart"
    )
    checks.expect(
        snapshot["aggregate"]["records_dropped"] >= 1,
        "recovery counters did not surface in the frontend metrics",
    )
    return ScenarioResult(name, tuple(checks.failures), tuple(checks.notes))


def _scenario_region_salvage(
    workdir: Path,
    requests: list[AdmissionRequest],
    by_key: dict[str, AdmissionDecision],
    baseline_decisions: list[AdmissionDecision],
    rng: random.Random,
    concurrency: int,
) -> ScenarioResult:
    """Torn-tail damage against the region-store JSONL."""
    from repro.regions.store import MemoryRegionStore
    from repro.regions.tier import RegionTier

    checks = _Checks()
    name = "region-store-salvage"
    path = workdir / "regions.jsonl"
    config = FrontendConfig(
        shards=2,
        cache_backend=None,
        region_backend="memory",
        region_path=path,
        region_build_threshold=1,
    )
    _run(config, requests, concurrency)
    if not checks.expect(
        path.exists(), "no region snapshot was written"
    ):
        return ScenarioResult(name, tuple(checks.failures))
    intact = _tear_tail(path, rng)
    store = MemoryRegionStore(capacity=1024, path=path)
    report = store.last_recovery
    if not checks.expect(
        report is not None and report.dropped >= 1,
        "damaged region snapshot loaded without a recovery report",
    ):
        return ScenarioResult(name, tuple(checks.failures))
    checks.expect(
        report.loaded == intact,
        f"salvage kept {report.loaded} region(s), expected the "
        f"{intact} intact line(s)",
    )
    checks.note(report.describe())
    tier = RegionTier(store, build_threshold=10**9)  # lookups only
    decisions, snapshot = _run(
        FrontendConfig(shards=2, cache_backend=None),
        requests,
        concurrency,
        region_tier=tier,
    )
    _check_conservation(checks, decisions, snapshot, len(requests))
    # The tier's contract under damage: any region-served verdict must
    # agree with direct analysis (admitted flag and full verdict map).
    region_served = unsound = 0
    for decision, reference in zip(decisions, baseline_decisions):
        if not decision.rationale.startswith(_REGION_PREFIX):
            continue
        region_served += 1
        if (
            decision.admitted != reference.admitted
            or decision.schedulable != reference.schedulable
        ):
            unsound += 1
    checks.expect(
        unsound == 0,
        f"{unsound} region-served verdict(s) from the salvaged store "
        "diverge from direct analysis (unsound ACCEPT path)",
    )
    checks.note(
        f"{region_served} decision(s) served by the salvaged region "
        f"store, all sound"
    )
    computed = [
        d
        for d in decisions
        if not d.rationale.startswith(_REGION_PREFIX)
    ]
    computed_ids = {d.request_id for d in computed}
    _check_digest(
        checks,
        computed,
        [d for d in baseline_decisions if d.request_id in computed_ids],
        label="computed remainder",
    )
    return ScenarioResult(name, tuple(checks.failures), tuple(checks.notes))


def _scenario_sqlite_corruption(
    workdir: Path,
    requests: list[AdmissionRequest],
    by_key: dict[str, AdmissionDecision],
    baseline_decisions: list[AdmissionDecision],
    rng: random.Random,
    concurrency: int,
) -> ScenarioResult:
    """Smashed sqlite header: quarantine, rebuild from JSONL, re-serve."""
    checks = _Checks()
    name = "sqlite-corruption"
    db = workdir / "cache.sqlite"
    snap = workdir / "cache-snapshot.jsonl"
    first = SqliteDecisionCache(capacity=4096, db_path=db)
    decisions, snapshot = _run(
        FrontendConfig(shards=2, cache_backend=None),
        requests,
        concurrency,
        cache=first,
    )
    entries = len(first)
    first.save(snap)
    first.close()
    checks.expect(entries >= 1, "the campaign populated no cache entries")
    with open(db, "r+b") as handle:
        handle.write(rng.randbytes(100))  # smash the sqlite header
    rebuilt = SqliteDecisionCache(
        capacity=4096, db_path=db, rebuild_from=snap
    )
    try:
        checks.expect(
            rebuilt.integrity_failures == 1,
            "corrupt database opened without an integrity failure",
        )
        report = rebuilt.last_recovery
        if not checks.expect(
            report is not None and report.quarantined is not None,
            "corrupt database was not quarantined",
        ):
            return ScenarioResult(name, tuple(checks.failures))
        checks.expect(
            Path(report.quarantined).exists(),
            "quarantined database file is missing",
        )
        checks.expect(
            len(rebuilt) == entries,
            f"rebuild recovered {len(rebuilt)}/{entries} entries",
        )
        checks.note(report.describe())
        _check_salvaged_cache_sound(checks, rebuilt, by_key)
        decisions, snapshot = _run(
            FrontendConfig(shards=2, cache_backend=None),
            requests,
            concurrency,
            cache=rebuilt,
        )
        _check_conservation(checks, decisions, snapshot, len(requests))
        _check_digest(
            checks, decisions, baseline_decisions, label="rebuilt store"
        )
        checks.expect(
            snapshot["aggregate"]["integrity_failures"] >= 1,
            "integrity failure did not surface in the frontend metrics",
        )
    finally:
        rebuilt.close()
    return ScenarioResult(name, tuple(checks.failures), tuple(checks.notes))


# ---------------------------------------------------------------------------
# Shard-failure scenarios
# ---------------------------------------------------------------------------


class _ShardZeroFault:
    """Injected executor fault for threads of shard 0, thread-safe.

    ``mode="crash"`` raises; ``mode="stall"`` sleeps past the job
    timeout (only for the first ``budget`` calls, so the harness
    terminates even when retries multiply the call count).
    """

    def __init__(self, mode: str, *, budget: int, stall: float = 0.0):
        self.mode = mode
        self.budget = budget
        self.stall = stall
        self.armed = True
        self.injected = 0
        self._lock = threading.Lock()
        self._original = frontend_module._shard_compute

    def __call__(self, job):
        # Thread names are "repro-shard-<index>_<n>"; the underscore
        # keeps shard 1 from matching shard 10+.
        on_target = threading.current_thread().name.startswith(
            "repro-shard-0_"
        )
        fire = False
        if on_target:
            with self._lock:
                if self.armed and self.injected < self.budget:
                    self.injected += 1
                    fire = True
        if fire:
            if self.mode == "crash":
                raise RuntimeError("injected shard fault (chaos)")
            time.sleep(self.stall)
        return self._original(job)

    def disarm(self) -> None:
        with self._lock:
            self.armed = False


def _shard_zero_keys(
    requests: list[AdmissionRequest], shards: int
) -> list[int]:
    """Indices of requests whose content routes to shard 0."""
    ring = ShardRing(shards)
    return [
        index
        for index, request in enumerate(requests)
        if ring.shard_for(request_key(request)) == 0
    ]


def _scenario_shard_failure(
    name: str,
    requests: list[AdmissionRequest],
    baseline_decisions: list[AdmissionDecision],
    concurrency: int,
) -> ScenarioResult:
    """Crashing / stalling shard 0: breaker opens, reroutes, restores."""
    checks = _Checks()
    shards = 3
    targeted = _shard_zero_keys(requests, shards)
    if not checks.expect(
        len(targeted) >= 4,
        f"seed routes only {len(targeted)} request(s) to shard 0; "
        "need >= 4 to open the breaker and observe a reroute",
    ):
        return ScenarioResult(name, tuple(checks.failures))
    if name == "shard-crash":
        config = FrontendConfig(
            shards=shards,
            cache_backend=None,
            max_retries=0,
            breaker_failures=2,
            breaker_recovery=0.05,
        )
        fault = _ShardZeroFault("crash", budget=len(requests))
    else:  # slow-backend
        config = FrontendConfig(
            shards=shards,
            cache_backend=None,
            job_timeout=0.05,
            max_retries=1,
            retry_backoff=0.0,
            breaker_failures=2,
            breaker_recovery=0.05,
        )
        # Enough stalled calls to exhaust two retry ladders (opening
        # the breaker) even if a few land interleaved.
        fault = _ShardZeroFault(
            "stall", budget=2 * (config.max_retries + 1) + 2, stall=0.2
        )

    async def session() -> tuple[list[AdmissionDecision], dict]:
        async with AdmissionFrontend(config) as frontend:
            decisions = await _drive(frontend, requests, concurrency)
            # Stop injecting, wait out the cooldown (plus any stalled
            # calls still occupying shard 0's executor), and send
            # probes at shard 0's keyspace: the half-open window must
            # restore it.
            fault.disarm()
            await asyncio.sleep(
                config.breaker_recovery * 1.5
                + fault.stall * fault.injected
            )
            for probe_round, index in enumerate(targeted[:4]):
                await frontend.admit(
                    replace(
                        requests[index],
                        request_id=f"probe-{probe_round:02d}",
                    )
                )
            checks.expect(
                frontend._shards[0].breaker.state == "closed",
                "shard 0's breaker did not restore after the fault "
                "cleared (state "
                f"{frontend._shards[0].breaker.state!r})",
            )
            return decisions, frontend.snapshot()

    frontend_module._shard_compute = fault
    try:
        decisions, snapshot = asyncio.run(session())
    finally:
        frontend_module._shard_compute = fault._original
    probes = 4  # extra admits issued by the restore phase
    _check_conservation(
        checks, decisions, snapshot, len(requests) + probes
    )
    aggregate = snapshot["aggregate"]
    checks.expect(
        aggregate["breaker_opens"] >= 1,
        "the failing shard's breaker never opened",
    )
    checks.expect(
        aggregate["rerouted"] >= 1,
        "no request was rerouted around the open breaker",
    )
    checks.expect(
        aggregate["breaker_restores"] >= 1,
        "the breaker never closed again after half-open probes",
    )
    checks.expect(
        aggregate["degraded"] >= 1,
        "the injected fault produced no degraded decision "
        "(was anything injected at all?)",
    )
    if name == "slow-backend":
        checks.expect(
            aggregate["timeouts"] >= 1,
            "the stalled executor produced no recorded timeout",
        )
    degraded = sum(
        1
        for d in decisions
        if d.rationale.startswith(_DEGRADED_PREFIX)
    )
    checks.note(
        f"injected {fault.injected} fault(s): {degraded} degraded, "
        f"{aggregate['rerouted']} rerouted, "
        f"{aggregate['breaker_opens']} open(s), "
        f"{aggregate['breaker_restores']} restore(s)"
    )
    _check_digest(
        checks, decisions, baseline_decisions, label="survivors"
    )
    return ScenarioResult(name, tuple(checks.failures), tuple(checks.notes))


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run_service_chaos(
    *,
    requests: int = 120,
    systems: int = 24,
    seed: int = 0,
    concurrency: int = 8,
    scenarios: tuple[str, ...] | None = None,
    workdir: str | Path | None = None,
) -> ServiceChaosReport:
    """Run the service-plane chaos scenarios; never raises on faults.

    ``workdir`` (a scratch directory for damaged artifacts) defaults to
    a temporary directory cleaned up on return; pass a path to keep the
    quarantined/damaged files for inspection.
    """
    chosen = scenarios if scenarios is not None else SERVICE_CHAOS_SCENARIOS
    unknown = [s for s in chosen if s not in SERVICE_CHAOS_SCENARIOS]
    if unknown:
        raise ConfigurationError(
            f"unknown service-chaos scenario(s) {unknown}; expected "
            f"among {'/'.join(SERVICE_CHAOS_SCENARIOS)}"
        )
    if not chosen:
        raise ConfigurationError("no scenarios selected")
    population = build_requests(
        LoadgenConfig(requests=requests, systems=systems, seed=seed)
    )
    by_key, baseline_decisions = _baseline(population)
    rng = random.Random(seed ^ 0xC4A05)

    def run_in(workdir: Path) -> tuple[ScenarioResult, ...]:
        results = []
        for name in chosen:
            if name in ("torn-cache-tail", "truncated-cache-file"):
                results.append(
                    _scenario_cache_damage(
                        name,
                        workdir,
                        population,
                        by_key,
                        baseline_decisions,
                        rng,
                        concurrency,
                    )
                )
            elif name == "region-store-salvage":
                results.append(
                    _scenario_region_salvage(
                        workdir,
                        population,
                        by_key,
                        baseline_decisions,
                        rng,
                        concurrency,
                    )
                )
            elif name == "sqlite-corruption":
                results.append(
                    _scenario_sqlite_corruption(
                        workdir,
                        population,
                        by_key,
                        baseline_decisions,
                        rng,
                        concurrency,
                    )
                )
            else:  # shard-crash / slow-backend
                results.append(
                    _scenario_shard_failure(
                        name,
                        population,
                        baseline_decisions,
                        concurrency,
                    )
                )
        return tuple(results)

    if workdir is not None:
        results = run_in(Path(workdir))
    else:
        with tempfile.TemporaryDirectory(
            prefix="repro-service-chaos-"
        ) as scratch:
            results = run_in(Path(scratch))
    return ServiceChaosReport(
        seed=seed, requests=requests, results=results
    )
