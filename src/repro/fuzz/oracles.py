"""The oracle registry: paper-derived cross-checks over one fuzz case.

Each :class:`Oracle` states one relational claim of Sun & Liu (ICDCS
1996) -- simulator vs. analysis, protocol vs. protocol, or trace vs.
model -- and checks it on a :class:`~repro.fuzz.runner.FuzzCase`.  An
oracle returns human-readable violation strings; an empty list means the
claim held.  Oracles that do not apply to a case (protocol skipped,
analysis diverged, system too large for exhaustive search) report
*nothing* rather than failing: only a claim that was checkable and false
is a counterexample.

The catalog (paper references in each oracle's ``reference``):

``trace-invariants``
    Every recorded trace satisfies fixed-priority preemptive scheduling
    semantics (re-derived independently by
    :func:`repro.sim.trace_validation.validate_trace`).
``precedence``
    No protocol releases a successor before its predecessor instance
    completed (Section 2's precedence constraint).
``sa-pm-soundness``
    Simulated response times under PM, MPM and RG never exceed the
    SA/PM bounds (Section 4.2; validity for RG is Theorem 1).
``sa-ds-soundness``
    Simulated (intermediate) end-to-end response times under DS never
    exceed the SA/DS bounds (Section 4.3); checked only when Algorithm
    SA/DS accepted the system (a failed run leaves under-converged,
    unsound bounds).
``analysis-dominance``
    SA/DS task bounds dominate SA/PM task bounds (Section 4.3: DS
    admits more interference per busy period).
``pm-mpm-identity``
    PM and MPM produce identical schedules under ideal conditions
    (Section 3.1/3.3).
``rg-guard``
    RG never releases an instance before its release guard (Section
    3.2, release rule).
``rg-separation``
    Consecutive RG releases of one subtask are at least a period apart
    unless an idle point of its processor intervened (Theorem 1's
    premise: rule 1 spaces releases, only rule 2 may shorten).
``exhaustive-vs-bounds``
    On small systems, the exhaustively searched worst-case EER (a
    certified lower bound on the true worst case, Section 2) never
    exceeds the matching analysis bound.
``clock-perfect-identity``
    A case built with an explicitly *perfect* clock configuration is
    byte-identical to the same case built with no clock plumbing at all
    (the clock subsystem must be a strict no-op when every clock is
    ideal).
``sa-pm-skew-soundness``
    Under imperfect-but-bounded clocks, simulated MPM and RG response
    times never exceed the skew-inflated SA/PM bounds
    (:func:`repro.core.analysis.skew.analyze_sa_pm_skewed`).  PM is
    deliberately absent: its phase table breaks under unsynchronized
    clocks (Section 3.1), which is the separation the clock study
    demonstrates.
``fault-free-identity``
    A case built with an explicitly *zero-rate* fault configuration is
    byte-identical to the same case built with no fault plumbing at all
    (the fault plane must be a strict no-op when nothing can fire).
``rg-recovery-soundness``
    Under signal faults with full recovery armed (ack/retransmit
    watchdog plus duplicate suppression), the Release Guard run keeps
    its precedence guarantee: zero chain-precedence violations and
    zero unrecovered duplicate releases (the guard makes delivery
    idempotent; the watchdog makes it reliable).
``lock-free-identity``
    A case built with an explicit locking configuration on a system
    *without* critical sections is byte-identical to the same case
    built with no lock plumbing at all (the locking subsystem must be
    a strict no-op on a resource-free system).
``blocking-term-soundness``
    Under PM and MPM (whose timer releases are strictly periodic, the
    arrival pattern the blocking fixpoint assumes), each instance's
    measured lock-waiting time never exceeds the analyzed blocking
    term ``B_i,j``, and simulated responses never exceed the
    blocking-aware SA/PM bounds
    (:func:`repro.locks.analysis.analyze_sa_pm_blocking`).
``deadlock-freedom``
    Replaying every protocol's lock log as a mutex state machine shows
    mutual exclusion (one holder per resource at a time), grant
    discipline (acquire only by a pending requester of a free
    resource, release only by the holder), and progress (a free
    resource never sits idle while requests wait -- waiters are either
    granted at the release instant or cut off by the horizon).
``region-soundness``
    The parametric feasibility region (:mod:`repro.regions`) is an
    *inner* approximation: every point the region tier would serve --
    the verified corner, interior points, the request's own execution
    vector -- is confirmed schedulable by the direct analysis the
    admission service runs; exact-timebase corners are exact rationals
    and the JSON round-trip is lossless.
``batch-vs-reference-identity``
    On the batch engine's declared domain (float timebase, perfect
    clocks, no fault plane, no latency, no critical sections), every
    protocol re-simulated on the flat-array kernel produces a trace
    byte-identical to the reference kernel's -- compared at the packed
    column level, where ``0.0`` vs ``-0.0`` and dtype drift count as
    differences -- and never falls back (an in-domain fallback is
    itself a violation of the engine contract).
``durable-decision-identity``
    The admission service's durability layer
    (:mod:`repro.service.durability`) is a faithful codec: a freshly
    computed decision survives the checksummed persistence frame and
    the decision JSON round-trip byte-identically, and a single flipped
    byte inside the framed record is always detected (no silent
    corruption can reach a salvaged cache).

Oracle *applicability* encodes the paper's stated assumptions: the
identity and plain-soundness oracles demand ideal conditions (perfect
clocks, zero latency, no live faults, no shared resources -- the
blocking-aware oracles take over on locked cases); SA/DS soundness
tolerates imperfect clocks (DS uses no timers) but not latency or
faults; the
precedence oracle drops PM and MPM under imperfect clocks, where
timer-based releases may legitimately outrun their predecessors --
that is a finding for the skew study, not a simulator bug -- and under
live faults applies only when the fault environment is limited to
signal faults with full recovery (anything harsher legitimately loses
releases, which is the chaos study's finding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.errors import ConfigurationError
from repro.fuzz.runner import CheckedReleaseGuard, FuzzCase
from repro.model.task import SubtaskId
from repro.sim.trace_validation import validate_trace
from repro.timebase import REL_EPS, fmt

__all__ = ["Oracle", "ORACLES", "check_case", "oracle_names"]

_TOL = 1e-6


def _tol(case: "FuzzCase") -> float:
    """Per-case comparison tolerance: the float guard, or exactly 0.

    Under the exact timebase there is no representation noise to
    forgive -- every relational claim of the paper is checked with
    plain ``==``/``<=``.
    """
    return 0 if case.timebase.exact else _TOL

#: Size gate for the exhaustive-search oracle: ``steps ** tasks``
#: simulations per protocol are affordable only on tiny systems.
EXHAUSTIVE_MAX_TASKS = 2
EXHAUSTIVE_STEPS = 3


@dataclass(frozen=True)
class Oracle:
    """One relational claim, checkable against a fuzz case."""

    name: str
    reference: str
    description: str
    check: Callable[[FuzzCase], list[str]]
    applies: Callable[[FuzzCase], bool]


# ---------------------------------------------------------------------------
# Trace-level oracles
# ---------------------------------------------------------------------------


def _check_trace_invariants(case: FuzzCase) -> list[str]:
    issues = []
    for protocol, result in case.results.items():
        # PM/MPM on skewed clocks legitimately release ahead of their
        # predecessors (the clock study's finding); the scheduling
        # invariants still apply, the precedence section does not --
        # mirroring the precedence oracle's own gating.
        precedence = case.clocks_perfect or protocol not in ("PM", "MPM")
        for issue in validate_trace(
            result.trace, check_precedence=precedence
        ):
            issues.append(f"{protocol}: {issue}")
    return issues


def _check_precedence(case: FuzzCase) -> list[str]:
    issues = []
    for protocol, result in case.results.items():
        if protocol in ("PM", "MPM") and not case.clocks_perfect:
            # Timer-based releases legitimately outrun predecessors when
            # the timers run on skewed clocks -- that is the clock
            # study's finding, not a conformance violation.
            continue
        for violation in result.trace.violations:
            issues.append(
                f"{protocol}: {violation.sid}#{violation.instance} released "
                f"at {fmt(violation.release_time)} before predecessor "
                f"{violation.predecessor} completed"
            )
    return issues


# ---------------------------------------------------------------------------
# Analysis-soundness oracles
# ---------------------------------------------------------------------------


def _soundness_issues(
    case: FuzzCase,
    protocol: str,
    task_bounds: tuple[float, ...],
    subtask_bounds: Mapping[SubtaskId, float] | None,
    algorithm: str,
) -> list[str]:
    """Observed task EERs (and optionally per-subtask figures) vs bounds."""
    issues = []
    tol = _tol(case)
    result = case.results[protocol]
    for i in range(len(case.system.tasks)):
        bound = task_bounds[i]
        observed = result.metrics.task(i).max_eer
        if math.isinf(bound) or math.isnan(observed):
            continue
        if observed > bound + tol * max(1.0, bound):
            issues.append(
                f"{protocol}: task T{i + 1} simulated EER {fmt(observed)} "
                f"exceeds {algorithm} bound {fmt(bound)}"
            )
    if subtask_bounds is None:
        return issues
    trace = result.trace
    for sid in case.system.subtask_ids:
        bound = subtask_bounds[sid]
        if math.isinf(bound):
            continue
        if protocol == "DS":
            observed_values = [
                trace.intermediate_eer_time(sid, m)
                for (s, m) in trace.completions
                if s == sid
            ]
            kind = "IEER"
        else:
            observed_values = trace.subtask_response_times(sid)
            kind = "response time"
        for value in observed_values:
            if value > bound + tol * max(1.0, bound):
                issues.append(
                    f"{protocol}: {sid} simulated {kind} {fmt(value)} exceeds "
                    f"{algorithm} bound {fmt(bound)}"
                )
                break
    return issues


def _check_sa_pm_soundness(case: FuzzCase) -> list[str]:
    issues = []
    for protocol in ("PM", "MPM", "RG"):
        if protocol in case.results:
            issues.extend(
                _soundness_issues(
                    case,
                    protocol,
                    case.sa_pm.task_bounds,
                    case.sa_pm.subtask_bounds,
                    "SA/PM",
                )
            )
    return issues


def _check_sa_ds_soundness(case: FuzzCase) -> list[str]:
    return _soundness_issues(
        case, "DS", case.sa_ds.task_bounds, case.sa_ds.subtask_bounds, "SA/DS"
    )


def _check_analysis_dominance(case: FuzzCase) -> list[str]:
    issues = []
    tol = _tol(case)
    for i in range(len(case.system.tasks)):
        pm = case.sa_pm.task_bounds[i]
        ds = case.sa_ds.task_bounds[i]
        if math.isinf(ds):
            continue  # DS failed where PM may not have -- that is dominance
        if ds < pm - tol * max(1.0, pm):
            issues.append(
                f"task T{i + 1}: SA/DS bound {fmt(ds)} below SA/PM bound "
                f"{fmt(pm)} (SA/DS must dominate)"
            )
    return issues


# ---------------------------------------------------------------------------
# Protocol-relational oracles
# ---------------------------------------------------------------------------


def _check_pm_mpm_identity(case: FuzzCase) -> list[str]:
    pm = case.results["PM"].trace
    mpm = case.results["MPM"].trace
    issues = []
    tol = _tol(case)
    horizon = case.results["PM"].horizon
    boundary = tol * max(1.0, horizon)
    for label, ours, theirs in (
        ("released by PM but not MPM", pm.releases, mpm.releases),
        ("released by MPM but not PM", mpm.releases, pm.releases),
    ):
        for key, time in ours.items():
            if key not in theirs and horizon - time > boundary:
                issues.append(
                    f"{key[0]}#{key[1]} {label} (at {fmt(time)})"
                )
    for key, pm_time in pm.releases.items():
        mpm_time = mpm.releases.get(key)
        if mpm_time is None:
            continue
        if abs(pm_time - mpm_time) > tol * max(1.0, pm_time):
            issues.append(
                f"{key[0]}#{key[1]} released at {fmt(pm_time)} under PM but "
                f"{fmt(mpm_time)} under MPM"
            )
    for key, pm_time in pm.completions.items():
        mpm_time = mpm.completions.get(key)
        if mpm_time is None:
            continue
        if abs(pm_time - mpm_time) > tol * max(1.0, pm_time):
            issues.append(
                f"{key[0]}#{key[1]} completed at {fmt(pm_time)} under PM but "
                f"{fmt(mpm_time)} under MPM"
            )
    return issues


def _check_rg_guard(case: FuzzCase) -> list[str]:
    controller = case.controllers.get("RG")
    if not isinstance(controller, CheckedReleaseGuard):
        return []
    return [
        f"RG: {sid}#{instance} released at {fmt(now)} before its guard "
        f"{fmt(guard)}"
        for sid, instance, now, guard in controller.early_releases
    ]


def _check_rg_separation(case: FuzzCase) -> list[str]:
    trace = case.results["RG"].trace
    system = case.system
    exact = case.timebase.exact
    issues = []
    by_subtask: dict[SubtaskId, list[tuple[int, float]]] = {}
    for (sid, m), time in trace.releases.items():
        by_subtask.setdefault(sid, []).append((m, time))
    for sid, entries in by_subtask.items():
        if sid.subtask_index == 0:
            continue  # first subtasks are environment-released
        period = system.period_of(sid)
        idle_points = trace.idle_points.get(
            system.subtask(sid).processor, []
        )
        entries.sort()
        sep_slack = 0 if exact else REL_EPS * max(1.0, period)
        idle_slack = 0 if exact else REL_EPS
        for (_m0, t0), (m1, t1) in zip(entries, entries[1:]):
            if t1 - t0 < period - sep_slack and not any(
                t0 < point <= t1 + idle_slack for point in idle_points
            ):
                issues.append(
                    f"RG: {sid}#{m1} released {fmt(t1 - t0)} < period "
                    f"{fmt(period)} after the previous release with no idle "
                    f"point in between"
                )
    return issues


# ---------------------------------------------------------------------------
# Clock-subsystem oracles
# ---------------------------------------------------------------------------


def _check_clock_perfect_identity(case: FuzzCase) -> list[str]:
    """A perfect clock configuration must be a strict no-op.

    Rebuilds the case with *no* clock plumbing (``clocks=None``) and
    demands byte-identical release and completion maps -- no tolerance,
    under either timebase.  Any drift here means the perfect-clock fast
    paths leak arithmetic into the schedule.
    """
    from repro.fuzz.runner import build_case

    reference = build_case(
        case.system,
        horizon_periods=case.horizon_periods,
        latency=case.latency,
        faults=case.faults,
        locking=case.locking,
        timebase=case.timebase,
    )
    issues = []
    if set(reference.results) != set(case.results):
        issues.append(
            f"protocols ran differ: {sorted(case.results)} with perfect "
            f"clocks vs {sorted(reference.results)} without clock plumbing"
        )
    for protocol in sorted(set(reference.results) & set(case.results)):
        ours = case.results[protocol].trace
        theirs = reference.results[protocol].trace
        for kind in ("releases", "completions"):
            if getattr(ours, kind) != getattr(theirs, kind):
                issues.append(
                    f"{protocol}: {kind} under an explicit perfect clock "
                    f"configuration differ from the clockless build"
                )
    return issues


def _check_sa_pm_skew_soundness(case: FuzzCase) -> list[str]:
    assert case.sa_pm_skew is not None
    issues = []
    # PM is excluded by design: under unsynchronized clocks its phase
    # table is broken (Section 3.1) and no duration-based inflation
    # covers it.
    for protocol in ("MPM", "RG"):
        if protocol in case.results:
            issues.extend(
                _soundness_issues(
                    case,
                    protocol,
                    case.sa_pm_skew.task_bounds,
                    case.sa_pm_skew.subtask_bounds,
                    "SA/PM-skew",
                )
            )
    return issues


# ---------------------------------------------------------------------------
# Fault-subsystem oracles
# ---------------------------------------------------------------------------


def _check_fault_free_identity(case: FuzzCase) -> list[str]:
    """A zero-rate fault configuration must be a strict no-op.

    Rebuilds the case with *no* fault plumbing (``faults=None``) and
    demands byte-identical release and completion maps -- no tolerance,
    under either timebase.  Any drift here means arming the fault plane
    leaks decisions (or arithmetic) into a run where nothing can fire.
    """
    from repro.fuzz.runner import build_case

    reference = build_case(
        case.system,
        horizon_periods=case.horizon_periods,
        clocks=case.clocks,
        latency=case.latency,
        locking=case.locking,
        timebase=case.timebase,
    )
    issues = []
    if set(reference.results) != set(case.results):
        issues.append(
            f"protocols ran differ: {sorted(case.results)} with a zero-rate "
            f"fault plane vs {sorted(reference.results)} without one"
        )
    for protocol in sorted(set(reference.results) & set(case.results)):
        ours = case.results[protocol].trace
        theirs = reference.results[protocol].trace
        for kind in ("releases", "completions"):
            if getattr(ours, kind) != getattr(theirs, kind):
                issues.append(
                    f"{protocol}: {kind} under a zero-rate fault "
                    f"configuration differ from the fault-free build"
                )
    return issues


def _rg_recovery_applies(case: FuzzCase) -> bool:
    faults = case.faults
    return (
        faults is not None
        and not faults.is_null
        and faults.signal_faults_only
        and faults.full_signal_recovery
        and "RG" in case.results
        and case.clocks_perfect
    )


def _check_rg_recovery_soundness(case: FuzzCase) -> list[str]:
    """RG under recovered signal faults keeps its precedence guarantee.

    With the watchdog retransmitting dropped signals and the guard
    suppressing duplicate releases, every delivered release is governed
    by the guard that rule 1/2 raised -- so the run must show zero
    chain-precedence violations and zero unrecovered duplicate
    releases.  Exhausted retransmits are *losses* (the chain stops),
    never precedence breaks.
    """
    result = case.results["RG"]
    issues = [
        f"RG: {violation.sid}#{violation.instance} released at "
        f"{fmt(violation.release_time)} before predecessor "
        f"{violation.predecessor} completed despite full signal recovery"
        for violation in result.trace.violations
    ]
    log = result.trace.faults
    if log is not None:
        for event in log.events_of("duplicate-release"):
            if not event.recovered:
                issues.append(
                    f"RG: duplicate release of {event.sid}#{event.instance} "
                    f"at {fmt(event.time)} not suppressed despite "
                    f"suppress_duplicates"
                )
    return issues


# ---------------------------------------------------------------------------
# Lock-subsystem oracles
# ---------------------------------------------------------------------------


def _check_lock_free_identity(case: FuzzCase) -> list[str]:
    """A locking configuration on a resource-free system is a no-op.

    Rebuilds the case with *no* lock plumbing (``locking=None`` on a
    system without critical sections) and demands byte-identical
    release and completion maps -- no tolerance, under either timebase.
    Any drift here means selecting a locking protocol leaks decisions
    (or arithmetic) into a run with nothing to lock.
    """
    from repro.fuzz.runner import build_case

    reference = build_case(
        case.system,
        horizon_periods=case.horizon_periods,
        clocks=case.clocks,
        latency=case.latency,
        faults=case.faults,
        timebase=case.timebase,
    )
    issues = []
    if set(reference.results) != set(case.results):
        issues.append(
            f"protocols ran differ: {sorted(case.results)} with a locking "
            f"configuration vs {sorted(reference.results)} without lock "
            f"plumbing"
        )
    for protocol in sorted(set(reference.results) & set(case.results)):
        ours = case.results[protocol].trace
        theirs = reference.results[protocol].trace
        if ours.locks is not None:
            issues.append(
                f"{protocol}: a lock log was recorded on a resource-free "
                f"system"
            )
        for kind in ("releases", "completions"):
            if getattr(ours, kind) != getattr(theirs, kind):
                issues.append(
                    f"{protocol}: {kind} under an explicit locking "
                    f"configuration differ from the lock-free build"
                )
    return issues


def _blocking_term_applies(case: FuzzCase) -> bool:
    # PM/MPM timer releases are strictly periodic -- the arrival
    # pattern the blocking fixpoint's (floor(W/p) + 1) count assumes.
    # DS/RG releases jitter with completions, so their requests can
    # bunch beyond that count; they are covered by deadlock-freedom
    # and the lock-aware trace validator instead.
    return (
        not case.locks_free
        and case.clocks_perfect
        and case.latency == 0
        and case.faults_null
        and any(p in case.results for p in ("PM", "MPM"))
    )


def _check_blocking_term_soundness(case: FuzzCase) -> list[str]:
    """Measured lock waits and responses vs the blocking-aware bounds.

    For PM and MPM: every instance's total acquire-minus-request
    waiting time must stay within its analyzed blocking term
    ``B_i,j``, and simulated response times within the blocking-aware
    SA/PM bounds the controllers were built from.
    """
    from repro.locks.analysis import resolved_blocking_terms

    assert case.locking is not None and case.sa_pm_blocking is not None
    terms = resolved_blocking_terms(
        case.system, case.locking, timebase=case.timebase
    )
    tol = _tol(case)
    issues = []
    for protocol in ("PM", "MPM"):
        result = case.results.get(protocol)
        if result is None or result.trace.locks is None:
            continue
        for (sid, instance), wait in result.trace.locks.waits().items():
            bound = terms.get(sid, 0.0)
            if math.isinf(bound):
                continue
            if wait > bound + tol * max(1.0, bound):
                issues.append(
                    f"{protocol}: {sid}#{instance} waited {fmt(wait)} for "
                    f"its lock(s), above the blocking term {fmt(bound)}"
                )
        issues.extend(
            _soundness_issues(
                case,
                protocol,
                case.sa_pm_blocking.task_bounds,
                case.sa_pm_blocking.subtask_bounds,
                case.sa_pm_blocking.algorithm,
            )
        )
    return issues


#: Same-timestamp replay order: requests register first, then the
#: release frees the resource, then the handoff acquire takes it.
_LOCK_KIND_ORDER = {"request": 0, "release": 1, "acquire": 2}


def _replay_mutex(log) -> list[str]:
    """Replay one lock log as a per-resource mutex state machine."""
    issues: list[str] = []
    by_resource: dict[str, list[tuple[float, int, int, object]]] = {}
    for position, event in enumerate(log):
        by_resource.setdefault(event.resource, []).append(
            (event.time, _LOCK_KIND_ORDER[event.kind], position, event)
        )
    for resource, entries in sorted(by_resource.items()):
        entries.sort(key=lambda entry: entry[:3])
        holder: tuple | None = None
        waiting: list[tuple] = []
        previous_time: float | None = None
        for time_, _rank, _position, event in entries:
            if (
                previous_time is not None
                and time_ > previous_time
                and holder is None
                and waiting
            ):
                sid, instance = waiting[0]
                issues.append(
                    f"{resource}: free at {fmt(previous_time)} while "
                    f"{sid}#{instance} waited (granted only later, if ever)"
                )
                break
            previous_time = time_
            key = (event.sid, event.instance)
            if event.kind == "request":
                waiting.append(key)
            elif event.kind == "acquire":
                if holder is not None:
                    issues.append(
                        f"{resource}: {event.sid}#{event.instance} acquired "
                        f"at {fmt(time_)} while "
                        f"{holder[0]}#{holder[1]} still held it"
                    )
                    break
                if key not in waiting:
                    issues.append(
                        f"{resource}: {event.sid}#{event.instance} acquired "
                        f"at {fmt(time_)} without a pending request"
                    )
                    break
                waiting.remove(key)
                holder = key
            else:  # release
                if holder != key:
                    issues.append(
                        f"{resource}: {event.sid}#{event.instance} released "
                        f"at {fmt(time_)} without holding it"
                    )
                    break
                holder = None
        else:
            if holder is None and waiting:
                sid, instance = waiting[0]
                issues.append(
                    f"{resource}: run ended with the resource free while "
                    f"{sid}#{instance} still waited (grant lost at the "
                    f"last release)"
                )
    return issues


def _check_deadlock_freedom(case: FuzzCase) -> list[str]:
    issues = []
    for protocol, result in case.results.items():
        log = result.trace.locks
        if log is None:
            continue
        issues.extend(
            f"{protocol}: {issue}" for issue in _replay_mutex(log)
        )
    return issues


# ---------------------------------------------------------------------------
# Batch-engine conformance
# ---------------------------------------------------------------------------


def _batch_identity_applies(case: FuzzCase) -> bool:
    # The batch engine's declared domain, exactly as
    # repro.sim.batch.backend.batch_fallback_reason states it.  Note
    # ``faults is None`` is stricter than ``faults_null``: even a
    # zero-rate fault plane forces the reference kernel (the plane
    # hooks the event loop).  The case itself must have run on the
    # reference kernel -- comparing batch against batch proves nothing.
    return (
        bool(case.results)
        and not case.timebase.exact
        and case.clocks_perfect
        and case.faults is None
        and case.latency == 0
        and case.locks_free
        and all(r.engine == "reference" for r in case.results.values())
    )


def _check_batch_reference_identity(case: FuzzCase) -> list[str]:
    """Re-simulate every protocol on the batch engine; demand identity.

    Fresh controllers are built exactly as :func:`build_case` built the
    originals (PM/MPM timers from the same SA/PM bounds), so the two
    runs differ in *nothing but the engine*.  Traces are compared in
    packed form -- :meth:`PackedTrace.identical` is byte-for-byte per
    column -- which is the same contract the golden-trace corpus and
    the conformance test layer enforce.
    """
    from repro.core.protocols.direct import DirectSynchronization
    from repro.core.protocols.modified_pm import ModifiedPhaseModification
    from repro.core.protocols.phase_modification import PhaseModification
    from repro.core.protocols.release_guard import ReleaseGuard
    from repro.sim.batch import encode
    from repro.sim.simulator import simulate

    clock_map = (
        None
        if case.clocks is None
        else case.clocks.build(case.system.processors)
    )
    issues = []
    for protocol in sorted(case.results):
        reference = case.results[protocol]
        record_idle = False
        if protocol == "DS":
            controller = DirectSynchronization()
        elif protocol == "RG":
            controller = ReleaseGuard()
            record_idle = True
        else:  # PM / MPM -- same bounds the original controllers used
            bounds = dict(case.sa_pm_blocking.subtask_bounds)
            controller = (
                PhaseModification(bounds)
                if protocol == "PM"
                else ModifiedPhaseModification(bounds)
            )
        result = simulate(
            case.system,
            controller,
            horizon_periods=case.horizon_periods,
            record_segments=True,
            record_idle_points=record_idle,
            clocks=clock_map,
            locking=case.locking,
            timebase=case.timebase,
            engine="batch",
        )
        if result.engine != "batch":
            issues.append(
                f"{protocol}: batch engine fell back to the reference "
                f"kernel ({result.engine_fallback}) on a case inside its "
                f"declared domain"
            )
            continue
        if result.events_processed != reference.events_processed:
            issues.append(
                f"{protocol}: batch engine processed "
                f"{result.events_processed} events, reference "
                f"{reference.events_processed}"
            )
        packed = result.packed_trace
        assert packed is not None
        expected = encode(reference.trace)
        if not expected.identical(packed):
            issues.append(
                f"{protocol}: batch trace differs from reference "
                f"({expected.describe_diff(packed)})"
            )
    return issues


# ---------------------------------------------------------------------------
# Region-subsystem conformance
# ---------------------------------------------------------------------------

#: Size gate for the region oracle: the coordinate ascent bisects once
#: per dimension, so cap the dimensionality to keep per-case cost flat.
REGION_MAX_DIMENSIONS = 24


def _region_applies(case: FuzzCase) -> bool:
    return len(case.system.subtask_ids) <= REGION_MAX_DIMENSIONS


def _check_region_soundness(case: FuzzCase) -> list[str]:
    """Feasibility-region claims vs the direct analyses (inner box).

    Builds the case's region under the case's timebase with a coarse
    search (the soundness claim is resolution-independent) and demands
    that every point the region tier would serve analysis-free agrees
    with the full analysis that certifies each requested protocol
    (:func:`~repro.service.engine.certifying_analysis`): the verified
    corner itself, its half-scale interior point, and -- when covered
    -- the request's own execution vector.  The re-check runs the full
    ``analyze_*`` functions, not the verdict-only runs the region
    search probes with, so it tests those against the reference.
    Needs no simulation results, so it applies to every case within
    the size gate.
    """
    from fractions import Fraction

    from repro.core.analysis.sa_ds import analyze_sa_ds
    from repro.core.analysis.sa_pm import analyze_sa_pm
    from repro.core.analysis.skew import analyze_sa_pm_skewed
    from repro.locks import analyze_sa_ds_blocking, analyze_sa_pm_blocking
    from repro.regions import (
        compute_region,
        execution_vector,
        region_from_dict,
        region_to_dict,
        system_at,
    )
    from repro.service.engine import certifying_analysis
    from repro.service.requests import AdmissionRequest

    request = AdmissionRequest(
        system=case.system,
        shared_resources=not case.locks_free,
    )
    region = compute_region(
        request,
        timebase=case.timebase,
        tolerance=1 / 8,
        max_factor=4.0,
        ascent_rounds=1,
    )
    issues = []
    exact = case.timebase.exact
    if exact:
        for analysis, corner in region.corners.items():
            for name, value in zip(
                region.dimensions, corner or ()
            ):
                if isinstance(value, float):
                    issues.append(
                        f"{analysis}: exact-timebase corner component "
                        f"{name}={value!r} is a float, not a rational"
                    )
    if region_from_dict(region_to_dict(region)) != region:
        issues.append("region JSON round-trip is not lossless")
    e0 = tuple(
        case.timebase.convert(e)
        for e in execution_vector(case.system)
    )
    half = Fraction(1, 2) if exact else 0.5
    tb = case.timebase
    sa_ds, sa_pm = (
        (analyze_sa_ds_blocking, analyze_sa_pm_blocking)
        if request.shared_resources
        else (analyze_sa_ds, analyze_sa_pm)
    )
    full = {
        "SA/DS": lambda system: sa_ds(
            system,
            max_iterations=request.sa_ds_max_iterations,
            timebase=tb,
        ),
        "SA/PM": lambda system: sa_pm(system, timebase=tb),
        "SA/PM-skew": lambda system: analyze_sa_pm_skewed(
            system,
            rate=request.clock_rate_bound,
            jump=request.clock_jump_bound,
            timebase=tb,
        ),
    }
    certifying = dict.fromkeys(
        certifying_analysis(request, protocol)
        for protocol in request.protocols
    )
    certifying.pop(None, None)
    if set(region.corners) != set(certifying):
        issues.append(
            f"region analyses {sorted(region.corners)} are not the "
            f"certifying analyses {sorted(certifying)}"
        )
    for analysis in certifying:
        corner = region.corners.get(analysis)
        if corner is None:
            continue
        points = [
            ("corner", corner),
            ("half-scale interior point", tuple(u * half for u in corner)),
        ]
        if region.covers(analysis, e0):
            points.append(("request execution vector", e0))
        for label, point in points:
            if not region.covers(analysis, point):
                issues.append(
                    f"{analysis}: {label} not covered by its own box"
                )
            elif not full[analysis](
                system_at(case.system, point)
            ).schedulable:
                issues.append(
                    f"{analysis}: {label} is inside the verified box but "
                    f"direct analysis judges it unschedulable -- the "
                    f"region would serve an unsound ACCEPT"
                )
    return issues


# ---------------------------------------------------------------------------
# Service durability-layer conformance
# ---------------------------------------------------------------------------


def _check_durable_decision_identity(case: FuzzCase) -> list[str]:
    """The durability frame is lossless for healthy records, loud for torn.

    Computes the case's admission decision from scratch, pushes it
    through the exact pipeline the decision cache persists with
    (``decision_to_dict`` -> JSON -> ``frame_line``) and back
    (``unframe_line`` -> JSON -> ``decision_from_dict``), and demands
    identity at every layer.  Then flips one byte inside the framed
    record's body and demands the checksum rejects it: salvage-on-load
    is only sound if corruption can never masquerade as a valid record.
    Needs no simulation results.
    """
    import json

    from repro.service.durability import (
        FrameError,
        frame_line,
        unframe_line,
    )
    from repro.service.engine import compute_decision
    from repro.service.requests import (
        AdmissionRequest,
        decision_from_dict,
        decision_to_dict,
    )

    request = AdmissionRequest(
        system=case.system,
        shared_resources=not case.locks_free,
    )
    decision = compute_decision(request)
    body = json.dumps(decision_to_dict(decision), sort_keys=True)
    framed = frame_line(body)
    issues: list[str] = []
    recovered_body, was_framed = unframe_line(framed)
    if not was_framed:
        issues.append(
            "frame_line output was not recognized as a framed record"
        )
    if recovered_body != body:
        issues.append("the frame round-trip altered the record body")
    try:
        recovered = decision_from_dict(json.loads(recovered_body))
    except Exception as exc:  # noqa: BLE001 -- any decode failure is the finding
        issues.append(f"framed decision failed to decode: {exc}")
        return issues
    if recovered != decision:
        issues.append(
            "the decision JSON round-trip through the durability frame "
            "is not lossless"
        )
    # One flipped byte mid-body must trip the checksum.
    mid = len(framed) - len(body) // 2 - 1
    flipped = "x" if framed[mid] != "x" else "y"
    torn = framed[:mid] + flipped + framed[mid + 1 :]
    try:
        unframe_line(torn)
    except FrameError:
        pass
    else:
        issues.append(
            "a flipped byte inside the framed record went undetected -- "
            "corruption could masquerade as a valid cache entry"
        )
    return issues


# ---------------------------------------------------------------------------
# Exhaustive search vs analysis (small systems only)
# ---------------------------------------------------------------------------


def _exhaustive_applies(case: FuzzCase) -> bool:
    return (
        len(case.system.tasks) <= EXHAUSTIVE_MAX_TASKS
        and "DS" in case.results
        # The exhaustive search re-simulates under ideal conditions, so
        # its witnesses only bound the ideal-condition worst case.
        and case.ideal
    )


def _check_exhaustive(case: FuzzCase) -> list[str]:
    from repro.core.analysis.exhaustive import search_worst_case_eer

    issues = []
    pairs = [("DS", case.sa_ds)]
    if "PM" in case.results:
        pairs.append(("PM", case.sa_pm))
    for protocol, analysis in pairs:
        if analysis.failed:
            continue
        try:
            search = search_worst_case_eer(
                case.system,
                protocol,
                steps=EXHAUSTIVE_STEPS,
                horizon_periods=case.horizon_periods,
            )
        except ConfigurationError:
            continue  # combination cap -- treat as not applicable
        for i in range(len(case.system.tasks)):
            bound = analysis.task_bounds[i]
            observed = search.worst_eer[i]
            if observed > bound + _TOL * max(1.0, bound):
                issues.append(
                    f"{protocol}: exhaustive search found task T{i + 1} "
                    f"EER {fmt(observed)} above the "
                    f"{analysis.algorithm} bound {fmt(bound)} "
                    f"(witness phases {search.witness_phases[i]})"
                )
    return issues


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


def _always(_case: FuzzCase) -> bool:
    return True


def _needs(*protocols: str) -> Callable[[FuzzCase], bool]:
    return lambda case: all(p in case.results for p in protocols)


ORACLES: dict[str, Oracle] = {
    oracle.name: oracle
    for oracle in (
        Oracle(
            "trace-invariants",
            "Section 2 (task model), Section 3 (protocols)",
            "every trace satisfies fixed-priority preemptive semantics",
            _check_trace_invariants,
            _always,
        ),
        Oracle(
            "precedence",
            "Section 2 (precedence constraints)",
            "no successor released before its predecessor completed",
            _check_precedence,
            # Live faults legitimately break precedence (that is the
            # chaos study's finding) unless the environment is limited
            # to signal faults with full recovery armed.
            lambda case: case.faults_null
            or (
                case.faults.signal_faults_only
                and case.faults.full_signal_recovery
            ),
        ),
        Oracle(
            "sa-pm-soundness",
            "Section 4.2, Theorem 1",
            "PM/MPM/RG simulated responses never exceed SA/PM bounds",
            _check_sa_pm_soundness,
            # The plain bounds are stated under ideal conditions; with
            # skewed clocks or latency the skew-aware oracle takes over.
            lambda case: case.ideal
            and any(p in case.results for p in ("PM", "MPM", "RG")),
        ),
        Oracle(
            "sa-ds-soundness",
            "Section 4.3",
            "DS simulated (I)EER times never exceed SA/DS bounds",
            _check_sa_ds_soundness,
            # Applies only when Algorithm SA/DS *accepted*: on failure
            # the fixed-point iteration stops early, leaving bounds that
            # are under-converged (monotone from below), hence unsound.
            # Clock skew is irrelevant (DS arms no timers), but signal
            # latency adds unmodeled delay, so zero latency is required.
            # Shared resources add blocking the base bounds do not
            # model (the blocking-aware oracles cover locked cases).
            lambda case: "DS" in case.results
            and not case.sa_ds.failed
            and case.latency == 0
            and case.faults_null
            and case.locks_free,
        ),
        Oracle(
            "analysis-dominance",
            "Section 4.3 (SA/DS pessimism)",
            "SA/DS task bounds dominate SA/PM task bounds",
            _check_analysis_dominance,
            _always,
        ),
        Oracle(
            "pm-mpm-identity",
            "Section 3.1/3.3",
            "PM and MPM schedules are identical under ideal conditions",
            _check_pm_mpm_identity,
            # "Ideal conditions" is part of the claim: skewed clocks (or
            # latency on MPM's relay signals) split the two schedules.
            lambda case: case.ideal
            and all(p in case.results for p in ("PM", "MPM")),
        ),
        Oracle(
            "rg-guard",
            "Section 3.2 (release rule)",
            "RG never releases before the governing guard",
            _check_rg_guard,
            _needs("RG"),
        ),
        Oracle(
            "rg-separation",
            "Theorem 1 (premise)",
            "consecutive RG releases a period apart unless an idle point "
            "intervened",
            _check_rg_separation,
            # Trace times are *true* time; guards space releases on the
            # local clock, so the full-period claim needs perfect clocks
            # (drift compresses true-time separation by O(rho * p)).
            # Crash-restart replays deferred releases back to back at
            # the restart instant, so crashes void the claim too.
            lambda case: "RG" in case.results
            and case.clocks_perfect
            and (case.faults is None or not case.faults.crashes),
        ),
        Oracle(
            "clock-perfect-identity",
            "clock subsystem contract (docs/simulator.md)",
            "an explicitly perfect clock configuration is byte-identical "
            "to no clock plumbing",
            _check_clock_perfect_identity,
            lambda case: case.clocks is not None
            and case.clocks.is_perfect,
        ),
        Oracle(
            "sa-pm-skew-soundness",
            "Section 4.2 + clock-skew envelope (docs/analysis.md)",
            "MPM/RG simulated responses never exceed skew-inflated SA/PM "
            "bounds under bounded-skew clocks",
            _check_sa_pm_skew_soundness,
            lambda case: case.sa_pm_skew is not None
            and case.latency == 0
            and case.faults_null
            and case.locks_free
            and any(p in case.results for p in ("MPM", "RG")),
        ),
        Oracle(
            "fault-free-identity",
            "fault-plane contract (docs/faults.md)",
            "an explicitly zero-rate fault configuration is "
            "byte-identical to no fault plumbing",
            _check_fault_free_identity,
            lambda case: case.faults is not None and case.faults.is_null,
        ),
        Oracle(
            "rg-recovery-soundness",
            "Section 3.2 + recovery layer (docs/faults.md)",
            "RG keeps precedence (no violations, no unsuppressed "
            "duplicates) under signal faults with full recovery",
            _check_rg_recovery_soundness,
            _rg_recovery_applies,
        ),
        Oracle(
            "lock-free-identity",
            "locking-subsystem contract (docs/locking.md)",
            "an explicit locking configuration on a resource-free "
            "system is byte-identical to no lock plumbing",
            _check_lock_free_identity,
            lambda case: case.locking is not None and case.locks_free,
        ),
        Oracle(
            "blocking-term-soundness",
            "DPCP blocking bound (docs/locking.md)",
            "PM/MPM measured lock waits stay within the blocking terms "
            "and responses within the blocking-aware SA/PM bounds",
            _check_blocking_term_soundness,
            _blocking_term_applies,
        ),
        Oracle(
            "deadlock-freedom",
            "locking-subsystem contract (docs/locking.md)",
            "every lock log replays as a correct mutex: one holder at a "
            "time, grant discipline, no starved waiter on a free "
            "resource",
            _check_deadlock_freedom,
            # Crash-restart abandons holders and waiters mid-request,
            # which legitimately interrupts the request lifecycle.
            lambda case: not case.locks_free
            and (case.faults is None or not case.faults.crashes),
        ),
        Oracle(
            "region-soundness",
            "region-subsystem contract (docs/regions.md)",
            "every point the feasibility region would serve "
            "analysis-free is confirmed schedulable by direct analysis",
            _check_region_soundness,
            _region_applies,
        ),
        Oracle(
            "batch-vs-reference-identity",
            "batch-engine contract (docs/batch-engine.md)",
            "re-simulating on the batch engine reproduces the reference "
            "trace byte-for-byte, with no in-domain fallback",
            _check_batch_reference_identity,
            _batch_identity_applies,
        ),
        Oracle(
            "durable-decision-identity",
            "durability-layer contract (docs/service.md)",
            "a computed decision survives the checksummed persistence "
            "frame byte-identically, and a flipped byte is detected",
            _check_durable_decision_identity,
            # Same size gate as the region oracle: the check pays one
            # extra analysis dispatch per case.
            _region_applies,
        ),
        Oracle(
            "exhaustive-vs-bounds",
            "Section 2 (exhaustive search), Section 5",
            "searched worst-case EER stays below the analysis bound on "
            "small systems",
            _check_exhaustive,
            _exhaustive_applies,
        ),
    )
}


def oracle_names() -> tuple[str, ...]:
    """All registered oracle names, in registry order."""
    return tuple(ORACLES)


def check_case(
    case: FuzzCase, names: tuple[str, ...] | None = None
) -> tuple[dict[str, list[str]], tuple[str, ...]]:
    """Run oracles over a case.

    Returns ``(failures, checked)``: violations keyed by oracle name
    (only oracles that found any), and the names of the oracles that
    applied to this case.  Unknown names raise
    :class:`~repro.errors.ConfigurationError`.
    """
    selected = names if names is not None else oracle_names()
    unknown = [name for name in selected if name not in ORACLES]
    if unknown:
        raise ConfigurationError(
            f"unknown oracle(s) {', '.join(unknown)}; "
            f"known: {', '.join(ORACLES)}"
        )
    failures: dict[str, list[str]] = {}
    checked: list[str] = []
    for name in selected:
        oracle = ORACLES[name]
        if not oracle.applies(case):
            continue
        checked.append(name)
        issues = oracle.check(case)
        if issues:
            failures[name] = issues
    return failures, tuple(checked)
