"""Flat-array simulation kernel for the batch backend.

One function, :func:`run_batch`, simulates one clock-free, fault-free,
lock-free system under one of the paper's four protocols and returns a
:class:`~repro.sim.batch.packed.PackedTrace`.  It is a re-derivation of
the reference kernel (:mod:`repro.sim.engine` + :mod:`repro.sim.scheduler`
+ the four controllers) specialized to the float timebase and the
paper's ideal Section 3 assumptions, with every object replaced by an
index into a struct-of-arrays layout:

* subtasks are *slots* (indices into ``system.subtask_ids``), processors
  indices into ``system.processors``;
* per-slot constants (priority, processor, WCET, period, successor) are
  compiled once into parallel arrays;
* released instances live in parallel per-instance arrays (remaining
  WCET, packed identity key) indexed by a creation-order counter that
  doubles as the scheduler's FIFO tie-breaker -- the same relative
  order the reference scheduler's global sequence counter produces;
  release/completion lifecycle state lives in one flat ``bytearray``
  indexed by the packed key (0 = unreleased, 1 = released,
  2 = completed), replacing per-event hash-set probes;
* events are short tuples ``(time, order, payload...)``; ``order``
  packs the reference kernel's ``(event class, sequence)`` pair plus
  the handler kind into a single integer
  (``cls << 48 | seq << 3 | kind``, sequence numbers incremented on
  every push in the same order the reference kernel pushes), so tuple
  comparison reproduces the reference pop order -- time first, then the
  class order (completions < timers < environment < signals), then
  FIFO -- while never reaching the payload;
* the event structure is the monotone calendar queue of
  :mod:`repro.sim.batch.calendar`, *inlined* as plain locals (bucket
  list, cursor, active heap): push and pop are the hottest operations
  in the engine and a method call per event costs more than the
  operations themselves.  The class remains the canonical,
  property-tested statement of the structure;
* a completion signal due at the current instant short-circuits the
  queue entirely when nothing pending can order before it (checked
  against the head of the active bucket -- the monotone invariant
  guarantees every not-yet-popped event ordered before ``(now, order)``
  lives there), while still consuming its sequence number and event
  count, so the observable pop order is untouched;
* pending completions are cancelled by bumping a per-processor token
  instead of flagging a handle -- a popped completion whose token is
  stale is skipped without counting, exactly like the reference queue's
  lazy cancellation;
* traces are appended to flat columns -- identity columns as packed
  integer keys, unpacked vectorized at the end -- and returned as a
  :class:`~repro.sim.batch.packed.PackedTrace`.

Trace identity is the contract: under the float timebase, for all four
protocols, the decoded trace equals the reference kernel's trace
field-for-field (releases, completions, environment releases, segments,
idle points, precedence violations, timer clamps).  Every float
expression below therefore mirrors the reference's *exact* association
order -- e.g. the environment's sporadic ratchet
``max(phase + m*period, previous + period)``, PM's
``phases[s] + m*period``, MPM's ``now + bound`` -- and every tolerance
check inlines the float timebase's formulas with ``ABS_EPS``/``REL_EPS``
imported from :mod:`repro.timebase` (the only sanctioned source).

What is deliberately *not* replicated: controller-private diagnostics
that never reach the trace (MPM's ``overruns`` list and
``CheckedReleaseGuard.early_releases`` -- both empty in the supported
ideal domain anyway) and error-message text.  Support gating lives in
:mod:`repro.sim.batch.backend`; this module assumes its caller already
checked :func:`~repro.sim.batch.backend.batch_fallback_reason`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Mapping

import numpy as np

from repro.core.protocols.phase_modification import compute_modified_phases
from repro.errors import ConfigurationError, SimulationError
from repro.model.system import System
from repro.model.task import SubtaskId
from repro.sim.batch.calendar import _MAX_BUCKETS
from repro.sim.batch.packed import PackedTrace
from repro.timebase import ABS_EPS, FLOAT, REL_EPS, fmt

__all__ = ["BatchRun", "run_batch", "BATCH_PROTOCOLS"]

#: Protocols the batch engine implements.
BATCH_PROTOCOLS = ("DS", "PM", "MPM", "RG")

# Event kinds: handler dispatch, stored in the low 3 bits of the packed
# ordering key (below any sequence bit, so they never affect the order).
_K_ENV = 0
_K_PM_TIMER = 1
_K_MPM_TIMER = 2
_K_RG_TIMER = 3
_K_SIGNAL = 4
_K_COMPLETION = 5

# Event-class prefixes for the packed ordering key
# ``cls << 48 | seq << 3 | kind``: numerically the reference kernel's
# class order (completion 0 < timer 1 < environment 2 < signal 3),
# shifted above any realistic sequence number so (time, order) compares
# exactly like (time, cls, seq).  A completion is recognized by
# ``order < _ORD_TIMER`` without touching the payload.
_ORD_TIMER = 1 << 48
_ORD_ENV = 2 << 48
_ORD_SIGNAL = 3 << 48

# Lifecycle states in the packed-key bytearray.
_ST_RELEASED = 1
_ST_COMPLETED = 2


@dataclass(frozen=True)
class BatchRun:
    """Result of one batch-engine run."""

    packed: PackedTrace
    events_processed: int


def _check_bound(sid: SubtaskId, bounds: Mapping[SubtaskId, float]) -> float:
    """MPM's per-slot bound lookup with the reference's validation."""
    try:
        bound = bounds[sid]
    except KeyError:
        raise ConfigurationError(
            f"MPM protocol needs a response-time bound for {sid}"
        ) from None
    if not bound > 0 or bound != bound or bound == float("inf"):
        raise ConfigurationError(
            f"MPM protocol needs a positive finite bound for {sid}, "
            f"got {bound!r}"
        )
    return float(bound)


def run_batch(
    system: System,
    protocol: str,
    horizon: float,
    *,
    bounds: Mapping[SubtaskId, float] | None = None,
    record_segments: bool = False,
    record_idle_points: bool = False,
    strict_precedence: bool = False,
    max_events: int | None = None,
) -> BatchRun:
    """Simulate ``system`` under ``protocol`` up to ``horizon``.

    ``bounds`` carries the SA/PM response-time bounds PM and MPM need
    (ignored by DS/RG).  The caller is responsible for support gating
    (:func:`repro.sim.batch.backend.batch_fallback_reason`).
    """
    if protocol not in BATCH_PROTOCOLS:
        raise ConfigurationError(
            f"batch engine does not implement protocol {protocol!r}; "
            f"known: {', '.join(BATCH_PROTOCOLS)}"
        )
    horizon = float(horizon)
    if horizon <= 0:
        raise SimulationError(f"horizon must be > 0, got {horizon!r}")

    # ------------------------------------------------------------------
    # Compile the system into parallel arrays (struct-of-arrays layout).
    # ------------------------------------------------------------------
    tasks = system.tasks
    ntasks = len(tasks)
    sids = system.subtask_ids
    nslots = len(sids)
    proc_index = {p: i for i, p in enumerate(system.processors)}
    nprocs = len(proc_index)

    slot_proc_a = np.empty(nslots, dtype=np.int32)
    slot_prio_a = np.empty(nslots, dtype=np.int64)
    slot_wcet_a = np.empty(nslots, dtype=np.float64)
    slot_succ_a = np.full(nslots, -1, dtype=np.int32)
    slot_j_a = np.empty(nslots, dtype=np.int32)
    slot_period_a = np.empty(nslots, dtype=np.float64)
    task_first_a = np.empty(ntasks, dtype=np.int32)
    task_phase_a = np.empty(ntasks, dtype=np.float64)
    task_period_a = np.empty(ntasks, dtype=np.float64)
    slot = 0
    for i, task in enumerate(tasks):
        task_first_a[i] = slot
        task_phase_a[i] = float(task.phase)
        task_period_a[i] = float(task.period)
        chain = task.chain_length
        for j, stage in enumerate(task.subtasks):
            slot_proc_a[slot] = proc_index[stage.processor]
            slot_prio_a[slot] = stage.priority
            slot_wcet_a[slot] = float(stage.execution_time)
            slot_j_a[slot] = j
            slot_period_a[slot] = float(task.period)
            if j < chain - 1:
                slot_succ_a[slot] = slot + 1
            slot += 1

    # The hot loop indexes Python lists: element reads on ndarrays box a
    # fresh np.float64 per access, which costs more than the list load.
    # The arrays above stay the authoritative compiled form (and what a
    # future numpy-level analysis pass would consume).
    slot_proc = slot_proc_a.tolist()
    slot_prio = slot_prio_a.tolist()
    slot_wcet = slot_wcet_a.tolist()
    slot_succ = slot_succ_a.tolist()
    slot_j = slot_j_a.tolist()
    slot_period = slot_period_a.tolist()
    task_first = task_first_a.tolist()
    task_phase = task_phase_a.tolist()
    task_period = task_period_a.tolist()

    #: Instance-key stride: ``slot * stride + m`` is collision-free as
    #: long as no instance index reaches ``stride``; the environment and
    #: the PM table both stop past the horizon, bounding ``m``.
    stride = int(horizon / float(np.min(task_period_a))) + 8
    # Sizing hint for the calendar queue: each task instance produces one
    # environment event plus, per subtask, roughly one release trigger
    # (timer or signal) and one completion.
    task_chain_a = np.asarray(
        [task.chain_length for task in tasks], dtype=np.float64
    )
    expected_events = (
        int(float(np.sum((horizon / task_period_a + 2.0) * (1.0 + 2.0 * task_chain_a))))
        + 64
    )

    is_pm = protocol == "PM"
    is_mpm = protocol == "MPM"
    is_rg = protocol == "RG"
    signals_on_completion = protocol in ("DS", "RG")

    pm_phase: list[float] = []
    mpm_bound: list[float] = []
    if is_pm:
        if bounds is None:
            raise ConfigurationError("PM protocol needs response-time bounds")
        table = compute_modified_phases(system, bounds, timebase=FLOAT)
        pm_phase = [float(table[sid]) for sid in sids]
    elif is_mpm:
        if bounds is None:
            raise ConfigurationError("MPM protocol needs response-time bounds")
        mpm_bound = [
            _check_bound(sids[s], bounds) if slot_succ[s] >= 0 else 0.0
            for s in range(nslots)
        ]

    guards: list[float] = [0.0] * nslots if is_rg else []
    pending: list[deque] = [deque() for _ in range(nslots)] if is_rg else []
    proc_slots: list[list[int]] = []
    if is_rg:
        slot_of = {sid: s for s, sid in enumerate(sids)}
        # subtasks_on() order (task order) -- rule 2 iterates it.
        proc_slots = [
            [slot_of[sid] for sid in system.subtasks_on(p)]
            for p in system.processors
        ]

    # ------------------------------------------------------------------
    # Dynamic state.  The calendar queue (canonical, property-tested
    # statement in repro.sim.batch.calendar) is inlined as plain locals.
    # ------------------------------------------------------------------
    # Aim at ~4 events per bucket: measurably better than 1/bucket here
    # (fewer empty-bucket cursor advances, a quarter of the preallocation)
    # while per-bucket heaps stay small enough that push/pop are trivial.
    nbuckets = max(1, min(_MAX_BUCKETS, expected_events // 4))
    scale = nbuckets / horizon
    buckets: list[list] = [[] for _ in range(nbuckets)]
    lastb = nbuckets - 1
    cursor = 0
    active: list = buckets[0]
    seq = 0

    # Per-processor scheduler state.  ``run_prio``/``run_rt`` mirror the
    # running instance's ready-queue sort key so neither preemption
    # checks nor suspends need per-instance side lookups.
    run_idx = [-1] * nprocs  # active-instance index running, -1 = none
    run_prio = [0] * nprocs
    run_rt = [0.0] * nprocs
    seg_start = [0.0] * nprocs
    comp_token = [-1] * nprocs  # order key of the pending completion
    ready: list[list] = [[] for _ in range(nprocs)]

    # Per-instance state (struct-of-arrays; index = creation order, which
    # is also the scheduler's FIFO tie-breaker like the reference's
    # global ActiveInstance sequence).  ``a_key`` holds the packed
    # identity ``slot * stride + instance``.
    a_rem: list[float] = []
    a_key: list[int] = []

    # Release/completion lifecycle, indexed by packed key.
    state = bytearray(nslots * stride)

    # Trace columns.  Identity columns hold packed integer keys
    # (``slot * stride + m``; segments additionally ``* nprocs + proc``),
    # unpacked vectorized when the run finishes.
    rel_k: list[int] = []
    rel_t: list[float] = []
    comp_k: list[int] = []
    comp_t: list[float] = []
    env_k: list[int] = []
    env_t: list[float] = []
    seg_k: list[int] = []
    seg_a: list[float] = []
    seg_b: list[float] = []
    idle_by_proc: list[list[float]] = [[] for _ in range(nprocs)]
    viol_s: list[int] = []
    viol_m: list[int] = []
    viol_t: list[float] = []
    viol_p: list[int] = []
    clamp_req: list[float] = []
    clamp_to: list[float] = []

    now = 0.0

    # ------------------------------------------------------------------
    # Kernel services (closures over the flat state).  The hot paths are
    # inlined in the main loop below; these cover the shared and the
    # rare paths.  Default-arg bindings turn per-call global/cell
    # lookups into local loads.
    # ------------------------------------------------------------------
    def push_far(ev) -> None:
        """Clamp an event past the time axis into the last bucket (rare:
        only events at or beyond the horizon land here)."""
        if lastb <= cursor:
            heappush(active, ev)
        else:
            buckets[lastb].append(ev)

    def schedule_timer(when: float, kind: int, a: int, b: int) -> None:
        """Reference ``Kernel.schedule_timer``: raise on a genuinely past
        timer, clamp (and record) one inside the float tolerance."""
        nonlocal seq
        if when < now:
            if when < now - REL_EPS * (now if now > 1.0 else 1.0):
                raise SimulationError(
                    f"timer scheduled in the past: {fmt(when)} < now "
                    f"{fmt(now)}"
                )
            clamp_req.append(when)
            clamp_to.append(now)
            when = now
        seq += 1
        ev = (when, _ORD_TIMER | (seq << 3) | kind, a, b)
        b_ = int(when * scale)
        if b_ <= cursor:
            heappush(active, ev)
        elif b_ < nbuckets:
            buckets[b_].append(ev)
        else:
            push_far(ev)

    def release(
        slot: int,
        m: int,
        heappush=heappush,
        heappop=heappop,
        rel_k_app=rel_k.append,
        rel_t_app=rel_t.append,
        a_rem_app=a_rem.append,
        a_key_app=a_key.append,
    ) -> None:
        """Reference ``Kernel.release`` + ``ProcessorScheduler.add``,
        with ``_suspend_running`` inlined in the preempt branch and
        ``dispatch_if_needed`` inlined at the end."""
        nonlocal seq
        key = slot * stride + m
        if slot_j[slot] > 0:
            done = state[key - stride] == _ST_COMPLETED
            if not done:
                # A predecessor finishing within float noise of now
                # counts as complete (the reference kernel's
                # ``_completes_at_this_instant``).
                pproc = slot_proc[slot - 1]
                r = run_idx[pproc]
                if r >= 0 and a_key[r] == key - stride:
                    finish = seg_start[pproc] + a_rem[r]
                    if finish <= now + REL_EPS * (now if now > 1.0 else 1.0):
                        done = True
            if not done:
                viol_s.append(slot)
                viol_m.append(m)
                viol_t.append(now)
                viol_p.append(slot - 1)
                if strict_precedence:
                    raise SimulationError(
                        f"precedence violation: slot {slot}#{m} released at "
                        f"{fmt(now)} before its predecessor completed"
                    )
        if state[key]:
            raise SimulationError(f"instance slot {slot}#{m} released twice")
        state[key] = _ST_RELEASED
        rel_k_app(key)
        rel_t_app(now)
        # controller.on_release -- RG rule 1 / MPM relay timer.
        if is_rg:
            guards[slot] = now + slot_period[slot]
        elif is_mpm:
            if slot_succ[slot] >= 0:
                # ``now + bound`` with bound > 0 is never below ``now``,
                # so the reference's clamp path cannot trigger: push the
                # relay timer directly.
                when = now + mpm_bound[slot]
                seq += 1
                ev = (when, _ORD_TIMER | (seq << 3) | _K_MPM_TIMER, slot, m)
                b_ = int(when * scale)
                if b_ <= cursor:
                    heappush(active, ev)
                elif b_ < nbuckets:
                    buckets[b_].append(ev)
                else:
                    push_far(ev)
        # Scheduler admission (DeterministicExecution: demand = WCET).
        proc = slot_proc[slot]
        prio = slot_prio[slot]
        r = run_idx[proc]
        idx = len(a_rem)
        rem = slot_wcet[slot]
        a_rem_app(rem)
        a_key_app(key)
        if r < 0:
            rdy = ready[proc]
            if rdy:
                heappush(rdy, (prio, now, idx))
                best = heappop(rdy)
                idx = best[2]
                rem = a_rem[idx]
                prio = best[0]
                rt = best[1]
            else:
                rt = now  # idle processor, empty queue: run directly
        else:
            if prio < run_prio[proc]:
                # Preempt only when the incumbent genuinely has work
                # left; a completion due exactly now must fire first.
                if a_rem[r] - (now - seg_start[proc]) > ABS_EPS:
                    # Reference ``ProcessorScheduler._suspend_running``.
                    comp_token[proc] = -1  # cancel pending completion
                    start = seg_start[proc]
                    elapsed = now - start
                    if elapsed < -REL_EPS:
                        raise SimulationError(
                            f"negative execution slice on processor "
                            f"{proc}: {fmt(elapsed)}"
                        )
                    if elapsed > 0:
                        if record_segments:
                            seg_k.append(a_key[r] * nprocs + proc)
                            seg_a.append(start)
                            seg_b.append(now)
                        a_rem[r] -= elapsed
                    if not a_rem[r] > ABS_EPS:
                        raise SimulationError(
                            f"instance key {a_key[r]} preempted with no "
                            f"remaining work; completion should have "
                            f"fired first"
                        )
                    heappush(ready[proc], (run_prio[proc], run_rt[proc], r))
                    # The newcomer outranks the incumbent and everything
                    # queued behind it (anything sorting before the
                    # newcomer would itself have preempted earlier), so
                    # it runs directly.
                    rt = now
                else:
                    heappush(ready[proc], (prio, now, idx))
                    return
            else:
                heappush(ready[proc], (prio, now, idx))
                return
        # Reference ``ProcessorScheduler.dispatch_if_needed``.
        run_idx[proc] = idx
        run_prio[proc] = prio
        run_rt[proc] = rt
        seg_start[proc] = now
        seq += 1
        tok = (seq << 3) | _K_COMPLETION  # completion: class 0
        comp_token[proc] = tok
        tc = now + rem
        ev = (tc, tok, proc)
        b_ = int(tc * scale)
        if b_ <= cursor:
            heappush(active, ev)
        elif b_ < nbuckets:
            buckets[b_].append(ev)
        else:
            push_far(ev)

    # --- Release Guard machinery ---------------------------------------
    def arm_guard(slot: int) -> None:
        """Reference ``ReleaseGuard._arm_guard_timer`` (perfect clocks)."""
        due = guards[slot]
        if due < now:
            due = now
        schedule_timer(due, _K_RG_TIMER, slot, 0)

    def release_head(slot: int) -> None:
        m = pending[slot].popleft()
        release(slot, m)
        if pending[slot]:
            arm_guard(slot)

    def rule_two(proc: int) -> None:
        """Reference ``ReleaseGuard._apply_rule_two``."""
        local = proc_slots[proc]
        for s in local:
            guards[s] = now
        for s in local:
            if pending[s]:
                release_head(s)

    def on_signal(slot: int, m: int) -> None:
        """Reference controller ``on_signal`` (RG's guard logic; DS and
        MPM release immediately)."""
        if is_rg:
            proc = slot_proc[slot]
            if run_idx[proc] < 0 and not ready[proc]:
                # Definition 1: a signal arriving at an idle processor
                # arrives at an idle point.
                if record_idle_points:
                    idle_by_proc[proc].append(now)
                rule_two(proc)
            if not pending[slot] and guards[slot] <= now + REL_EPS * (
                now if now > 1.0 else 1.0
            ):
                release(slot, m)
            else:
                pending[slot].append(m)
                arm_guard(slot)
        else:
            release(slot, m)

    if not is_rg:
        # DS/MPM signals release unconditionally: skip the closure layer.
        on_signal = release

    # ------------------------------------------------------------------
    # Start of run: controller.start(), then environment releases -- the
    # same push order (hence sequence order) as Kernel.run().
    # ------------------------------------------------------------------
    if is_pm:
        for s in range(nslots):
            if slot_j[s] == 0:
                continue  # released by the environment
            when = pm_phase[s] + 0 * slot_period[s]
            if when > horizon:
                continue
            schedule_timer(when, _K_PM_TIMER, s, 0)
    for i in range(ntasks):
        when = task_phase[i] + 0 * task_period[i]
        when = when + 0.0  # the reference adds the (zero) jitter
        if when > horizon:
            continue
        seq += 1
        ev = (when, _ORD_ENV | (seq << 3) | _K_ENV, i, 0)
        b_ = int(when * scale)
        if b_ <= cursor:
            heappush(active, ev)
        elif b_ < nbuckets:
            buckets[b_].append(ev)
        else:
            push_far(ev)

    # ------------------------------------------------------------------
    # Main loop.  Calendar pop, the completion handler and the
    # environment handler are fully inlined: they are the per-event hot
    # path and closure calls here dominate the runtime otherwise.
    # ------------------------------------------------------------------
    processed = 0
    max_ev = max_events if max_events is not None else (1 << 62)
    rel_eps = REL_EPS  # local binding for the per-event tolerance check
    comp_k_app = comp_k.append
    comp_t_app = comp_t.append
    env_k_app = env_k.append
    env_t_app = env_t.append
    seg_k_app = seg_k.append
    seg_a_app = seg_a.append
    seg_b_app = seg_b.append
    # A signal generated this iteration and due at the current instant:
    # (order, slot, m), handled at the loop bottom -- see below.
    sig = None
    while True:
        if not active:
            # Advance the cursor to the next non-empty bucket and
            # heapify it once on activation (single-element buckets are
            # already heaps).
            nxt = cursor + 1
            while nxt < nbuckets and not buckets[nxt]:
                nxt += 1
            if nxt >= nbuckets:
                break
            cursor = nxt
            active = buckets[nxt]
            if len(active) > 1:
                heapify(active)
        ev = heappop(active)
        t = ev[0]
        o = ev[1]

        if o < _ORD_TIMER:  # completion (class 0)
            proc = ev[2]
            if comp_token[proc] != o:
                continue  # lazily cancelled, skipped without counting
            if t > horizon:
                break
            if t < now and t < now - rel_eps * (now if now > 1.0 else 1.0):
                raise SimulationError(
                    f"event queue went backwards: {fmt(t)} < {fmt(now)}"
                )
            now = t
            # ProcessorScheduler._on_completion_event + instance_completed.
            r = run_idx[proc]
            if r < 0:
                raise SimulationError(
                    f"completion event on processor {proc} with nothing "
                    f"running"
                )
            comp_token[proc] = -1
            run_idx[proc] = -1
            key = a_key[r]
            if record_segments:
                seg_k_app(key * nprocs + proc)
                seg_a_app(seg_start[proc])
                seg_b_app(now)
            a_rem[r] = 0.0
            st = state[key]
            if st != _ST_RELEASED:
                if st == _ST_COMPLETED:
                    raise SimulationError(
                        f"instance key {key} completed twice"
                    )
                raise SimulationError(
                    f"instance key {key} completed without a release"
                )
            state[key] = _ST_COMPLETED
            comp_k_app(key)
            comp_t_app(now)
            # Idle-point notification precedes the protocol hook.
            rdy = ready[proc]
            if not rdy:
                if record_idle_points:
                    idle_by_proc[proc].append(now)
                if is_rg:
                    rule_two(proc)
                    rdy = ready[proc]
            # controller.on_completion -- DS/RG send the chain signal.
            # The push is deferred to the loop bottom (``sig``): if by
            # then nothing pending orders before it, the queue
            # round-trip is skipped entirely.
            if signals_on_completion:
                slot = key // stride
                succ = slot_succ[slot]
                if succ >= 0:
                    seq += 1
                    sig = (_ORD_SIGNAL | (seq << 3) | _K_SIGNAL, succ,
                           key - slot * stride)
            # dispatch_if_needed (rule_two above may already have run it).
            if run_idx[proc] < 0 and rdy:
                best = heappop(rdy)
                r2 = best[2]
                run_idx[proc] = r2
                run_prio[proc] = best[0]
                run_rt[proc] = best[1]
                seg_start[proc] = now
                seq += 1
                tok = (seq << 3) | _K_COMPLETION
                comp_token[proc] = tok
                tc = now + a_rem[r2]
                ev = (tc, tok, proc)
                b_ = int(tc * scale)
                if b_ <= cursor:
                    heappush(active, ev)
                elif b_ < nbuckets:
                    buckets[b_].append(ev)
                else:
                    push_far(ev)

        else:
            if t > horizon:
                break
            if t < now and t < now - rel_eps * (now if now > 1.0 else 1.0):
                raise SimulationError(
                    f"event queue went backwards: {fmt(t)} < {fmt(now)}"
                )
            now = t
            kind = o & 7

            if kind == _K_ENV:
                i = ev[2]
                m = ev[3]
                env_k_app(i * stride + m)
                env_t_app(now)
                release(task_first[i], m)
                # Schedule the next environment release: the sporadic
                # ratchet max(phase + m*period, previous + period), where
                # ``previous`` is exactly this event's fire time.
                period = task_period[i]
                nxt_m = m + 1
                when = task_phase[i] + nxt_m * period
                when = when + 0.0  # zero jitter, reference association
                floor_ = now + period
                if when < floor_:
                    when = floor_
                if when <= horizon:
                    seq += 1
                    ev = (when, _ORD_ENV | (seq << 3) | _K_ENV, i, nxt_m)
                    b_ = int(when * scale)
                    if b_ <= cursor:
                        heappush(active, ev)
                    elif b_ < nbuckets:
                        buckets[b_].append(ev)
                    else:
                        push_far(ev)

            elif kind == _K_SIGNAL:
                on_signal(ev[2], ev[3])

            elif kind == _K_MPM_TIMER:
                # MPM relay: budget elapsed, signal the successor.  (The
                # reference also counts an overrun on the controller when
                # the predecessor is still running; that diagnostic list
                # never reaches the trace.)  Deferred like the
                # completion-hook signal above.
                slot = ev[2]
                succ = slot_succ[slot]
                if succ >= 0:
                    seq += 1
                    sig = (_ORD_SIGNAL | (seq << 3) | _K_SIGNAL, succ,
                           ev[3])

            elif kind == _K_PM_TIMER:
                slot = ev[2]
                m = ev[3]
                release(slot, m)
                nxt_m = m + 1
                when = pm_phase[slot] + nxt_m * slot_period[slot]
                if when <= horizon:
                    if when < now:
                        # Possible only within float noise; take the
                        # reference's clamp-or-raise path.
                        schedule_timer(when, _K_PM_TIMER, slot, nxt_m)
                    else:
                        seq += 1
                        ev = (when, _ORD_TIMER | (seq << 3) | _K_PM_TIMER,
                              slot, nxt_m)
                        b_ = int(when * scale)
                        if b_ <= cursor:
                            heappush(active, ev)
                        elif b_ < nbuckets:
                            buckets[b_].append(ev)
                        else:
                            push_far(ev)

            else:  # _K_RG_TIMER
                slot = ev[2]
                if pending[slot] and guards[slot] <= now + rel_eps * (
                    now if now > 1.0 else 1.0
                ):
                    release_head(slot)

        processed += 1
        if processed > max_ev:
            raise SimulationError(
                f"event budget exceeded ({max_events} events); "
                f"now={fmt(now)}, horizon={fmt(horizon)}"
            )
        if sig is not None:
            # A signal due at this very instant.  The monotone invariant
            # puts every not-yet-popped event ordered before
            # ``(now, order)`` in the active bucket, so if its head does
            # not precede the signal, nothing does: handle the signal
            # here without a queue round-trip.  Its sequence number was
            # consumed at creation and it counts as a processed event,
            # so the observable order is exactly the reference's.
            o, slot, m = sig
            sig = None
            if active and active[0] < (now, o):
                ev = (now, o, slot, m)
                b_ = int(now * scale)
                if b_ <= cursor:
                    heappush(active, ev)
                elif b_ < nbuckets:
                    buckets[b_].append(ev)
                else:
                    push_far(ev)
            else:
                on_signal(slot, m)
                processed += 1
                if processed > max_ev:
                    raise SimulationError(
                        f"event budget exceeded ({max_events} events); "
                        f"now={fmt(now)}, horizon={fmt(horizon)}"
                    )

    # ------------------------------------------------------------------
    # Pack the trace columns (vectorized key unpacking).
    # ------------------------------------------------------------------
    idle_proc: list[int] = []
    idle_time: list[float] = []
    for proc in range(nprocs):
        times = idle_by_proc[proc]
        if times:
            idle_proc.extend([proc] * len(times))
            idle_time.extend(times)
    i32 = np.int32
    i64 = np.int64
    f64 = np.float64
    rel_key = np.asarray(rel_k, i64)
    comp_key = np.asarray(comp_k, i64)
    env_key = np.asarray(env_k, i64)
    seg_key = np.asarray(seg_k, i64)
    seg_pp = (seg_key % nprocs).astype(i32)
    seg_key //= nprocs
    packed = PackedTrace(
        horizon=horizon,
        record_segments=record_segments,
        record_idle_points=record_idle_points,
        rel_slot=(rel_key // stride).astype(i32),
        rel_inst=(rel_key % stride).astype(i32),
        rel_time=np.asarray(rel_t, f64),
        comp_slot=(comp_key // stride).astype(i32),
        comp_inst=(comp_key % stride).astype(i32),
        comp_time=np.asarray(comp_t, f64),
        env_task=(env_key // stride).astype(i32),
        env_inst=(env_key % stride).astype(i32),
        env_time=np.asarray(env_t, f64),
        seg_proc=seg_pp,
        seg_slot=(seg_key // stride).astype(i32),
        seg_inst=(seg_key % stride).astype(i32),
        seg_start=np.asarray(seg_a, f64),
        seg_end=np.asarray(seg_b, f64),
        idle_proc=np.asarray(idle_proc, i32),
        idle_time=np.asarray(idle_time, f64),
        viol_slot=np.asarray(viol_s, i32),
        viol_inst=np.asarray(viol_m, i32),
        viol_time=np.asarray(viol_t, f64),
        viol_pred=np.asarray(viol_p, i32),
        clamp_req=np.asarray(clamp_req, f64),
        clamp_to=np.asarray(clamp_to, f64),
    )
    return BatchRun(packed=packed, events_processed=processed)
