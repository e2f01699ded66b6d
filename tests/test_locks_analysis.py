"""Tests for the blocking-aware analyses (`repro.locks.analysis`).

The contract under test, per docs/locking.md: remote-blocking terms
from the agent-demand fixpoint, agent pseudo-task interference, and
suspension-as-jitter deferrals resolved jointly -- with an *exact*
reduction to the base analyses whenever the system declares no critical
sections.
"""

from __future__ import annotations

import math

import pytest

from repro.core.analysis.busy_period import CompiledSystem
from repro.core.analysis.sa_ds import analyze_sa_ds
from repro.core.analysis.sa_pm import analyze_sa_pm
from repro.locks import (
    LockingConfig,
    agent_augmented_system,
    analyze_sa_ds_blocking,
    analyze_sa_pm_blocking,
    blocking_terms,
    inject_critical_sections,
)
from repro.locks import analysis as locks_analysis
from repro.locks.analysis import resolved_blocking_terms
from repro.model import CriticalSection, Subtask, SubtaskId, System, Task
from repro.workload.config import WorkloadConfig
from repro.workload.generator import generate_system

CONFIG = WorkloadConfig(
    subtasks_per_task=3, utilization=0.5, tasks=4, processors=3
)


def _toy() -> System:
    """Same shape as tests/test_locks_model.py: hand-checkable terms."""
    t1 = Task(
        period=10.0,
        subtasks=(
            Subtask(
                2.0,
                "P1",
                priority=0,
                critical_sections=(CriticalSection("R1", 0.5, 1.0),),
            ),
            Subtask(2.0, "P2", priority=1),
        ),
    )
    t2 = Task(
        period=20.0,
        subtasks=(
            Subtask(
                3.0,
                "P2",
                priority=2,
                critical_sections=(
                    CriticalSection("R1", 1.0, 0.5),
                    CriticalSection("R2", 2.0, 0.5),
                ),
            ),
            Subtask(2.0, "P3", priority=3),
        ),
    )
    return System((t1, t2), name="toy")


def _overloaded() -> System:
    """Two requesters whose agent demand saturates the DPCP host."""
    t1 = Task(
        period=10.0,
        subtasks=(
            Subtask(
                6.0,
                "P1",
                priority=0,
                critical_sections=(CriticalSection("R1", 0.0, 5.0),),
            ),
        ),
    )
    t2 = Task(
        period=10.0,
        subtasks=(
            Subtask(
                6.0,
                "P2",
                priority=1,
                critical_sections=(CriticalSection("R1", 0.0, 5.0),),
            ),
        ),
    )
    return System((t1, t2), name="overloaded")


class TestBlockingTerms:
    def test_dpcp_terms_match_hand_computation(self):
        # DPCP funnels R1 and R2 onto P1.  For T1,1 (section d=1.0) the
        # only other requester is T2,1 with c=1.0, p=20:
        #   W = 1 + (floor(W/20)+1)*1 = 2, so B = W - d = 1.
        # For T2,1 each of its two 0.5-sections sees T1,1 (c=1, p=10):
        #   W = 0.5 + (floor(W/10)+1)*1 = 1.5, contributing 1.0 each.
        terms = blocking_terms(_toy(), LockingConfig("DPCP"))
        assert terms == {SubtaskId(0, 0): 1.0, SubtaskId(1, 0): 2.0}

    def test_dpcp_p_terms_match_hand_computation(self):
        # DPCP-p hosts R1 on P1 (top accessor T1,1) and R2 on P2.  T1,1
        # now waits only for T2,1's R1 agent (c=0.5); T2,1's R2 section
        # has no contender at all.
        terms = blocking_terms(_toy(), LockingConfig("DPCP-p"))
        assert terms == {SubtaskId(0, 0): 0.5, SubtaskId(1, 0): 1.0}

    def test_sectionless_subtasks_absent(self):
        assert SubtaskId(0, 1) not in blocking_terms(_toy())

    def test_sectionless_system_has_no_terms(self):
        assert blocking_terms(generate_system(CONFIG, seed=0)) == {}

    def test_deferral_widens_the_arrival_window(self):
        # A 19-unit suspension jitter on T2,1 lets a second R1 agent
        # arrive inside T1,1's wait: W = 1 + (floor((W+19)/20)+1) = 3.
        terms = blocking_terms(
            _toy(),
            LockingConfig("DPCP"),
            deferral={SubtaskId(1, 0): 19.0},
        )
        assert terms[SubtaskId(0, 0)] == 2.0

    def test_infinite_deferral_poisons_the_term(self):
        terms = blocking_terms(
            _toy(),
            LockingConfig("DPCP"),
            deferral={SubtaskId(1, 0): math.inf},
        )
        assert math.isinf(terms[SubtaskId(0, 0)])
        # The deferred subtask's own term never counts its own jitter.
        assert math.isfinite(terms[SubtaskId(1, 0)])

    def test_saturated_host_yields_infinite_terms(self):
        terms = blocking_terms(_overloaded(), LockingConfig("DPCP"))
        assert all(math.isinf(term) for term in terms.values())

    def test_exact_timebase_agrees_with_float(self):
        float_terms = blocking_terms(_toy(), LockingConfig("DPCP"))
        exact_terms = blocking_terms(
            _toy(), LockingConfig("DPCP"), timebase="exact"
        )
        assert {s: float(t) for s, t in exact_terms.items()} == float_terms


class TestAgentAugmentedSystem:
    def test_one_pseudo_task_per_section(self):
        system = _toy()
        augmented = agent_augmented_system(system, LockingConfig("DPCP"))
        assert len(augmented.tasks) == len(system.tasks) + 3
        assert augmented.name == "toy+agents"

    def test_real_tasks_come_first_unchanged(self):
        system = _toy()
        augmented = agent_augmented_system(system)
        assert augmented.tasks[: len(system.tasks)] == system.tasks

    def test_agents_carry_host_priority_and_owner_period(self):
        system = _toy()
        augmented = agent_augmented_system(system, LockingConfig("DPCP-p"))
        agents = augmented.tasks[len(system.tasks) :]
        assert [t.name for t in agents] == [
            "agent:T1,1:0",
            "agent:T2,1:0",
            "agent:T2,1:1",
        ]
        r2_agent = agents[2].subtasks[0]
        assert r2_agent.processor == "P2"  # DPCP-p hosts R2 at home
        assert r2_agent.execution_time == 0.5
        assert agents[2].period == 20.0
        # Boosted below every normal priority (numerically smaller).
        assert all(
            t.subtasks[0].priority < 0 for t in agents
        )


class TestExactReduction:
    def test_sa_pm_reduces_to_base_on_sectionless_systems(self):
        system = generate_system(CONFIG, seed=2)
        blocking_aware = analyze_sa_pm_blocking(system)
        base = analyze_sa_pm(system)
        assert blocking_aware.algorithm == "SA/PM"
        assert blocking_aware.subtask_bounds == base.subtask_bounds
        assert blocking_aware.task_bounds == base.task_bounds

    def test_sa_ds_reduces_to_base_on_sectionless_systems(self):
        system = generate_system(CONFIG, seed=2)
        blocking_aware = analyze_sa_ds_blocking(system)
        base = analyze_sa_ds(system)
        assert blocking_aware.algorithm == "SA/DS"
        assert blocking_aware.subtask_bounds == base.subtask_bounds
        assert blocking_aware.task_bounds == base.task_bounds

    def test_resolved_terms_empty_on_sectionless_systems(self):
        assert resolved_blocking_terms(generate_system(CONFIG, seed=2)) == {}


class TestBlockingAwareAnalyses:
    @pytest.fixture(scope="class")
    def locked(self):
        system = generate_system(CONFIG, seed=0)
        return inject_critical_sections(
            system, ratio=0.2, resources=2, participation=1.0, seed=0
        )

    @pytest.mark.parametrize("protocol", ["DPCP", "DPCP-p"])
    def test_sa_pm_labels_and_projects_onto_real_system(
        self, locked, protocol
    ):
        result = analyze_sa_pm_blocking(
            locked, locking=LockingConfig(protocol)
        )
        assert result.algorithm == f"SA/PM+{protocol}"
        assert result.system is locked
        assert set(result.subtask_bounds) == set(locked.subtask_ids)
        assert len(result.task_bounds) == len(locked.tasks)

    def test_sa_pm_bounds_dominate_the_blocking_unaware_bounds(self, locked):
        base = analyze_sa_pm(locked)
        aware = analyze_sa_pm_blocking(locked, locking=LockingConfig("DPCP"))
        for sid, bound in base.subtask_bounds.items():
            assert aware.subtask_bounds[sid] >= bound

    def test_sa_ds_bounds_dominate_the_blocking_unaware_bounds(self, locked):
        base = analyze_sa_ds(locked)
        aware = analyze_sa_ds_blocking(locked, locking=LockingConfig("DPCP"))
        assert aware.algorithm == "SA/DS+DPCP"
        for sid, bound in aware.subtask_bounds.items():
            if math.isinf(bound):
                continue
            assert bound >= base.subtask_bounds[sid] - 1e-9

    def test_resolved_terms_dominate_the_zero_deferral_terms(self, locked):
        config = LockingConfig("DPCP")
        plain = blocking_terms(locked, config)
        resolved = resolved_blocking_terms(locked, config)
        assert set(resolved) == set(plain)
        for sid, term in plain.items():
            assert resolved[sid] >= term

    def test_toy_resolved_terms_match_float_and_exact(self):
        config = LockingConfig("DPCP")
        float_terms = resolved_blocking_terms(_toy(), config)
        exact_terms = resolved_blocking_terms(
            _toy(), config, timebase="exact"
        )
        assert set(float_terms) == set(exact_terms)
        for sid, term in float_terms.items():
            assert float(exact_terms[sid]) == pytest.approx(term)

    def test_exact_and_float_bounds_agree_on_the_toy(self):
        float_result = analyze_sa_pm_blocking(
            _toy(), locking=LockingConfig("DPCP")
        )
        exact_result = analyze_sa_pm_blocking(
            _toy(), locking=LockingConfig("DPCP"), timebase="exact"
        )
        for sid, bound in float_result.subtask_bounds.items():
            assert float(exact_result.subtask_bounds[sid]) == pytest.approx(
                bound
            )

    def test_saturated_host_fails_the_resourceful_bounds(self):
        result = analyze_sa_pm_blocking(
            _overloaded(), locking=LockingConfig("DPCP")
        )
        assert result.failed
        assert math.isinf(result.subtask_bounds[SubtaskId(0, 0)])
        assert math.isinf(result.subtask_bounds[SubtaskId(1, 0)])

    def test_default_locking_is_dpcp(self):
        explicit = analyze_sa_pm_blocking(
            _toy(), locking=LockingConfig("DPCP")
        )
        defaulted = analyze_sa_pm_blocking(_toy())
        assert defaulted.algorithm == explicit.algorithm
        assert defaulted.subtask_bounds == explicit.subtask_bounds


def _mixed() -> System:
    """Half the subtasks hold a section, so some lock-free bounds are
    interfered with by resourceful subtasks."""
    return inject_critical_sections(
        generate_system(CONFIG, seed=1), ratio=0.2, seed=1
    )


class TestOneProblemPerAnalysis:
    @pytest.mark.parametrize(
        "analyze", [analyze_sa_pm_blocking, analyze_sa_ds_blocking]
    )
    def test_one_assignment_and_one_compilation(self, monkeypatch, analyze):
        built = {"assignment": 0, "compiled": 0, "passes": 0}
        build = locks_analysis.build_assignment
        compile_system = CompiledSystem.__init__

        def counted_build(*args, **kwargs):
            built["assignment"] += 1
            return build(*args, **kwargs)

        def counted_compile(self, *args, **kwargs):
            built["compiled"] += 1
            compile_system(self, *args, **kwargs)

        monkeypatch.setattr(locks_analysis, "build_assignment", counted_build)
        monkeypatch.setattr(CompiledSystem, "__init__", counted_compile)
        for name in ("analyze_sa_pm", "analyze_sa_ds"):
            base = getattr(locks_analysis, name)

            def counted_pass(*args, base=base, **kwargs):
                built["passes"] += 1
                return base(*args, **kwargs)

            monkeypatch.setattr(locks_analysis, name, counted_pass)
        analyze(_mixed())
        assert built["passes"] > 1
        assert (built["assignment"], built["compiled"]) == (1, 1)


def _assert_resourceful_bounds_infinite(result, system, label):
    """Every resourceful bound, every bound a resourceful subtask
    interferes with and their tasks' bounds are infinite; the result
    is labelled and holds no agent."""
    assert result.algorithm == label
    assert result.system is system
    assert set(result.subtask_bounds) == set(system.subtask_ids)
    assert len(result.task_bounds) == len(system.tasks)
    resourceful = {
        sid
        for sid in system.subtask_ids
        if system.subtask(sid).critical_sections
    }
    interfered = {
        sid
        for sid in system.subtask_ids
        if resourceful & set(system.interference_set(sid))
    }
    assert interfered - resourceful
    for sid in resourceful | interfered:
        assert math.isinf(result.subtask_bounds[sid]), sid
    for index, task in enumerate(system.tasks):
        if any(
            SubtaskId(index, j) in resourceful | interfered
            for j in range(task.chain_length)
        ):
            assert math.isinf(result.task_bounds[index])
    assert result.failed


class TestIterationCaps:
    @pytest.mark.parametrize("timebase", ["float", "exact"])
    def test_deferral_pass_cap_declares_resourceful_bounds_infinite(
        self, monkeypatch, timebase
    ):
        # One pass never stabilizes: the jitters move off zero.
        monkeypatch.setattr(locks_analysis, "_MAX_DEFERRAL_PASSES", 1)
        system = _mixed()
        for analyze, label in (
            (analyze_sa_pm_blocking, "SA/PM+DPCP"),
            (analyze_sa_ds_blocking, "SA/DS+DPCP"),
        ):
            result = analyze(system, timebase=timebase)
            _assert_resourceful_bounds_infinite(result, system, label)
        terms = resolved_blocking_terms(system, timebase=timebase)
        assert terms and all(math.isinf(term) for term in terms.values())

    @pytest.mark.parametrize("timebase", ["float", "exact"])
    def test_blocking_window_cap_yields_infinite_terms(
        self, monkeypatch, timebase
    ):
        # One window pass cannot settle a contended section.
        monkeypatch.setattr(locks_analysis, "_MAX_FIXPOINT_PASSES", 1)
        terms = blocking_terms(_toy(), LockingConfig("DPCP"), timebase=timebase)
        assert all(math.isinf(term) for term in terms.values())
        system = _mixed()
        for analyze, label in (
            (analyze_sa_pm_blocking, "SA/PM+DPCP"),
            (analyze_sa_ds_blocking, "SA/DS+DPCP"),
        ):
            result = analyze(system, timebase=timebase)
            _assert_resourceful_bounds_infinite(result, system, label)
