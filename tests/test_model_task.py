"""Unit tests for the task model (Subtask, Task, SubtaskId)."""

from __future__ import annotations

import math

import pytest

from repro.errors import ModelError
from repro.model.task import Subtask, SubtaskId, Task, subtask_display_name


class TestSubtaskId:
    def test_orders_by_task_then_position(self):
        assert SubtaskId(0, 1) < SubtaskId(1, 0)
        assert SubtaskId(1, 0) < SubtaskId(1, 1)

    def test_display_uses_one_based_paper_convention(self):
        assert str(SubtaskId(1, 0)) == "T2,1"
        assert subtask_display_name(0, 2) == "T1,3"

    def test_predecessor_of_first_is_none(self):
        assert SubtaskId(3, 0).predecessor is None

    def test_predecessor_of_later_subtask(self):
        assert SubtaskId(3, 2).predecessor == SubtaskId(3, 1)

    def test_successor_position(self):
        assert SubtaskId(2, 1).successor == SubtaskId(2, 2)

    def test_negative_task_index_rejected(self):
        with pytest.raises(ModelError):
            SubtaskId(-1, 0)

    def test_negative_subtask_index_rejected(self):
        with pytest.raises(ModelError):
            SubtaskId(0, -1)

    def test_hashable_and_equal(self):
        assert SubtaskId(1, 2) == SubtaskId(1, 2)
        assert len({SubtaskId(1, 2), SubtaskId(1, 2)}) == 1


class TestSubtask:
    def test_valid_construction(self):
        sub = Subtask(2.5, "P1", priority=3, name="stage")
        assert sub.execution_time == 2.5
        assert sub.processor == "P1"
        assert sub.priority == 3
        assert sub.name == "stage"

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_nonpositive_execution_time_rejected(self, bad):
        with pytest.raises(ModelError):
            Subtask(bad, "P1")

    def test_empty_processor_rejected(self):
        with pytest.raises(ModelError):
            Subtask(1.0, "")

    def test_non_string_processor_rejected(self):
        with pytest.raises(ModelError):
            Subtask(1.0, 7)  # type: ignore[arg-type]

    def test_non_integer_priority_rejected(self):
        with pytest.raises(ModelError):
            Subtask(1.0, "P1", priority=1.5)  # type: ignore[arg-type]

    def test_with_priority_returns_new_object(self):
        sub = Subtask(1.0, "P1", priority=0)
        bumped = sub.with_priority(4)
        assert bumped.priority == 4
        assert sub.priority == 0
        assert bumped.execution_time == sub.execution_time


class TestTask:
    def _chain(self, *exec_times: float) -> tuple[Subtask, ...]:
        return tuple(
            Subtask(e, f"P{i + 1}", priority=0) for i, e in enumerate(exec_times)
        )

    def test_valid_construction(self):
        task = Task(period=10.0, subtasks=self._chain(1.0, 2.0))
        assert task.chain_length == 2
        assert task.phase == 0.0

    @pytest.mark.parametrize("bad", [0.0, -5.0, math.inf, math.nan])
    def test_bad_period_rejected(self, bad):
        with pytest.raises(ModelError):
            Task(period=bad, subtasks=self._chain(1.0))

    def test_empty_chain_rejected(self):
        with pytest.raises(ModelError):
            Task(period=10.0, subtasks=())

    def test_non_subtask_chain_entry_rejected(self):
        with pytest.raises(ModelError):
            Task(period=10.0, subtasks=("oops",))  # type: ignore[arg-type]

    def test_negative_phase_rejected(self):
        with pytest.raises(ModelError):
            Task(period=10.0, phase=-1.0, subtasks=self._chain(1.0))

    def test_bad_deadline_rejected(self):
        with pytest.raises(ModelError):
            Task(period=10.0, deadline=0.0, subtasks=self._chain(1.0))

    def test_deadline_defaults_to_period(self):
        task = Task(period=12.0, subtasks=self._chain(1.0))
        assert task.relative_deadline == 12.0

    def test_explicit_deadline_kept(self):
        task = Task(period=12.0, deadline=8.0, subtasks=self._chain(1.0))
        assert task.relative_deadline == 8.0

    def test_list_chain_coerced_to_tuple(self):
        task = Task(period=10.0, subtasks=list(self._chain(1.0, 2.0)))
        assert isinstance(task.subtasks, tuple)

    def test_total_execution_time(self):
        task = Task(period=10.0, subtasks=self._chain(1.0, 2.5, 0.5))
        assert task.total_execution_time == pytest.approx(4.0)

    def test_utilization_sums_stage_utilizations(self):
        task = Task(period=10.0, subtasks=self._chain(1.0, 2.0))
        assert task.utilization == pytest.approx(0.3)
        assert task.subtask_utilization(1) == pytest.approx(0.2)

    def test_cumulative_execution_time(self):
        task = Task(period=10.0, subtasks=self._chain(1.0, 2.0, 3.0))
        assert task.cumulative_execution_time(0) == pytest.approx(1.0)
        assert task.cumulative_execution_time(2) == pytest.approx(6.0)

    def test_cumulative_execution_time_out_of_range(self):
        task = Task(period=10.0, subtasks=self._chain(1.0))
        with pytest.raises(ModelError):
            task.cumulative_execution_time(1)

    def test_processors_in_chain_order(self):
        task = Task(period=10.0, subtasks=self._chain(1.0, 2.0, 3.0))
        assert task.processors() == ("P1", "P2", "P3")

    def test_release_times_periodic_from_phase(self):
        task = Task(period=4.0, phase=1.0, subtasks=self._chain(1.0))
        assert list(task.release_times(14.0)) == [1.0, 5.0, 9.0, 13.0]

    def test_release_times_horizon_exclusive(self):
        task = Task(period=5.0, subtasks=self._chain(1.0))
        assert list(task.release_times(10.0)) == [0.0, 5.0]

    def test_with_phase_copies(self):
        task = Task(period=10.0, subtasks=self._chain(1.0))
        shifted = task.with_phase(3.0)
        assert shifted.phase == 3.0
        assert task.phase == 0.0

    def test_with_subtasks_copies(self):
        task = Task(period=10.0, subtasks=self._chain(1.0))
        widened = task.with_subtasks(self._chain(1.0, 2.0))
        assert widened.chain_length == 2
        assert task.chain_length == 1


class TestSubtaskSections:
    """The resource-free fast path keeps every section check."""

    def test_empty_tuple_is_the_fast_path(self):
        assert Subtask(1.0, "P1", critical_sections=()).critical_sections == ()

    def test_empty_list_normalized(self):
        assert Subtask(1.0, "P1", critical_sections=[]).critical_sections == ()

    @pytest.mark.parametrize("value", [None, 0])
    def test_non_iterable_rejected(self, value):
        with pytest.raises(TypeError):
            Subtask(1.0, "P1", critical_sections=value)

    def test_scalar_checks_run_first(self):
        with pytest.raises(ModelError):
            Subtask(-1.0, "P1", critical_sections=())
        with pytest.raises(ModelError):
            Subtask(1.0, "", critical_sections=())
        with pytest.raises(ModelError):
            Subtask(1.0, "P1", priority=1.5, critical_sections=())
