"""Unit tests of the callback calendar (:class:`repro.simulation.Environment`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptySchedule
from repro.simulation import NORMAL, URGENT, Environment, Infinity


class TestClock:
    def test_initial_time_defaults_to_zero(self):
        assert Environment().now == 0.0

    def test_initial_time_can_be_set(self):
        assert Environment(initial_time=42.5).now == 42.5

    def test_peek_returns_infinity_when_empty(self, env):
        assert env.peek() == float("inf")

    def test_peek_returns_the_next_date(self, env):
        env.call_in(7.0, lambda: None)
        env.call_in(3.0, lambda: None)
        assert env.peek() == 3.0

    def test_step_runs_the_callback_at_its_date(self, env):
        seen = []
        env.call_in(10.0, lambda: seen.append(env.now))
        env.step()
        assert seen == [10.0] and env.now == 10.0

    def test_step_on_empty_calendar_raises(self, env):
        with pytest.raises(EmptySchedule):
            env.step()

    def test_negative_delay_rejected(self, env):
        with pytest.raises(ValueError):
            env.call_in(-1.0, lambda: None)

    def test_failed_step_leaves_the_clock_unchanged(self, env):
        env.call_in(4.0, lambda: None)
        env.step()
        with pytest.raises(EmptySchedule):
            env.step()
        assert env.now == 4.0

    def test_urgent_sorts_before_normal_and_infinity_is_unbounded(self):
        assert URGENT < NORMAL
        assert Infinity == float("inf")

    def test_delay_is_relative_to_the_scheduling_date(self, env):
        seen = []
        env.call_in(3.0, lambda: env.call_in(4.0, lambda: seen.append(env.now)))
        env.run()
        assert seen == [7.0]

    def test_initial_time_offsets_every_date(self):
        env = Environment(initial_time=100.0)
        seen = []
        env.call_in(2.5, lambda: seen.append(env.now))
        assert env.peek() == 102.5
        env.run()
        assert seen == [102.5]

    def test_same_callable_scheduled_twice_runs_twice(self, env):
        seen = []

        def record():
            seen.append(env.now)

        env.call_in(1.0, record)
        env.call_in(1.0, record)
        env.run()
        assert seen == [1.0, 1.0]

    def test_repr_reports_clock_and_pending_count(self, env):
        env.call_in(1.0, lambda: None)
        env.call_in(2.0, lambda: None)
        env.step()
        assert repr(env) == "<Environment now=1.0 pending=1>"


class TestOrdering:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.5]),
                st.sampled_from([URGENT, NORMAL]),
            ),
            max_size=30,
        )
    )
    def test_callbacks_run_in_time_priority_insertion_order(self, program):
        env = Environment()
        ran = []
        for index, (delay, priority) in enumerate(program):
            env.call_in(delay, lambda i=index: ran.append(i), priority=priority)
        env.run()
        expected = sorted(range(len(program)), key=lambda i: (program[i][0], program[i][1], i))
        assert ran == expected

    def test_zero_delay_call_runs_after_entries_already_due(self, env):
        order = []

        def first():
            order.append("first")
            env.call_in(0.0, lambda: order.append("nested"))

        env.call_in(1.0, first)
        env.call_in(1.0, lambda: order.append("second"))
        env.call_in(1.0, lambda: order.append("urgent-late"), priority=URGENT)
        env.run()
        assert order == ["urgent-late", "first", "second", "nested"]

    def test_self_rescheduling_callback(self, env):
        ticks = []

        def tick():
            ticks.append(env.now)
            env.call_in(10.0, tick)

        env.call_in(0.0, tick, priority=URGENT)
        env.run(until=35.0)
        assert ticks == [0.0, 10.0, 20.0, 30.0]

    def test_zero_delay_calls_run_in_scheduling_order(self, env):
        order = []

        def chain(depth):
            order.append(depth)
            if depth < 4:
                env.call_in(0.0, lambda: chain(depth + 1))

        env.call_in(2.0, lambda: chain(0))
        env.call_in(2.0, lambda: order.append("peer"))
        env.run()
        assert order == [0, "peer", 1, 2, 3, 4]
        assert env.now == 2.0

    def test_urgent_call_made_inside_a_step_overtakes_normal_entries_due(self, env):
        order = []

        def first():
            order.append("first")
            env.call_in(0.0, lambda: order.append("urgent"), priority=URGENT)

        env.call_in(1.0, first)
        env.call_in(1.0, lambda: order.append("second"))
        env.run()
        assert order == ["first", "urgent", "second"]

    def test_larger_priority_values_run_after_normal(self, env):
        order = []
        env.call_in(1.0, lambda: order.append("late"), priority=NORMAL + 1)
        env.call_in(1.0, lambda: order.append("normal"))
        env.call_in(1.0, lambda: order.append("urgent"), priority=URGENT)
        env.run()
        assert order == ["urgent", "normal", "late"]

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.25, 1.0, 3.0]),
                st.sampled_from([0.0, 0.5, 2.0]),
                st.booleans(),
            ),
            max_size=20,
        )
    )
    def test_nested_programs_run_each_callback_at_its_date(self, program):
        env = Environment()
        runs = []

        def make(due, child_delay, spawn):
            def callback():
                runs.append((due, env.now))
                if spawn:
                    child_due = env.now + child_delay
                    env.call_in(child_delay, make(child_due, child_delay, False))

            return callback

        for delay, child_delay, spawn in program:
            env.call_in(delay, make(delay, child_delay, spawn))
        env.run()
        assert len(runs) == len(program) + sum(spawn for _, _, spawn in program)
        assert all(due == at for due, at in runs)
        dates = [at for _, at in runs]
        assert dates == sorted(dates)


class TestRun:
    def test_run_drains_the_calendar(self, env):
        env.call_in(10.0, lambda: None)
        env.run()
        assert env.now == 10.0 and env.peek() == float("inf")

    def test_run_until_with_empty_calendar_sets_the_clock(self, env):
        env.run(until=30.0)
        assert env.now == 30.0

    def test_run_until_leaves_later_entries_queued(self, env):
        seen = []
        env.call_in(10.0, lambda: seen.append(10.0))
        env.call_in(30.0, lambda: seen.append(30.0))
        env.call_in(100.0, lambda: seen.append(100.0))
        env.run(until=30.0)
        assert seen == [10.0, 30.0]
        assert env.now == 30.0
        assert env.peek() == 100.0

    def test_run_until_past_time_rejected(self, env):
        env.run(until=10.0)
        with pytest.raises(ValueError):
            env.run(until=5.0)

    def test_stop_ends_run_after_the_current_callback(self, env):
        seen = []

        def stopper():
            seen.append("stopper")
            env.stop()
            seen.append("after stop")

        env.call_in(5.0, stopper)
        env.call_in(5.0, lambda: seen.append("same date"))
        env.call_in(9.0, lambda: seen.append("later"))
        env.run()
        assert seen == ["stopper", "after stop"]
        assert env.now == 5.0
        env.run()
        assert seen == ["stopper", "after stop", "same date", "later"]

    def test_stop_wins_over_until(self, env):
        env.call_in(5.0, env.stop)
        env.run(until=50.0)
        assert env.now == 5.0

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sampled_from([0.0, 1.0, 2.0, 2.5, 4.0]), max_size=20),
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 5.0]),
    )
    def test_run_until_runs_exactly_the_entries_due_by_then(self, delays, until):
        env = Environment()
        ran = []
        for delay in delays:
            env.call_in(delay, lambda d=delay: ran.append(d))
        env.run(until=until)
        assert ran == sorted(d for d in delays if d <= until)
        assert env.now == until
        assert env.peek() == min((d for d in delays if d > until), default=float("inf"))

    def test_run_until_now_runs_the_entries_due_now(self, env):
        seen = []
        env.call_in(0.0, lambda: seen.append("now"))
        env.call_in(1.0, lambda: seen.append("later"))
        env.run(until=0.0)
        assert seen == ["now"] and env.now == 0.0

    def test_run_until_infinity_drains_and_keeps_the_last_date(self, env):
        env.call_in(8.0, lambda: None)
        env.run(until=float("inf"))
        assert env.now == 8.0 and env.peek() == float("inf")

    def test_run_on_an_empty_calendar_keeps_the_clock(self, env):
        env.run()
        assert env.now == 0.0

    def test_stop_before_run_is_forgotten(self, env):
        seen = []
        env.call_in(1.0, lambda: seen.append(1.0))
        env.call_in(2.0, lambda: seen.append(2.0))
        env.stop()
        env.run()
        assert seen == [1.0, 2.0]

    def test_stop_during_a_bare_step_does_not_cut_the_next_run(self, env):
        seen = []
        env.call_in(1.0, env.stop)
        env.call_in(2.0, lambda: seen.append(2.0))
        env.call_in(3.0, lambda: seen.append(3.0))
        env.step()
        env.run()
        assert seen == [2.0, 3.0]

    def test_run_until_after_a_stop_reaches_its_bound(self, env):
        env.call_in(5.0, env.stop)
        env.call_in(20.0, lambda: None)
        env.run(until=50.0)
        assert env.now == 5.0
        env.run(until=50.0)
        assert env.now == 50.0 and env.peek() == float("inf")

    def test_run_resumes_after_a_failing_callback(self, env):
        seen = []

        def boom():
            raise RuntimeError("boom")

        env.call_in(1.0, boom)
        env.call_in(2.0, lambda: seen.append(env.now))
        with pytest.raises(RuntimeError):
            env.run()
        assert env.now == 1.0
        env.run()
        assert seen == [2.0]

    def test_callback_errors_propagate(self, env):
        def boom():
            raise RuntimeError("boom")

        env.call_in(1.0, boom)
        with pytest.raises(RuntimeError, match="boom"):
            env.run()
