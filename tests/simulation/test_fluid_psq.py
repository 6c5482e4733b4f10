"""Unit and property tests of the processor-sharing queue."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation.fluid import EPSILON, ProcessorSharingQueue


class TestSingleJob:
    def test_single_job_completes_after_its_work(self):
        queue = ProcessorSharingQueue(capacity=1.0)
        queue.add("a", 10.0, now=0.0)
        assert queue.next_completion_time() == pytest.approx(10.0)
        completions = queue.advance_to(10.0)
        assert completions == [(pytest.approx(10.0), "a")]
        assert len(queue) == 0

    def test_capacity_scales_completion_time(self):
        queue = ProcessorSharingQueue(capacity=2.0)
        queue.add("a", 10.0, now=0.0)
        assert queue.next_completion_time() == pytest.approx(5.0)

    def test_zero_capacity_means_no_progress(self):
        queue = ProcessorSharingQueue(capacity=0.0)
        queue.add("a", 10.0, now=0.0)
        assert queue.next_completion_time() == math.inf
        queue.advance_to(100.0)
        assert queue.remaining("a") == pytest.approx(10.0)

    def test_zero_work_job_completes_immediately(self):
        queue = ProcessorSharingQueue()
        queue.add("a", 0.0, now=0.0)
        completions = queue.advance_to(1.0)
        assert [key for _, key in completions] == ["a"]


class TestSharing:
    def test_two_equal_jobs_finish_together_at_double_time(self):
        queue = ProcessorSharingQueue()
        queue.add("a", 10.0, now=0.0)
        queue.add("b", 10.0, now=0.0)
        completions = queue.advance_to(25.0)
        assert [(round(t, 6), k) for t, k in completions] == [(20.0, "a"), (20.0, "b")]

    def test_staggered_arrival_slows_the_first_job(self):
        # a: 10 units at t=0; b: 10 units at t=5.
        # a has 5 left at t=5, shared rate 1/2 -> a finishes at 15;
        # b then has 5 left, alone -> finishes at 20.
        queue = ProcessorSharingQueue()
        queue.add("a", 10.0, now=0.0)
        queue.add("b", 10.0, now=5.0)
        completions = dict((k, t) for t, k in queue.advance_to(30.0))
        assert completions["a"] == pytest.approx(15.0)
        assert completions["b"] == pytest.approx(20.0)

    def test_rate_reflects_number_of_jobs(self):
        queue = ProcessorSharingQueue(capacity=1.0)
        assert queue.rate() == 0.0
        queue.add("a", 10.0, now=0.0)
        assert queue.rate() == pytest.approx(1.0)
        queue.add("b", 10.0, now=0.0)
        assert queue.rate() == pytest.approx(0.5)

    def test_per_job_cap_limits_single_job_rate(self):
        queue = ProcessorSharingQueue(capacity=2.0, per_job_cap=1.0)
        queue.add("a", 10.0, now=0.0)
        # A dual-CPU machine does not run one task twice as fast.
        assert queue.next_completion_time() == pytest.approx(10.0)

    def test_per_job_cap_allows_parallel_jobs_without_interference(self):
        queue = ProcessorSharingQueue(capacity=2.0, per_job_cap=1.0)
        queue.add("a", 10.0, now=0.0)
        queue.add("b", 10.0, now=0.0)
        completions = dict((k, t) for t, k in queue.advance_to(50.0))
        assert completions["a"] == pytest.approx(10.0)
        assert completions["b"] == pytest.approx(10.0)

    def test_per_job_cap_with_three_jobs_on_two_cpus(self):
        queue = ProcessorSharingQueue(capacity=2.0, per_job_cap=1.0)
        for key in ("a", "b", "c"):
            queue.add(key, 12.0, now=0.0)
        # 3 jobs share 2 CPUs -> each runs at 2/3: completion at 18.
        assert queue.next_completion_time() == pytest.approx(18.0)


class TestMutation:
    def test_remove_returns_remaining_work(self):
        queue = ProcessorSharingQueue()
        queue.add("a", 10.0, now=0.0)
        queue.add("b", 10.0, now=0.0)
        remaining = queue.remove("a", now=4.0)  # each progressed by 2
        assert remaining == pytest.approx(8.0)
        assert "a" not in queue

    def test_set_capacity_mid_flight(self):
        queue = ProcessorSharingQueue(capacity=1.0)
        queue.add("a", 10.0, now=0.0)
        queue.set_capacity(2.0, now=5.0)  # 5 remaining at double speed
        assert queue.next_completion_time() == pytest.approx(7.5)

    def test_duplicate_key_rejected(self):
        queue = ProcessorSharingQueue()
        queue.add("a", 1.0, now=0.0)
        with pytest.raises(SimulationError):
            queue.add("a", 1.0, now=0.0)

    def test_negative_work_rejected(self):
        queue = ProcessorSharingQueue()
        with pytest.raises(ValueError):
            queue.add("a", -1.0, now=0.0)

    def test_backwards_advance_rejected(self):
        queue = ProcessorSharingQueue()
        queue.advance_to(10.0)
        with pytest.raises(SimulationError):
            queue.advance_to(5.0)

    def test_copy_is_independent(self):
        queue = ProcessorSharingQueue()
        queue.add("a", 10.0, now=0.0)
        clone = queue.copy()
        clone.advance_to(10.0)
        assert len(clone) == 0
        assert len(queue) == 1
        assert queue.remaining("a") == pytest.approx(10.0)

    def test_active_keys_in_insertion_order(self):
        queue = ProcessorSharingQueue()
        for key in ("z", "a", "m"):
            queue.add(key, 5.0, now=0.0)
        assert queue.active_keys() == ["z", "a", "m"]


class TestProperties:
    """Hypothesis property tests on the conservation laws of the fluid model."""

    @given(works=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_last_completion_equals_total_work_when_all_arrive_together(self, works):
        queue = ProcessorSharingQueue(capacity=1.0)
        for i, work in enumerate(works):
            queue.add(i, work, now=0.0)
        completions = queue.advance_to(sum(works) + 1.0)
        assert len(completions) == len(works)
        last = max(t for t, _ in completions)
        assert last == pytest.approx(sum(works), rel=1e-6)

    @given(works=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_every_job_takes_at_least_its_unloaded_time(self, works):
        queue = ProcessorSharingQueue(capacity=1.0)
        for i, work in enumerate(works):
            queue.add(i, work, now=0.0)
        completions = dict((k, t) for t, k in queue.advance_to(sum(works) + 1.0))
        for i, work in enumerate(works):
            assert completions[i] >= work - 1e-6

    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=20.0), min_size=2, max_size=6),
        gaps=st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=2, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_shorter_jobs_arriving_together_never_finish_later(self, works, gaps):
        n = min(len(works), len(gaps))
        works, gaps = works[:n], gaps[:n]
        arrivals = [sum(gaps[:i]) for i in range(n)]
        queue = ProcessorSharingQueue(capacity=1.0)
        completions = {}
        for i, (work, arrival) in enumerate(zip(works, arrivals)):
            # advance explicitly so completions occurring before the arrival
            # are collected rather than swallowed by add()'s internal advance
            completions.update((k, t) for t, k in queue.advance_to(arrival))
            queue.add(i, work, now=arrival)
        horizon = sum(works) + max(arrivals) + 1.0
        completions.update((k, t) for t, k in queue.advance_to(horizon))
        assert len(completions) == n
        # Among jobs sharing the same arrival date, processor sharing preserves
        # the order of their work amounts.
        for i in range(n):
            for j in range(n):
                if arrivals[i] == arrivals[j] and works[i] < works[j]:
                    assert completions[i] <= completions[j] + 1e-6


class TestCachedRate:
    """``rate()`` is cached; every mutation must leave it at its definition."""

    @staticmethod
    def expected_rate(queue: ProcessorSharingQueue) -> float:
        if len(queue) == 0:
            return 0.0
        rate = queue.capacity / len(queue)
        if queue.per_job_cap is not None:
            rate = min(rate, queue.per_job_cap)
        return rate

    @given(
        per_job_cap=st.one_of(st.none(), st.floats(min_value=0.25, max_value=2.0)),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["add", "remove", "advance", "capacity", "cap", "copy"]),
                st.floats(min_value=0.0, max_value=5.0),
                st.floats(min_value=0.0, max_value=4.0),
            ),
            max_size=40,
        ),
    )
    @settings(max_examples=150, deadline=None)
    def test_rate_is_capacity_over_jobs_after_every_operation(self, per_job_cap, ops):
        queue = ProcessorSharingQueue(capacity=2.0, per_job_cap=per_job_cap)
        now = 0.0
        next_key = 0
        for op, dt, value in ops:
            now += dt
            if op == "add":
                queue.add(next_key, value, now)
                next_key += 1
            elif op == "remove":
                queue.advance_to(now)
                keys = queue.active_keys()
                if keys:
                    queue.remove(keys[int(value) % len(keys)], now)
            elif op == "advance":
                queue.advance_to(now)
            elif op == "capacity":
                queue.set_capacity(value, now)
            elif op == "cap":
                queue.set_capacity(queue.capacity, now, per_job_cap=value or None)
            else:
                queue = queue.copy()
            assert queue.rate() == self.expected_rate(queue)
