"""Property-based invariants of the fluid processor-sharing models.

These tests lock down the physics the whole reproduction rests on — the
``1/n`` sharing model of Section 2.3 — with randomly generated programs:

* **work conservation** — a queue never completes work faster than its
  capacity allows, and busy periods complete work at exactly the capacity;
* **monotonicity** — adding load never makes an existing task finish sooner;
* **copy independence** — ``copy()`` yields a fully independent simulation
  (the HTM's what-if machinery depends on this);
* **advance idempotence / step-splitting invariance** — advancing to ``t``
  in one step or many yields the same state, and re-advancing to the current
  clock is a no-op.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.simulation.fluid import EPSILON, FluidNetwork, FluidStage, ProcessorSharingQueue

#: Work amounts that keep runtimes small but exercise real sharing.
works = st.floats(min_value=0.1, max_value=50.0, allow_nan=False, allow_infinity=False)
#: Small non-negative arrival offsets.
offsets = st.floats(min_value=0.0, max_value=20.0, allow_nan=False, allow_infinity=False)


def job_batches():
    """Lists of (arrival_offset, work) pairs describing a random queue program."""
    return st.lists(st.tuples(offsets, works), min_size=1, max_size=8)


def build_queue(batch, capacity=1.0, per_job_cap=None):
    queue = ProcessorSharingQueue(capacity=capacity, per_job_cap=per_job_cap)
    now = 0.0
    for index, (offset, work) in enumerate(batch):
        now += offset
        queue.add(index, work, now=now)
    return queue, now


class TestWorkConservation:
    @given(batch=job_batches(), capacity=st.floats(min_value=0.2, max_value=4.0))
    @settings(max_examples=60, deadline=None)
    def test_completed_work_never_exceeds_capacity_times_time(self, batch, capacity):
        queue = ProcessorSharingQueue(capacity=capacity)
        now = 0.0
        arrivals = {}
        completions = []
        for index, (offset, work) in enumerate(batch):
            now += offset
            completions.extend(queue.advance_to(now))
            queue.add(index, work, now=now)
            arrivals[index] = now
        completions.extend(queue.advance_to(now + 100_000.0))
        # Everything completes eventually...
        assert len(completions) == len(batch)
        # ...no job finishes before work/capacity seconds of service...
        for finished_at, key in completions:
            assert finished_at >= arrivals[key] + batch[key][1] / capacity - 1e-6
        # ...and the last completion cannot beat the aggregate-capacity bound
        # (the queue serves at most `capacity` units of work per second).
        total_work = sum(work for _, work in batch)
        last = max(t for t, _ in completions)
        assert last >= min(arrivals.values()) + total_work / capacity - 1e-6

    @given(work=works, n=st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_simultaneous_equal_jobs_finish_at_n_times_work(self, work, n):
        """n equal jobs sharing capacity 1 all finish at exactly n·work."""
        queue = ProcessorSharingQueue(capacity=1.0)
        for i in range(n):
            queue.add(i, work, now=0.0)
        completions = queue.advance_to(10_000.0)
        assert len(completions) == n
        for finished_at, _ in completions:
            assert finished_at == pytest.approx(n * work, rel=1e-9)


class TestMonotonicity:
    @given(batch=job_batches(), extra=works)
    @settings(max_examples=60, deadline=None)
    def test_added_load_never_speeds_up_existing_jobs_in_queue(self, batch, extra):
        queue_a, _ = build_queue(batch)
        queue_b, _ = build_queue(batch)
        queue_b.add("extra", extra, now=queue_b.time)
        done_a = dict((k, t) for t, k in queue_a.advance_to(100_000.0))
        done_b = dict((k, t) for t, k in queue_b.advance_to(100_000.0))
        for key, finished_a in done_a.items():
            if key == "extra":
                continue
            assert done_b[key] >= finished_a - 1e-6

    @given(
        batch=job_batches(),
        extra=works,
    )
    @settings(max_examples=40, deadline=None)
    def test_added_load_never_speeds_up_tasks_on_a_single_resource_network(self, batch, extra):
        """Single-resource networks inherit the queue's monotonicity."""

        def build(with_extra: bool):
            network = FluidNetwork({"cpu": 1.0})
            now = 0.0
            for i, (offset, work) in enumerate(batch):
                now += offset
                network.add_task(i, arrival=now, stages=(FluidStage("cpu", work),), now=now)
            if with_extra:
                network.add_task("extra", arrival=0.0, stages=(FluidStage("cpu", extra),))
            return network.run_to_completion()

        baseline = build(with_extra=False)
        loaded = build(with_extra=True)
        for key, completion in baseline.items():
            assert loaded[key] >= completion - 1e-6

    def test_multi_stage_networks_are_not_monotone_pipeline_anomaly(self):
        """Documented anomaly: in a *multi-stage* network, added load CAN make
        another task finish sooner.

        Hand-computed counterexample: without the extra job, task0 and task1
        leave the cpu together at t=5 and share ``net_out`` (both finish at 7).
        An extra 2 s cpu job delays task0 enough that task1 gets ``net_out``
        alone and finishes at 6.  This is why HTM perturbations may be
        (slightly) negative and why no network-level monotonicity invariant is
        asserted above.
        """

        def build(with_extra: bool):
            network = FluidNetwork({"net_in": 1.0, "cpu": 1.0, "net_out": 1.0})
            for i, (w_in, w_cpu, w_out) in enumerate([(1.0, 3.0, 1.0), (2.0, 1.0, 1.0)]):
                network.add_task(
                    i,
                    arrival=float(i),
                    stages=(
                        FluidStage("net_in", w_in),
                        FluidStage("cpu", w_cpu),
                        FluidStage("net_out", w_out),
                    ),
                )
            if with_extra:
                network.add_task("extra", arrival=0.0, stages=(FluidStage("cpu", 2.0),))
            return network.run_to_completion()

        baseline = build(with_extra=False)
        loaded = build(with_extra=True)
        assert baseline[1] == pytest.approx(7.0)
        assert loaded[1] == pytest.approx(6.0)  # sooner despite the added load
        assert loaded[0] >= baseline[0] - 1e-6


class TestCopyIndependence:
    @given(batch=job_batches())
    # A completion within EPSILON of the last arrival lands the clock at
    # 0.30000000000000004, just past ``now``.
    @example(batch=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.1), (0.3, 1.0)])
    @settings(max_examples=60, deadline=None)
    def test_queue_copy_is_independent(self, batch):
        queue, now = build_queue(batch)
        # advance_to's look-ahead may finish a job up to EPSILON past ``now``.
        assert now <= queue.time <= now + EPSILON
        time_before = queue.time
        snapshot = {k: queue.remaining(k) for k in queue.active_keys()}
        clone = queue.copy()
        clone.add("intruder", 99.0, now=now)
        clone.advance_to(now + 1_000.0)
        assert queue.time == time_before
        assert {k: queue.remaining(k) for k in queue.active_keys()} == snapshot

    @given(
        stage_works=st.lists(st.tuples(works, works), min_size=1, max_size=5),
        horizon=st.floats(min_value=0.0, max_value=100.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_network_copy_free_run_leaves_original_untouched(self, stage_works, horizon):
        network = FluidNetwork({"cpu": 1.0, "net_out": 1.0})
        for i, (w_cpu, w_out) in enumerate(stage_works):
            network.add_task(
                i, arrival=0.0, stages=(FluidStage("cpu", w_cpu), FluidStage("net_out", w_out))
            )
        network.advance_to(horizon)
        time_before = network.time
        version_before = network.version
        unfinished_before = list(network.unfinished_keys())

        clone = network.copy()
        clone_completions = clone.run_to_completion()

        assert network.time == time_before
        assert network.version == version_before
        assert list(network.unfinished_keys()) == unfinished_before
        # The clone's free run equals the original's own eventual free run.
        assert network.copy().run_to_completion() == clone_completions


class TestAdvanceIdempotence:
    @given(batch=job_batches(), split=st.integers(min_value=1, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_step_splitting_does_not_change_completions(self, batch, split):
        horizon = sum(o for o, _ in batch) + sum(w for _, w in batch) * len(batch) + 1.0
        queue_one, _ = build_queue(batch)
        one_shot = queue_one.advance_to(horizon)

        queue_many, now = build_queue(batch)
        many: list = []
        for i in range(1, split + 1):
            target = now + (horizon - now) * i / split
            many.extend(queue_many.advance_to(target))

        assert [k for _, k in one_shot] == [k for _, k in many]
        for (t1, _), (t2, _) in zip(one_shot, many):
            assert t1 == pytest.approx(t2, rel=1e-9, abs=1e-9)

    @given(batch=job_batches(), dt=st.floats(min_value=0.0, max_value=50.0))
    @example(batch=[(0.0, 1.0), (0.0, 1.0), (0.0, 0.1), (0.3, 1.0)], dt=0.0)
    @settings(max_examples=60, deadline=None)
    def test_clock_lands_within_epsilon_of_the_target(self, batch, dt):
        queue, now = build_queue(batch)
        target = now + dt
        completions = queue.advance_to(target)
        assert target <= queue.time <= target + EPSILON
        dates = [t for t, _ in completions]
        assert dates == sorted(dates)
        assert all(t <= queue.time for t in dates)

    @given(batch=job_batches(), dt=st.floats(min_value=0.0, max_value=50.0))
    @settings(max_examples=60, deadline=None)
    def test_re_advancing_to_the_current_clock_is_a_noop(self, batch, dt):
        queue, now = build_queue(batch)
        queue.advance_to(now + dt)
        state = {k: queue.remaining(k) for k in queue.active_keys()}
        assert queue.advance_to(queue.time) == []
        assert {k: queue.remaining(k) for k in queue.active_keys()} == state

    @given(stage_works=st.lists(st.tuples(works, works), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_network_advance_is_idempotent_and_monotone(self, stage_works):
        network = FluidNetwork({"cpu": 1.0, "net_out": 1.0})
        for i, (w_cpu, w_out) in enumerate(stage_works):
            network.add_task(
                i, arrival=0.0, stages=(FluidStage("cpu", w_cpu), FluidStage("net_out", w_out))
            )
        network.advance_to(5.0)
        assert network.advance_to(5.0) == []
        assert network.advance_to(network.time) == []
        completions = network.run_to_completion()
        assert set(completions) == set(range(len(stage_works)))
        assert all(c >= -EPSILON for c in completions.values())


class TestVersionCounter:
    def test_version_tracks_structural_mutations_only(self):
        network = FluidNetwork({"cpu": 1.0})
        v0 = network.version
        network.advance_to(10.0)
        assert network.version == v0  # pure clock movement
        network.add_task("a", arrival=10.0, stages=(FluidStage("cpu", 5.0),))
        assert network.version == v0 + 1
        network.advance_to(12.0)
        assert network.version == v0 + 1
        network.set_capacity("cpu", 2.0, now=12.0)
        assert network.version == v0 + 2
        network.remove_task("a", now=12.0)
        assert network.version == v0 + 3
        clone = network.copy()
        assert clone.version == network.version

    def test_forget_keeps_version_but_re_adding_bumps_it(self):
        """Forgetting a finished record changes nothing about the future, so
        caches keyed on the version stay valid across completion cleanups."""
        network = FluidNetwork({"cpu": 1.0})
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 1.0),))
        network.run_to_completion()
        before = network.version
        network.forget("a")
        assert network.version == before
        network.add_task("a", arrival=network.time, stages=(FluidStage("cpu", 1.0),))
        assert network.version == before + 1


#: Stage works of an HTM-shaped task, zero included (skipped stages).
stage_works = st.one_of(st.just(0.0), works)
#: ``(arrival offset, (input, compute, output))`` of one earlier task.
earlier_tasks = st.lists(
    st.tuples(offsets, st.tuples(stage_works, stage_works, stage_works)), max_size=5
)


def htm_network(cpu_count: int) -> FluidNetwork:
    """A server trace network as the HTM builds it."""
    return FluidNetwork(
        {"net_in": 1.0, "cpu": float(cpu_count), "net_out": 1.0}, per_job_caps={"cpu": 1.0}
    )


def task_stages(work_in, work_cpu, work_out, model_communication=True):
    if not model_communication:
        return (FluidStage("cpu", work_cpu),)
    return (
        FluidStage("net_in", work_in),
        FluidStage("cpu", work_cpu),
        FluidStage("net_out", work_out),
    )


class TestLoneCompletion:
    """``lone_completion`` is the simulated answer for a task alone, bit for bit."""

    @given(
        cpu_count=st.integers(min_value=1, max_value=4),
        earlier=earlier_tasks,
        settle=st.one_of(
            # just short of the last completion: it still lands, within
            # EPSILON past the target, and leaves a queue clock past ``now``
            st.floats(min_value=-0.9 * EPSILON, max_value=0.0),
            st.floats(min_value=0.0, max_value=20.0),
        ),
        new=st.tuples(stage_works, stage_works, stage_works),
        model_communication=st.booleans(),
    )
    # Two queues finish EPSILON/2 apart: the later one's clock ends past the
    # network clock, and the new task's cpu stage must start from it.
    @example(
        cpu_count=1,
        earlier=[(0.0, (1.0, 0.0, 0.0)), (0.0, (0.0, 1.0 + 0.5 * EPSILON, 0.0))],
        settle=-0.5 * EPSILON,
        new=(0.0, 2.0, 0.0),
        model_communication=True,
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_the_what_if_simulation(
        self, cpu_count, earlier, settle, new, model_communication
    ):
        network = htm_network(cpu_count)
        now = 0.0
        for key, (offset, works_in) in enumerate(earlier):
            now += offset
            network.add_task(
                key, arrival=now, stages=task_stages(*works_in, model_communication), now=now
            )
        last = max(network.copy().run_to_completion().values(), default=now)
        network.advance_to(max(now, last + settle))
        assert network.unfinished_keys() == []

        stages = task_stages(*new, model_communication)
        what_if = network.copy()
        what_if.add_task("new", arrival=network.time, stages=stages)
        assert network.lone_completion(stages) == what_if.run_to_completion()["new"]

    def test_all_zero_work_completes_at_the_clock(self):
        network = htm_network(2)
        network.advance_to(3.0)
        assert network.lone_completion(task_stages(0.0, 0.0, 0.0)) == 3.0

    def test_zero_capacity_never_completes(self):
        network = htm_network(1)
        network.set_capacity("cpu", 0.0, now=0.0)
        stages = task_stages(1.0, 2.0, 1.0)
        assert network.lone_completion(stages) == math.inf
        network.add_task("new", arrival=0.0, stages=stages)
        assert "new" not in network.run_to_completion()
