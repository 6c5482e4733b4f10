"""Unit and property tests of the multi-stage fluid network."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.simulation import fluid_legacy
from repro.simulation.fluid import FluidNetwork, FluidStage


def three_phase(input_s: float, compute_s: float, output_s: float):
    return (
        FluidStage("net_in", input_s),
        FluidStage("cpu", compute_s),
        FluidStage("net_out", output_s),
    )


def make_network(cpu_capacity: float = 1.0, per_cpu_cap=None) -> FluidNetwork:
    caps = {"net_in": 1.0, "cpu": cpu_capacity, "net_out": 1.0}
    per_job = {"cpu": per_cpu_cap} if per_cpu_cap is not None else None
    return FluidNetwork(caps, per_job_caps=per_job)


class TestSingleTask:
    def test_completion_is_sum_of_stage_works(self):
        network = make_network()
        network.add_task("t", arrival=0.0, stages=three_phase(5.0, 10.0, 2.0))
        completions = network.run_to_completion()
        assert completions["t"] == pytest.approx(17.0)

    def test_stage_finish_times_are_recorded_in_order(self):
        network = make_network()
        network.add_task("t", arrival=0.0, stages=three_phase(5.0, 10.0, 2.0))
        network.run_to_completion()
        state = network.task("t")
        assert state.stage_finish_times == [pytest.approx(5.0), pytest.approx(15.0), pytest.approx(17.0)]
        assert state.finished

    def test_future_arrival_waits(self):
        network = make_network()
        network.add_task("t", arrival=30.0, stages=three_phase(1.0, 2.0, 1.0))
        network.advance_to(10.0)
        assert not network.task("t").started
        completions = network.run_to_completion()
        assert completions["t"] == pytest.approx(34.0)

    def test_zero_work_stages_are_skipped(self):
        network = make_network()
        network.add_task("t", arrival=0.0, stages=three_phase(0.0, 10.0, 0.0))
        completions = network.run_to_completion()
        assert completions["t"] == pytest.approx(10.0)

    def test_task_with_only_zero_work_completes_instantly(self):
        network = make_network()
        events = network.add_task("t", arrival=0.0, stages=three_phase(0.0, 0.0, 0.0), now=0.0)
        assert network.task("t").finished
        assert any(e.task_finished for e in events)


class TestSharing:
    def test_two_identical_tasks_share_every_phase(self):
        network = make_network()
        for key in ("a", "b"):
            network.add_task(key, arrival=0.0, stages=three_phase(5.0, 10.0, 2.0))
        completions = network.run_to_completion()
        # every phase is shared by both tasks: 10 + 20 + 4
        assert completions["a"] == pytest.approx(34.0)
        assert completions["b"] == pytest.approx(34.0)

    def test_phases_on_different_resources_do_not_interfere(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        network.add_task("b", arrival=0.0, stages=(FluidStage("net_in", 10.0),))
        completions = network.run_to_completion()
        assert completions["a"] == pytest.approx(10.0)
        assert completions["b"] == pytest.approx(10.0)

    def test_fig1_scenario_remaining_durations(self):
        """The Section 2.3 example: late task shares with the earlier one."""
        network = make_network()
        network.add_task("t1", arrival=0.0, stages=(FluidStage("cpu", 100.0),))
        network.add_task("t3", arrival=80.0, stages=(FluidStage("cpu", 100.0),))
        completions = network.run_to_completion()
        # t1 has 20s left at t=80, shared -> finishes at 120; t3 then alone.
        assert completions["t1"] == pytest.approx(120.0)
        assert completions["t3"] == pytest.approx(200.0)

    def test_dual_cpu_cap_lets_two_tasks_run_at_full_speed(self):
        network = make_network(cpu_capacity=2.0, per_cpu_cap=1.0)
        for key in ("a", "b"):
            network.add_task(key, arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        completions = network.run_to_completion()
        assert completions["a"] == pytest.approx(10.0)
        assert completions["b"] == pytest.approx(10.0)


class TestMutation:
    def test_remove_running_task_frees_capacity(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        network.add_task("b", arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        network.remove_task("b", now=4.0)
        completions = network.run_to_completion()
        # a progressed 2 units by t=4, then runs alone: 4 + 8 = 12.
        assert completions["a"] == pytest.approx(12.0)
        assert "b" not in network

    def test_set_capacity_slows_down_completion(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        network.set_capacity("cpu", 0.5, now=5.0)
        completions = network.run_to_completion()
        assert completions["a"] == pytest.approx(15.0)

    def test_forget_requires_finished_task(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 10.0),))
        with pytest.raises(SimulationError):
            network.forget("a")
        network.run_to_completion()
        network.forget("a")
        assert "a" not in network

    def test_duplicate_task_rejected(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 1.0),))
        with pytest.raises(SimulationError):
            network.add_task("a", arrival=0.0, stages=(FluidStage("cpu", 1.0),))

    def test_unknown_resource_rejected(self):
        network = make_network()
        with pytest.raises(KeyError):
            network.add_task("a", arrival=0.0, stages=(FluidStage("gpu", 1.0),))

    def test_empty_stage_list_rejected(self):
        network = make_network()
        with pytest.raises(ValueError):
            network.add_task("a", arrival=0.0, stages=())

    def test_copy_is_independent_of_original(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=three_phase(1.0, 5.0, 1.0))
        clone = network.copy()
        clone.add_task("b", arrival=0.0, stages=three_phase(1.0, 5.0, 1.0))
        clone.run_to_completion()
        assert "b" not in network
        assert not network.task("a").finished
        assert clone.task("a").finished

    def test_backwards_advance_rejected(self):
        network = make_network()
        network.advance_to(10.0)
        with pytest.raises(SimulationError):
            network.advance_to(1.0)
        with pytest.raises(SimulationError):
            network.advance_to(10.0 - 2e-6)
        network.advance_to(10.0 - 5e-7)  # within the tolerance: a no-op
        assert network.time == 10.0

    def test_remove_then_readd_pending_key_uses_the_new_arrival(self):
        """Regression: a stale arrival-heap entry of a removed pending task
        must not resurrect when the same key is re-added with a later date."""
        network = make_network()
        network.add_task("x", arrival=10.0, stages=(FluidStage("cpu", 1.0),))
        network.remove_task("x", now=0.0)
        network.add_task("x", arrival=20.0, stages=(FluidStage("cpu", 1.0),))
        network.advance_to(12.0)  # crashed with 'advance backwards' before the fix
        assert not network.task("x").started
        completions = network.run_to_completion()
        assert completions["x"] == pytest.approx(21.0)


class TestEvents:
    def test_events_report_stage_and_task_completions(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=three_phase(2.0, 3.0, 1.0))
        events = network.advance_to(10.0)
        stage_events = [e for e in events if not e.task_finished]
        final_events = [e for e in events if e.task_finished]
        assert [e.resource for e in stage_events] == ["net_in", "cpu"]
        assert len(final_events) == 1
        assert final_events[0].time == pytest.approx(6.0)

    def test_next_event_time_tracks_pending_arrival(self):
        network = make_network()
        network.add_task("a", arrival=12.0, stages=(FluidStage("cpu", 1.0),))
        assert network.next_event_time() == pytest.approx(12.0)

    def test_next_event_time_is_infinite_when_idle(self):
        assert make_network().next_event_time() == math.inf


class TestIdleNetwork:
    """An idle queue only moves its clock when the network advances."""

    def test_idle_queue_keeps_its_own_backwards_check(self):
        network = make_network()
        network._queues["cpu"].advance_to(20.0)  # a queue clock ahead of the network
        with pytest.raises(SimulationError):
            network.advance_to(15.0)

    def test_advance_moves_every_idle_queue_clock(self):
        network = make_network(cpu_capacity=2.0, per_cpu_cap=1.0)
        network.advance_to(7.5)
        assert network.time == 7.5
        assert {name: queue.time for name, queue in network._queues.items()} == {
            "net_in": 7.5,
            "cpu": 7.5,
            "net_out": 7.5,
        }
        for index, resource in enumerate(network.resources):
            network.add_task(index, arrival=7.5, stages=(FluidStage(resource, 1.25),))
        assert network.run_to_completion() == {0: 8.75, 1: 8.75, 2: 8.75}


class TestClosingPass:
    """``advance_to`` ends with a pass to its target only when it can move something."""

    def test_job_due_within_epsilon_of_a_queue_clock_past_now_completes(self):
        # "b" shares 4.0 between q1 and q2: q1 completes 0.5e-9 after the
        # target, so b's clock ends past it, with q2 due 0.75e-9 later —
        # within EPSILON of b's clock but not of the target.
        network = FluidNetwork({"a": 1.0, "b": 4.0})
        network.add_task("p", arrival=0.0, stages=(FluidStage("a", 1.0),))
        network.add_task("q1", arrival=0.0, stages=(FluidStage("b", 2.0 + 1e-9),))
        network.add_task("q2", arrival=0.0, stages=(FluidStage("b", 2.0 + 4e-9),))
        events = network.advance_to(1.0)
        assert [(event.key, event.time.hex()) for event in events] == [
            ("p", "0x1.0000000000000p+0"),
            ("q1", "0x1.0000000225c18p+0"),
            ("q2", "0x1.000000055e63cp+0"),
        ]
        assert network.time == 1.0

    def test_pass_is_skipped_when_nothing_can_move(self):
        network = make_network()
        network.add_task("a", arrival=0.0, stages=three_phase(1.0, 2.0, 1.0))
        network.advance_to(0.5)  # the clock is below the target: one pass
        assert network.counters()["steps"] == 1
        assert network.advance_to(0.5) == []
        assert network.counters()["steps"] == 1
        assert network.run_to_completion() == {"a": 4.0}
        assert network.counters()["steps"] == 4  # one pass per stage completion


class TestActiveCount:
    def test_pending_task_counts_once(self):
        network = make_network()
        network.add_task("later", arrival=30.0, stages=three_phase(1.0, 2.0, 1.0))
        assert network.unfinished_keys() == ["later"]
        assert network.active_count() == 1
        network.add_task("now", arrival=0.0, stages=three_phase(1.0, 2.0, 1.0))
        assert network.active_count() == 2
        assert network.active_count("net_in") == 1
        network.run_to_completion()
        assert network.active_count() == 0

    def test_legacy_core_agrees(self):
        network = fluid_legacy.FluidNetwork({"net_in": 1.0, "cpu": 1.0, "net_out": 1.0})
        stages = [fluid_legacy.FluidStage(name, 1.0) for name in ("net_in", "cpu", "net_out")]
        network.add_task("later", arrival=30.0, stages=stages)
        assert network.active_count() == len(network.unfinished_keys()) == 1


class TestProperties:
    @given(
        works=st.lists(
            st.tuples(
                st.floats(min_value=0.1, max_value=10.0),
                st.floats(min_value=0.1, max_value=30.0),
                st.floats(min_value=0.1, max_value=5.0),
            ),
            min_size=1,
            max_size=6,
        ),
        gaps=st.lists(st.floats(min_value=0.0, max_value=15.0), min_size=1, max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_completion_never_before_arrival_plus_unloaded_duration(self, works, gaps):
        n = min(len(works), len(gaps))
        works, gaps = works[:n], gaps[:n]
        arrivals = [sum(gaps[: i + 1]) for i in range(n)]
        network = make_network()
        for i, (stages, arrival) in enumerate(zip(works, arrivals)):
            network.add_task(i, arrival=arrival, stages=three_phase(*stages))
        completions = network.run_to_completion()
        assert len(completions) == n
        for i, (stages, arrival) in enumerate(zip(works, arrivals)):
            assert completions[i] >= arrival + sum(stages) - 1e-6

    @given(
        works=st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1, max_size=6),
        extra=st.floats(min_value=0.1, max_value=30.0),
        extra_arrival=st.floats(min_value=0.0, max_value=40.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_adding_a_compute_task_never_speeds_up_existing_ones(self, works, extra, extra_arrival):
        """On a single shared resource the perturbation is always non-negative.

        (With multi-stage tasks the perturbation of an individual task can be
        slightly negative — delaying a competitor on the input link can free
        the CPU — which is why this invariant is stated per resource.)
        """
        base = make_network()
        for i, work in enumerate(works):
            base.add_task(i, arrival=float(i), stages=(FluidStage("cpu", work),))
        with_extra = base.copy()
        with_extra.add_task("extra", arrival=extra_arrival, stages=(FluidStage("cpu", extra),))
        before = base.run_to_completion()
        after = with_extra.run_to_completion()
        for i in range(len(works)):
            assert after[i] >= before[i] - 1e-6
