"""Integration tests of the full middleware (client → agent → servers)."""

from __future__ import annotations

import pytest

from repro.core.heuristics import PAPER_HEURISTICS
from repro.errors import PlatformError
from repro.platform.faults import FaultTolerancePolicy, MemoryModel
from repro.platform.middleware import GridMiddleware, MiddlewareConfig
from repro.platform.spec import MachineRole, MachineSpec, PlatformSpec
from repro.workload.problems import matmul_problem
from repro.workload.tasks import Task, TaskStatus
from repro.workload.testbed import first_set_platform, matmul_metatask, wastecpu_metatask


class TestBasicRuns:
    @pytest.mark.parametrize("heuristic", PAPER_HEURISTICS)
    def test_every_paper_heuristic_completes_a_small_metatask(
        self, heuristic, first_platform, small_matmul_metatask, quiet_config
    ):
        middleware = GridMiddleware(first_platform, heuristic, config=quiet_config)
        result = middleware.run(small_matmul_metatask)
        assert result.heuristic == heuristic
        assert result.completed_count == len(small_matmul_metatask)
        assert result.failed_count == 0
        assert result.duration > 0
        # every task carries a full lifecycle record
        for task in result.tasks:
            assert task.status is TaskStatus.COMPLETED
            assert task.completion_time >= task.arrival
            assert task.server in first_platform.server_names()

    def test_second_set_platform_runs_wastecpu(self, second_platform, small_wastecpu_metatask, quiet_config):
        result = GridMiddleware(second_platform, "msf", config=quiet_config).run(
            small_wastecpu_metatask
        )
        assert result.completed_count == len(small_wastecpu_metatask)

    def test_run_result_accessors(self, first_platform, small_matmul_metatask, quiet_config):
        result = GridMiddleware(first_platform, "hmct", config=quiet_config).run(
            small_matmul_metatask
        )
        some_task = result.tasks[0]
        assert result.task_by_id(some_task.task_id) is some_task
        with pytest.raises(KeyError):
            result.task_by_id("missing")
        assert sum(result.agent_decisions.values()) >= len(result.tasks)
        assert set(result.server_stats) == set(first_platform.server_names())

    def test_middleware_cannot_run_twice(self, first_platform, small_matmul_metatask, quiet_config):
        middleware = GridMiddleware(first_platform, "mct", config=quiet_config)
        middleware.run(small_matmul_metatask)
        with pytest.raises(PlatformError):
            middleware.run(small_matmul_metatask)

    def test_same_seed_is_reproducible(self, first_platform, small_matmul_metatask):
        config = MiddlewareConfig(seed=11)
        first = GridMiddleware(first_platform, "msf", config=config).run(small_matmul_metatask)
        second = GridMiddleware(first_platform, "msf", config=config).run(small_matmul_metatask)
        completions_a = {t.task_id: t.completion_time for t in first.tasks}
        completions_b = {t.task_id: t.completion_time for t in second.tasks}
        assert completions_a == completions_b

    def test_different_heuristics_make_different_decisions(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        mct = GridMiddleware(first_platform, "mct", config=quiet_config).run(small_matmul_metatask)
        mp = GridMiddleware(first_platform, "mp", config=quiet_config).run(small_matmul_metatask)
        assert mct.agent_decisions != mp.agent_decisions


class TestDeterministicTimings:
    def test_single_task_end_to_end_duration(self, quiet_config, rng):
        """A lone task on a quiet platform completes after its unloaded duration."""
        platform = first_set_platform()
        metatask = matmul_metatask(count=1, mean_interarrival=20.0, rng=rng)
        result = GridMiddleware(platform, "hmct", config=quiet_config).run(metatask)
        task = result.tasks[0]
        # HMCT maps the single task on its fastest server (pulney: 18 s).
        assert task.server == "pulney"
        assert task.flow == pytest.approx(18.0, abs=1e-6)


class TestFaultTolerance:
    def _pressure_config(self, **kwargs):
        return MiddlewareConfig(
            memory_enabled=True,
            memory_model=MemoryModel(enabled=True, collapse=True, recovery_s=60.0),
            noise_model=None,
            monitor_jitter_s=0.0,
            seed=3,
            **kwargs,
        )

    def test_mct_retries_after_collapses_but_hmct_does_not(self, rng):
        platform = first_set_platform()
        # A fast burst of memory-hungry tasks triggers collapses on the fast servers.
        metatask = matmul_metatask(count=80, mean_interarrival=2.0, rng=rng)
        mct_result = GridMiddleware(platform, "mct", config=self._pressure_config()).run(metatask)
        hmct_result = GridMiddleware(platform, "hmct", config=self._pressure_config()).run(metatask)

        mct_collapses = sum(s["collapses"] for s in mct_result.server_stats.values())
        hmct_collapses = sum(s["collapses"] for s in hmct_result.server_stats.values())
        assert mct_collapses >= 1
        assert hmct_collapses >= 1
        # MCT benefits from NetSolve fault tolerance: some tasks have several attempts.
        assert any(t.n_attempts > 1 for t in mct_result.tasks)
        # The new heuristics do not (paper protocol): failed tasks stay failed.
        assert all(t.n_attempts == 1 for t in hmct_result.tasks)
        assert hmct_result.failed_count >= 1
        assert mct_result.completed_count >= hmct_result.completed_count

    def test_disabling_fault_tolerance_for_mct(self, rng):
        platform = first_set_platform()
        metatask = matmul_metatask(count=80, mean_interarrival=2.0, rng=rng)
        config = self._pressure_config(fault_tolerant_heuristics=())
        result = GridMiddleware(platform, "mct", config=config).run(metatask)
        assert all(t.n_attempts == 1 for t in result.tasks)

    def test_fault_policy_selection_logic(self):
        config = MiddlewareConfig()
        assert config.fault_policy_for("mct").enabled
        assert not config.fault_policy_for("msf").enabled
        policy = FaultTolerancePolicy(max_attempts=2)
        assert policy.should_retry(1)
        assert not policy.should_retry(2)
        assert not FaultTolerancePolicy.disabled().should_retry(0)

    def test_memory_disabled_config_never_collapses(self, rng):
        platform = first_set_platform()
        metatask = matmul_metatask(count=80, mean_interarrival=2.0, rng=rng)
        config = MiddlewareConfig(memory_enabled=False, noise_model=None, seed=3)
        result = GridMiddleware(platform, "mct", config=config).run(metatask)
        assert result.completed_count == 80
        assert sum(s["collapses"] for s in result.server_stats.values()) == 0


class TestRetryStatusWindow:
    """Regression: a retried task must stay FAILED during the back-off delay.

    The old code flipped the task to SUBMITTED the instant the failure was
    observed, ``retry_delay_s`` seconds before the deferred dispatch actually
    fired — so a concurrent terminal check during the window saw the task as
    in flight although nothing was scheduled to run it yet.
    """

    def _rejecting_middleware(self):
        # A platform whose only server cannot fit any task within memory +
        # swap: with collapse disabled, every submission is rejected ("not
        # enough memory") while the server stays up — so the middleware keeps
        # scheduling retries through the fault-tolerance back-off.
        platform = PlatformSpec(
            machines={
                "pulney": MachineSpec("pulney", "tiny-memory", 500.0, memory_mb=70.0, swap_mb=0.0),
                "dispatch": MachineSpec(
                    "dispatch", "synthetic", 1000.0, 1024.0, 1024.0, MachineRole.AGENT
                ),
                "zanzibar": MachineSpec(
                    "zanzibar", "synthetic", 1000.0, 1024.0, 1024.0, MachineRole.CLIENT
                ),
            }
        )
        config = MiddlewareConfig(
            noise_model=None,
            seed=1,
            memory_model=MemoryModel(enabled=True, collapse=False),
            monitor_jitter_s=0.0,
        )
        return GridMiddleware(platform, "mct", config=config)

    def test_task_reports_failed_during_the_backoff_window(self):
        middleware = self._rejecting_middleware()
        delay = middleware.fault_policy.retry_delay_s
        task = Task("t-000001", matmul_problem(1200), arrival=0.0)
        middleware.submit(task)
        assert task.n_attempts == 1
        assert task.status is TaskStatus.FAILED  # was SUBMITTED before the fix
        middleware.env.run(until=delay / 2)
        assert task.status is TaskStatus.FAILED

    def test_deferred_dispatch_fires_after_the_delay(self):
        middleware = self._rejecting_middleware()
        delay = middleware.fault_policy.retry_delay_s
        task = Task("t-000001", matmul_problem(1200), arrival=0.0)
        middleware.submit(task)
        middleware.env.run(until=delay + 1.0)
        # The retry really happened: a second attempt was made (and rejected
        # again, since every server is still down).
        assert task.n_attempts == 2
        assert task.status is TaskStatus.FAILED


class TestRunEnd:
    def test_run_ends_at_the_last_terminal_event(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        result = GridMiddleware(first_platform, "mct", config=quiet_config).run(
            small_matmul_metatask
        )
        assert result.duration == max(task.completion_time for task in result.tasks)
        assert result.duration < quiet_config.max_horizon_s

    def test_run_stops_with_the_periodic_callbacks_still_queued(
        self, first_platform, small_matmul_metatask, quiet_config
    ):
        middleware = GridMiddleware(first_platform, "mct", config=quiet_config)
        result = middleware.run(small_matmul_metatask)
        # The monitors reschedule themselves forever: the run ended by
        # stopping the calendar, not by draining it.
        next_date = middleware.env.peek()
        assert result.duration <= next_date <= result.duration + quiet_config.monitor_period_s

    def test_zero_delay_follow_ups_at_the_horizon_still_run(self):
        config = MiddlewareConfig(noise_model=None, seed=1, max_horizon_s=5.0)
        middleware = GridMiddleware(first_set_platform(), "msf", config=config)
        seen = []
        middleware.env.call_in(
            5.0, lambda: middleware.env.call_in(0.0, lambda: seen.append(middleware.env.now))
        )
        result = middleware.run(
            [Task("t-000000", matmul_problem(1500), arrival=0.0, client="zanzibar")]
        )
        assert result.truncated
        assert seen == [5.0]

    def test_empty_run_ends_at_time_zero(self, first_platform, quiet_config):
        result = GridMiddleware(first_platform, "mct", config=quiet_config).run([])
        assert result.duration == 0.0
        assert result.truncated is False
        assert result.tasks == []


class TestHorizonTruncation:
    """Regression: when ``max_horizon_s`` fires, in-flight tasks must be
    finalised as failed (reason ``"horizon"``) and the run flagged."""

    def _long_tasks(self, count: int = 3):
        return [
            Task(f"t-{i:06d}", matmul_problem(1500), arrival=0.0, client="zanzibar")
            for i in range(count)
        ]

    def test_in_flight_tasks_are_finalized_as_failed(self):
        config = MiddlewareConfig(noise_model=None, seed=1, max_horizon_s=5.0)
        result = GridMiddleware(first_set_platform(), "msf", config=config).run(
            self._long_tasks()
        )
        assert result.truncated
        assert result.completed_count == 0
        assert result.duration == pytest.approx(5.0)
        for task in result.tasks:
            assert task.status is TaskStatus.FAILED
            assert task.attempts, "tasks were mapped before the horizon fired"
            assert task.attempts[-1].failure_reason == "horizon"
            assert task.attempts[-1].failed_at == pytest.approx(5.0)

    def test_complete_runs_are_not_flagged(self, first_platform, small_matmul_metatask, quiet_config):
        result = GridMiddleware(first_platform, "msf", config=quiet_config).run(
            small_matmul_metatask
        )
        assert not result.truncated
        assert result.completed_count == len(small_matmul_metatask)
