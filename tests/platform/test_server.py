"""Tests of the ground-truth compute server."""

from __future__ import annotations

import pytest

from repro.errors import TaskRejected
from repro.platform.faults import MemoryModel, SpeedNoiseModel
from repro.platform.server import ComputeServer
from repro.platform.spec import PAPER_MACHINES, MachineSpec, MachineRole
from repro.simulation import Environment, RandomStreams
from repro.workload.problems import PAPER_CATALOGUE, matmul_problem
from repro.workload.tasks import Task, TaskStatus


def make_server(env, name="artimon", memory=None, noise=None, spec=None, problems=None):
    spec = spec or PAPER_MACHINES[name]
    return ComputeServer(
        env=env,
        spec=spec,
        problems=problems or [p.name for p in PAPER_CATALOGUE],
        catalogue=PAPER_CATALOGUE,
        memory_model=memory,
        noise_model=noise,
        rng=RandomStreams(0)[f"noise/{name}"],
    )


def make_task(task_id, size=1200, arrival=0.0):
    task = Task(task_id=task_id, problem=matmul_problem(size), arrival=arrival)
    return task


class TestSingleTaskExecution:
    def test_single_task_finishes_after_unloaded_duration(self, env):
        server = make_server(env)
        completions = []
        server.on_completion.append(lambda task, at: completions.append((task.task_id, at)))
        task = make_task("t1")
        task.new_attempt("artimon", 0.0)
        server.submit(task)
        env.run()
        # matmul-1200 on artimon: 3 + 18 + 1 = 22 seconds.
        assert completions == [("t1", pytest.approx(22.0))]
        assert task.completed
        assert task.completion_time == pytest.approx(22.0)
        assert task.attempts[-1].input_done_at == pytest.approx(3.0)
        assert task.attempts[-1].compute_done_at == pytest.approx(21.0)

    def test_two_tasks_share_every_phase(self, env):
        server = make_server(env)
        tasks = [make_task("a"), make_task("b")]
        for task in tasks:
            task.new_attempt("artimon", 0.0)
            server.submit(task)
        env.run()
        # shared: input 6, compute 36, output 2 -> both complete at 44.
        for task in tasks:
            assert task.completion_time == pytest.approx(44.0)

    def test_submission_mid_flight_shares_only_the_overlap(self, env):
        server = make_server(env)
        first = make_task("first", size=1800)  # 8 + 53 + 2 on artimon
        first.new_attempt("artimon", 0.0)
        server.submit(first)

        def late_submission():
            second = make_task("second", size=1200, arrival=30.0)
            second.new_attempt("artimon", 30.0)
            server.submit(second)

        env.call_in(30.0, late_submission)
        env.run()
        assert first.completed and first.completion_time > 63.0

    def test_server_stats_track_completions(self, env):
        server = make_server(env)
        task = make_task("t1")
        task.new_attempt("artimon", 0.0)
        server.submit(task)
        env.run()
        assert server.stats.submitted == 1
        assert server.stats.completed == 1
        assert server.stats.failed == 0
        assert server.stats.busy_compute_seconds == pytest.approx(18.0)


class TestRejections:
    def test_unknown_problem_is_rejected(self, env):
        server = make_server(env, problems=["matmul-1500"])
        task = make_task("t1", size=1200)
        task.new_attempt("artimon", 0.0)
        with pytest.raises(TaskRejected):
            server.submit(task)
        assert server.stats.rejected == 1

    def test_memory_reject_mode_refuses_overflow(self, env):
        tiny = MachineSpec(
            "tiny", "test", 500.0, memory_mb=100.0, swap_mb=0.0, role=MachineRole.SERVER,
            os_reserved_mb=0.0,
        )
        # matmul-1200 needs ~33 MB: the fourth concurrent task overflows 100 MB.
        server = make_server(
            env, spec=tiny, memory=MemoryModel(enabled=True, collapse=False),
            problems=["matmul-1200"],
        )
        accepted = 0
        for i in range(4):
            task = make_task(f"t{i}")
            task.new_attempt("tiny", 0.0)
            try:
                server.submit(task)
                accepted += 1
            except TaskRejected:
                pass
        assert accepted == 3
        assert server.stats.rejected == 1


class TestCollapse:
    def _overloaded_server(self, env):
        tiny = MachineSpec(
            "tiny", "test", 500.0, memory_mb=100.0, swap_mb=20.0, role=MachineRole.SERVER,
            os_reserved_mb=0.0,
        )
        return make_server(
            env, spec=tiny,
            memory=MemoryModel(enabled=True, collapse=True, recovery_s=50.0),
            problems=["matmul-1200"],
        )

    def test_collapse_fails_every_resident_task(self, env):
        server = self._overloaded_server(env)
        failures, collapses = [], []
        server.on_failure.append(lambda task, at, reason: failures.append(task.task_id))
        server.on_collapse.append(lambda srv, at: collapses.append(at))
        tasks = []
        for i in range(4):  # 4 x 33 MB > 120 MB
            task = make_task(f"t{i}")
            task.new_attempt("tiny", 0.0)
            tasks.append(task)
            server.submit(task)
        assert collapses and not server.is_up
        assert len(failures) == 4
        assert all(t.status is TaskStatus.FAILED for t in tasks)
        assert server.stats.collapses == 1

    def test_collapsed_server_rejects_submissions_until_recovery(self, env):
        server = self._overloaded_server(env)
        for i in range(4):
            task = make_task(f"t{i}")
            task.new_attempt("tiny", 0.0)
            server.submit(task)
        late = make_task("late")
        late.new_attempt("tiny", 0.0)
        with pytest.raises(TaskRejected):
            server.submit(late)

        recovered = []
        server.on_recovery.append(lambda srv, at: recovered.append(at))
        env.run(until=100.0)
        assert server.is_up
        assert recovered == [pytest.approx(50.0)]

    def test_thrashing_slows_the_cpu_down(self, env):
        tiny = MachineSpec(
            "tiny", "test", 500.0, memory_mb=60.0, swap_mb=1000.0, role=MachineRole.SERVER,
            os_reserved_mb=0.0,
        )
        server = make_server(
            env, spec=tiny,
            memory=MemoryModel(enabled=True, thrashing=True, collapse=True),
            problems=["matmul-1200"],
        )
        for i in range(3):  # ~99 MB resident > 60 MB physical -> thrashing
            task = make_task(f"t{i}")
            task.new_attempt("tiny", 0.0)
            server.submit(task)
        assert server.cpu_capacity() < 1.0


class TestMonitoringViews:
    def test_cpu_task_count_and_resident_memory(self, env):
        server = make_server(env, memory=MemoryModel(enabled=True))
        task = make_task("t1")
        task.new_attempt("artimon", 0.0)
        server.submit(task)
        assert server.resident_task_count() == 1
        assert server.resident_memory_mb() == pytest.approx(matmul_problem(1200).memory_mb)
        env.run()
        assert server.resident_task_count() == 0
        assert server.resident_memory_mb() == pytest.approx(0.0)

    def test_load_average_rises_with_running_tasks(self, env):
        server = make_server(env)
        assert server.load_average() == pytest.approx(0.0)
        for i in range(3):
            task = make_task(f"t{i}", size=1800)
            task.new_attempt("artimon", 0.0)
            server.submit(task)

        env.run(until=60.0)
        assert server.load_average() > 1.0

    def test_speed_noise_changes_completion_times(self, env):
        noisy = make_server(env, noise=SpeedNoiseModel(relative_sigma=0.3, period_s=5.0))
        task = make_task("t1", size=1800)
        task.new_attempt("artimon", 0.0)
        noisy.submit(task)
        env.run(until=500.0)
        assert task.completed
        assert task.completion_time != pytest.approx(63.0, abs=1e-6)

    def test_speed_noise_is_redrawn_every_period(self, env):
        server = make_server(env, noise=SpeedNoiseModel(relative_sigma=0.3, period_s=5.0))
        nominal = float(server.spec.cpu_count)
        env.run(until=4.0)
        # An idle noisy server's only calendar entry is its next redraw.
        assert env.peek() == 5.0
        assert server.cpu_capacity() == nominal
        env.run(until=12.0)
        assert env.peek() == 15.0
        assert server.cpu_capacity() != pytest.approx(nominal)

    def test_noise_free_server_schedules_nothing(self, env):
        make_server(env, noise=SpeedNoiseModel(relative_sigma=0.0, period_s=5.0))
        make_server(env, name="pulney")
        assert env.peek() == float("inf")

    def test_costs_for_problem_spec_matches_catalogue(self, env):
        server = make_server(env)
        costs = server.costs_for_problem_spec(matmul_problem(1500))
        assert costs.compute_s == 33.0
        assert server.costs_for("matmul-1500").compute_s == 33.0
