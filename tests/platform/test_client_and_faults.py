"""Tests of the client, the fault models and the package surface."""

from __future__ import annotations

import pytest

import repro
from repro.errors import TaskRejected
from repro.platform.client import Client
from repro.platform.faults import FaultTolerancePolicy, MemoryModel, SpeedNoiseModel
from repro.simulation import Environment, RandomStreams
from repro.workload.problems import matmul_problem
from repro.workload.tasks import Task


class TestClient:
    def test_tasks_are_submitted_at_their_arrival_dates(self, env):
        tasks = [
            Task("a", matmul_problem(1200), arrival=5.0),
            Task("b", matmul_problem(1500), arrival=1.0),
            Task("c", matmul_problem(1800), arrival=9.0),
        ]
        submissions = []
        client = Client(env, "zanzibar", tasks, submit=lambda t: submissions.append((t.task_id, env.now)))
        env.run()
        assert submissions == [("b", 1.0), ("a", 5.0), ("c", 9.0)]
        assert client.submitted == 3

    def test_client_name_is_stamped_on_tasks(self, env):
        task = Task("a", matmul_problem(1200), arrival=0.0, client="other")
        Client(env, "zanzibar", [task], submit=lambda t: None)
        env.run()
        assert task.client == "zanzibar"

    def test_simultaneous_arrivals_are_submitted_in_id_order(self, env):
        tasks = [Task(i, matmul_problem(1200), arrival=2.0) for i in ("b", "a")]
        order = []
        Client(env, "c", tasks, submit=lambda t: order.append(t.task_id))
        env.run()
        assert order == ["a", "b"]

    def test_tasks_due_at_start_precede_normal_callbacks_at_time_zero(self, env):
        order = []
        env.call_in(0.0, lambda: order.append("normal"))
        tasks = [Task(i, matmul_problem(1200), arrival=0.0) for i in ("a", "b")]
        Client(env, "c", tasks, submit=lambda t: order.append(t.task_id))
        env.run()
        assert order == ["a", "b", "normal"]

    def test_client_without_tasks_submits_nothing(self, env):
        client = Client(env, "c", [], submit=lambda t: pytest.fail("nothing to submit"))
        env.run()
        assert client.submitted == 0
        assert env.now == 0.0 and env.peek() == float("inf")

    def test_inexact_float_arrivals_are_each_submitted_once_in_order(self, env):
        # 0.1 + 0.2 != 0.3: the awaited task is submitted when its callback
        # fires, even if ``now`` differs from its arrival in the last bit.
        arrivals = [0.1, 0.1 + 0.2, 0.3, 0.7, 0.1 * 7]
        tasks = [Task(f"t{i}", matmul_problem(1200), arrival=a) for i, a in enumerate(arrivals)]
        submissions = []
        client = Client(env, "c", tasks, submit=lambda t: submissions.append((t.task_id, env.now)))
        env.run()
        assert [task_id for task_id, _ in submissions] == [t.task_id for t in client.tasks]
        for task_id, at in submissions:
            arrival = next(t.arrival for t in tasks if t.task_id == task_id)
            assert at == pytest.approx(arrival, abs=1e-12)
        assert client.submitted == len(arrivals)

    def test_repr_tracks_submission_progress(self, env):
        tasks = [Task(f"t{i}", matmul_problem(1200), arrival=float(i)) for i in range(3)]
        client = Client(env, "zanzibar", tasks, submit=lambda t: None)
        env.run(until=1.5)
        assert repr(client) == "<Client zanzibar submitted=2/3>"
        env.run()
        assert repr(client) == "<Client zanzibar submitted=3/3>"


class TestFaultModels:
    def test_memory_model_thrash_factor_bounds(self):
        model = MemoryModel(enabled=True, thrashing=True, min_thrash_factor=0.25)
        assert model.thrash_factor(resident_mb=50.0, usable_memory_mb=100.0) == 1.0
        assert model.thrash_factor(resident_mb=200.0, usable_memory_mb=100.0) == pytest.approx(0.5)
        assert model.thrash_factor(resident_mb=10_000.0, usable_memory_mb=100.0) == 0.25
        disabled = MemoryModel(enabled=False)
        assert disabled.thrash_factor(10_000.0, 100.0) == 1.0

    def test_speed_noise_validation_and_draws(self):
        with pytest.raises(ValueError):
            SpeedNoiseModel(relative_sigma=-0.1)
        with pytest.raises(ValueError):
            SpeedNoiseModel(period_s=0.0)
        silent = SpeedNoiseModel(relative_sigma=0.0)
        assert not silent.enabled
        assert silent.draw_factor(RandomStreams(0)["x"]) == 1.0
        noisy = SpeedNoiseModel(relative_sigma=0.1)
        rng = RandomStreams(0)["x"]
        draws = [noisy.draw_factor(rng) for _ in range(200)]
        assert all(d > 0 for d in draws)
        assert min(draws) < 1.0 < max(draws)

    def test_fault_tolerance_validation(self):
        with pytest.raises(ValueError):
            FaultTolerancePolicy(max_attempts=0)
        with pytest.raises(ValueError):
            FaultTolerancePolicy(retry_delay_s=-1.0)


class TestErrors:
    def test_task_rejected_carries_context(self):
        error = TaskRejected("artimon", "task-1", "not enough memory")
        assert error.reason == "not enough memory"
        assert "task-1" in str(error)

    def test_every_library_error_derives_from_reproerror(self):
        from repro import errors

        for name in errors.__all__:
            obj = getattr(errors, name)
            if isinstance(obj, type) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError)


    def test_errors_all_lists_exactly_the_exception_classes_defined(self):
        from repro import errors

        defined = {
            name
            for name, obj in vars(errors).items()
            if isinstance(obj, type)
            and issubclass(obj, Exception)
            and obj.__module__ == errors.__name__
        }
        assert set(errors.__all__) == defined


class TestPackageSurface:
    def test_version_and_main_exports(self):
        assert repro.__version__
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_paper_heuristics_constant_matches_registry(self):
        for name in repro.PAPER_HEURISTICS:
            assert name in repro.HEURISTIC_REGISTRY

    def test_quickstart_docstring_snippet_runs(self):
        """The usage snippet advertised in the package docstring must work."""
        import numpy as np

        from repro import GridMiddleware
        from repro.metrics import summarize
        from repro.workload.testbed import first_set_platform, matmul_metatask

        metatask = matmul_metatask(count=10, mean_interarrival=20.0,
                                   rng=np.random.default_rng(0))
        result = GridMiddleware(first_set_platform(), heuristic="msf").run(metatask)
        summary = summarize(result.tasks, "msf")
        assert summary.n_completed == 10
