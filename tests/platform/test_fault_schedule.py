"""Tests of scheduled fault/churn windows (outages and slowdowns)."""

from __future__ import annotations

import pytest

from repro.errors import PlatformError
from repro.obs import Tracer
from repro.platform.faults import FaultSchedule, OutageWindow, SlowdownWindow
from repro.platform.middleware import GridMiddleware, MiddlewareConfig
from repro.workload.metatask import generate_metatask
from repro.workload.arrivals import FixedIntervalArrivals
from repro.workload.problems import WASTECPU_PROBLEMS
from repro.workload.testbed import second_set_platform


def _quiet_config(**kwargs) -> MiddlewareConfig:
    """A noise-free middleware config so fault effects are the only variable."""
    defaults = dict(noise_model=None, memory_enabled=False, seed=1)
    defaults.update(kwargs)
    return MiddlewareConfig(**defaults)


def _wastecpu_metatask(count: int = 12, interval: float = 30.0):
    problems = [WASTECPU_PROBLEMS[k] for k in sorted(WASTECPU_PROBLEMS)]
    import numpy as np

    return generate_metatask(
        name="fault-schedule-test",
        problems=problems,
        count=count,
        arrivals=FixedIntervalArrivals(interval),
        rng=np.random.default_rng(0),
    )


class TestWindowValidation:
    def test_window_bounds_are_validated(self):
        with pytest.raises(ValueError):
            OutageWindow("a", start_s=-1.0, end_s=10.0)
        with pytest.raises(ValueError):
            OutageWindow("a", start_s=10.0, end_s=10.0)
        with pytest.raises(ValueError):
            SlowdownWindow("a", start_s=0.0, end_s=10.0, factor=0.0)

    def test_overlapping_same_kind_windows_are_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            FaultSchedule(
                windows=(
                    SlowdownWindow("a", 0.0, 100.0, 0.5),
                    SlowdownWindow("a", 50.0, 150.0, 0.25),
                )
            )

    def test_disjoint_and_cross_kind_windows_are_fine(self):
        schedule = FaultSchedule(
            windows=(
                SlowdownWindow("a", 0.0, 100.0, 0.5),
                SlowdownWindow("a", 100.0, 150.0, 0.25),
                OutageWindow("a", 20.0, 30.0),
                OutageWindow("b", 20.0, 30.0),
            )
        )
        assert schedule.server_names() == ("a", "b")
        assert len(schedule.for_server("a")) == 3
        assert [w.start_s for w in schedule.for_server("a")] == [0.0, 20.0, 100.0]

    def test_unknown_server_fails_fast_at_middleware_construction(self):
        config = _quiet_config(
            fault_schedule=FaultSchedule(windows=(OutageWindow("nope", 0.0, 10.0),))
        )
        with pytest.raises(PlatformError, match="unknown servers"):
            GridMiddleware(platform=second_set_platform(), heuristic="mct", config=config)


class TestScheduledOutage:
    def test_outage_fails_resident_tasks_and_server_recovers(self):
        # Arrivals every 60 s up to t = 420 s; spinnaker (the fastest server,
        # where MCT sends the first task) dies at 10 s — killing that resident
        # task — and returns at 300 s, before the run ends, so recovery is
        # observable.
        schedule = FaultSchedule(windows=(OutageWindow("spinnaker", 10.0, 300.0),))
        middleware = GridMiddleware(
            platform=second_set_platform(),
            heuristic="mct",
            config=_quiet_config(
                fault_schedule=schedule,
                fault_tolerance=middleware_retry_policy(),
            ),
        )
        result = middleware.run(_wastecpu_metatask(count=8, interval=60.0))
        server = middleware.servers["spinnaker"]
        assert server.stats.outages == 1
        assert server.is_up  # recovered after the window
        # At least one task died to the outage; fault tolerance re-ran it.
        outage_failures = [
            t
            for t in result.tasks
            for a in t.attempts
            if a.failure_reason and "outage" in a.failure_reason
        ]
        assert outage_failures
        assert result.completed_count == len(result.tasks)

    def test_back_to_back_outage_windows_keep_the_server_down_in_any_order(self):
        # Two windows sharing the boundary instant t=200, in either
        # declaration order: the server must stay down until the *last*
        # window closes, with no momentary recovery (agent re-registration)
        # at the boundary.
        for windows in (
            (OutageWindow("spinnaker", 100.0, 200.0), OutageWindow("spinnaker", 200.0, 300.0)),
            (OutageWindow("spinnaker", 200.0, 300.0), OutageWindow("spinnaker", 100.0, 200.0)),
        ):
            middleware = GridMiddleware(
                platform=second_set_platform(),
                heuristic="mct",
                config=_quiet_config(fault_schedule=FaultSchedule(windows=windows)),
            )
            server = middleware.servers["spinnaker"]
            recoveries = []
            server.on_recovery.append(lambda _s, at: recoveries.append(at))
            probes = {}
            for at in (150.0, 250.0, 350.0):
                middleware.env.call_in(at, lambda t=at: probes.__setitem__(t, server.is_up))
            middleware.env.run(until=400.0)
            assert probes == {150.0: False, 250.0: False, 350.0: True}, windows
            assert recoveries == [300.0], windows  # one recovery, at the end

    def test_outage_window_cannot_shorten_collapse_recovery(self, env):
        # A memory collapse mandates recovery_s of downtime; an outage window
        # opening during the collapse and closing *before* the recovery is due
        # must not bring the server back early.
        from repro.platform.faults import MemoryModel
        from repro.platform.server import ComputeServer
        from repro.platform.spec import PAPER_MACHINES
        from repro.workload.problems import PAPER_CATALOGUE

        server = ComputeServer(
            env,
            PAPER_MACHINES["artimon"],
            ["matmul-1200"],
            PAPER_CATALOGUE,
            memory_model=MemoryModel(enabled=True, recovery_s=100.0),
        )
        server._collapse(0.0)  # recovery due at t=100
        server.begin_outage()  # outage overlaps the collapse downtime
        probes = {}
        for at, action in (
            (20.0, server.end_outage),  # closes before the recovery is due
            (30.0, lambda: probes.__setitem__(30.0, server.is_up)),
            (150.0, lambda: probes.__setitem__(150.0, server.is_up)),
        ):
            env.call_in(max(0.0, at - env.now), action)
        env.run(until=200.0)
        assert probes == {30.0: False, 150.0: True}

    def test_outage_without_fault_tolerance_loses_tasks(self):
        schedule = FaultSchedule(windows=(OutageWindow("spinnaker", 50.0, 400.0),))
        middleware = GridMiddleware(
            platform=second_set_platform(),
            heuristic="msf",  # paper protocol: no resubmission for HTM heuristics
            config=_quiet_config(fault_schedule=schedule),
        )
        result = middleware.run(_wastecpu_metatask(count=8, interval=45.0))
        assert result.failed_count > 0
        assert all(
            "outage" in t.attempts[-1].failure_reason for t in result.failed_tasks
        )


class TestTracedWindows:
    def _traced_fault_events(self, windows):
        tracer = Tracer()
        middleware = GridMiddleware(
            platform=second_set_platform(),
            heuristic="mct",
            config=_quiet_config(fault_schedule=FaultSchedule(windows=windows)),
            tracer=tracer,
        )
        middleware.run(_wastecpu_metatask(count=4, interval=20.0))
        return [
            (event.t, event.kind, dict(event.data))
            for event in tracer.events()
            if event.kind.startswith("fault.")
        ]

    def test_slowdown_window_is_traced_at_its_boundaries(self):
        events = self._traced_fault_events((SlowdownWindow("spinnaker", 10.0, 30.0, 0.5),))
        assert events == [
            (10.0, "fault.slowdown.begin", {"server": "spinnaker", "factor": 0.5}),
            (30.0, "fault.slowdown.end", {"server": "spinnaker"}),
        ]

    def test_outage_window_is_traced_at_its_boundaries(self):
        events = self._traced_fault_events((OutageWindow("spinnaker", 15.0, 25.0),))
        assert events == [
            (15.0, "fault.outage.begin", {"server": "spinnaker"}),
            (25.0, "fault.outage.end", {"server": "spinnaker"}),
        ]

    def test_tracing_does_not_change_the_faulted_run(self):
        schedule = FaultSchedule(
            windows=(
                SlowdownWindow("spinnaker", 0.0, 40.0, 0.3),
                OutageWindow("cabestan", 20.0, 60.0),
            )
        )
        metatask = _wastecpu_metatask(count=6, interval=15.0)

        def completions(tracer):
            result = GridMiddleware(
                platform=second_set_platform(),
                heuristic="mct",
                config=_quiet_config(fault_schedule=schedule),
                tracer=tracer,
            ).run(metatask)
            return [(t.task_id, t.status, t.completion_time) for t in result.tasks]

        assert completions(None) == completions(Tracer())


class TestScheduledSlowdown:
    def test_slowdown_stretches_completions_inside_the_window(self):
        metatask = _wastecpu_metatask(count=6, interval=40.0)

        def run(schedule):
            middleware = GridMiddleware(
                platform=second_set_platform(),
                heuristic="mct",
                config=_quiet_config(fault_schedule=schedule),
            )
            return middleware.run(metatask)

        baseline = run(None)
        slowed = run(
            FaultSchedule(
                windows=(SlowdownWindow("spinnaker", 0.0, 100_000.0, 0.25),)
            )
        )
        assert baseline.completed_count == slowed.completed_count == 6
        spinnaker_tasks = [t for t in slowed.tasks if t.server == "spinnaker"]
        assert spinnaker_tasks, "expected MCT to use the fastest server"
        for task in spinnaker_tasks:
            assert (
                task.completion_time
                > baseline.task_by_id(task.task_id).completion_time + 1.0
            )

    def test_back_to_back_slowdowns_apply_in_any_declaration_order(self):
        # The earlier window's end-callback must not undo the later window's
        # start-callback at the shared boundary instant, whatever the tuple
        # order — the middleware wires windows sorted by start date.
        for windows in (
            (
                SlowdownWindow("spinnaker", 0.0, 10.0, 0.5),
                SlowdownWindow("spinnaker", 10.0, 1000.0, 0.3),
            ),
            (
                SlowdownWindow("spinnaker", 10.0, 1000.0, 0.3),
                SlowdownWindow("spinnaker", 0.0, 10.0, 0.5),
            ),
        ):
            middleware = GridMiddleware(
                platform=second_set_platform(),
                heuristic="mct",
                config=_quiet_config(fault_schedule=FaultSchedule(windows=windows)),
            )
            factors = {}
            server = middleware.servers["spinnaker"]
            for at in (5.0, 15.0):
                middleware.env.call_in(
                    at, lambda t=at: factors.__setitem__(t, server._slowdown_factor)
                )
            middleware.env.run(until=20.0)
            assert factors == {5.0: 0.5, 15.0: 0.3}, windows

    def test_slowdown_window_restores_nominal_speed_after_end(self):
        # Window covers only the far future relative to the workload: no effect.
        metatask = _wastecpu_metatask(count=4, interval=20.0)

        def run(schedule):
            middleware = GridMiddleware(
                platform=second_set_platform(),
                heuristic="mct",
                config=_quiet_config(fault_schedule=schedule),
            )
            return middleware.run(metatask)

        baseline = run(None)
        inert = run(
            FaultSchedule(windows=(SlowdownWindow("spinnaker", 500_000.0, 600_000.0, 0.1),))
        )
        for task in baseline.tasks:
            assert inert.task_by_id(task.task_id).completion_time == pytest.approx(
                task.completion_time
            )


def middleware_retry_policy():
    from repro.platform.faults import FaultTolerancePolicy

    return FaultTolerancePolicy(enabled=True, max_attempts=5, retry_delay_s=5.0)
