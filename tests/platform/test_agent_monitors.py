"""Tests of the agent, the monitors and the platform specifications."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.heuristics import HmctHeuristic, MctHeuristic
from repro.errors import NoCandidateServer, PlatformError, SchedulingError
from repro.platform.agent import Agent
from repro.platform.monitors import LoadMonitor, LoadReport
from repro.platform.server import ComputeServer
from repro.platform.spec import (
    DEFAULT_LINK,
    PAPER_MACHINES,
    LinkSpec,
    MachineRole,
    MachineSpec,
    PlatformSpec,
)
from repro.simulation import Environment
from repro.workload.problems import PAPER_CATALOGUE, matmul_problem
from repro.workload.tasks import Task


def build_agent(env, heuristic=None, servers=("artimon", "pulney")):
    agent = Agent(env, heuristic or MctHeuristic())
    built = {}
    for name in servers:
        server = ComputeServer(
            env=env,
            spec=PAPER_MACHINES[name],
            problems=[p.name for p in PAPER_CATALOGUE],
            catalogue=PAPER_CATALOGUE,
        )
        agent.register_server(server)
        built[name] = server
    return agent, built


class TestSpec:
    def test_link_transfer_time(self):
        link = LinkSpec(bandwidth_mb_s=10.0, latency_s=0.5)
        assert link.transfer_time(20.0) == pytest.approx(2.5)
        with pytest.raises(ValueError):
            LinkSpec(bandwidth_mb_s=0.0)

    def test_platform_requires_each_role(self):
        servers_only = {"artimon": PAPER_MACHINES["artimon"]}
        with pytest.raises(PlatformError):
            PlatformSpec(machines=servers_only)

    def test_platform_key_mismatch_rejected(self):
        machines = {
            "wrong-key": PAPER_MACHINES["artimon"],
            "xrousse": PAPER_MACHINES["xrousse"],
            "zanzibar": PAPER_MACHINES["zanzibar"],
        }
        with pytest.raises(PlatformError):
            PlatformSpec(machines=machines)

    def test_link_lookup_is_symmetric_with_default(self, first_platform):
        explicit = LinkSpec(bandwidth_mb_s=100.0)
        platform = PlatformSpec(
            machines=first_platform.machines,
            links={("zanzibar", "artimon"): explicit},
        )
        assert platform.link("artimon", "zanzibar") is explicit
        assert platform.link("zanzibar", "pulney") is DEFAULT_LINK

    def test_subset_keeps_agent_and_client(self, first_platform):
        subset = first_platform.subset(["artimon"])
        assert subset.server_names() == ("artimon",)
        assert subset.agent_name == "xrousse"
        with pytest.raises(PlatformError):
            first_platform.subset(["unknown-server"])

    def test_machine_validation(self):
        with pytest.raises(ValueError):
            MachineSpec("x", "cpu", speed_mhz=0.0, memory_mb=1.0, swap_mb=1.0)
        with pytest.raises(ValueError):
            MachineSpec("x", "cpu", 100.0, 1.0, 1.0, role="weird")
        with pytest.raises(ValueError):
            MachineSpec("x", "cpu", 100.0, 1.0, 1.0, cpu_count=0)

    def test_with_role_returns_modified_copy(self):
        spec = PAPER_MACHINES["artimon"].with_role(MachineRole.CLIENT)
        assert spec.role == MachineRole.CLIENT
        assert PAPER_MACHINES["artimon"].role == MachineRole.SERVER


class TestMonitors:
    def test_monitor_emits_initial_and_periodic_reports(self, env):
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE
        )
        received = []
        LoadMonitor(env, server, deliver=received.append, period=10.0, delay=0.0, jitter=0.0)
        env.run(until=35.0)
        assert len(received) == 4  # t=0, 10, 20, 30
        assert all(isinstance(report, LoadReport) for report in received)
        assert received[0].server == "artimon"
        assert received[0].is_up

    def test_monitor_delay_shifts_reception(self, env):
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE
        )
        received = []
        LoadMonitor(
            env, server,
            deliver=lambda report: received.append(env.now),
            period=10.0, delay=2.0, jitter=0.0,
        )
        env.run(until=25.0)
        assert received[0] == pytest.approx(2.0)
        assert received[1] == pytest.approx(12.0)

    def _report_dates(self, env, period, jitter, seed, until):
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE
        )
        emitted = []
        monitor = LoadMonitor(
            env, server,
            deliver=lambda report: emitted.append(report.emitted_at),
            period=period, delay=0.0, jitter=jitter, rng=np.random.default_rng(seed),
        )
        env.run(until=until)
        assert monitor.reports_sent == len(emitted)
        return emitted

    def test_jittered_periods_stay_within_the_jitter_band(self, env):
        emitted = self._report_dates(env, period=10.0, jitter=3.0, seed=5, until=500.0)
        gaps = np.diff(emitted)
        assert len(gaps) > 30
        assert np.all((gaps >= 7.0) & (gaps <= 13.0))
        assert len(set(np.round(gaps, 9))) > 1  # the jitter really varies

    def test_jittered_period_is_floored_at_a_tenth_of_a_second(self, env):
        emitted = self._report_dates(env, period=0.5, jitter=2.0, seed=3, until=50.0)
        gaps = np.diff(emitted)
        assert np.all(gaps >= 0.1 - 1e-12)
        assert np.any(np.isclose(gaps, 0.1))

    def test_jitter_replays_identically_for_the_same_seed(self):
        first = self._report_dates(Environment(), period=10.0, jitter=4.0, seed=9, until=300.0)
        again = self._report_dates(Environment(), period=10.0, jitter=4.0, seed=9, until=300.0)
        other = self._report_dates(Environment(), period=10.0, jitter=4.0, seed=10, until=300.0)
        assert first == again
        assert first != other

    def test_initial_report_precedes_normal_callbacks_at_time_zero(self, env):
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE
        )
        order = []
        env.call_in(0.0, lambda: order.append("normal"))
        LoadMonitor(
            env, server, deliver=lambda report: order.append("report"),
            period=10.0, delay=0.0, jitter=0.0,
        )
        env.run(until=0.0)
        assert order == ["report", "normal"]

    def test_invalid_monitor_parameters(self, env):
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1200"], PAPER_CATALOGUE
        )
        with pytest.raises(ValueError):
            LoadMonitor(env, server, deliver=lambda r: None, period=0.0)
        with pytest.raises(ValueError):
            LoadMonitor(env, server, deliver=lambda r: None, period=1.0, delay=-1.0)


class TestAgent:
    def test_registration_and_duplicate_rejection(self, env):
        agent, servers = build_agent(env)
        assert set(agent.registered_servers()) == {"artimon", "pulney"}
        with pytest.raises(SchedulingError):
            agent.register_server(servers["artimon"])
        with pytest.raises(SchedulingError):
            agent.registration("nowhere")

    def test_schedule_updates_corrections_and_logs(self, env):
        agent, _ = build_agent(env)
        task = Task("t1", matmul_problem(1200), arrival=0.0)
        decision = agent.schedule(task)
        assert decision.server in ("artimon", "pulney")
        assert agent.registration(decision.server).pending_correction == 1
        assert agent.stats.mappings == 1
        assert agent.decision_log[0][1] == "t1"

    def test_load_report_resets_pending_correction(self, env):
        agent, _ = build_agent(env)
        task = Task("t1", matmul_problem(1200), arrival=0.0)
        decision = agent.schedule(task)
        report = LoadReport(
            server=decision.server, load=1.0, resident_tasks=1, is_up=True,
            emitted_at=0.0, received_at=0.0,
        )
        agent.receive_load_report(report)
        registration = agent.registration(decision.server)
        assert registration.pending_correction == 0
        assert registration.last_report is report

    def test_completion_message_decrements_correction_and_updates_htm(self, env):
        agent, _ = build_agent(env, heuristic=HmctHeuristic())
        task = Task("t1", matmul_problem(1200), arrival=0.0)
        decision = agent.schedule(task)
        assert agent.htm.tracked_task_count(decision.server) == 1
        agent.notify_completion(task, decision.server, at=30.0)
        assert agent.registration(decision.server).pending_correction == 0
        assert agent.htm.tracked_task_count(decision.server) == 0

    def test_failure_notification_removes_task_from_htm(self, env):
        agent, _ = build_agent(env, heuristic=HmctHeuristic())
        task = Task("t1", matmul_problem(1200), arrival=0.0)
        decision = agent.schedule(task)
        agent.notify_failure(task, decision.server, at=5.0)
        assert agent.htm.tracked_task_count(decision.server) == 0

    def test_server_down_excludes_it_from_candidates(self, env):
        agent, _ = build_agent(env)
        agent.notify_server_down("pulney", at=0.0)
        context = agent.build_context(Task("t1", matmul_problem(1200), arrival=0.0))
        assert [info.name for info in context.candidate_servers()] == ["artimon"]
        agent.notify_server_up("pulney", at=10.0)
        context = agent.build_context(Task("t2", matmul_problem(1200), arrival=0.0))
        assert len(context.candidate_servers()) == 2

    def test_no_candidate_server_raises(self, env):
        agent = Agent(env, MctHeuristic())
        server = ComputeServer(
            env, PAPER_MACHINES["artimon"], ["matmul-1500"], PAPER_CATALOGUE
        )
        agent.register_server(server)
        with pytest.raises(NoCandidateServer):
            agent.schedule(Task("t1", matmul_problem(1200), arrival=0.0))

    def test_htm_created_automatically_for_htm_heuristics(self, env):
        agent = Agent(env, HmctHeuristic())
        assert agent.htm is not None
        agent_mct = Agent(env, MctHeuristic())
        assert agent_mct.htm is None

    def test_context_exposes_static_costs_and_cpu_count(self, env):
        agent, _ = build_agent(env)
        context = agent.build_context(Task("t1", matmul_problem(1800), arrival=0.0))
        artimon = context.server("artimon")
        assert artimon.costs.compute_s == 53.0
        assert artimon.cpu_count == 1
