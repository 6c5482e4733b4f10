"""Tests of Gantt charts and HTM records."""

from __future__ import annotations

import pytest

from repro.core.gantt import GanttChart, GanttPhase, GanttRow, chart_from_states
from repro.core.records import HtmPrediction, TracedTask
from repro.simulation.fluid import FluidNetwork, FluidStage


def build_network_chart():
    network = FluidNetwork({"net_in": 1.0, "cpu": 1.0, "net_out": 1.0})
    network.add_task("t1", arrival=0.0, stages=(
        FluidStage("net_in", 2.0), FluidStage("cpu", 10.0), FluidStage("net_out", 1.0)))
    network.add_task("t2", arrival=5.0, stages=(
        FluidStage("net_in", 2.0), FluidStage("cpu", 10.0), FluidStage("net_out", 1.0)))
    network.run_to_completion()
    return chart_from_states("artimon", network.tasks())


class TestGantt:
    def test_chart_rows_are_sorted_by_arrival(self):
        chart = build_network_chart()
        assert [row.task_id for row in chart.rows] == ["t1", "t2"]

    def test_phase_boundaries_are_consistent(self):
        chart = build_network_chart()
        for row in chart:
            for earlier, later in zip(row.phases, row.phases[1:]):
                assert later.start == pytest.approx(earlier.end)
            assert row.end == pytest.approx(row.phases[-1].end)
            assert all(phase.duration >= 0 for phase in row.phases)

    def test_unfinished_tasks_have_partial_rows(self):
        network = FluidNetwork({"cpu": 1.0})
        network.add_task("t", arrival=0.0, stages=(FluidStage("cpu", 100.0),))
        network.advance_to(10.0)
        chart = chart_from_states("s", network.tasks())
        assert chart.row("t").end is None

    def test_completions_and_horizon(self):
        chart = build_network_chart()
        completions = chart.completions()
        assert set(completions) == {"t1", "t2"}
        assert chart.horizon == pytest.approx(max(completions.values()))

    def test_row_lookup_raises_for_unknown_task(self):
        chart = build_network_chart()
        with pytest.raises(KeyError):
            chart.row("ghost")

    def test_render_contains_every_task_and_legend(self):
        text = build_network_chart().render(width=60)
        assert "t1" in text and "t2" in text
        assert "legend" in text
        assert "[artimon]" in text

    def test_empty_chart_renders_gracefully(self):
        chart = GanttChart(server="empty", rows=())
        assert "(empty)" in chart.render()
        assert chart.horizon == 0.0

    def test_phase_lookup_by_name(self):
        chart = build_network_chart()
        row = chart.row("t1")
        assert row.phase("compute") is not None
        assert row.phase("nonexistent") is None


class TestRecords:
    def test_traced_task_unloaded_duration(self):
        record = TracedTask(
            task_id="t", server="s", mapped_at=0.0, input_s=2.0, compute_s=10.0, output_s=1.0,
            local_number=3,
        )
        assert record.unloaded_duration == pytest.approx(13.0)

    def test_prediction_derived_quantities(self):
        prediction = HtmPrediction(
            server="s",
            task_id="new",
            now=100.0,
            new_task_completion=150.0,
            completions_without={"a": 120.0, "b": 130.0},
            completions_with={"a": 125.0, "b": 130.0},
            perturbations={"a": 5.0, "b": 0.0},
        )
        assert prediction.sum_perturbation == pytest.approx(5.0)
        assert prediction.n_perturbed == 1
        assert prediction.predicted_flow == pytest.approx(50.0)
        assert prediction.sum_flow_increase == pytest.approx(55.0)
        assert prediction.perturbation_of("a") == 5.0
        assert prediction.perturbation_of("missing") == 0.0

    def _candidates(self):
        return {
            "fast": HtmPrediction(
                server="fast", task_id="t", now=0.0, new_task_completion=20.0,
                perturbations={"x": 15.0},
            ),
            "slow": HtmPrediction(
                server="slow", task_id="t", now=0.0, new_task_completion=60.0,
                perturbations={},
            ),
        }

    def test_candidates_rank_differently_under_each_criterion(self):
        candidates = self._candidates().values()
        assert min(candidates, key=lambda p: p.new_task_completion).server == "fast"
        assert min(candidates, key=lambda p: p.sum_perturbation).server == "slow"

    def test_flow_increase_adds_own_flow_to_perturbation(self):
        fast = self._candidates()["fast"]
        assert fast.sum_perturbation == pytest.approx(15.0)
        assert fast.predicted_flow == pytest.approx(20.0)
        assert fast.sum_flow_increase == pytest.approx(35.0)
