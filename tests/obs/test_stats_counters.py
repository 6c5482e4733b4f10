"""Tests of the sequential stopping engine's ``stats.*`` counter family."""

from __future__ import annotations

import io

import numpy as np

from repro.experiments import ExperimentConfig, ExperimentScale, run_campaign
from repro.obs import counter_rollup
from repro.results import ProgressObserver
from repro.workload.testbed import first_set_platform, matmul_metatask


def _metatask():
    return matmul_metatask(
        count=12, mean_interarrival=20.0, rng=np.random.default_rng(42), name="seq"
    )


def _sequential_config() -> ExperimentConfig:
    return ExperimentConfig(
        scale=ExperimentScale(name="tiny", task_count=12, metatask_count=1, repetitions=1),
        seed=2003,
        heuristics=("mct", "msf"),
        ci_target=0.5,
        ci_min_reps=3,
        ci_max_reps=4,
    )


class TestSequentialCounters:
    def test_sequential_meta_carries_the_counter_family(self):
        table = run_campaign(
            "seq", "t", first_set_platform(), [_metatask()], _sequential_config()
        )
        counters = table.result_set.meta["sequential"]["counters"]
        assert counters["stats.rounds"] >= 1
        assert counters["stats.cells"] == len(table.result_set)
        assert counters["stats.cells_last_round"] >= 1
        assert counters["stats.groups"] == 2  # (heuristic, metatask) groups
        assert 0 <= counters["stats.groups_unresolved"] <= counters["stats.groups"]

    def test_fixed_campaigns_carry_no_stats_counters(self):
        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=12, metatask_count=1),
            seed=2003,
            heuristics=("mct", "msf"),
        )
        table = run_campaign("fixed", "t", first_set_platform(), [_metatask()], config)
        assert "sequential" not in table.result_set.meta

    def test_counter_rollup_merges_them_into_its_rollup(self):
        table = run_campaign(
            "seq", "t", first_set_platform(), [_metatask()], _sequential_config()
        )
        counters = counter_rollup(table)["counters"]
        campaign_counters = table.result_set.meta["sequential"]["counters"]
        assert counters["stats.rounds"] == campaign_counters["stats.rounds"]
        assert "stats.cells" in counters
        # Cell-level counters still roll up alongside the campaign-level ones.
        assert any(not key.startswith("stats.") for key in counters)

    def test_progress_observer_end_line_reports_the_stop_state(self):
        stream = io.StringIO()
        run_campaign(
            "seq", "t", first_set_platform(), [_metatask()], _sequential_config(),
            observers=[ProgressObserver(stream=stream)],
        )
        end_line = stream.getvalue().strip().splitlines()[-1]
        assert "sequential:" in end_line
        assert "round(s)" in end_line and "unresolved at stop" in end_line

    def test_progress_end_line_is_unchanged_for_fixed_campaigns(self):
        stream = io.StringIO()
        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=12, metatask_count=1),
            seed=2003,
            heuristics=("mct",),
        )
        run_campaign(
            "fixed", "t", first_set_platform(), [_metatask()], config,
            observers=[ProgressObserver(stream=stream)],
        )
        assert "sequential:" not in stream.getvalue().splitlines()[-1]
