"""End-to-end store semantics: cold vs warm equivalence, kill-and-resume.

The acceptance contract of the campaign store: a warm re-run executes zero
simulations yet produces byte-identical saved results, and a campaign killed
mid-flight (journal truncated, torn final line included) resumes to
byte-identical output.
"""

from __future__ import annotations

import io

import pytest

from repro import api
from repro.errors import StoreError
from repro.experiments.config import ExperimentConfig, ExperimentScale
from repro.results import CampaignObserver, ProgressObserver
from repro.scenarios import run_sweep
from repro.store import CampaignStore, open_store, resume_experiment

#: Small enough for unit tests, big enough for real comparisons.
TINY = ExperimentScale(name="tiny", task_count=12, metatask_count=1, repetitions=1)

SWEEP_SCENARIOS = ["paper-low-rate", "flaky-servers"]


def _tiny_config() -> ExperimentConfig:
    return ExperimentConfig(scale=TINY)


@pytest.fixture
def store(tmp_path) -> CampaignStore:
    return CampaignStore(tmp_path / "store")


class TestColdVsWarm:
    def test_warm_table_run_executes_nothing_and_is_byte_identical(self, tmp_path, store):
        cold = api.run("table5", config=_tiny_config(), store=store)
        assert cold.cache_info["executed"] > 0 and cold.cache_info["recovered"] == 0
        warm = api.run("table5", config=_tiny_config(), store=store)
        assert warm.cache_info["executed"] == 0
        assert warm.cache_info["recovered"] == cold.cache_info["executed"]
        cold_path = api.save_results(cold, tmp_path / "cold.jsonl")
        warm_path = api.save_results(warm, tmp_path / "warm.jsonl")
        assert open(cold_path, "rb").read() == open(warm_path, "rb").read()
        assert cold.render() == warm.render()

    def test_warm_run_crosses_jobs_levels(self, tmp_path, store):
        cold = api.run("table5", config=_tiny_config(), jobs=2, store=store)
        warm = api.run("table5", config=_tiny_config(), jobs=1, store=store)
        assert warm.cache_info["executed"] == 0
        assert cold.result_set.to_jsonl() == warm.result_set.to_jsonl()

    def test_scenario_sweep_cold_then_warm(self, tmp_path, store):
        cold = run_sweep(SWEEP_SCENARIOS, config=_tiny_config(), store=store)
        executed_cold = store.puts
        assert executed_cold == len(cold.result_set)
        warm = run_sweep(SWEEP_SCENARIOS, config=_tiny_config(), store=store)
        assert store.puts == executed_cold  # zero new simulations
        cold_path = api.save_results(cold, tmp_path / "cold.jsonl")
        warm_path = api.save_results(warm, tmp_path / "warm.jsonl")
        assert open(cold_path, "rb").read() == open(warm_path, "rb").read()
        assert cold.render() == warm.render()

    def test_config_mismatch_warns_before_running_cold(self, store):
        """Resuming with the wrong scale/seed must not silently re-simulate
        everything: the zero-hit + same-experiment case warns up front."""
        api.run("table5", config=_tiny_config(), store=store)
        other = ExperimentConfig(
            scale=TINY, seed=2026  # same experiment, different fingerprint
        )
        with pytest.warns(UserWarning, match="different configuration"):
            api.run("table5", config=other, store=store)

    def test_custom_workloads_do_not_alias(self, store):
        """Two custom run_campaign workloads under the same experiment id and
        config must not serve each other's cached cells: the workload
        fingerprint keys them apart."""
        import numpy as np

        from repro.experiments.campaign import run_campaign
        from repro.workload.testbed import first_set_platform, matmul_metatask

        platform = first_set_platform()
        config = _tiny_config()

        def campaign(mean_interarrival):
            metatask = matmul_metatask(
                count=10,
                mean_interarrival=mean_interarrival,
                rng=np.random.default_rng(7),
                name="custom",
            )
            return run_campaign(
                "custom-exp", "t", platform, [metatask], config, store=store
            )

        tables = [campaign(20.0)]
        with pytest.warns(UserWarning, match="configuration or workload"):
            tables.append(campaign(2.0))  # genuinely different workload
        assert tables[1].cache_info["recovered"] == 0  # no cross-workload hits
        assert tables[0].render() != tables[1].render()
        # Each workload warms only its own cells.
        metatask = matmul_metatask(
            count=10, mean_interarrival=20.0, rng=np.random.default_rng(7), name="custom"
        )
        warm = run_campaign("custom-exp", "t", platform, [metatask], config, store=store)
        assert warm.cache_info["executed"] == 0
        assert warm.render() == tables[0].render()

    def test_store_never_changes_numbers_vs_storeless_run(self, store):
        plain = api.run("table5", config=_tiny_config())
        stored = api.run("table5", config=_tiny_config(), store=store)
        assert plain.result_set.to_jsonl() == stored.result_set.to_jsonl()
        warm = api.run("table5", config=_tiny_config(), store=store)
        assert plain.result_set.to_jsonl() == warm.result_set.to_jsonl()


class TestKillAndResume:
    def _truncate_journal(self, store: CampaignStore, keep_cells: int, torn: bool):
        """Simulate a crash: keep the header + ``keep_cells`` committed lines,
        optionally followed by a torn partial append."""
        store.close()
        path = store.journal.path
        lines = open(path, "r", encoding="utf-8").read().splitlines(keepends=True)
        kept = "".join(lines[: 1 + keep_cells])
        if torn:
            kept += lines[1 + keep_cells][:37]  # mid-line cut, no newline
        open(path, "w", encoding="utf-8").write(kept)

    @pytest.mark.parametrize("torn", [False, True], ids=["clean-kill", "torn-last-line"])
    def test_resume_is_byte_identical(self, tmp_path, torn):
        reference = api.run("table5", config=_tiny_config())
        reference_path = api.save_results(reference, tmp_path / "reference.jsonl")

        store = CampaignStore(tmp_path / "store")
        api.run("table5", config=_tiny_config(), store=store)
        total = store.puts
        self._truncate_journal(store, keep_cells=2, torn=torn)

        recovered_store = CampaignStore(tmp_path / "store")
        assert recovered_store.recovered_torn_tail is torn
        assert len(recovered_store) == 2
        report = resume_experiment("table5", recovered_store, config=_tiny_config())
        assert report.recovered == 2
        assert report.executed == total - 2
        resumed_path = api.save_results(report.result, tmp_path / "resumed.jsonl")
        assert open(reference_path, "rb").read() == open(resumed_path, "rb").read()

    def test_resume_of_complete_store_executes_nothing(self, tmp_path, store):
        api.run("table5", config=_tiny_config(), store=store)
        report = resume_experiment("table5", store, config=_tiny_config())
        assert report.executed == 0 and report.recovered > 0
        assert "already complete" in report.render()

    def test_api_resume_accepts_a_path(self, tmp_path):
        api.run("table5", config=_tiny_config(), store=str(tmp_path / "store"))
        report = api.resume("table5", str(tmp_path / "store"), config=_tiny_config())
        assert report.executed == 0

    def test_non_campaign_experiments_are_not_resumable(self, store):
        with pytest.raises(StoreError, match="not.*resumable|does not run through"):
            resume_experiment("table1", store, config=_tiny_config())


class TestPartialWarm:
    def test_cached_reference_feeds_fresh_candidate_comparisons(self, tmp_path, store):
        """The paper's pairwise "sooner" metric must survive the mixed case:
        reference cells recovered from the journal, candidate cells freshly
        executed against the cached completion maps."""
        reference = api.run("table5", config=_tiny_config(), store=store)
        reference_path = api.save_results(reference, tmp_path / "reference.jsonl")
        removed = store.prune(lambda entry: entry.key.heuristic != "mct")
        assert removed > 0 and len(store) > 0

        mixed = api.run("table5", config=_tiny_config(), store=store)
        assert mixed.cache_info["recovered"] == len(
            [r for r in mixed.result_set if r.heuristic == "mct"]
        )
        assert mixed.cache_info["executed"] == removed
        mixed_path = api.save_results(mixed, tmp_path / "mixed.jsonl")
        assert open(reference_path, "rb").read() == open(mixed_path, "rb").read()

    def test_damaged_reference_entry_fails_loudly(self, store):
        from repro.store import CellEntry

        api.run("table5", config=_tiny_config(), store=store)
        # Strip the completion maps off the reference entries (a damaged or
        # hand-edited journal): the mixed path must refuse, not mis-compute.
        damaged = [
            CellEntry(key=e.key, record=e.record, completions=None)
            for e in store.entries()
            if e.key.heuristic == "mct"
        ]
        for entry in damaged:
            store.put(entry)
        store.prune(lambda entry: entry.key.heuristic != "mct")
        with pytest.raises(StoreError, match="completion map"):
            api.run("table5", config=_tiny_config(), store=store)


class TestObserverIntegration:
    def test_progress_observer_reports_cached_cells(self, store):
        api.run("table5", config=_tiny_config(), store=store)
        stream = io.StringIO()
        api.run(
            "table5",
            config=_tiny_config(),
            store=store,
            observers=(ProgressObserver(stream=stream),),
        )
        output = stream.getvalue()
        assert "(cached)" in output
        assert "0 computed" in output

    def test_observer_without_cached_keyword_raises(self, store):
        # Observers are always called as on_cell_complete(index, total, record,
        # cached=...); an override that drops the keyword fails loudly.
        class LegacyObserver(CampaignObserver):
            def on_cell_complete(self, index, total, record):  # no `cached`
                pass

        with pytest.raises(TypeError, match="cached"):
            api.run("table5", config=_tiny_config(), store=store, observers=(LegacyObserver(),))
