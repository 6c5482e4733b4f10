"""Tests of the campaign execution engine (planning, executors, determinism)."""

from __future__ import annotations

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.errors import ExperimentError
from repro.experiments import (
    ExperimentConfig,
    ExperimentScale,
    MultiprocessingExecutor,
    RunCell,
    SerialExecutor,
    create_executor,
    derive_seed_offset,
    plan_cells,
    run_campaign,
)
from repro.experiments.campaign import CellWork, execute_cell
from repro.platform.middleware import MiddlewareConfig
from repro.results import CampaignObserver
from repro.store import CampaignStore
from repro.workload.problems import PAPER_CATALOGUE
from repro.workload.testbed import first_set_platform, matmul_metatask


def tiny_config(repetitions: int = 1, jobs: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        scale=ExperimentScale(
            name="tiny", task_count=25, metatask_count=1, repetitions=repetitions
        ),
        seed=42,
        jobs=jobs,
    )


def tiny_metatask(seed: int = 42, name: str = "campaign-test"):
    return matmul_metatask(25, 20.0, rng=np.random.default_rng(seed), name=name)


class TestPlanning:
    def test_seed_offsets_derive_from_coordinates_only(self):
        assert derive_seed_offset(0, 0) == 0
        assert derive_seed_offset(0, 3) == 3
        assert derive_seed_offset(2, 1) == 2001

    def test_plan_orders_reference_first_then_metatask_then_repetition(self):
        config = tiny_config(repetitions=2)
        cells = plan_cells(config, metatask_count=2)
        assert len(cells) == 4 * 2 * 2  # heuristics × metatasks × repetitions
        assert [c.heuristic for c in cells[:4]] == ["mct"] * 4
        assert [(c.metatask_index, c.repetition) for c in cells[:4]] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        # every cell's seed offset matches the historical serial scheme
        for cell in cells:
            assert cell.seed_offset == cell.metatask_index * 1000 + cell.repetition

    def test_every_heuristic_covers_every_cell_key(self):
        config = tiny_config(repetitions=2)
        cells = plan_cells(config, metatask_count=3)
        keys_by_heuristic = {}
        for cell in cells:
            keys_by_heuristic.setdefault(cell.heuristic, set()).add(cell.key)
        expected = {(m, r) for m in range(3) for r in range(2)}
        assert all(keys == expected for keys in keys_by_heuristic.values())

    def test_cell_work_is_picklable(self):
        config = tiny_config()
        work = CellWork(
            cell=RunCell("mct", 0, 0, 0),
            platform=first_set_platform(),
            metatask=tiny_metatask(),
            middleware_config=config.middleware_for("mct", 0),
            catalogue=PAPER_CATALOGUE,
        )
        clone = pickle.loads(pickle.dumps(work))
        assert clone.cell == work.cell
        assert clone.metatask.name == work.metatask.name


class TestExecutors:
    def test_create_executor_picks_backend(self):
        assert isinstance(create_executor(None), SerialExecutor)
        assert isinstance(create_executor(1), SerialExecutor)
        assert isinstance(create_executor(4), MultiprocessingExecutor)
        with pytest.raises(ExperimentError):
            create_executor(0)

    def test_multiprocessing_executor_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            MultiprocessingExecutor(0)

    def test_executors_preserve_cell_order(self):
        config = tiny_config()
        platform = first_set_platform()
        metatask = tiny_metatask()
        cells = plan_cells(config, metatask_count=1)
        work_items = [
            CellWork(
                cell=cell,
                platform=platform,
                metatask=metatask,
                middleware_config=config.middleware_for(cell.heuristic, cell.seed_offset),
                catalogue=PAPER_CATALOGUE,
            )
            for cell in cells
        ]
        results = MultiprocessingExecutor(jobs=4)(work_items)
        assert [r.heuristic for r in results] == [c.heuristic for c in cells]

    def test_execute_cell_builds_a_fresh_middleware_per_cell(self):
        config = tiny_config()
        work = CellWork(
            cell=RunCell("mct", 0, 0, 0),
            platform=first_set_platform(),
            metatask=tiny_metatask(),
            middleware_config=config.middleware_for("mct", 0),
            catalogue=PAPER_CATALOGUE,
        )
        first = execute_cell(work)
        second = execute_cell(work)  # would raise if the middleware were reused
        assert first.completed_count == second.completed_count
        assert first.seed == second.seed == config.seed


class TestDeterminism:
    def test_jobs1_and_jobs4_tables_are_byte_identical(self):
        """The headline guarantee: a Table-5-shaped campaign run serially and
        on a 4-worker pool produces byte-identical columns."""
        config = tiny_config(repetitions=2)
        platform = first_set_platform()
        metatask = tiny_metatask()

        serial = run_campaign(
            "table5-shaped", "t", platform, [metatask], config, jobs=1
        )
        parallel = run_campaign(
            "table5-shaped", "t", platform, [metatask], config, jobs=4
        )

        assert pickle.dumps(serial.columns) == pickle.dumps(parallel.columns)
        assert serial.render() == parallel.render()

    def test_parallel_outcomes_match_serial_run_for_run(self):
        config = tiny_config(repetitions=2)
        platform = first_set_platform()
        metatask = tiny_metatask()
        serial = run_campaign("t", "t", platform, [metatask], config, jobs=1)
        parallel = run_campaign("t", "t", platform, [metatask], config, jobs=3)
        for name in serial.columns:
            runs_a = serial.outcomes[name].runs
            runs_b = parallel.outcomes[name].runs
            assert [r.seed for r in runs_a] == [r.seed for r in runs_b]
            assert [r.duration for r in runs_a] == [r.duration for r in runs_b]
            assert [
                sorted(t.completion_time for t in r.tasks if t.completed) for r in runs_a
            ] == [
                sorted(t.completion_time for t in r.tasks if t.completed) for r in runs_b
            ]

    def test_config_jobs_is_honoured(self):
        config = tiny_config(jobs=2)
        platform = first_set_platform()
        metatask = tiny_metatask()
        parallel = run_campaign("t", "t", platform, [metatask], config)
        serial = run_campaign("t", "t", platform, [metatask], config.with_jobs(1))
        assert parallel.columns == serial.columns

    def test_custom_executor_is_pluggable(self):
        calls = {}

        def recording_executor(work_items):
            calls["n"] = len(work_items)
            return [execute_cell(work) for work in work_items]

        config = tiny_config()
        table = run_campaign(
            "t", "t", first_set_platform(), [tiny_metatask()], config,
            executor=recording_executor,
        )
        assert calls["n"] == 4
        assert set(table.columns) == {"mct", "hmct", "mp", "msf"}

    @pytest.mark.parametrize(
        "executor",
        [
            lambda work_items: [execute_cell(work_items[0])],
            lambda work_items: list(map(execute_cell, work_items)) * 2,
        ],
        ids=["too-few", "too-many"],
    )
    def test_mismatched_executor_result_count_raises(self, executor):
        config = tiny_config()
        with pytest.raises(ExperimentError, match="executor returned"):
            run_campaign(
                "t", "t", first_set_platform(), [tiny_metatask()], config,
                executor=executor,
            )


class _CellLog(CampaignObserver):
    """Logs ``(index, cached)`` per cell.  ``on_cell_complete`` has exactly
    the signature of the e2e benchmark's ``CellClock`` observer."""

    def __init__(self):
        self.cells = []

    def on_cell_complete(self, index, total, record, cached=False) -> None:
        self.cells.append((index, cached))


class TestStreaming:
    def test_generator_executor_streams_to_observers(self):
        log = _CellLog()
        seen_before = []

        def generator_executor(work_items):
            for work in work_items:
                seen_before.append([index for index, _ in log.cells])
                yield execute_cell(work)

        run_campaign(
            "t", "t", first_set_platform(), [tiny_metatask()], tiny_config(),
            executor=generator_executor, observers=[log],
        )
        # Each cell reached the observer before the next one was executed.
        assert seen_before == [[], [0], [0, 1], [0, 1, 2]]
        assert log.cells == [(0, False), (1, False), (2, False), (3, False)]

    def test_partly_warm_store_delivers_cells_in_planned_order(self, tmp_path):
        platform, metatasks, config = first_set_platform(), [tiny_metatask()], tiny_config()
        cold_store = CampaignStore(tmp_path / "cold")
        cold = run_campaign("t", "t", platform, metatasks, config, store=cold_store)
        # Journal cell 1 only: cell 0 (the reference) must execute, then the
        # recovered cell 1 follows it, then the executed cells 2 and 3.
        partial = CampaignStore(tmp_path / "partial")
        cell_1 = plan_cells(config, metatask_count=1)[1]
        for entry in cold_store.entries():
            if entry.key.heuristic == cell_1.heuristic:
                partial.put(entry)
        log = _CellLog()
        warm = run_campaign(
            "t", "t", platform, metatasks, config, store=partial, observers=[log]
        )
        assert log.cells == [(0, False), (1, True), (2, False), (3, False)]
        assert warm.cache_info == {"recovered": 1, "executed": 3}
        assert warm.result_set.to_jsonl() == cold.result_set.to_jsonl()


class TestComparisons:
    def test_non_reference_outcomes_compare_against_matching_reference_cell(self):
        config = tiny_config(repetitions=2)
        table = run_campaign("t", "t", first_set_platform(), [tiny_metatask()], config, jobs=4)
        for name, outcome in table.outcomes.items():
            if name == "mct":
                assert outcome.comparisons == []
            else:
                assert len(outcome.comparisons) == 2  # one per (metatask, repetition)
                assert all(c.reference == "mct" for c in outcome.comparisons)


def _two_cell_work(heuristics=("mct", "msf")):
    """Two small cells sharing one platform/metatask (helper for spawn tests)."""
    config = tiny_config()
    platform = first_set_platform()
    metatask = tiny_metatask()
    return [
        CellWork(
            cell=RunCell(name, 0, 0, 0),
            platform=platform,
            metatask=metatask,
            middleware_config=config.middleware_for(name, 0),
            catalogue=PAPER_CATALOGUE,
        )
        for name in heuristics
    ]


def _daemonic_campaign_worker(queue):
    """Runs inside a *daemonic* process, which may not spawn children: the
    multiprocessing executor must degrade to serial execution instead of
    crashing with 'daemonic processes are not allowed to have children'."""
    try:
        results = MultiprocessingExecutor(jobs=2)(_two_cell_work())
        queue.put([(r.heuristic, r.completed_count, r.duration) for r in results])
    except BaseException as exc:  # pragma: no cover - surfaced by the test
        queue.put(exc)


class TestSpawnSafety:
    def test_executor_uses_an_explicit_context(self):
        executor = MultiprocessingExecutor(jobs=2)
        method = executor._context().get_start_method()
        # The platform default is respected (it exists for fork-safety
        # reasons), just resolved into an explicit context.
        assert method == multiprocessing.get_start_method(allow_none=False)

    def test_explicit_start_method_is_honoured(self):
        method = multiprocessing.get_all_start_methods()[0]
        executor = MultiprocessingExecutor(jobs=2, start_method=method)
        assert executor._context().get_start_method() == method

    def test_unknown_start_method_is_rejected(self):
        with pytest.raises(ValueError):
            MultiprocessingExecutor(jobs=2, start_method="not-a-method")

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the daemonic-child regression test needs a fast fork context",
    )
    def test_nested_campaign_inside_daemonic_worker_falls_back_to_serial(self):
        context = multiprocessing.get_context("fork")
        queue = context.Queue()
        child = context.Process(target=_daemonic_campaign_worker, args=(queue,), daemon=True)
        child.start()
        try:
            payload = queue.get(timeout=120)
        finally:
            child.join(timeout=120)
        if isinstance(payload, BaseException):
            raise AssertionError(f"daemonic campaign crashed: {payload!r}")
        # The fallback is byte-identical to an in-process serial run.
        serial = SerialExecutor()(_two_cell_work())
        assert payload == [(r.heuristic, r.completed_count, r.duration) for r in serial]


class TestTruncationFlagging:
    def test_truncated_runs_are_flagged_in_table_notes(self):
        config = ExperimentConfig(
            scale=ExperimentScale(name="tiny", task_count=10, metatask_count=1),
            seed=42,
            middleware=MiddlewareConfig(noise_model=None, max_horizon_s=5.0),
        )
        table = run_campaign(
            "truncated", "t", first_set_platform(), [tiny_metatask()], config
        )
        assert any("truncated" in note for note in table.notes)
        assert all(run.truncated for o in table.outcomes.values() for run in o.runs)

    def test_complete_campaigns_carry_no_truncation_note(self):
        table = run_campaign(
            "complete", "t", first_set_platform(), [tiny_metatask()], tiny_config()
        )
        assert not any("truncated" in note for note in table.notes)
        assert not any(run.truncated for o in table.outcomes.values() for run in o.runs)
