"""Streaming observers of a running campaign.

The campaign engine (:func:`repro.experiments.campaign.run_campaign`) builds
one :class:`~repro.results.records.RunRecord` per cell *as results stream
back from the executor*, in planned cell order, and notifies every attached
observer.  Observers therefore see a campaign incrementally — enough to feed
a live result store or a progress display — without ever changing the
numbers: they are pure consumers, called in the same deterministic order at
every ``jobs`` level.

Attach observers either through ``run_campaign(..., observers=[...])`` or
through ``ExperimentConfig.observers`` (which rides along ``repro.api.run``
and the scenario runners).
"""

from __future__ import annotations

import sys
from typing import IO, Optional

from ..obs import perf_counter
from .records import RunRecord
from .resultset import ResultSet

__all__ = ["CampaignObserver", "ResultSetObserver", "ProgressObserver"]


class CampaignObserver:
    """Base observer: every hook is a no-op — override what you need.

    The campaign engine always calls
    ``on_cell_complete(index, total, record, cached=cached)``: ``cached``
    reports whether the cell was recovered from an attached
    :class:`~repro.store.CampaignStore` journal (``True``) or freshly
    simulated (``False``), so an override must accept the keyword.
    """

    def on_campaign_start(self, experiment_id: str, total_cells: int) -> None:
        """Called once, before the first cell executes."""

    def on_cell_complete(
        self, index: int, total: int, record: RunRecord, cached: bool = False
    ) -> None:
        """Called once per cell, in planned cell order (index is 0-based)."""

    def on_campaign_end(self, result_set: ResultSet) -> None:
        """Called once, after the last cell, with the campaign's full set."""


class ResultSetObserver(CampaignObserver):
    """Accumulates streamed records into an incremental :class:`ResultSet`.

    ``observer.result_set`` grows by one record per completed cell; after
    ``on_campaign_end`` it equals the campaign's own set (records only —
    the campaign attaches title/notes meta to its final set).  One observer
    instance may watch several campaigns in sequence and ends up with the
    concatenation, which is how sweeps build their combined set.  Records
    recovered from a store are appended exactly like freshly computed ones —
    they are byte-identical by construction.
    """

    def __init__(self, result_set: Optional[ResultSet] = None):
        self.result_set = result_set if result_set is not None else ResultSet()

    def on_cell_complete(
        self, index: int, total: int, record: RunRecord, cached: bool = False
    ) -> None:
        self.result_set.append(record)


class ProgressObserver(CampaignObserver):
    """Prints one progress line per completed cell (the CLI's ``--progress``).

    Output goes to ``stream`` (default: stderr, so tables on stdout stay
    machine-parsable and byte-identical with and without progress display).
    Cells recovered from a campaign store are marked ``(cached)``, and the
    end-of-campaign line splits the total into cached vs computed whenever a
    store served at least one cell.  Each line carries the running
    throughput (cells/s) and an ETA once at least one cell has landed; the
    clock behind them is :func:`repro.obs.perf_counter` — wall time stays on
    this display-only path and never reaches records.
    """

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self._cached = 0
        self._computed = 0
        self._t0: Optional[float] = None

    def _pace(self, done: int, total: int) -> str:
        """`` — 12.3 cells/s, ETA 0:42`` (empty until the rate is measurable)."""
        if self._t0 is None:
            return ""
        elapsed = perf_counter() - self._t0
        if elapsed <= 0.0 or done <= 0:
            return ""
        rate = done / elapsed
        remaining = max(0, total - done)
        eta_s = int(remaining / rate) if rate > 0 else 0
        return f" — {rate:.1f} cells/s, ETA {eta_s // 60}:{eta_s % 60:02d}"

    def on_campaign_start(self, experiment_id: str, total_cells: int) -> None:
        self._cached = 0
        self._computed = 0
        self._t0 = perf_counter()
        print(f"[{experiment_id}] {total_cells} cells planned", file=self.stream)

    def on_cell_complete(
        self, index: int, total: int, record: RunRecord, cached: bool = False
    ) -> None:
        if cached:
            self._cached += 1
        else:
            self._computed += 1
        status = " TRUNCATED" if record.truncated else ""
        origin = " (cached)" if cached else ""
        print(
            f"[{record.experiment_id}] {index + 1}/{total} "
            f"{record.heuristic} m{record.metatask_index} rep{record.repetition}"
            f"{origin}{status}{self._pace(index + 1, total)}",
            file=self.stream,
        )

    def on_campaign_end(self, result_set: ResultSet) -> None:
        split = (
            f" ({self._cached} cached, {self._computed} computed)"
            if self._cached
            else ""
        )
        pace = ""
        if self._t0 is not None:
            elapsed = perf_counter() - self._t0
            if elapsed > 0.0 and len(result_set):
                pace = f" in {elapsed:.1f}s ({len(result_set) / elapsed:.1f} cells/s)"
        sequential = ""
        counters = (result_set.meta.get("sequential") or {}).get("counters") or {}
        if counters:
            rounds = counters.get("stats.rounds", 0)
            cells = counters.get("stats.cells", 0)
            unresolved = counters.get("stats.groups_unresolved", 0)
            groups = counters.get("stats.groups", 0)
            sequential = (
                f" — sequential: {rounds} round(s), {cells} cell(s), "
                f"{unresolved}/{groups} group(s) unresolved at stop"
            )
        print(
            f"[{result_set.meta.get('experiment_id', 'campaign')}] "
            f"done: {len(result_set)} records{split}{pace}{sequential}",
            file=self.stream,
        )
