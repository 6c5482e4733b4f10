"""What to observe in a campaign: one value for the trace and metrics knobs.

An :class:`Instrumentation` travels from :func:`repro.experiments.campaign.run_campaign`
through every :class:`~repro.experiments.campaign.CellWork` into the worker
that executes the cell, where it builds the cell's :class:`~repro.obs.Tracer`
and :class:`~repro.obs.MetricsSampler`.  It is execution-only: no field enters
a record, a fingerprint or a store key, so an instrumented campaign keeps the
exact record bytes of an uninstrumented one.

Invalid settings are rejected when the value is built, before any planning,
so a campaign whose cells all come from a warm store cannot pass a bad knob
silently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ExperimentError
from .metrics import MetricsSampler
from .trace import Tracer

__all__ = ["Instrumentation"]


@dataclass(frozen=True)
class Instrumentation:
    """Per-cell observation settings of a campaign (all off by default)."""

    #: Attach a :class:`~repro.obs.Tracer` to every executed cell.
    trace: bool = False
    #: Per-cell event-ring bound (``None`` = unbounded).
    trace_limit: Optional[int] = None
    #: Sample every this many virtual seconds (``None`` = metrics off).
    metrics_interval: Optional[float] = None
    #: Sliding window (virtual seconds) of the windowed throughput / latency
    #: columns (``None`` = the sampler's default multiple of the interval).
    metrics_window: Optional[float] = None

    def __post_init__(self) -> None:
        if self.trace_limit is not None and self.trace_limit < 1:
            raise ExperimentError(f"trace limit must be >= 1, got {self.trace_limit}")
        if self.metrics_interval is not None and not self.metrics_interval > 0:
            raise ExperimentError(
                f"metrics interval must be > 0, got {self.metrics_interval}"
            )
        if self.metrics_window is not None:
            if self.metrics_interval is None:
                raise ExperimentError("a metrics window needs a metrics interval")
            if not self.metrics_window > 0:
                raise ExperimentError(
                    f"metrics window must be > 0, got {self.metrics_window}"
                )

    @property
    def metrics(self) -> bool:
        """Whether the metrics sampler is on."""
        return self.metrics_interval is not None

    def tracer(self) -> Optional[Tracer]:
        """A fresh tracer for one cell, or ``None`` when tracing is off."""
        return Tracer(limit=self.trace_limit) if self.trace else None

    def sampler(self) -> Optional[MetricsSampler]:
        """A fresh sampler for one cell, or ``None`` when metrics are off."""
        if self.metrics_interval is None:
            return None
        return MetricsSampler(self.metrics_interval, window=self.metrics_window)
