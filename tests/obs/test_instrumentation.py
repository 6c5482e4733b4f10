"""Unit tests of the :class:`~repro.obs.Instrumentation` value."""

from __future__ import annotations

import dataclasses

import pytest

from repro.obs import Instrumentation, MetricsSampler, Tracer
from repro.obs.profile import profile_scenario


class TestInstrumentation:
    def test_default_observes_nothing(self):
        off = Instrumentation()
        assert not off.trace and not off.metrics
        assert off.tracer() is None
        assert off.sampler() is None

    def test_tracer_is_fresh_per_cell_and_carries_the_limit(self):
        instrumentation = Instrumentation(trace=True, trace_limit=5)
        first, second = instrumentation.tracer(), instrumentation.tracer()
        assert isinstance(first, Tracer) and first is not second
        assert first.limit == 5
        first.emit(0.0, "tick")
        assert len(second) == 0  # cells never share a ring

    def test_sampler_carries_interval_and_window(self):
        instrumentation = Instrumentation(metrics_interval=60.0, metrics_window=90.0)
        assert instrumentation.metrics
        sampler = instrumentation.sampler()
        assert isinstance(sampler, MetricsSampler)
        assert (sampler.interval, sampler.window) == (60.0, 90.0)
        assert instrumentation.sampler() is not sampler
        assert instrumentation.tracer() is None  # metrics alone do not trace

    def test_smallest_valid_settings_are_accepted(self):
        value = Instrumentation(trace=True, trace_limit=1, metrics_interval=1e-9)
        assert value.tracer().limit == 1

    def test_value_is_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Instrumentation().trace = True


def test_profile_counters_are_deterministic_across_runs():
    first = profile_scenario("paper-low-rate", tasks=10)
    second = profile_scenario("paper-low-rate", tasks=10)
    assert first.counters and first.counters == second.counters
    assert first.per_cell == second.per_cell
    assert first.tasks_simulated == second.tasks_simulated
