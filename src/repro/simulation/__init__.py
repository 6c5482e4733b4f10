"""Discrete-event simulation substrate.

This package holds a small callback calendar plus the fluid processor-sharing
models that the rest of the library builds upon:

* :class:`Environment` — the simulation clock and a calendar of callbacks
  scheduled with :meth:`Environment.call_in` (:data:`URGENT` / :data:`NORMAL`
  order callbacks due at the same date);
* :class:`ProcessorSharingQueue`, :class:`FluidNetwork` — the egalitarian
  time-sharing model of the paper (Section 2.3), implemented in *virtual
  time* with heap-based event scheduling (O(log J) per event; see
  :mod:`repro.simulation.fluid`; the pre-virtual-time core survives as the
  test oracle in :mod:`repro.simulation.fluid_legacy`);
* :class:`RandomStreams` — reproducible named random streams.
"""

from .engine import NORMAL, URGENT, Environment, Infinity
from .fluid import (
    EPSILON,
    FluidEvent,
    FluidNetwork,
    FluidStage,
    FluidTaskState,
    ProcessorSharingQueue,
    PSJob,
)
from .rng import RandomStreams

__all__ = [
    "Environment",
    "Infinity",
    "URGENT",
    "NORMAL",
    "EPSILON",
    "PSJob",
    "ProcessorSharingQueue",
    "FluidStage",
    "FluidTaskState",
    "FluidEvent",
    "FluidNetwork",
    "RandomStreams",
]
