"""Discrete-event simulation kernel.

This package provides the minimal (but complete) event-driven substrate the
rest of the reproduction runs on: a :class:`~repro.sim.core.Simulator` with a
time-ordered event queue, generator-based :class:`~repro.sim.core.Process`
coroutines, one-shot :class:`~repro.sim.core.Event` objects, timeouts, and
the usual combinators (:class:`~repro.sim.core.AllOf`,
:class:`~repro.sim.core.AnyOf`).  :mod:`repro.sim.sync` adds the broadcast
signal the indirection layer and wait-before-stop use.

The kernel is intentionally SimPy-like so readers familiar with that API can
follow the models, but it is implemented from scratch and carries only what
the reproduction needs.
"""

from repro.sim.core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.sim.sync import Broadcast

__all__ = [
    "AllOf",
    "AnyOf",
    "Broadcast",
    "Event",
    "Interrupt",
    "Process",
    "SimulationError",
    "Simulator",
    "Timeout",
]
