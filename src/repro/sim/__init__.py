"""Discrete-event simulation kernel.

This package is the lowest-level substrate of the reproduction: a compact,
deterministic discrete-event simulator in the style of SimPy, specialized
for the needs of the Redy reproduction (microsecond-scale network protocol
simulation, resource contention, and processes that see a failure or a
reclamation as a failed event they wait on).

Time is modelled as a ``float`` number of *seconds*.  Helper constants
(:data:`US`, :data:`MS`, :data:`S`) make intent explicit at call sites::

    yield env.timeout(4.1 * US)

Determinism: events scheduled for the same instant fire in insertion
order, so a simulation with a fixed RNG seed replays exactly.
"""

from repro.sim.clock import MINUTE, MS, NS, S, US
from repro.sim.kernel import (
    Environment,
    Event,
    Process,
    Ready,
    SimulationError,
    Timeout,
)
from repro.sim.resources import Resource, Store
from repro.sim.rng import RngRegistry

__all__ = [
    "Environment",
    "Event",
    "MINUTE",
    "MS",
    "NS",
    "Process",
    "Ready",
    "Resource",
    "RngRegistry",
    "S",
    "SimulationError",
    "Store",
    "Timeout",
    "US",
]
