"""Discrete-event simulation engine.

Everything time-dependent in the reproduction -- measurement schedules,
verifier collections, malware arrival/departure, packet delivery, swarm
mobility -- runs on this engine.  It is a classic event-queue simulator:
events carry a firing time and a callback; the engine pops them in time
order (simultaneous ones in scheduling order) and advances a virtual
clock.  No wall-clock time is ever used, so every experiment is exactly
reproducible from its seed and parameters.

A :class:`TraceRecorder` is opt-in: pass one as
``SimulationEngine(trace=...)`` to keep a per-event history (the prover
records each measurement attempt there).  Live observers should use the
prover's ``measurement_listeners`` instead, which carry the same facts
without retaining them.
"""

from repro.sim.engine import SimulationEngine, SimulationError
from repro.sim.events import Event, EventKind
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "Event",
    "EventKind",
    "SimulationEngine",
    "SimulationError",
    "TraceEvent",
    "TraceRecorder",
]
