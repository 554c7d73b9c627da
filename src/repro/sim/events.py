"""Event objects used by the simulation engine."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Optional


class EventKind(enum.Enum):
    """Coarse classification of simulation events.

    The kinds mirror the actors in the paper: the prover's measurement
    timer, the verifier's collection requests, network packet delivery,
    adversary activity and generic application tasks.
    """

    MEASUREMENT = "measurement"
    COLLECTION = "collection"
    PACKET_DELIVERY = "packet_delivery"
    MALWARE_ARRIVAL = "malware_arrival"
    MALWARE_DEPARTURE = "malware_departure"
    TASK = "task"
    TIMER = "timer"
    GENERIC = "generic"


_sequence = itertools.count()


@dataclass(eq=False)
class Event:
    """A single scheduled event.

    The engine queues ``(time, sequence, event)`` tuples, so the heap
    compares floats and ints and simultaneous events fire in scheduling
    order, which keeps traces deterministic.  Events themselves are not
    ordered, and two events are equal only when they are the same one.
    """

    time: float
    sequence: int
    kind: EventKind = EventKind.GENERIC
    callback: Optional[Callable[["Event"], None]] = None
    payload: Any = None
    cancelled: bool = False

    @classmethod
    def create(cls, time: float, callback: Callable[["Event"], None],
               kind: EventKind = EventKind.GENERIC,
               payload: Any = None) -> "Event":
        """Build an event with a fresh global sequence number."""
        return cls(time=time, sequence=next(_sequence), kind=kind,
                   callback=callback, payload=payload)

    def cancel(self) -> None:
        """Mark the event as cancelled; the engine will skip it."""
        self.cancelled = True
