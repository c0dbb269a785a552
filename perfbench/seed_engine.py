"""The seed commit's event queue and simulator loop, vendored unchanged.

Copied from ``src/repro/sim/events.py`` and ``src/repro/sim/engine.py``
of the repository's first commit (2eff73a) so the engine gate
(:mod:`engine_gate`) can time the seed queue next to the current one in
the same process.  Only what the gate's loop touches is kept: the
simulator's random-stream registry and tracer are left out, and
``SimulationError`` comes from the current package.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

class Event:
    """A scheduled callback.

    Instances are returned by :meth:`EventQueue.push` (and by
    ``Simulator.schedule``) and can be cancelled.  Cancelled events stay
    in the heap but are skipped when popped; this is the standard lazy
    deletion trick and keeps cancellation O(1).
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "_queue")

    def __init__(self, time: float, seq: int,
                 callback: Callable[..., Any], args: tuple,
                 queue: "EventQueue") -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self._queue = queue

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            self._queue._live -= 1

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = getattr(self.callback, "__name__", repr(self.callback))
        return f"<Event t={self.time:.6f} seq={self.seq} {name} {state}>"


class EventQueue:
    """Deterministic min-heap of :class:`Event` objects."""

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of *live* (non-cancelled) events."""
        return self._live

    def push(self, time: float, callback: Callable[..., Any],
             args: tuple = ()) -> Event:
        """Schedule ``callback(*args)`` at absolute ``time``."""
        if time != time:  # NaN guard: a NaN time would corrupt the heap
            raise SimulationError("event scheduled at NaN time")
        event = Event(time, self._seq, callback, args, self)
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, event)
        return event

    def pop(self) -> Optional[Event]:
        """Remove and return the earliest live event, or None if empty."""
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self._live -= 1
            return event
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the earliest live event without removing it."""
        while self._heap and self._heap[0].cancelled:
            heapq.heappop(self._heap)
        if not self._heap:
            return None
        return self._heap[0].time


class SeedSimulator:
    """The seed ``Simulator``'s clock, scheduling and run loop."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue = EventQueue()
        self._events_fired = 0
        self._running = False

    @property
    def events_fired(self) -> int:
        return self._events_fired

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0.0:
            raise SimulationError(f"cannot schedule in the past: {delay}")
        return self._queue.push(self._now + delay, callback, args)

    def step(self) -> bool:
        """Execute the next event.  Returns False if the queue is empty."""
        event = self._queue.pop()
        if event is None:
            return False
        if event.time < self._now:
            raise SimulationError("event queue time went backwards")
        self._now = event.time
        self._events_fired += 1
        event.callback(*event.args)
        return True

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` have fired.

        Returns the simulated time at which execution stopped.  When
        ``until`` is given and the queue drains earlier, the clock is
        advanced to ``until`` so that periodic measurements line up.
        """
        if self._running:
            raise SimulationError("Simulator.run is not reentrant")
        self._running = True
        fired = 0
        try:
            while True:
                if max_events is not None and fired >= max_events:
                    break
                next_time = self._queue.peek_time()
                if next_time is None:
                    if until is not None and until > self._now:
                        self._now = until
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                fired += 1
        finally:
            self._running = False
        return self._now
