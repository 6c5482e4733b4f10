"""The callback calendar of the discrete-event simulation.

:class:`Environment` keeps the simulation clock and a calendar of callbacks
due at future dates: a binary heap ordered by ``(time, priority, insertion
index)``, so the execution order is fully deterministic.  Everything the
platform model schedules (arrivals, monitor reports, server wakeups,
collapse recoveries, retries) is a zero-argument callable handed to
:meth:`Environment.call_in`; periodic activities reschedule themselves.
"""

from __future__ import annotations

import heapq
from typing import Callable, List, Optional, Tuple

from ..errors import EmptySchedule

__all__ = ["Environment", "Infinity", "URGENT", "NORMAL"]

#: Convenience alias used for "run forever" bounds.
Infinity = float("inf")

#: Priority of urgent callbacks (run before normal ones due at the same date).
URGENT = 0
#: Priority of normal callbacks.
NORMAL = 1


class Environment:
    """Simulation clock plus a calendar of callbacks due at future dates.

    Callbacks due at the same date run by priority (:data:`URGENT` first),
    then in the order they were scheduled, making runs reproducible
    bit-for-bit for a given model and seed.
    """

    def __init__(self, initial_time: float = 0.0):
        self._now = float(initial_time)
        self._queue: List[Tuple[float, int, int, Callable[[], None]]] = []
        self._eid = 0
        self._stopped = False

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    def call_in(self, delay: float, fn: Callable[[], None], priority: int = NORMAL) -> None:
        """Schedule ``fn()`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._queue, (self._now + delay, priority, self._eid, fn))
        self._eid += 1

    def peek(self) -> float:
        """Date of the next scheduled callback, or ``inf`` if the calendar is empty."""
        return self._queue[0][0] if self._queue else Infinity

    def step(self) -> None:
        """Advance the clock to the next callback and run it.

        Raises
        ------
        EmptySchedule
            If the calendar is empty.
        """
        try:
            self._now, _, _, fn = heapq.heappop(self._queue)
        except IndexError:
            raise EmptySchedule("the event calendar is empty") from None
        fn()

    def stop(self) -> None:
        """End the current :meth:`run` once the running callback returns."""
        self._stopped = True

    def run(self, until: Optional[float] = None) -> None:
        """Run callbacks until :meth:`stop`, an empty calendar or ``until``.

        With ``until``, every callback due at or before that date runs and
        the clock is then left at ``until`` (unless :meth:`stop` ended the
        run earlier).
        """
        limit = Infinity if until is None else float(until)
        if limit < self._now:
            raise ValueError(
                f"until ({limit}) must not be earlier than the current time ({self._now})"
            )
        self._stopped = False
        queue = self._queue
        while queue and queue[0][0] <= limit:
            self.step()
            if self._stopped:
                return
        if limit != Infinity:
            self._now = limit

    def __repr__(self) -> str:
        return f"<Environment now={self._now} pending={len(self._queue)}>"
