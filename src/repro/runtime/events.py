"""Event heap and priority deques for the event-driven runtime.

The runtime is a discrete-event simulation: the only moments anything
can change are task completions and (on a fleet) message arrivals, so
the core loop is "dispatch every idle worker, pop the earliest event,
repeat".  Two small data structures carry it:

* :class:`EventQueue` — a heap of ``(time, seq, payload)`` events and
  the simulated time ``now`` of the last one popped, which never runs
  backwards (an event in the past is refused).  The sequence number
  makes pops deterministic under time ties (first-scheduled completes
  first), which is what makes whole runtime runs bit-for-bit
  reproducible.
* :class:`ReadyDeque` — one per worker: ready tasks ordered by priority
  (upward rank).  The owner pops its *best* task from the front; thieves
  steal *half* from the back — the classic steal-half discipline, which
  hands over the low-priority (deep-subtree) work and keeps the
  critical-path tasks local.
"""

from __future__ import annotations

import heapq
from bisect import insort
from typing import Any, Iterable, Iterator

__all__ = ["Event", "EventQueue", "ReadyDeque"]


class Event:
    """One scheduled occurrence; compares by (time, seq)."""

    __slots__ = ("time", "seq", "payload")

    def __init__(self, time: float, seq: int, payload: Any):
        self.time = float(time)
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Event(t={self.time:.6g}, seq={self.seq}, {self.payload!r})"


class EventQueue:
    """Deterministic min-heap of events and the simulated time ``now``.

    ``push`` refuses an event before ``now``, so a pop never moves
    ``now`` backwards: simulated time is monotone by construction.
    """

    def __init__(self):
        #: time of the last event popped (0 before the first)
        self.now = 0.0
        self._heap: list[Event] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, time: float, payload: Any) -> Event:
        if time < self.now - 1e-15:
            raise ValueError(
                f"event at t={time} is in the past (now={self.now})"
            )
        ev = Event(time, self._seq, payload)
        self._seq += 1
        heapq.heappush(self._heap, ev)
        return ev

    def pop(self) -> Event:
        """Remove and return the earliest event, advancing ``now`` to it."""
        if not self._heap:
            raise IndexError("pop from an empty EventQueue")
        ev = heapq.heappop(self._heap)
        self.now = max(self.now, ev.time)
        return ev


class ReadyDeque:
    """Priority-ordered ready queue of one worker.

    Items are ``(priority, tiebreak, payload)``; higher priority sits at
    the *front*.  ``pop_front`` serves the owner, ``steal_back`` serves
    thieves.  Internally a sorted list on ``(-priority, tiebreak)`` so
    both ends are O(1) to read and inserts are O(n) — ready sets here
    are tree frontiers, tens of entries, so simplicity wins.
    """

    def __init__(self):
        self._items: list[tuple[float, int, Any]] = []

    def __len__(self) -> int:
        return len(self._items)

    def __bool__(self) -> bool:
        return bool(self._items)

    def push(self, priority: float, tiebreak: int, payload: Any) -> None:
        insort(self._items, (-float(priority), tiebreak, payload))

    def pop_front(self) -> Any:
        """Highest-priority item (owner side)."""
        return self._items.pop(0)[2]

    def __iter__(self) -> Iterator[Any]:
        """Payloads in priority order (highest first), lazily and without
        a copy; stop iterating before mutating the deque."""
        return (it[2] for it in self._items)

    def peek_all(self) -> list[Any]:
        """A snapshot of the payloads in priority order."""
        return list(self)

    def remove(self, payload: Any) -> bool:
        """Drop the first item whose payload equals ``payload``."""
        for i, it in enumerate(self._items):
            if it[2] == payload:
                del self._items[i]
                return True
        return False

    def steal_back(self, n: int) -> list[Any]:
        """Remove up to ``n`` lowest-priority items from the back.

        Returned in priority order so the thief can re-insert cheaply.
        """
        if n <= 0 or not self._items:
            return []
        n = min(n, len(self._items))
        taken = self._items[-n:]
        del self._items[-n:]
        return [it[2] for it in taken]

    def extend(self, items: Iterable[tuple[float, int, Any]]) -> None:
        for priority, tiebreak, payload in items:
            self.push(priority, tiebreak, payload)
