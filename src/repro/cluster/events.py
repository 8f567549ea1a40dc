"""A minimal discrete-event engine."""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Optional, Tuple

from ..errors import ClusterError


class EventQueue:
    """Time-ordered event queue with stable FIFO tie-breaking.

    ``shard`` is the queue's identity in a sharded simulation
    (:class:`~repro.fleet.events.ShardedEventCore`): it sits in every
    heap tuple *between* the timestamp and the FIFO counter, so
    merging the fired-event traces of several shards by their heap
    keys ``(when, shard, seq)`` yields one canonical order that does
    not depend on which shard happened to be iterated first. A
    single-queue simulation leaves it at 0 and nothing changes.
    """

    def __init__(self, shard: int = 0):
        self._heap: list = []
        self._counter = itertools.count()
        self.shard = shard
        self.now = 0.0
        #: optional observer called as ``on_fire(when, label)`` just
        #: before each event's action runs — the flight recorder hooks
        #: this to journal the exact firing order the replay must match.
        self.on_fire: Optional[Callable[[float, str], None]] = None

    def schedule(self, when: float, action: Callable[[], None],
                 label: str = "") -> None:
        if when < self.now - 1e-12:
            raise ClusterError(
                f"cannot schedule event at {when} before now={self.now}")
        heapq.heappush(self._heap,
                       (when, self.shard, next(self._counter), label, action))

    def schedule_in(self, delay: float, action: Callable[[], None],
                    label: str = "") -> None:
        self.schedule(self.now + delay, action, label)

    def empty(self) -> bool:
        return not self._heap

    def peek_key(self) -> Optional[Tuple[float, int, int]]:
        """The next event's merge key ``(when, shard, seq)`` — what a
        multi-shard merge orders by."""
        if not self._heap:
            return None
        when, shard, seq, _label, _action = self._heap[0]
        return when, shard, seq

    def step(self) -> Tuple[float, str]:
        """Pop and run the next event; returns (time, label)."""
        if not self._heap:
            raise ClusterError("event queue is empty")
        when, _shard, _seq, label, action = heapq.heappop(self._heap)
        self.now = when
        if self.on_fire is not None:
            self.on_fire(when, label)
        action()
        return when, label

    def run_until(self, horizon: float, max_events: int = 10_000_000) -> int:
        """Run events up to ``horizon``; returns the number executed.

        ``now`` only advances past the last fired event to ``horizon``
        when every event at or before the horizon actually ran: if
        ``max_events`` stopped the loop early, still-queued events
        would otherwise be stranded in the past and their eventual
        ``schedule`` neighbors would raise "cannot schedule before
        now".

        Each event fires exactly as :meth:`step` fires it — ``now``
        set, then ``on_fire``, then the action — inlined here because a
        fleet storm fires tens of thousands of them per run.
        """
        heap = self._heap
        pop = heapq.heappop
        executed = 0
        while heap and heap[0][0] <= horizon and executed < max_events:
            when, _shard, _seq, label, action = pop(heap)
            self.now = when
            if self.on_fire is not None:
                self.on_fire(when, label)
            action()
            executed += 1
        if not heap or heap[0][0] > horizon:
            self.now = max(self.now, horizon)
        return executed
