"""The sharded discrete-event core.

One global :class:`~repro.cluster.events.EventQueue` serializes every
event in the fleet through a single heap — fine for a handful of nodes,
hostile to thousands. The sharded core partitions the fleet by node id
across per-shard queues and advances simulated time in **barrier
windows** of ``barrier_dt`` seconds:

1. every shard independently drains its queue up to the window's end —
   legal only because intra-window events are *node-local* by contract
   (they touch their own node's state plus commutative global counters),
2. at the barrier, cross-shard messages posted during the window are
   delivered in one canonical order — sorted by ``(due time, caller
   key)``, never by arrival order, which would depend on which shard
   ran first,
3. the barrier observer (the storm controller) runs global logic —
   scheduling decisions, chaos, energy metering, journaling — over
   state that every shard agrees on.

Because nothing observable depends on how nodes are partitioned, the
same spec produces the *same* fired-event trace, the same barrier
schedule, and the same state digests whether the core runs 1 shard or
64 — the fleet determinism tests pin exactly that, and the flight
recorder journals the barrier schedule (``EV_BARRIER``) so a recorded
storm replays bit-identically.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from ..cluster.events import EventQueue
from ..errors import FleetError

#: epsilon for "have we reached the horizon" float comparisons
_EPS = 1e-9


class ShardedEventCore:
    """Per-shard event queues with batched cross-shard barrier delivery."""

    def __init__(self, shards: int, barrier_dt: float):
        if shards < 1:
            raise FleetError(f"need at least one shard, got {shards}")
        if barrier_dt <= 0:
            raise FleetError(f"barrier_dt must be positive, got "
                             f"{barrier_dt}")
        self.queues: List[EventQueue] = [EventQueue(shard=i)
                                         for i in range(shards)]
        self.barrier_dt = barrier_dt
        self.now = 0.0
        self.barriers = 0
        self.fired = 0          #: total events executed (shards + barrier)
        #: observer called as ``on_barrier(index, when, fired_in_window)``
        #: after each window's shard work and mail delivery
        self.on_barrier: Optional[Callable[[int, float, int], None]] = None
        # Cross-shard mailbox: (due, key, payload-index, label, action).
        # The payload index keeps heap comparisons away from the
        # callables; ordering is (due, key) alone — caller keys must be
        # unique per (due) for a canonical order, which the fleet
        # guarantees by keying every message with its migration id /
        # node id / controller sequence number.
        self._mail: list = []
        self._mail_seq = itertools.count()

    @property
    def shards(self) -> int:
        return len(self.queues)

    def shard_of(self, node_id: int) -> int:
        return node_id % len(self.queues)

    # -- scheduling --------------------------------------------------------

    def schedule_node(self, when: float, node_id: int,
                      action: Callable[[], None], label: str = "") -> None:
        """Schedule a *node-local* event onto the node's shard.

        The action contract: it may read and write its own node's
        state, update commutative global counters, call
        :meth:`schedule_node` for the **same** node (or schedule straight
        onto that node's shard queue, as the storm's traffic tick does),
        and :meth:`post` messages — it must not touch another node
        directly, or the trace stops being shard-invariant.
        """
        self.queues[self.shard_of(node_id)].schedule(when, action, label)

    def post(self, when: float, key: Tuple, action: Callable[[], None],
             label: str = "") -> None:
        """Post a cross-shard message: delivered at the first barrier at
        or after ``when``, in ``(when, key)`` order.

        ``key`` is the caller's canonical tie-break (a tuple of ints /
        strings); two messages due at the same barrier are delivered in
        key order regardless of which shard — or which barrier action —
        posted them first.
        """
        if when < self.now - _EPS:
            raise FleetError(f"cannot post mail at {when} before "
                             f"now={self.now}")
        heapq.heappush(self._mail,
                       (when, key, next(self._mail_seq), label, action))

    # -- execution ---------------------------------------------------------

    def _deliver_mail(self, horizon: float) -> int:
        """Deliver every message due by ``horizon``.

        Messages already sit in a heap keyed ``(when, key, seq)``; the
        seq only breaks exact ``(when, key)`` collisions, which the
        canonical-key contract reserves for messages whose relative
        order cannot matter. Delivery may post new mail — a message due
        *this* barrier (e.g. a zero-delay follow-up) is delivered in
        the same sweep, after everything with a smaller key.
        """
        delivered = 0
        while self._mail and self._mail[0][0] <= horizon + _EPS:
            _when, _key, _seq, _label, action = heapq.heappop(self._mail)
            action()
            delivered += 1
        return delivered

    def run_until(self, horizon: float) -> int:
        """Advance the fleet to ``horizon``; returns events executed."""
        total = 0
        while self.now < horizon - _EPS:
            window_end = min(self.now + self.barrier_dt, horizon)
            fired = 0
            for queue in self.queues:
                fired += queue.run_until(window_end)
            self.now = window_end
            fired += self._deliver_mail(window_end)
            index = self.barriers
            self.barriers += 1
            self.fired += fired
            total += fired
            if self.on_barrier is not None:
                self.on_barrier(index, window_end, fired)
        return total

    def pending(self) -> int:
        """Events still queued across every shard and the mailbox."""
        return sum(len(q._heap) for q in self.queues) + len(self._mail)

    def merged_trace_keys(self) -> List[Tuple[float, int, int]]:
        """The heap keys of every still-queued shard event, merged in
        canonical ``(when, shard, seq)`` order — what a multi-shard
        trace merge sorts by (the shard id sits in the heap tuple
        exactly so this order is stable)."""
        keys: List[Tuple[float, int, int]] = []
        for queue in self.queues:
            keys.extend((when, shard, seq)
                        for when, shard, seq, _l, _a in queue._heap)
        return sorted(keys)

    def __repr__(self) -> str:
        return (f"<ShardedEventCore shards={self.shards} now={self.now:.2f} "
                f"barriers={self.barriers} fired={self.fired}>")
