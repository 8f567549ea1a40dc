"""The fault injector: schedulable faults, driven by the journal-aware RNG.

Every decision the injector makes is one draw from a seeded
:class:`~repro.core.rng.RngService`, so a chaos run is a pure function
of its :class:`~repro.chaos.faults.FaultPlan`: the same seed fires the
same faults at the same sites in the same order, and — because the RNG
service reports each draw to the flight recorder — a recorded chaos run
replays bit-identically from its own journal. Fired faults are
additionally journaled as ``EV_FAULT`` events (``label =
"chaos:<kind>@<site>"``).

Instrumented layers call one injection-site method each; a ``None``
injector is the universal no-op, so fault-free paths pay nothing:

* :meth:`link_fault` — :class:`~repro.cluster.network.Network` scp and
  the migration pipeline's transfer stage (drop / partition / latency),
* :meth:`ship_faults` — :func:`repro.store.transfer.ship` (mid-transfer
  abort, corrupted chunk),
* :meth:`corrupt_roll` — plain-scp image corruption,
* :meth:`node_fault` — dump / restore node crashes,
* :meth:`page_server_fault` — arms post-copy page-server death,
* :meth:`eviction_fault` — eviction-migration failures in the cluster
  scheduler's supervisor loop.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..core.rng import RngService
from ..errors import LinkDropFault, NodeCrashFault
from .faults import BP, FaultPlan


class FiredFault:
    """Record of one fault the injector actually fired."""

    __slots__ = ("kind", "site", "detail")

    def __init__(self, kind: str, site: str, detail: str = ""):
        self.kind = kind
        self.site = site
        self.detail = detail

    def __repr__(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return f"<FiredFault {self.kind}@{self.site}{extra}>"


class FaultInjector:
    """Draws scheduled faults from a seeded plan at each injection site."""

    #: latency-spike factor range (uniform integer draw)
    LATENCY_FACTORS = (2, 12)
    #: how many failed attempts a partition persists for (uniform draw)
    PARTITION_SPAN = (2, 4)

    def __init__(self, plan: FaultPlan, rng: Optional[RngService] = None,
                 recorder=None):
        self.plan = plan
        self.rng = rng if rng is not None else RngService(plan.seed,
                                                          name="chaos")
        #: optional :class:`~repro.replay.recorder.FlightRecorder` —
        #: fired faults are journaled as EV_FAULT events through it
        self.recorder = recorder
        self.fired: List[FiredFault] = []
        # (a, b) -> failed attempts the partition still swallows
        self._partitions = {}

    # -- internals --------------------------------------------------------

    def _roll(self, kind: str, site: str) -> bool:
        """One probability draw. Zero-probability kinds draw nothing, so
        plans only consume RNG state for the kinds they enable."""
        bp = self.plan.bp[kind]
        if bp <= 0:
            return False
        return self.rng.randrange(BP, label=f"{kind}@{site}") < bp

    def _fire(self, kind: str, site: str, detail: str = "",
              a: int = 0, b: int = 0) -> FiredFault:
        fault = FiredFault(kind, site, detail)
        self.fired.append(fault)
        if self.recorder is not None:
            from ..replay.journal import EV_FAULT
            self.recorder.on_event(EV_FAULT,
                                   label=f"chaos:{kind}@{site}", a=a, b=b)
        return fault

    def note(self, kind: str, site: str, detail: str = "",
             a: int = 0, b: int = 0) -> FiredFault:
        """Record (and journal) a chaos *consequence* that was not itself
        a probability draw — a rollback, a pre-copy fallback — so replay
        can cross-check the transaction's control flow, not just its
        RNG stream."""
        return self._fire(kind, site, detail, a=a, b=b)

    def counts(self) -> dict:
        out: dict = {}
        for fault in self.fired:
            out[fault.kind] = out.get(fault.kind, 0) + 1
        return out

    # -- injection sites --------------------------------------------------

    def link_fault(self, src: str, dst: str, site: str = "scp") -> float:
        """Consult the link between ``src`` and ``dst`` *before* any
        bytes move.

        Returns a latency factor (1.0 = nominal) on survival; raises
        :class:`LinkDropFault` on a drop or while a partition holds.
        """
        pair = (src, dst)
        remaining = self._partitions.get(pair, 0)
        if remaining > 0:
            self._partitions[pair] = remaining - 1
            self._fire("partition", site, f"{src}->{dst}", a=remaining)
            raise LinkDropFault(
                f"{src}->{dst} partitioned ({remaining} attempt(s) until "
                f"heal)", kind="partition", site=site)
        if self._roll("partition", site):
            lo, hi = self.PARTITION_SPAN
            span = self.rng.randint(lo, hi, label=f"partition-span@{site}")
            self._partitions[pair] = span - 1
            self._fire("partition", site, f"{src}->{dst}", a=span)
            raise LinkDropFault(f"{src}->{dst} partitioned for {span} "
                                f"attempt(s)", kind="partition", site=site)
        if self._roll("drop", site):
            self._fire("drop", site, f"{src}->{dst}")
            raise LinkDropFault(f"link {src}->{dst} dropped mid-{site}",
                                kind="drop", site=site)
        if self._roll("latency", site):
            lo, hi = self.LATENCY_FACTORS
            factor = self.rng.randint(lo, hi, label=f"latency@{site}")
            self._fire("latency", site, f"x{factor}", a=factor)
            return float(factor)
        return 1.0

    def ship_faults(self, nchunks: int, site: str = "ship"
                    ) -> Tuple[Optional[int], Optional[int]]:
        """Mid-transfer faults for a chunked ship of ``nchunks`` chunks.

        Returns ``(drop_at, corrupt_at)`` chunk indices (``None`` =
        fault not scheduled). The caller aborts the transfer *at*
        ``drop_at`` (chunks before it have already landed — exactly the
        partial state rollback must clean up) and flips one byte of the
        chunk at ``corrupt_at`` so arrival re-hashing catches it. A
        corrupt drawn at or past the drop is neither fired nor returned:
        that chunk never ships, so no byte of it could flip.
        """
        drop_at = corrupt_at = None
        if nchunks > 0 and self._roll("drop", site):
            drop_at = self.rng.randrange(nchunks, label=f"drop-at@{site}")
            self._fire("drop", site, f"chunk {drop_at}/{nchunks}",
                       a=drop_at, b=nchunks)
        if nchunks > 0 and self._roll("corrupt", site):
            corrupt_at = self.rng.randrange(nchunks,
                                            label=f"corrupt-at@{site}")
            if drop_at is not None and corrupt_at >= drop_at:
                corrupt_at = None
            else:
                self._fire("corrupt", site,
                           f"chunk {corrupt_at}/{nchunks}",
                           a=corrupt_at, b=nchunks)
        return drop_at, corrupt_at

    def corrupt_roll(self, site: str = "scp") -> bool:
        """One corruption decision for a non-chunked transfer."""
        if self._roll("corrupt", site):
            self._fire("corrupt", site)
            return True
        return False

    def node_fault(self, site: str, node: str) -> None:
        """Raise :class:`NodeCrashFault` if the node crashes mid-stage."""
        if self._roll("crash", site):
            self._fire("crash", site, node)
            raise NodeCrashFault(f"node {node} crashed during {site}",
                                 kind="crash", site=site)

    def page_server_fault(self, server) -> bool:
        """Maybe arm the page server to die mid post-copy.

        The request count at which it dies is drawn from the RNG, so
        the death lands at a deterministic point of the destination's
        fault-in stream.
        """
        if not self._roll("pskill", "page-server"):
            return False
        horizon = max(1, server.remaining_pages())
        after = self.rng.randint(0, horizon, label="pskill-after")
        server.schedule_death(after)
        self._fire("pskill", "page-server", f"after {after} requests",
                   a=after, b=horizon)
        return True

    def eviction_fault(self, node: str) -> bool:
        """Did the eviction migration toward ``node`` fail mid-flight?"""
        if self._roll("drop", f"evict:{node}"):
            self._fire("drop", f"evict:{node}")
            return True
        return False

    # -- fleet-scale sites ------------------------------------------------

    def migration_stage_fault(self, stage: str, src: str, dst: str
                              ) -> Tuple[Optional[str], float]:
        """One stage consultation for a *modeled* fleet migration.

        Mirrors the real pipeline's per-stage fault surface at model
        scale: a participating node can crash (any stage), the link can
        drop mid-transfer, or the link can merely slow down. Returns
        ``(fired kind or None, latency factor)``; the fleet's staged
        transaction turns a fired kind into a retry or a rollback, just
        as :class:`~repro.core.migration.MigrationPipeline` does for
        the real faults.
        """
        site = f"fleet:{stage}"
        if self._roll("crash", site):
            victim = self.rng.choice((src, dst),
                                     label=f"crash-victim@{site}")
            self._fire("crash", site, victim)
            return "crash", 1.0
        if stage in ("scp", "ship") and self._roll("drop", site):
            self._fire("drop", site, f"{src}->{dst}")
            return "drop", 1.0
        if stage in ("scp", "ship") and self._roll("latency", site):
            lo, hi = self.LATENCY_FACTORS
            factor = self.rng.randint(lo, hi, label=f"latency@{site}")
            self._fire("latency", site, f"x{factor}", a=factor)
            return None, float(factor)
        return None, 1.0

    def node_loss(self, site: str = "fleet") -> bool:
        """One barrier-level node-loss decision for the fleet.

        Fires at most once per consultation; the caller picks the
        victim with its own journaled draw (so the decision sequence is
        canonical regardless of shard count) and feeds every in-flight
        migration touching the victim into the rollback path.
        """
        if self._roll("pskill", f"{site}:node-loss"):
            self._fire("pskill", f"{site}:node-loss")
            return True
        return False
