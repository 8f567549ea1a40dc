"""The concurrent migration scheduler: many staged migrations in
flight at once, sharing one content-addressed chunk store.

Each fleet migration walks the same staged transaction the real
:class:`~repro.core.migration.MigrationPipeline` walks — checkpoint,
recode, store, ship, verify, restore — priced through the same
:class:`~repro.core.costs.MigrationCostModel`, retried on injected
faults with the same bounded budget, and rolled back to the source
when the budget runs out. Three fleet-scale effects the four-machine
pipeline never sees are modeled explicitly:

* **shared store warmth** — the first migration of a template to a
  destination ships the full image; later ones ship only the cold
  fraction (``FleetSpec.warm_bp``, calibrated against real shared-store
  pipeline runs by :mod:`repro.fleet.calibrate`),
* **NIC contention** — every in-flight transfer brackets a
  :meth:`~repro.cluster.network.Network.begin_stream` on its
  destination, and a transfer that shares the destination NIC with
  ``k`` peers takes ``k``× as long,
* **blackout-driven tail latency** — the service is paused from
  checkpoint to restore (or to rollback), so its open-loop queue
  absorbs the blackout and drains it into the latency histogram.

Every state change runs inside barrier mail keyed by migration id, so
the whole storm's migration history is canonical regardless of how the
event core is sharded.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Set, Tuple

from ..core.costs import MigrationCostModel, rack_link
from .events import ShardedEventCore
from .nodes import FleetNode
from .scheduler import FleetScheduler
from .spec import FleetSpec
from .traffic import Service

#: the staged transaction, in pipeline order
STAGES = ("checkpoint", "recode", "store", "ship", "verify", "restore")

#: base retry backoff (doubles per attempt), matching the real
#: pipeline's backoff shape at fleet time scale
BACKOFF_S = 0.05


class FleetMigration:
    """One in-flight (or finished) modeled migration."""

    __slots__ = ("mid", "sid", "src", "dst", "reason", "state",
                 "stage_index", "attempts", "started_at", "finished_at",
                 "shipped_bytes", "stream_open", "faults", "gid")

    def __init__(self, mid: int, sid: int, src: int, dst: int,
                 reason: str, started_at: float,
                 gid: Optional[int] = None):
        self.mid = mid
        self.sid = sid
        self.src = src
        self.dst = dst
        self.reason = reason
        self.state = "active"           # active | prepared | done | rolled_back
        self.stage_index = 0
        self.attempts = [0] * len(STAGES)
        self.started_at = started_at
        self.finished_at = 0.0
        self.shipped_bytes = 0
        self.stream_open = False
        self.faults = 0
        #: coordinated-group id, or None for a solo migration
        self.gid = gid

    @property
    def stage(self) -> str:
        return STAGES[self.stage_index]

    def __repr__(self) -> str:
        return (f"<FleetMigration #{self.mid} svc{self.sid} "
                f"{self.src}->{self.dst} {self.state}@{self.stage}>")


class FleetMigrationScheduler:
    """Admits queued migrations under a bounded in-flight cap and
    drives each one's staged transaction through barrier mail."""

    def __init__(self, core: ShardedEventCore,
                 nodes: Dict[int, FleetNode],
                 services: Dict[int, Service],
                 network, spec: FleetSpec,
                 placement: FleetScheduler,
                 injector=None):
        self.core = core
        self.nodes = nodes
        self.services = services
        self.network = network
        self.spec = spec
        self.placement = placement
        self.injector = injector
        self.pending: Deque[Tuple[int, str, Optional[int]]] = deque()
        self.in_flight: Dict[int, FleetMigration] = {}
        self.migrating: Set[int] = set()        # service ids
        self.finished: List[FleetMigration] = []
        #: gid -> coordinated-group state (two-phase commit across the
        #: member migrations; see :meth:`submit_group`)
        self.groups: Dict[int, Dict] = {}
        self._next_gid = 0
        #: (dst node id, template name) pairs the shared store has
        #: already warmed — the per-destination transfer plan
        self.warm: Set[Tuple[int, str]] = set()
        self._models: Dict[Tuple[str, str], MigrationCostModel] = {}
        self._next_mid = 0
        # counters
        self.started = 0
        self.completed = 0
        self.rolled_back = 0
        self.resumed_durable = 0
        self.peak_in_flight = 0
        self.bytes_shipped = 0
        self.bytes_full = 0
        self.blackout_s = 0.0
        self.deferred = 0       # admissions refused for lack of a slot

    # -- cost model --------------------------------------------------------

    def _model(self, src: FleetNode, dst: FleetNode) -> MigrationCostModel:
        key = (src.profile_key, dst.profile_key)
        model = self._models.get(key)
        if model is None:
            model = MigrationCostModel(src.profile, dst.profile,
                                       rack_link())
            self._models[key] = model
        return model

    # -- admission ---------------------------------------------------------

    def submit(self, sid: int, reason: str) -> bool:
        """Queue one service for migration; duplicates are refused."""
        if sid in self.migrating:
            return False
        self.migrating.add(sid)
        self.pending.append((sid, reason, None))
        return True

    def submit_group(self, sids: List[int], reason: str) -> Optional[int]:
        """Queue a coordinated group: the members commit together or
        not at all. Each member walks the staged transaction like a
        solo migration but *holds* at the end of its last stage
        (state ``prepared``, destination still reserved, source still
        paused) until every member of the group is prepared — then all
        commit in one barrier. Any member exhausting its retry budget
        (or losing a node) aborts the whole group: every member rolls
        back to its source, exactly like the
        :class:`~repro.group.GroupCoordinator`'s commit-or-resume
        invariant at fleet scale. Admission is all-or-nothing: if any
        member is already migrating, the group is refused. Returns the
        group id, or ``None`` if refused."""
        if not sids or len(set(sids)) != len(sids):
            return None
        if any(sid in self.migrating for sid in sids):
            return None
        gid = self._next_gid
        self._next_gid += 1
        self.groups[gid] = {"sids": set(sids), "prepared": set(),
                            "aborted": False, "committed": False}
        for sid in sids:
            self.migrating.add(sid)
            self.pending.append((sid, reason, gid))
        return gid

    def pump(self, now: float) -> int:
        """Admit queued migrations up to the in-flight cap. Runs at
        barriers, so admission order is canonical. Prepared group
        members hold no stream and cost nothing, so they do not count
        against the cap — otherwise a large group could wedge the storm
        waiting for a sibling the cap keeps out."""
        admitted = 0
        retry: List[Tuple[int, str, Optional[int]]] = []
        # Counted once: a start adds exactly one active migration and
        # nothing else in this loop changes a migration's state.
        active = sum(1 for m in self.in_flight.values()
                     if m.state == "active")
        while self.pending and active + admitted < self.spec.max_in_flight:
            sid, reason, gid = self.pending.popleft()
            if gid is not None and self.groups[gid]["aborted"]:
                # A sibling already aborted the group while this member
                # sat queued; it never starts.
                self.migrating.discard(sid)
                continue
            if self._start(sid, reason, now, gid):
                admitted += 1
            else:
                retry.append((sid, reason, gid))
        self.pending.extend(retry)
        return admitted

    def _start(self, sid: int, reason: str, now: float,
               gid: Optional[int] = None) -> bool:
        service = self.services[sid]
        src = self.nodes[service.node]
        if not src.alive:
            # The host is dark; re-queue once it (or the service)
            # comes back.
            self.deferred += 1
            return False
        dst_id = self.placement.place(exclude={src.id})
        if dst_id is None:
            self.deferred += 1
            return False
        dst = self.nodes[dst_id]
        dst.reserved += 1
        self.placement.reindex(dst)
        mid = self._next_mid
        self._next_mid += 1
        migration = FleetMigration(mid, sid, src.id, dst_id, reason, now,
                                   gid=gid)
        self.in_flight[mid] = migration
        self.started += 1
        if len(self.in_flight) > self.peak_in_flight:
            self.peak_in_flight = len(self.in_flight)
        # Dapper stops the process at dump: blackout starts here and
        # ends at restore (dst) or rollback (src).
        service.pause()
        self._begin_stage(migration, now)
        return True

    # -- the staged transaction --------------------------------------------

    def _stage_seconds(self, migration: FleetMigration, stage: str) -> float:
        src = self.nodes[migration.src]
        dst = self.nodes[migration.dst]
        template = self.services[migration.sid].template
        model = self._model(src, dst)
        image = template.image_bytes
        if stage == "checkpoint":
            return model.checkpoint_seconds(image, template.threads)
        if stage == "recode":
            return model.recode_seconds(image, template.frames)
        if stage == "store":
            return model.store_seconds(image)
        if stage == "ship":
            return model.transfer_seconds(self._planned_bytes(migration))
        if stage == "verify":
            return model.verify_seconds(image)
        return model.restore_seconds(image, template.threads)

    def _planned_bytes(self, migration: FleetMigration) -> int:
        """Per-destination transfer plan: warm destinations receive
        only the cold fraction of the template's image."""
        template = self.services[migration.sid].template
        full = template.image_bytes
        if (migration.dst, template.name) in self.warm:
            return max(1, int(full * (1.0 - self.spec.warm_fraction)))
        return full

    def _begin_stage(self, migration: FleetMigration, now: float) -> None:
        stage = migration.stage
        src = self.nodes[migration.src]
        dst = self.nodes[migration.dst]
        fired: Optional[str] = None
        factor = 1.0
        if self.injector is not None:
            fired, factor = self.injector.migration_stage_fault(
                stage, src.name, dst.name)
        duration = self._stage_seconds(migration, stage) * factor
        attempts = migration.attempts[migration.stage_index]
        if attempts:
            duration += BACKOFF_S * (1 << (attempts - 1))
        if stage == "ship":
            # The destination NIC splits across concurrent inbound
            # transfers; a failed attempt holds its stream for the
            # full (wasted) duration too.
            streams = self.network.begin_stream(dst.name)
            migration.stream_open = True
            duration *= streams
        self.core.post(now + duration, (1, migration.mid),
                       lambda: self._stage_end(migration.mid, fired),
                       label=f"mig{migration.mid}:{stage}")

    def _stage_end(self, mid: int, fired: Optional[str]) -> None:
        migration = self.in_flight.get(mid)
        if migration is None or migration.state != "active":
            return      # rolled back (node loss) while this mail flew
        now = self.core.now
        if migration.stream_open:
            self.network.end_stream(self.nodes[migration.dst].name)
            migration.stream_open = False
        if fired is not None:
            migration.faults += 1
            index = migration.stage_index
            migration.attempts[index] += 1
            if migration.attempts[index] > self.spec.retry_budget:
                self._rollback(migration, now, f"{migration.stage}:{fired}")
            else:
                self._begin_stage(migration, now)
            return
        if migration.stage == "ship":
            template = self.services[migration.sid].template
            planned = self._planned_bytes(migration)
            self.bytes_shipped += planned
            self.bytes_full += template.image_bytes
            self.warm.add((migration.dst, template.name))
        if migration.stage_index == len(STAGES) - 1:
            if migration.gid is None:
                self._complete(migration, now)
            else:
                self._prepare(migration, now)
        else:
            migration.stage_index += 1
            self._begin_stage(migration, now)

    # -- coordinated groups --------------------------------------------------

    def _prepare(self, migration: FleetMigration, now: float) -> None:
        """A group member finished its last stage: it *holds* —
        destination reserved, source paused — until every sibling is
        prepared, then the whole group commits in one barrier."""
        group = self.groups[migration.gid]
        migration.state = "prepared"
        group["prepared"].add(migration.mid)
        if len(group["prepared"]) < len(group["sids"]):
            return
        group["committed"] = True
        for mid in sorted(group["prepared"]):
            member = self.in_flight[mid]
            member.state = "active"     # _complete finishes it as done
            self._complete(member, now)

    def _abort_group(self, gid: int, now: float, why: str) -> None:
        """A member failed: the whole group rolls back to its sources
        — queued members never start, prepared members release their
        holds, active members abort in place."""
        group = self.groups[gid]
        if group["aborted"]:
            return                      # already cascading
        group["aborted"] = True
        for mid in sorted(self.in_flight):
            member = self.in_flight.get(mid)
            if member is None or member.gid != gid:
                continue
            if member.state in ("active", "prepared"):
                member.state = "active"
                self._rollback(member, now, f"group{gid}:{why}")

    # -- outcomes ----------------------------------------------------------

    def _finish(self, migration: FleetMigration, now: float,
                state: str) -> None:
        migration.state = state
        migration.finished_at = now
        self.blackout_s += now - migration.started_at
        del self.in_flight[migration.mid]
        self.migrating.discard(migration.sid)
        self.finished.append(migration)

    def _complete(self, migration: FleetMigration, now: float) -> None:
        service = self.services[migration.sid]
        src = self.nodes[migration.src]
        dst = self.nodes[migration.dst]
        src.remove_service(migration.sid)
        self.placement.reindex(src)
        dst.reserved -= 1
        dst.add_service(migration.sid)
        self.placement.reindex(dst)
        service.node = dst.id
        if dst.alive:
            service.resume()
        self.completed += 1
        self._finish(migration, now, "done")

    def _rollback(self, migration: FleetMigration, now: float,
                  why: str) -> None:
        """The fleet's arm of the transactional rollback path: free the
        destination reservation and resume the untouched source."""
        if migration.stream_open:
            self.network.end_stream(self.nodes[migration.dst].name)
            migration.stream_open = False
        dst = self.nodes[migration.dst]
        dst.reserved -= 1
        self.placement.reindex(dst)
        service = self.services[migration.sid]
        src = self.nodes[migration.src]
        if src.alive:
            service.resume()
        # else: the service stays paused on the dark source and resumes
        # when the node respawns — the storm's revive path handles it.
        self.rolled_back += 1
        if self.injector is not None:
            self.injector.note("rollback", f"fleet:{why}",
                               f"svc{migration.sid} "
                               f"{src.name}->{dst.name}",
                               a=migration.mid, b=migration.faults)
        self._finish(migration, now, "rolled_back")
        if migration.gid is not None:
            # Commit-or-resume at fleet scale: one member down takes
            # the whole group back to its sources (re-entry is guarded
            # by the group's aborted flag).
            self._abort_group(migration.gid, now, why)

    def drain_admissions(self, now: float) -> None:
        """Past the storm horizon nothing new is admitted: withdraw
        queued-but-never-started requests, then abort any group that
        can no longer fully prepare — a withdrawn member would leave
        its prepared siblings holding their destinations forever."""
        for sid, _reason, _gid in self.pending:
            self.migrating.discard(sid)
        self.pending.clear()
        for gid, group in list(self.groups.items()):
            if group["committed"] or group["aborted"]:
                continue
            live = sum(1 for m in self.in_flight.values()
                       if m.gid == gid)
            if live < len(group["sids"]):
                self._abort_group(gid, now, "admissions-drained")

    def node_death(self, victim: int, now: float) -> int:
        """Chaos killed a node: every in-flight migration touching it
        takes the rollback path immediately (its pending stage mail is
        ignored as stale when it arrives).

        With ``spec.durable`` set the nodes hold crash-consistent
        stores (PR 10): a migration that lost only its *source* after
        its checkpoint durably landed in the shared store (past the
        ``store`` stage, or already ``prepared``) does **not** roll
        back — there is nothing on the dead node it still needs, so it
        resumes from the warm recovered store and completes on its
        destination. A lost destination, or a source lost before the
        checkpoint was durable, still rolls back."""
        rolled = 0
        store_stage = STAGES.index("store")
        for mid in sorted(self.in_flight):
            migration = self.in_flight.get(mid)
            if migration is None:
                # Already swept by a sibling's group-abort cascade.
                continue
            if migration.src != victim and migration.dst != victim:
                continue
            if (self.spec.durable
                    and migration.src == victim
                    and migration.dst != victim
                    and (migration.state == "prepared"
                         or migration.stage_index > store_stage)):
                self.resumed_durable += 1
                if self.injector is not None:
                    self.injector.note(
                        "resume", f"fleet:{migration.stage}:durable",
                        f"svc{migration.sid} survives src loss",
                        a=migration.mid)
                continue
            migration.faults += 1
            self._rollback(migration, now,
                           f"{migration.stage}:node-loss")
            rolled += 1
        return rolled

    # -- invariants --------------------------------------------------------

    def invariant_ok(self) -> bool:
        """Complete-or-rollback: nothing started is unaccounted for,
        and no coordinated group half-committed (members of one group
        never mix ``done`` with ``rolled_back``)."""
        if self.started != (self.completed + self.rolled_back
                            + len(self.in_flight)):
            return False
        if not all(m.state in ("done", "rolled_back")
                   for m in self.finished):
            return False
        for gid in self.groups:
            states = {m.state for m in self.finished if m.gid == gid}
            if "done" in states and "rolled_back" in states:
                return False
        return True
