"""The migration storm: live traffic, rolling updates, chaos, and a
hundred concurrent migrations on a thousand-node fleet.

:class:`FleetStorm` wires the whole subsystem together and acts as the
barrier-time controller of the sharded event core:

* per-node traffic ticks (node-local, shard-parallel) keep every
  nginx/redis session absorbing and serving open-loop requests,
* at every barrier the controller — in one canonical order — rolls
  chaos node loss, launches the rolling-update wave, rebalances
  services whose backlog blew past the spec's threshold, admits queued
  migrations under the in-flight cap, meters energy and dollars, and
  journals the barrier (plus periodic fleet-state digests) to the
  flight recorder.

Determinism contract: every quantity in the journal and in
:meth:`state_digest` is a pure function of ``(FleetSpec, FaultPlan)``.
Only wall-clock throughput (events/sec) in the :class:`StormResult`
may differ between runs of the same spec.
"""

from __future__ import annotations

import hashlib
import time
from typing import Dict, List, Optional

from ..chaos import FaultInjector, FaultPlan
from ..cluster.network import Network
from ..core.costs import rack_link
from ..core.rng import RngService
from ..errors import FleetError
from ..replay import journal as jn
from .events import ShardedEventCore
from .migrate import FleetMigrationScheduler
from .nodes import FleetNode, build_fleet, fleet_by_id
from .scheduler import FleetScheduler, Objective
from .spec import FleetSpec
from .traffic import (LatencyHistogram, Service, TrafficModel,
                      fleet_templates)

#: barriers between rebalance scans (a full service sweep each)
REBALANCE_EVERY = 4

#: drain cap after the horizon: in-flight migrations get this many
#: extra barriers to complete or roll back before the run is declared
#: wedged (bounded stages × bounded retries makes hitting it a bug)
DRAIN_BARRIERS = 100_000


class StormResult:
    """Everything a storm run measured, JSON-ready via :meth:`to_dict`."""

    def __init__(self, storm: "FleetStorm", wall_s: float):
        spec = storm.spec
        migrations = storm.migrations
        self.spec = spec.to_spec()
        self.nodes = spec.nodes
        self.shards = spec.shards
        self.services = len(storm.services)
        self.duration_s = storm.core.now
        self.wall_s = wall_s
        self.events_total = storm.core.fired
        self.barriers = storm.core.barriers
        self.events_per_sec_wall = (storm.core.fired / wall_s
                                    if wall_s > 0 else 0.0)
        self.started = migrations.started
        self.completed = migrations.completed
        self.rolled_back = migrations.rolled_back
        self.resumed_durable = migrations.resumed_durable
        self.peak_in_flight = migrations.peak_in_flight
        self.deferred = migrations.deferred
        self.bytes_shipped = migrations.bytes_shipped
        self.bytes_full = migrations.bytes_full
        self.blackout_s = migrations.blackout_s
        self.migrations_per_sim_sec = (migrations.completed
                                       / storm.core.now
                                       if storm.core.now > 0 else 0.0)
        self.arrived = sum(s.arrived for s in storm.services.values())
        self.served = sum(s.served for s in storm.services.values())
        self.p50_ms = storm.hist.percentile(0.50) * 1e3
        self.p95_ms = storm.hist.percentile(0.95) * 1e3
        self.p99_ms = storm.hist.percentile(0.99) * 1e3
        self.p99_storm_ms = storm.storm_hist.percentile(0.99) * 1e3
        self.energy_kj = storm.energy_j / 1e3
        self.cost_usd = storm.cost_usd
        self.node_losses = storm.node_losses
        self.groups_committed = sum(
            1 for g in migrations.groups.values() if g["committed"])
        self.groups_aborted = sum(
            1 for g in migrations.groups.values() if g["aborted"])
        self.chaos_counts = (storm.injector.counts()
                             if storm.injector else {})
        self.invariant_ok = (migrations.invariant_ok()
                             and not migrations.in_flight)

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec,
            "nodes": self.nodes,
            "shards": self.shards,
            "services": self.services,
            "duration_s": round(self.duration_s, 6),
            "wall_s": round(self.wall_s, 3),
            "events_total": self.events_total,
            "barriers": self.barriers,
            "events_per_sec_wall": round(self.events_per_sec_wall, 1),
            "migrations": {
                "started": self.started,
                "completed": self.completed,
                "rolled_back": self.rolled_back,
                "resumed_durable": self.resumed_durable,
                "peak_in_flight": self.peak_in_flight,
                "deferred": self.deferred,
                "bytes_shipped": self.bytes_shipped,
                "bytes_full_copy": self.bytes_full,
                "blackout_s_total": round(self.blackout_s, 3),
                "migrations_per_sim_sec": round(
                    self.migrations_per_sim_sec, 3),
                "groups_committed": self.groups_committed,
                "groups_aborted": self.groups_aborted,
            },
            "traffic": {
                "arrived": self.arrived,
                "served": self.served,
            },
            "latency_ms": {
                "p50": round(self.p50_ms, 3),
                "p95": round(self.p95_ms, 3),
                "p99": round(self.p99_ms, 3),
                "p99_storm": round(self.p99_storm_ms, 3),
            },
            "energy_kj": round(self.energy_kj, 3),
            "cost_usd": round(self.cost_usd, 6),
            "node_losses": self.node_losses,
            "chaos": self.chaos_counts,
            "invariant_ok": self.invariant_ok,
        }

    def __repr__(self) -> str:
        return (f"<StormResult {self.completed}/{self.started} migrated "
                f"(+{self.rolled_back} rolled back) "
                f"p99={self.p99_ms:.1f}ms "
                f"{self.events_per_sec_wall:.0f}ev/s>")


class FleetStorm:
    """One fully-wired storm run over a sharded fleet."""

    def __init__(self, spec: FleetSpec, plan: Optional[FaultPlan] = None,
                 recorder=None, objective: Optional[Objective] = None,
                 digest_every: int = 8):
        self.spec = spec
        self.plan = plan
        self.recorder = recorder
        self.digest_every = digest_every
        self.nodes_list: List[FleetNode] = build_fleet(spec)
        self.nodes = fleet_by_id(self.nodes_list)
        self.network = Network(default_link=rack_link())
        self.injector: Optional[FaultInjector] = None
        if plan is not None:
            observer = recorder.on_rng if recorder is not None else None
            self.injector = FaultInjector(
                plan, rng=RngService(plan.seed, observer=observer,
                                     name="chaos"),
                recorder=recorder)
        self.placement = FleetScheduler(self.nodes_list, objective)
        self.traffic = TrafficModel(spec.spike_start, spec.spike_len,
                                    spec.spike_factor)
        self.core = ShardedEventCore(spec.shards, spec.barrier_dt)
        self.core.on_barrier = self._on_barrier
        self.hist = LatencyHistogram()
        self.storm_hist = LatencyHistogram()
        self.services: Dict[int, Service] = {}
        self._place_services()
        self.migrations = FleetMigrationScheduler(
            self.core, self.nodes, self.services, self.network, spec,
            self.placement, injector=self.injector)
        self.energy_j = 0.0
        self.cost_usd = 0.0
        #: (node, dollars per barrier of its profile), in node-id order
        self._meter = [(node, node.profile.cost_usd(spec.barrier_dt))
                       for node in self.nodes_list]
        self.node_losses = 0
        self._update_submitted = False
        self._draining = False
        self._digest_index = 0
        self._ran = False

    def _place_services(self) -> None:
        templates = fleet_templates()
        picks = self.placement.place_all(self.spec.n_services)
        if len(picks) != self.spec.n_services:
            raise FleetError(
                f"could only place {len(picks)} of "
                f"{self.spec.n_services} services")
        for sid, node_id in enumerate(picks):
            service = Service(sid, templates[sid % len(templates)],
                              self.spec.seed)
            service.node = node_id
            node = self.nodes[node_id]
            node.reserved -= 1          # placement claim becomes a tenant
            node.add_service(sid)
            self.services[sid] = service

    # -- node-local traffic ticks ------------------------------------------

    def _start_ticks(self, node: FleetNode) -> None:
        """Schedule the node's first traffic tick. The tick is one
        action and one label, built here once and rescheduled onto the
        node's own shard queue every ``tick_dt`` until the horizon; it
        reads its firing time from that queue's ``now``.

        Each firing ticks every service the node hosts. Node-local by
        contract: it touches the node's own services and the
        commutative global histograms/counters, nothing else. Capacity
        and service time follow :class:`ServiceTemplate`'s formulas,
        with the per-node and per-tick factors hoisted without changing
        the order of evaluation, so no value moves by a bit.
        """
        queue = self.core.queues[self.core.shard_of(node.id)]
        label = f"tick:{node.id}"
        services = self.services
        traffic = self.traffic
        stride = traffic.SPIKE_STRIDE
        hist = self.hist
        window_hist = self.storm_hist
        dt = self.spec.tick_dt
        last = self.spec.duration + 1e-9
        freq, ipc = node.profile.freq_hz, node.profile.ipc
        freq_ipc = freq * ipc
        slots = node.slots

        def tick() -> None:
            now = queue.now
            if node.services:
                hosted = sorted(node.services)
                in_window = traffic.in_window(now)
                storm_hist = window_hist if in_window else None
                spike = traffic.spike_factor if in_window else 1.0
                alive = node.alive
                # share * freq * ipc, then / request_instr per service
                rate = slots / len(hosted) * freq * ipc
                for sid in hosted:
                    service = services[sid]
                    service.absorb(now, dt,
                                   spike if sid % stride == 0 else 1.0)
                    if alive:
                        instr = service.template.request_instr
                        service.drain(now, dt, rate / instr,
                                      instr / freq_ipc, hist, storm_hist)
            next_tick = now + dt
            if next_tick <= last:
                queue.schedule(next_tick, tick, label)

        queue.schedule(dt, tick, label)

    # -- the barrier controller --------------------------------------------

    def _on_barrier(self, index: int, when: float, fired: int) -> None:
        if self.injector is not None and self.injector.node_loss("fleet"):
            self._node_loss(when)
        if (not self._draining and not self._update_submitted
                and when >= self.spec.update_start):
            self._update_submitted = True
            wave = int(self.spec.update_fraction * len(self.services))
            size = self.spec.update_group
            if size > 1:
                for base in range(0, wave, size):
                    sids = list(range(base, min(base + size, wave)))
                    self.migrations.submit_group(sids, "update")
            else:
                for sid in range(wave):
                    self.migrations.submit(sid, "update")
        if not self._draining and index % REBALANCE_EVERY == 0:
            self._rebalance()
        self.migrations.pump(when)
        # Summed node by node in id order, as always: a dark node draws
        # 0.0 W, and adding 0.0 leaves the running sum's bits unchanged.
        dt = self.spec.barrier_dt
        energy, cost = self.energy_j, self.cost_usd
        for node, usd in self._meter:
            if node.alive:
                energy += node.watts * dt
                cost += usd
        self.energy_j, self.cost_usd = energy, cost
        if self.recorder is not None:
            self.recorder.on_event(jn.EV_BARRIER,
                                   a=int(round(when * 1e6)), b=fired,
                                   instr=index)
            if self.digest_every and (index + 1) % self.digest_every == 0:
                self._emit_digest()

    def _rebalance(self) -> None:
        threshold = self.spec.rebalance_backlog
        for sid in sorted(self.services):
            service = self.services[sid]
            if (service.backlog > threshold
                    and sid not in self.migrations.migrating
                    and self.nodes[service.node].alive):
                self.migrations.submit(sid, "rebalance")

    def _node_loss(self, when: float) -> None:
        alive = [n.id for n in self.nodes_list if n.alive]
        if len(alive) <= 1:
            return      # never kill the last node
        assert self.injector is not None
        victim_id = self.injector.rng.choice(alive, label="node-loss-victim")
        victim = self.nodes[victim_id]
        victim.kill(until=when + self.spec.respawn)
        self.node_losses += 1
        for sid in victim.services:
            self.services[sid].pause()
        self.migrations.node_death(victim_id, when)
        self.core.post(when + self.spec.respawn, (2, victim_id),
                       lambda: self._revive(victim_id),
                       label=f"respawn:{victim_id}")

    def _revive(self, node_id: int) -> None:
        node = self.nodes[node_id]
        node.revive()
        self.placement.reindex(node)
        # A dead source normally rolls back and never re-admits, so
        # everything hosted here resumes — with whatever backlog
        # accumulated in the dark. In durable mode, though, a migration
        # may have survived this node's death on its recovered store
        # and still be completing toward its destination: that service
        # stays paused until its restore lands over there.
        for sid in sorted(node.services):
            if sid in self.migrations.migrating:
                continue
            self.services[sid].resume()

    def _emit_digest(self) -> None:
        digest = self.state_digest()
        self.recorder.on_event(jn.EV_DIGEST, a=self._digest_index,
                               payload=digest)
        self._digest_index += 1

    # -- digests -----------------------------------------------------------

    def state_digest(self) -> bytes:
        """Canonical digest of all observable fleet state — identical
        at the same barrier no matter how the core is sharded."""
        h = hashlib.blake2b(digest_size=16)
        for node in self.nodes_list:       # already in id order
            h.update(repr((node.id, node.alive, node.reserved,
                           sorted(node.services))).encode())
        for sid in sorted(self.services):
            service = self.services[sid]
            h.update(repr((sid, service.node, service.paused,
                           service.arrived, service.served,
                           service.backlog)).encode())
        m = self.migrations
        h.update(repr((m.started, m.completed, m.rolled_back,
                       m.resumed_durable,
                       m.bytes_shipped, sorted(m.in_flight),
                       self.hist.total, self.hist.counts,
                       self.storm_hist.total)).encode())
        return h.digest()

    # -- execution ---------------------------------------------------------

    def run(self) -> StormResult:
        if self._ran:
            raise FleetError("a FleetStorm instance runs exactly once")
        self._ran = True
        wall_start = time.perf_counter()
        for node in self.nodes_list:
            self._start_ticks(node)
        self.core.run_until(self.spec.duration)
        # Past the horizon nothing new is admitted; queued-but-never-
        # started requests are withdrawn and every in-flight migration
        # runs to completion or rollback — the invariant the CI smoke
        # and the determinism tests both assert.
        self._draining = True
        self.migrations.drain_admissions(self.core.now)
        drained = 0
        while self.migrations.in_flight and drained < DRAIN_BARRIERS:
            self.core.run_until(self.core.now + self.spec.barrier_dt)
            drained += 1
        if self.migrations.in_flight:
            raise FleetError(
                f"{len(self.migrations.in_flight)} migration(s) still "
                f"in flight after {drained} drain barriers")
        return StormResult(self, time.perf_counter() - wall_start)
