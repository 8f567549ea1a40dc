"""The eviction scheduler (paper §IV-A-b).

"A simple scheduler to evict tasks to one Raspberry Pi or three
Raspberry Pis when the x86-64 server runs out of CPU resources (more
running jobs than CPU cores)."

Policy implemented here: the server always keeps its job slots full from
the infinite queue. Whenever a Pi has a free slot, the most recently
started server job (the one with the most remaining work, so migration
overhead amortizes best) is evicted to the Pi via a Dapper migration —
paying the measured migration latency — and the freed server slot
immediately takes the next queued job.

**Supervisor loop.** With a chaos ``injector`` attached, an eviction
migration can fail mid-flight. A failed eviction rolls the job back to
the head of the queue (its remaining work preserved — the next free
server slot resumes it), docks the target node's health, and — after
``max_node_failures`` consecutive failures — marks the node *unhealthy*:
the scheduler stops evicting toward it and probes it again after a
deterministic exponential backoff. A successful eviction resets the
node's failure count. Without an injector none of this draws RNG or
changes scheduling decisions.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from .energy import EnergyMeter
from .events import EventQueue
from .jobs import Job, JobTemplate
from .node import SimNode


class NodeHealth:
    """Per-node circuit breaker with deterministic half-open probes.

    The eviction scheduler (below) docks a node's health on a failed
    migration toward it, stops routing work there after
    ``max_failures`` consecutive failures, and retries after an
    exponential backoff. ``failed(name)`` returns the probe delay when
    the breaker *trips* (the caller schedules :meth:`probe`), else
    ``None``; a success calls :meth:`recovered` and resets the count.
    """

    def __init__(self, max_failures: int = 3, backoff_s: float = 1.0):
        self.max_failures = max(1, int(max_failures))
        self.backoff_s = backoff_s
        self.failures: Dict[str, int] = {}
        self.unhealthy: Set[str] = set()

    def ok(self, name: str) -> bool:
        return name not in self.unhealthy

    def failed(self, name: str) -> Optional[float]:
        failures = self.failures.get(name, 0) + 1
        self.failures[name] = failures
        if failures >= self.max_failures and name not in self.unhealthy:
            self.unhealthy.add(name)
            # A node that keeps failing re-trips with a doubled delay.
            return self.backoff_s * (2 ** (failures - self.max_failures))
        return None

    def recovered(self, name: str) -> None:
        if self.failures.get(name):
            self.failures[name] = 0
        self.unhealthy.discard(name)

    def probe(self, name: str) -> None:
        """Half-open: allow work toward the node again; the next failure
        re-trips the breaker (with a longer backoff)."""
        self.unhealthy.discard(name)


class EvictionScheduler:
    def __init__(self, queue: EventQueue, server: SimNode,
                 pis: List[SimNode], template: JobTemplate,
                 meter: EnergyMeter,
                 min_remaining_fraction: float = 0.25,
                 injector=None, max_node_failures: int = 3,
                 retry_backoff_s: float = 1.0):
        self.queue = queue
        self.server = server
        self.pis = pis
        self.template = template
        self.meter = meter
        #: do not evict jobs that are nearly done — the migration
        #: overhead would not pay off
        self.min_remaining_fraction = min_remaining_fraction
        self.completed = 0
        self.evictions = 0           # successful evictions only
        self._server_jobs: List[tuple] = []     # (job, slot, finish_time)
        # -- supervisor state --
        self.injector = injector
        self.health = NodeHealth(max_failures=max_node_failures,
                                 backoff_s=retry_backoff_s)
        self.failed_evictions = 0
        #: rolled-back jobs waiting for a server slot, oldest first
        self._requeue: List[Job] = []

    # Pre-NodeHealth attribute names, kept as the public API.
    @property
    def max_node_failures(self) -> int:
        return self.health.max_failures

    @property
    def retry_backoff_s(self) -> float:
        return self.health.backoff_s

    @property
    def node_failures(self) -> Dict[str, int]:
        return self.health.failures

    @property
    def unhealthy(self) -> Set[str]:
        return self.health.unhealthy

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> None:
        for _ in range(self.server.free_slots()):
            self._start_server_job()
        self._try_evictions()

    def _start_server_job(self) -> None:
        if self._requeue:
            # A rolled-back eviction resumes first, with the remaining
            # fraction it had when its migration failed.
            job = self._requeue.pop(0)
        else:
            job = Job(self.template)
            job.started_at = self.queue.now
        job.node_name = self.server.name
        slot = self.server.place(job)
        finish = self.queue.now + job.remaining_seconds_on(
            self.server.profile)
        entry = (job, slot, finish)
        self._server_jobs.append(entry)
        self.queue.schedule(finish, lambda: self._server_job_done(entry),
                            f"server-done-{job.job_id}")

    def _server_job_done(self, entry) -> None:
        if entry not in self._server_jobs:
            return   # the job was evicted before finishing
        job, slot, _finish = entry
        self.meter.advance_to(self.queue.now)
        self._server_jobs.remove(entry)
        self.server.release(slot)
        self.completed += 1
        self._start_server_job()
        self._try_evictions()

    # -- eviction -----------------------------------------------------------------

    def _try_evictions(self) -> None:
        for pi in self.pis:
            if pi.name in self.unhealthy:
                continue
            while pi.free_slots() > 0 and pi.name not in self.unhealthy:
                entry = self._pick_eviction_candidate()
                if entry is None:
                    return
                self._evict(entry, pi)

    def _pick_eviction_candidate(self) -> Optional[tuple]:
        best = None
        for entry in self._server_jobs:
            job, _slot, finish = entry
            total = job.template.duration_on(self.server.profile)
            remaining = (finish - self.queue.now) / total
            if remaining < self.min_remaining_fraction:
                continue
            if best is None or finish > best[2]:
                best = entry
        return best

    def _evict(self, entry, pi: SimNode) -> None:
        job, slot, finish = entry
        self.meter.advance_to(self.queue.now)
        # Remaining work at the moment of eviction.
        total = job.template.duration_on(self.server.profile)
        job.remaining_fraction = max(0.0, (finish - self.queue.now) / total)
        self._server_jobs.remove(entry)
        self.server.release(slot)
        if (self.injector is not None
                and self.injector.eviction_fault(pi.name)):
            # The migration toward the Pi failed mid-flight: roll the
            # job back to the queue (the freed server slot resumes it
            # immediately) and dock the node's health.
            self.failed_evictions += 1
            self._requeue.append(job)
            self._node_failed(pi)
            self._start_server_job()
            return
        self._node_recovered(pi)
        self.evictions += 1
        # The freed server slot takes the next queued job immediately.
        self._start_server_job()
        # The Pi receives the job after the Dapper migration latency.
        job.node_name = pi.name
        pi_slot = pi.place(job)
        duration = (job.template.migration_seconds
                    + job.remaining_seconds_on(pi.profile))
        self.queue.schedule_in(
            duration, lambda: self._pi_job_done(pi, pi_slot),
            f"pi-done-{job.job_id}")

    def _pi_job_done(self, pi: SimNode, slot: int) -> None:
        self.meter.advance_to(self.queue.now)
        pi.release(slot)
        self.completed += 1
        self._try_evictions()

    # -- node health (supervisor) -------------------------------------------------

    def _node_failed(self, pi: SimNode) -> None:
        delay = self.health.failed(pi.name)
        if delay is not None:
            # Probe again after the breaker's deterministic exponential
            # backoff.
            self.queue.schedule_in(delay, lambda: self._probe_node(pi),
                                   f"probe-{pi.name}")

    def _node_recovered(self, pi: SimNode) -> None:
        self.health.recovered(pi.name)

    def _probe_node(self, pi: SimNode) -> None:
        # Half-open: the next failure re-trips the breaker (with a
        # longer backoff), the next success resets it.
        self.health.probe(pi.name)
        self._try_evictions()
