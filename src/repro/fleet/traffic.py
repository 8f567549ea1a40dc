"""Open-loop fleet traffic: nginx/redis sessions that keep arriving
while their hosts are live-migrated.

The model is open-loop on purpose (arrivals never slow down because the
server is struggling) — that is what makes migration blackouts *visible*
in the latency tail: a paused service keeps accumulating a queue, and
every queued request's latency includes the full wait it actually
experienced, so the p99 during a migration storm reflects
pause-induced queueing, not just service time.

Everything here is deterministic and shard-invariant by construction:

* arrivals come from a fractional-rate accumulator plus one jitter draw
  per tick from the service's *own* seeded stream (keyed by service id,
  consumed strictly in time order — no global RNG whose state would
  depend on event interleaving),
* latencies land in power-of-two log buckets, so percentiles are exact
  functions of integer bucket counts, not of float summation order.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Deque, List, Tuple


#: log2 latency buckets in microseconds: bucket i covers
#: [2^(i-1), 2^i) µs; bucket 0 is < 1 µs, the last bucket is open-ended
N_BUCKETS = 40


class LatencyHistogram:
    """Power-of-two latency buckets with exact integer percentiles."""

    __slots__ = ("counts", "total")

    def __init__(self):
        self.counts = [0] * N_BUCKETS
        self.total = 0

    def record(self, seconds: float, count: int = 1) -> None:
        if count <= 0:
            return
        micros = int(seconds * 1e6)
        index = micros.bit_length() if micros > 0 else 0
        if index >= N_BUCKETS:
            index = N_BUCKETS - 1
        self.counts[index] += count
        self.total += count

    def percentile(self, p: float) -> float:
        """Upper bound (seconds) of the bucket holding the p-quantile."""
        if self.total == 0:
            return 0.0
        rank = int(p * self.total)
        if rank >= self.total:
            rank = self.total - 1
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen > rank:
                return (1 << index) / 1e6
        return (1 << (N_BUCKETS - 1)) / 1e6

    def merge(self, other: "LatencyHistogram") -> None:
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total


class ServiceTemplate:
    """One serving workload class (modeled on the registry's server apps).

    ``image_bytes`` / ``frames`` / ``threads`` describe the process a
    migration has to move — they feed the
    :class:`~repro.core.costs.MigrationCostModel` so a modeled fleet
    migration of an nginx instance costs what the calibrated pipeline
    says an nginx-sized image costs.

    ``request_instr`` prices one request on a node's
    :class:`~repro.core.costs.NodeProfile`: it is served in
    ``request_instr / (freq_hz * ipc)`` seconds, and ``share`` cores'
    worth of the node serve ``share * freq_hz * ipc / request_instr``
    requests per second. The storm's node tick evaluates both in
    exactly this order.
    """

    __slots__ = ("name", "arrival_rps", "request_instr", "image_bytes",
                 "frames", "threads")

    def __init__(self, *, name: str, arrival_rps: float,
                 request_instr: float, image_bytes: int, frames: int,
                 threads: int):
        self.name = name
        self.arrival_rps = arrival_rps
        self.request_instr = request_instr
        self.image_bytes = image_bytes
        self.frames = frames
        self.threads = threads

    def __repr__(self) -> str:
        return f"<ServiceTemplate {self.name} {self.arrival_rps:.0f}rps>"


def fleet_templates() -> List[ServiceTemplate]:
    """The storm's serving mix: nginx- and redis-shaped sessions, with
    checkpoint footprints taken from the app registry's class-B
    calibration so migration costs match the real benchmark images."""
    from ..apps.registry import get_app
    nginx = get_app("nginx")
    redis = get_app("redis")
    return [
        ServiceTemplate(name="nginx", arrival_rps=180.0,
                        request_instr=2.0e6,
                        image_bytes=int(nginx.class_b_footprint),
                        frames=8, threads=nginx.threads),
        ServiceTemplate(name="redis", arrival_rps=700.0,
                        request_instr=4.5e5,
                        image_bytes=int(redis.class_b_footprint),
                        frames=6, threads=redis.threads),
    ]


class Service:
    """One serving instance: a FIFO of arrival cohorts on one node."""

    __slots__ = ("sid", "template", "node", "paused", "arrived", "served",
                 "backlog", "_rng", "_carry_in", "_carry_out", "_queue")

    def __init__(self, sid: int, template: ServiceTemplate, seed: int):
        self.sid = sid
        self.template = template
        self.node = -1
        self.paused = False
        self.arrived = 0
        self.served = 0
        self.backlog = 0
        # Keyed by (seed, sid) only: the stream belongs to this service
        # and is consumed one draw per tick in simulated-time order, so
        # it cannot observe shard interleaving.
        self._rng = random.Random((seed << 20) ^ 0x5EED ^ sid)
        self._carry_in = 0.0
        self._carry_out = 0.0
        self._queue: Deque[Tuple[float, int]] = deque()

    # -- lifecycle ---------------------------------------------------------

    def pause(self) -> None:
        self.paused = True

    def resume(self) -> None:
        self.paused = False

    # -- one traffic tick --------------------------------------------------

    def absorb(self, now: float, dt: float, multiplier: float) -> int:
        """Open-loop arrivals for this tick (happens even while paused)."""
        jitter = 0.9 + 0.2 * self._rng.random()
        exact = self.template.arrival_rps * multiplier * dt * jitter \
            + self._carry_in
        count = int(exact)
        self._carry_in = exact - count
        if count > 0:
            self._queue.append((now, count))
            self.arrived += count
            self.backlog += count
        return count

    def drain(self, now: float, dt: float, capacity_rps: float,
              service_s: float, hist: LatencyHistogram,
              storm_hist: LatencyHistogram = None) -> int:
        """Serve up to this tick's capacity, oldest cohorts first.

        Each request's recorded latency is its true queueing delay —
        ``now`` minus the cohort's arrival time — plus service time, so
        a post-blackout burst drains with honestly large tail samples.
        """
        if self.paused or capacity_rps <= 0:
            return 0
        budget = capacity_rps * dt + self._carry_out
        done = 0
        while self._queue and budget >= 1.0:
            arrived_at, count = self._queue[0]
            take = count if count <= budget else int(budget)
            latency = (now - arrived_at) + service_s
            hist.record(latency, take)
            if storm_hist is not None:
                storm_hist.record(latency, take)
            budget -= take
            done += take
            if take == count:
                self._queue.popleft()
            else:
                self._queue[0] = (arrived_at, count - take)
        self.served += done
        self.backlog -= done
        # Unused fractional capacity only banks while a queue is
        # standing; an idle server cannot save up speed.
        self._carry_out = budget - int(budget) if self._queue else 0.0
        return done

    def __repr__(self) -> str:
        state = "paused" if self.paused else f"node={self.node}"
        return (f"<Service {self.sid} {self.template.name} {state} "
                f"backlog={self.backlog}>")


class TrafficModel:
    """Spike shaping: which services surge, when, and by how much.

    Inside the window, a service whose id is a multiple of
    ``SPIKE_STRIDE`` arrives ``spike_factor`` times faster; every other
    service, and every service outside the window, arrives at its
    template rate. The storm's node tick applies the rule once per tick
    rather than once per service.
    """

    #: every third service rides the spike — a correlated partial surge,
    #: like one tenant's traffic jumping while the rest stay calm
    SPIKE_STRIDE = 3

    def __init__(self, spike_start: float, spike_len: float,
                 spike_factor: float):
        self.spike_start = spike_start
        self.spike_len = spike_len
        self.spike_factor = spike_factor

    def in_window(self, now: float) -> bool:
        return self.spike_start <= now < self.spike_start + self.spike_len
