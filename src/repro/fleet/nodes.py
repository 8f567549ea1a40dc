"""Fleet topology: thousands of lightweight nodes built from the
calibrated paper profiles.

A :class:`FleetNode` is deliberately *not* a
:class:`~repro.cluster.node.SimNode` — the cluster simulation models a
four-machine testbed with per-slot job objects, while the fleet needs
thousands of nodes whose per-barrier cost is a couple of attribute reads.
What carries over unchanged is the calibration: every fleet node prices
compute, power, dollars and migration stages through the same
:class:`~repro.core.costs.NodeProfile` instances (and the same
:class:`~repro.core.costs.MigrationCostModel`) the real pipeline uses.
"""

from __future__ import annotations

from typing import Dict, List, Set

from ..core.costs import NodeProfile, rpi_profile, xeon_profile
from ..errors import FleetError
from .spec import FleetSpec

#: every 4th node is an edge board, mirroring the paper's 1-server +
#: 3-Pi testbed ratio inverted for a datacenter-heavy fleet
EDGE_EVERY = 4


class FleetNode:
    """One machine in the fleet: a profile, service slots, liveness.

    ``watts`` is the node's current power draw, kept as state rather
    than queried: it changes only when the node dies or revives or a
    service arrives or leaves, and each of those goes through a method
    here that refreshes it. Nothing outside this class mutates
    ``services`` or ``alive``.
    """

    __slots__ = ("id", "name", "profile", "profile_key", "slots",
                 "services", "alive", "dark_until", "reserved", "watts")

    def __init__(self, node_id: int, profile: NodeProfile,
                 profile_key: str):
        self.id = node_id
        self.name = f"node-{node_id:04d}"
        self.profile = profile
        self.profile_key = profile_key
        #: concurrent serving instances this node hosts (paper: 7 job
        #: threads on the 8-core Xeon, 3 on each 4-core Pi)
        self.slots = max(1, profile.cores - 1)
        self.services: Set[int] = set()
        self.alive = True
        self.dark_until = 0.0
        #: slots held by in-flight migrations targeting this node —
        #: counted as occupied so the placement scheduler cannot
        #: oversubscribe a destination mid-storm
        self.reserved = 0
        self._refresh_power()

    def occupancy(self) -> int:
        return len(self.services) + self.reserved

    def free_slots(self) -> int:
        return self.slots - self.occupancy()

    def utilization(self) -> float:
        return self.occupancy() / self.slots if self.slots else 1.0

    def _refresh_power(self) -> None:
        if self.alive:
            active = min(len(self.services), self.profile.cores)
            self.watts = self.profile.power_watts(active)
        else:
            self.watts = 0.0

    def add_service(self, sid: int) -> None:
        self.services.add(sid)
        self._refresh_power()

    def remove_service(self, sid: int) -> None:
        self.services.discard(sid)
        self._refresh_power()

    def kill(self, until: float) -> None:
        self.alive = False
        self.dark_until = until
        self._refresh_power()

    def revive(self) -> None:
        self.alive = True
        self.dark_until = 0.0
        self._refresh_power()

    def __repr__(self) -> str:
        state = "up" if self.alive else f"dark<{self.dark_until:.1f}"
        return (f"<FleetNode {self.name} [{self.profile_key}] "
                f"{self.occupancy()}/{self.slots} {state}>")


def build_fleet(spec: FleetSpec) -> List[FleetNode]:
    """The deterministic fleet for a spec: a 3:1 mix of Xeon servers
    and Pi edge boards, in node-id order (the mix is positional, not
    random, so topology never depends on RNG state)."""
    xeon = xeon_profile()
    rpi = rpi_profile()
    nodes = []
    for i in range(spec.nodes):
        if i % EDGE_EVERY == EDGE_EVERY - 1:
            nodes.append(FleetNode(i, rpi, "rpi"))
        else:
            nodes.append(FleetNode(i, xeon, "xeon"))
    total_slots = sum(n.slots for n in nodes)
    if spec.n_services > total_slots:
        raise FleetError(
            f"{spec.n_services} services exceed fleet capacity "
            f"({total_slots} slots on {spec.nodes} nodes)")
    return nodes


def fleet_by_id(nodes: List[FleetNode]) -> Dict[int, FleetNode]:
    return {node.id: node for node in nodes}
