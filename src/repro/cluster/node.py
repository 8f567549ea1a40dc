"""Node model for the cluster simulation."""

from __future__ import annotations

from typing import Dict, List, Optional

from ..core.costs import NodeProfile
from ..errors import ClusterError


class SimNode:
    """One machine in the discrete-event simulation.

    Tracks which job occupies each slot; the power draw at any instant
    follows the calibrated profile (idle + per-active-core).
    """

    def __init__(self, profile: NodeProfile, name: Optional[str] = None,
                 job_slots: Optional[int] = None):
        self.profile = profile
        self.name = name or profile.name
        #: max concurrently running jobs (the paper runs 7 job threads on
        #: the 8-core Xeon and 3 on each 4-core Pi)
        self.job_slots = job_slots if job_slots is not None \
            else max(1, profile.cores - 1)
        self.running: Dict[int, object] = {}    # slot -> job

    def free_slots(self) -> int:
        return self.job_slots - len(self.running)

    def busy_slots(self) -> int:
        return len(self.running)

    def utilization(self) -> float:
        """Fraction of job slots busy — the fleet scheduler's load and
        latency objectives both read this."""
        return len(self.running) / self.job_slots if self.job_slots else 1.0

    def place(self, job) -> int:
        for slot in range(self.job_slots):
            if slot not in self.running:
                self.running[slot] = job
                return slot
        raise ClusterError(f"{self.name}: no free job slot")

    def release(self, slot: int) -> None:
        if slot not in self.running:
            raise ClusterError(f"{self.name}: slot {slot} is not busy")
        del self.running[slot]

    def power_watts(self) -> float:
        return self.profile.power_watts(len(self.running))

    def __repr__(self) -> str:
        return (f"<SimNode {self.name} {self.busy_slots()}/"
                f"{self.job_slots} busy>")
