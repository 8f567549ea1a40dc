"""Coordinated group checkpoints: many processes, one consistent cut.

The :class:`GroupCoordinator` drives an nginx-worker-pool + redis
backend (:class:`ServiceGroup`) through a two-phase
quiesce/drain/prepare/commit protocol: in-flight connections are
drained inside a bounded budget or journaled into ``sockets.img`` by
the sockets checkpoint plugin, every member's dump is prepared into one
group manifest in the :class:`~repro.store.CheckpointStore`, and the
commit is a single atomic chunk registration. Any failure at any phase
aborts cleanly — prepared images swept, orphan chunks GC'd, every
member resumed at the cut. :func:`restore_group` restores a committed
manifest, recoding members whose placements sit on a different ISA,
and :class:`GroupChaosHarness` sweeps seeded faults across every
protocol phase asserting commit-or-resume.
"""

from .chaos import GroupChaosHarness
from .coordinator import PHASES, GroupCoordinator, GroupResult
from .migrate import restore_group, split_placements
from .service import ConnectionBroker, GroupMember, ServiceGroup
from .spec import FAULT_PHASES, GroupSpec

__all__ = [
    "FAULT_PHASES",
    "PHASES",
    "ConnectionBroker",
    "GroupChaosHarness",
    "GroupCoordinator",
    "GroupMember",
    "GroupResult",
    "GroupSpec",
    "ServiceGroup",
    "restore_group",
    "split_placements",
]
