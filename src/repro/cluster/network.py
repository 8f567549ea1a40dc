"""Cluster network model: named links between machines, scp helper."""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from ..core.costs import LinkProfile, infiniband_link
from ..errors import ClusterError, LinkDropFault
from ..vm.kernel import Machine


class Network:
    """Links between named nodes, with a tmpfs-to-tmpfs scp primitive.

    ``strict=True`` makes :meth:`link_between` raise for node pairs no
    link was registered for instead of silently falling back to
    ``default_link`` — topology typos fail loudly. ``injector`` (a
    :class:`~repro.chaos.FaultInjector`) schedules link faults; faults
    and partitions are consulted *before* any bytes are copied, so a
    failed scp never leaves partial state at the destination.
    """

    def __init__(self, default_link: Optional[LinkProfile] = None,
                 strict: bool = False, injector=None):
        self.default_link = default_link or infiniband_link()
        self.strict = strict
        self.injector = injector
        self._links: Dict[Tuple[str, str], LinkProfile] = {}
        self._partitioned: Set[Tuple[str, str]] = set()
        self._streams: Dict[str, int] = {}

    def connect(self, a: str, b: str, link: LinkProfile,
                symmetric: bool = True) -> None:
        """Register a link between two nodes.

        ``symmetric=True`` (the default) installs both directions;
        pass ``False`` to model asymmetric paths (e.g. a throttled
        uplink from an edge board). Re-registering a direction with a
        *different* link is a configuration conflict and raises
        :class:`ClusterError`; re-registering the same profile is
        idempotent.
        """
        self._install(a, b, link)
        if symmetric:
            self._install(b, a, link)

    def _install(self, a: str, b: str, link: LinkProfile) -> None:
        existing = self._links.get((a, b))
        if existing is not None and not self._same_link(existing, link):
            raise ClusterError(
                f"conflicting link registration {a}->{b}: "
                f"{existing!r} already installed, got {link!r}")
        self._links[(a, b)] = link

    @staticmethod
    def _same_link(a: LinkProfile, b: LinkProfile) -> bool:
        if a is b:
            return True
        return vars(a) == vars(b)

    def link_between(self, a: str, b: str,
                     strict: Optional[bool] = None) -> LinkProfile:
        """The registered link ``a``→``b``.

        In strict mode (per-call ``strict=True``, or the network-wide
        default) an unregistered pair raises :class:`ClusterError`
        instead of silently using ``default_link``.
        """
        link = self._links.get((a, b))
        if link is not None:
            return link
        if strict if strict is not None else self.strict:
            raise ClusterError(
                f"no link registered between {a!r} and {b!r} "
                f"(strict mode; known: "
                f"{sorted(set(x for pair in self._links for x in pair))})")
        return self.default_link

    # -- partitions -------------------------------------------------------

    def partition(self, a: str, b: str, symmetric: bool = True) -> None:
        """Cut the path between two nodes; scp raises until healed."""
        self._partitioned.add((a, b))
        if symmetric:
            self._partitioned.add((b, a))

    def heal(self, a: str, b: str, symmetric: bool = True) -> None:
        self._partitioned.discard((a, b))
        if symmetric:
            self._partitioned.discard((b, a))

    def is_partitioned(self, a: str, b: str) -> bool:
        return (a, b) in self._partitioned

    # -- stream accounting (fleet contention) ------------------------------

    def begin_stream(self, node: str) -> int:
        """Reserve one long-lived transfer stream terminating at
        ``node``; returns the active count *including* this one.

        The fleet's migration scheduler brackets every in-flight
        transfer with begin/end: a destination ingesting N migrations
        at once splits its NIC N ways, so each concurrent transfer's
        simulated seconds scale by the peak stream count it observed.
        """
        active = self._streams.get(node, 0) + 1
        self._streams[node] = active
        return active

    def end_stream(self, node: str) -> None:
        active = self._streams.get(node, 0)
        if active <= 0:
            raise ClusterError(f"no active stream to end at {node!r}")
        if active == 1:
            del self._streams[node]
        else:
            self._streams[node] = active - 1

    # -- transfer ---------------------------------------------------------

    def scp(self, src: Machine, dst: Machine, prefix: str,
            dest_prefix: Optional[str] = None) -> Tuple[int, float]:
        """Copy a tmpfs subtree between machines.

        Returns (bytes copied, simulated seconds). The link — and any
        injected fault or standing partition — is consulted *before*
        the copy mutates the destination tmpfs: a dropped transfer
        leaves no partial subtree behind.
        """
        if src is dst:
            raise ClusterError("scp between a machine and itself")
        link = self.link_between(src.name, dst.name)
        if self.is_partitioned(src.name, dst.name):
            raise LinkDropFault(
                f"{src.name}->{dst.name} is partitioned",
                kind="partition", site="scp")
        factor = 1.0
        if self.injector is not None:
            factor = self.injector.link_fault(src.name, dst.name,
                                              site="scp")
        nbytes = src.tmpfs.copy_tree(prefix, dst.tmpfs, dest_prefix)
        return nbytes, link.transfer_seconds(nbytes) * factor
