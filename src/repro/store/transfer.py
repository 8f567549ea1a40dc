"""Delta migration transfer: ship only the chunks the peer is missing.

``plan_transfer`` computes the chunk closure of a checkpoint's parent
chain and subtracts whatever the destination store already holds —
warm destinations (a node that has seen this program, or any program
sharing pages with it) receive a small fraction of a full image copy.
``ship`` moves the plan's chunks (compressed, verified on arrival) and
registers the chain's manifests root-first on the far side.
"""

from __future__ import annotations

from typing import List

from ..errors import LinkDropFault, StoreError
from .checkpoints import CheckpointStore


class TransferPlan:
    """What a delta transfer will ship (before shipping it)."""

    __slots__ = ("checkpoint_id", "chunks_needed", "bytes_to_ship",
                 "chunks_total", "full_bytes")

    def __init__(self, checkpoint_id: str, chunks_needed: List[str],
                 bytes_to_ship: int, chunks_total: int, full_bytes: int):
        self.checkpoint_id = checkpoint_id
        #: digests missing at the destination, in ship order
        self.chunks_needed = list(chunks_needed)
        #: compressed bytes that will cross the wire
        self.bytes_to_ship = bytes_to_ship
        #: chunk count of the full chain closure
        self.chunks_total = chunks_total
        #: what a full (non-store) image copy would ship instead
        self.full_bytes = full_bytes

    @property
    def savings(self) -> float:
        """Fraction of the full-copy bytes this plan avoids."""
        if self.full_bytes <= 0:
            return 0.0
        return 1.0 - (self.bytes_to_ship / self.full_bytes)

    def seconds(self, link) -> float:
        """Wire time over a :class:`~repro.core.costs.LinkProfile`."""
        return link.transfer_seconds(self.bytes_to_ship)

    def __repr__(self) -> str:
        return (f"<TransferPlan {self.checkpoint_id[:12]} "
                f"{len(self.chunks_needed)}/{self.chunks_total} chunks "
                f"{self.bytes_to_ship}B (full copy {self.full_bytes}B, "
                f"savings {self.savings:.0%})>")


def _chain_closure(store: CheckpointStore, checkpoint_id: str
                   ) -> List[str]:
    """Every chunk digest the checkpoint's chain references, in a
    deterministic ship order (root manifest first, metas, then pages by
    address), deduplicated on first occurrence."""
    seen = set()
    order: List[str] = []

    def _add(digest: str) -> None:
        if digest not in seen:
            seen.add(digest)
            order.append(digest)

    for cid in store.chain(checkpoint_id):
        manifest = store.manifest(cid)
        _add(cid)
        for name in sorted(manifest["meta"]):
            _add(manifest["meta"][name])
        for _vaddr, digest in manifest["pages"]:
            _add(digest)
    return order


def plan_transfer(src: CheckpointStore, dst: CheckpointStore,
                  checkpoint_id: str, link=None) -> TransferPlan:
    """Plan shipping ``checkpoint_id`` from ``src`` to ``dst``."""
    if checkpoint_id not in src:
        raise StoreError(f"source store has no checkpoint "
                         f"{checkpoint_id[:12]}")
    closure = _chain_closure(src, checkpoint_id)
    needed = [d for d in closure if not dst.chunks.has(d)]
    bytes_to_ship = sum(src.chunks.stored_size(d) for d in needed)
    return TransferPlan(checkpoint_id, needed, bytes_to_ship,
                        len(closure), src.logical_bytes(checkpoint_id))


def ship(src: CheckpointStore, dst: CheckpointStore,
         plan: TransferPlan, injector=None) -> int:
    """Execute a plan: move chunks, register the chain at ``dst``.

    Returns the compressed bytes actually shipped (0 for a fully warm
    destination). Chunks are re-hashed on arrival by
    :meth:`~repro.store.chunks.ChunkStore.adopt`.

    ``injector`` (a :class:`~repro.chaos.FaultInjector`) schedules
    wire faults: a mid-transfer link drop raises
    :class:`~repro.errors.LinkDropFault` *after* the preceding chunks
    have landed — the partial state the caller's rollback must sweep
    (adopted chunks carry no references until their manifest registers,
    so :meth:`~repro.store.chunks.ChunkStore.gc` reclaims them) — and a
    corrupted chunk has one payload byte flipped so the arrival re-hash
    rejects it with :class:`~repro.errors.StoreError`.
    """
    drop_at = corrupt_at = None
    if injector is not None:
        drop_at, corrupt_at = injector.ship_faults(len(plan.chunks_needed))
    shipped = 0
    for index, digest in enumerate(plan.chunks_needed):
        if drop_at is not None and index == drop_at:
            raise LinkDropFault(
                f"link dropped after {index}/{len(plan.chunks_needed)} "
                f"chunks", kind="drop", site="ship")
        chunk = src.chunks.chunk(digest)
        if not dst.chunks.has(digest):
            payload = chunk.payload
            if corrupt_at is not None and index == corrupt_at:
                flipped = bytearray(payload)
                flipped[0] ^= 0xFF
                payload = bytes(flipped)
            dst.adopt_chunk(chunk.digest, chunk.codec, payload,
                            chunk.logical_size)
            shipped += len(payload)
    for cid in src.chain(plan.checkpoint_id):
        dst.adopt_manifest(src.chunks.get(cid))
    return shipped

