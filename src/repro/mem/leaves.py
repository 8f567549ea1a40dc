"""Page identity: one page blob, where each page sits in it, and what
each page hashes to — computed at most once.

A :class:`PageLeaves` describes one immutable ``pages-1.img`` blob. It
travels by reference with the :class:`~repro.criu.images.ImageSet`
holding that blob and with the :class:`~repro.mem.AddressSpace` restored
from (or dumped as) it, so every layer that needs a page's digest — the
sender's manifest, the whole-set content digest, the chunk store, the
restore guard, the next dump — reads the one result instead of hashing
the bytes again.

**Trust rule.** A digest is reused only for the identical immutable
``bytes`` object it was hashed from (this object's ``blob``), or for a
live page that still compares equal to its slice of that blob. Bytes
that crossed a boundary — tmpfs, disk, decompression, a wire — are new
objects, get new leaves and are hashed again.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Optional

from .paging import PAGE_SIZE


#: digest width in bytes (blake2b-128, matching the replay digests)
DIGEST_SIZE = 16


def page_digest(data) -> str:
    """blake2b-128 hex of ``data`` — the content address of a page, and
    of any other chunk the checkpoint store keeps."""
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE).hexdigest()


class PageLeaves:
    """The pages of one ``pages-1.img`` blob: ``offsets`` maps each
    page-aligned address with data in ``blob`` to its byte offset (in
    pagemap order), ``digests`` holds the page digests known so far,
    ``data_bytes`` is the blob length the pagemap calls for and
    ``parent_run`` the address of the first run whose data lives in a
    parent checkpoint (``None`` for a full image)."""

    __slots__ = ("blob", "offsets", "digests", "data_bytes", "parent_run")

    def __init__(self, blob: bytes, runs: Iterable):
        """Walk pagemap ``runs`` (objects with ``vaddr``, ``nr_pages``
        and ``in_parent``) over ``blob``. Nothing is hashed and the
        blob's length is not judged — a short blob yields short (or
        empty) page slices, which is the verifier's finding to make."""
        self.blob = blob
        self.offsets: Dict[int, int] = {}
        self.digests: Dict[int, str] = {}
        self.parent_run: Optional[int] = None
        offsets = self.offsets
        offset = 0
        for run in runs:
            if run.in_parent:
                if self.parent_run is None:
                    self.parent_run = run.vaddr
                continue
            vaddr = run.vaddr
            for _ in range(run.nr_pages):
                offsets[vaddr] = offset
                vaddr += PAGE_SIZE
                offset += PAGE_SIZE
        self.data_bytes = offset

    def page(self, vaddr: int) -> Optional[bytes]:
        """The page's bytes, or ``None`` when the blob carries no data
        for ``vaddr``."""
        offset = self.offsets.get(vaddr)
        if offset is None:
            return None
        return self.blob[offset:offset + PAGE_SIZE]

    def digest(self, vaddr: int) -> str:
        """The page's digest, hashed on first request (``KeyError`` for
        an address with no data here)."""
        digest = self.digests.get(vaddr)
        if digest is None:
            offset = self.offsets[vaddr]
            digest = self.digests[vaddr] = page_digest(
                self.blob[offset:offset + PAGE_SIZE])
        return digest

    def unchanged(self, vaddr: int, store) -> Optional[str]:
        """The known digest of the page at ``vaddr`` if the live page
        ``store`` (a ``bytearray``) still equals it, else ``None``.

        The compare is ``bytes.startswith`` at the page's offset — a
        memcmp in place, over twenty times cheaper than the hash it
        saves. Never compare through a ``memoryview``: that goes
        element by element and costs more than hashing."""
        digest = self.digests.get(vaddr)
        if digest is not None and self.blob.startswith(
                store, self.offsets[vaddr]):
            return digest
        return None
