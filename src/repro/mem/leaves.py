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
from typing import Dict, Iterable, List, Optional, Tuple

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
    pagemap order), ``spans`` lists each data run as ``(vaddr, offset,
    pages)``, ``digests`` holds the page digests known so far (handed
    over by the dump or flush that wrote the blob, or filled by
    :meth:`manifest`),
    ``data_bytes`` is the blob length the pagemap calls for and
    ``parent_run`` the address of the first run whose data lives in a
    parent checkpoint (``None`` for a full image). ``ordered`` says the
    runs are what a dump or a rewrite writes: page-aligned, in address
    order with a gap between runs, no parent run, and the blob exactly
    their length — so a run is one slice of the blob."""

    __slots__ = ("blob", "offsets", "spans", "digests", "data_bytes",
                 "parent_run", "ordered", "_manifest")

    def __init__(self, blob: bytes, runs: Iterable):
        """Walk pagemap ``runs`` (objects with ``vaddr``, ``nr_pages``
        and ``in_parent``) over ``blob``. Nothing is hashed and the
        blob's length is not judged — a short blob yields short (or
        empty) page slices, which is the verifier's finding to make."""
        self.blob = blob
        self.offsets: Dict[int, int] = {}
        self.spans: List[Tuple[int, int, int]] = []
        self.digests: Dict[int, str] = {}
        self.parent_run: Optional[int] = None
        self._manifest: Optional[Dict[int, str]] = None
        ordered = True
        end = None
        offset = 0
        for run in runs:
            if run.in_parent:
                if self.parent_run is None:
                    self.parent_run = run.vaddr
                continue
            vaddr, size = run.vaddr, max(run.nr_pages, 0) * PAGE_SIZE
            ordered = (ordered and size > 0 and vaddr % PAGE_SIZE == 0
                       and (end is None or vaddr > end))
            end = vaddr + size
            self.spans.append((vaddr, offset, size // PAGE_SIZE))
            self.offsets.update(zip(range(vaddr, end, PAGE_SIZE),
                                    range(offset, offset + size,
                                          PAGE_SIZE)))
            offset += size
        self.data_bytes = offset
        self.ordered = (ordered and self.parent_run is None
                        and len(blob) == offset)

    def page(self, vaddr: int) -> Optional[bytes]:
        """The page's bytes, or ``None`` when the blob carries no data
        for ``vaddr``."""
        offset = self.offsets.get(vaddr)
        if offset is None:
            return None
        return self.blob[offset:offset + PAGE_SIZE]

    def manifest(self) -> Dict[int, str]:
        """``vaddr -> digest`` of every page, in pagemap order: the one
        per-page pass over this blob's digests, hashing only the pages
        no one asked for yet, and remembered with the leaves (so for as
        long as the blob is the one they describe). Shared: read it,
        never change it."""
        if self._manifest is None:
            offsets, digests, blob = self.offsets, self.digests, self.blob
            for vaddr in offsets.keys() - digests.keys():
                offset = offsets[vaddr]
                digests[vaddr] = page_digest(blob[offset:offset + PAGE_SIZE])
            self._manifest = dict(zip(offsets,
                                      map(digests.__getitem__, offsets)))
        return self._manifest

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
