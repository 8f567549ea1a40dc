"""Per-process virtual address space.

Pages are allocated lazily: a mapped-but-untouched page reads as zeros
and owns no backing store until first written. This matters for CRIU
fidelity — ``pagemap.img`` lists only *populated* regions, so the dump
walks exactly the pages that have backing store.

VMA lookup is O(log n): the VMA list is kept sorted and searched by
bisection, with a one-entry last-hit cache in front of it (the
interpreter's loads/stores overwhelmingly hit the same stack or heap
VMA repeatedly). ``read_u64``/``write_u64`` additionally take a
non-allocating fast path that indexes straight into the page store
whenever the access does not straddle a page boundary — these two
word-sized entry points are what the superblock execution engine
(:mod:`repro.vm.blocks`) drives for every guest load and store.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SegmentationFault, MemoryError_
from .paging import (LAST_U64_SLOT, PAGE_MASK, PAGE_SIZE, page_align_down,
                     pages_spanning)
from .vma import Prot, Vma

_U64 = struct.Struct("<Q")
_U64_MASK = 0xFFFFFFFFFFFFFFFF


class AddressSpace:
    """A sparse 64-bit address space made of VMAs and lazily-backed pages.

    Besides the live pages it remembers ``origin``, the page identity of
    the checkpoint image it last matched (see
    :mod:`repro.mem.leaves`): that is what lets a dump hash only the
    pages that changed since the process arrived or was last dumped.
    """

    def __init__(self):
        self.vmas: List[Vma] = []
        self._pages: Dict[int, bytearray] = {}
        self._starts: List[int] = []      # sorted VMA starts, parallel to vmas
        self._hot_vma: Optional[Vma] = None
        #: bumped by every layout change (``map``/``unmap``/``grow_vma``
        #: all pass through ``_reindex``); the flight recorder's digest
        #: memo re-packs the VMA list only when this moved.
        self.layout_version = 0
        #: post-copy restore support: called with a page-aligned address
        #: on first touch of a page with no backing store; returning bytes
        #: installs them (a remote page-server fetch), returning None
        #: means the page really is zero. See repro.criu.lazy.
        self.missing_page_hook: Optional[Callable[[int], Optional[bytes]]] = None
        #: called after every privileged code write (``write_code``); the
        #: owning Process hooks this to bump its code version so stale
        #: decoded instructions and superblocks are discarded.
        self.code_write_hook: Optional[Callable[[], None]] = None
        #: incremental-checkpoint support: page-aligned addresses written
        #: since tracking started, or None when tracking is off. Like the
        #: recorder hooks, the disabled path costs one ``is None`` test
        #: on the store slow paths and nothing on superblock site-cache
        #: hits (the owning Process resets its block cache when tracking
        #: starts, so every site's first write re-enters the slow path
        #: and marks its page). See repro.store.
        self._dirty: Optional[set] = None
        #: :class:`~repro.mem.leaves.PageLeaves` of the image this space
        #: was last restored from or dumped as, or None. The next dump
        #: reuses the digest of every page that still compares equal to
        #: its slice of that image's (immutable) page blob, so no write
        #: path maintains anything — tier-2/3 site caches store into
        #: pages directly and would bypass a dirty bit. Keeps that blob
        #: alive (one more copy of the resident set) until the next dump
        #: replaces it or the process dies.
        self.origin = None

    # -- dirty-page tracking ------------------------------------------------

    def start_dirty_tracking(self) -> None:
        """Begin recording written page addresses (empty set)."""
        self._dirty = set()

    def stop_dirty_tracking(self) -> None:
        self._dirty = None

    def harvest_dirty(self) -> set:
        """Return the dirty set and start a fresh tracking epoch."""
        dirty = self._dirty if self._dirty is not None else set()
        self._dirty = set()
        return dirty

    # -- mapping -----------------------------------------------------------

    def _reindex(self) -> None:
        self.vmas.sort(key=lambda v: v.start)
        self._starts = [v.start for v in self.vmas]
        self._hot_vma = None
        self.layout_version += 1

    def map(self, vma: Vma) -> Vma:
        """Insert a VMA; overlapping an existing mapping is an error."""
        for existing in self.vmas:
            if existing.overlaps(vma):
                raise MemoryError_(
                    f"mapping {vma!r} overlaps existing {existing!r}")
        self.vmas.append(vma)
        self._reindex()
        return vma

    def unmap(self, start: int, end: int) -> None:
        """Remove VMAs fully inside ``[start, end)`` and drop their pages.

        A VMA that only *partially* overlaps the range is an error: the
        simulated kernel has no VMA-splitting, so a partial unmap would
        silently leave the whole mapping in place and let bugs hide.
        """
        kept = []
        for vma in self.vmas:
            if start <= vma.start and vma.end <= end:
                for base in range(vma.start, vma.end, PAGE_SIZE):
                    self._pages.pop(base, None)
            elif vma.start < end and start < vma.end:
                raise MemoryError_(
                    f"unmap [{start:#x}, {end:#x}) partially overlaps "
                    f"{vma!r}; whole-VMA unmaps only")
            else:
                kept.append(vma)
        self.vmas = kept
        self._reindex()

    def grow_vma(self, vma: Vma, end: int) -> None:
        """Extend ``vma`` in place to ``end`` (``sbrk`` growing the heap)."""
        vma.end = end
        self._reindex()

    def find_vma(self, addr: int) -> Optional[Vma]:
        vma = self._hot_vma
        if vma is not None and vma.start <= addr < vma.end:
            return vma
        index = bisect_right(self._starts, addr) - 1
        if index >= 0:
            vma = self.vmas[index]
            if addr < vma.end:
                self._hot_vma = vma
                return vma
        return None

    def vma_by_name(self, name: str) -> Optional[Vma]:
        for vma in self.vmas:
            if vma.name == name:
                return vma
        return None

    # -- page-level access --------------------------------------------------

    def page(self, base: int, create: bool = False) -> Optional[bytearray]:
        """Backing store for the page at ``base`` (page-aligned)."""
        store = self._pages.get(base)
        if store is None and self.missing_page_hook is not None:
            fetched = self.missing_page_hook(base)
            if fetched is not None:
                store = bytearray(fetched)
                self._pages[base] = store
                return store
        if store is None and create:
            store = bytearray(PAGE_SIZE)
            self._pages[base] = store
        return store

    def populated_pages(self) -> List[Tuple[int, bytearray]]:
        """All pages that own backing store, in address order."""
        return sorted(self._pages.items())

    def drop_page(self, base: int) -> None:
        self._pages.pop(base, None)

    def install_page(self, base: int, data: bytes) -> None:
        """Install raw page contents (restore path)."""
        if len(data) != PAGE_SIZE:
            raise MemoryError_(f"page data must be {PAGE_SIZE} bytes")
        self._pages[base] = bytearray(data)
        if self._dirty is not None:
            self._dirty.add(base)

    def install_pages(self, base: int, blob: bytes, offset: int,
                      count: int) -> None:
        """Install ``count`` whole pages at ``base`` from ``blob`` at
        ``offset`` (the restore path): each page a ``bytearray`` copy of
        its slice, cut and copied by C-level iteration, with no call per
        page."""
        size = count * PAGE_SIZE
        if offset + size > len(blob):
            raise MemoryError_(f"{count} page(s) at offset {offset} overrun "
                               f"a {len(blob)}-byte blob")
        cuts = map(slice, range(offset, offset + size, PAGE_SIZE),
                   range(offset + PAGE_SIZE, offset + size + PAGE_SIZE,
                         PAGE_SIZE))
        bases = range(base, base + size, PAGE_SIZE)
        self._pages.update(zip(bases, map(bytearray, map(
            memoryview(blob).__getitem__, cuts))))
        if self._dirty is not None:
            self._dirty.update(bases)

    # -- byte-level access ----------------------------------------------------

    def _check(self, addr: int, length: int, want: int) -> None:
        # An access must fall entirely within one VMA with the right bits.
        vma = self.find_vma(addr)
        if vma is None:
            raise SegmentationFault(addr)
        if addr + length > vma.end:
            raise SegmentationFault(addr + length - 1, "straddles mapping")
        if vma.prot & want != want:
            raise SegmentationFault(
                addr, f"prot {Prot.describe(vma.prot)} lacks "
                      f"{Prot.describe(want)}")

    def _check_word(self, addr: int, want_write: bool) -> None:
        """The u64 fast-path access check (same faults as ``_check``)."""
        vma = self.find_vma(addr)
        if vma is None:
            raise SegmentationFault(addr)
        if addr + 8 > vma.end:
            raise SegmentationFault(addr + 7, "straddles mapping")
        if not (vma.writable if want_write else vma.readable):
            want = Prot.WRITE if want_write else Prot.READ
            raise SegmentationFault(
                addr, f"prot {Prot.describe(vma.prot)} lacks "
                      f"{Prot.describe(want)}")

    def read(self, addr: int, length: int, check: bool = True) -> bytes:
        if check:
            self._check(addr, length, Prot.READ)
        out = bytearray()
        remaining = length
        cursor = addr
        while remaining:
            base = page_align_down(cursor)
            offset = cursor - base
            chunk = min(PAGE_SIZE - offset, remaining)
            store = (self._pages.get(base) if self.missing_page_hook is None
                     else self.page(base))
            if store is None:
                out += b"\x00" * chunk
            else:
                out += store[offset:offset + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes, check: bool = True) -> None:
        if check:
            self._check(addr, len(data), Prot.WRITE)
        cursor = addr
        view = memoryview(data)
        while view:
            base = page_align_down(cursor)
            offset = cursor - base
            chunk = min(PAGE_SIZE - offset, len(view))
            store = self.page(base, create=True)
            store[offset:offset + chunk] = view[:chunk]
            if self._dirty is not None:
                self._dirty.add(base)
            cursor += chunk
            view = view[chunk:]

    def write_code(self, addr: int, data: bytes) -> None:
        """Privileged write ignoring protections (loader / rewriter use)."""
        self.write(addr, data, check=False)
        if self.code_write_hook is not None:
            self.code_write_hook()

    # -- word helpers ----------------------------------------------------------

    def read_u64(self, addr: int) -> int:
        offset = addr & PAGE_MASK
        if offset <= LAST_U64_SLOT:
            vma = self._hot_vma
            if (vma is None or addr < vma.start or addr + 8 > vma.end
                    or not vma.readable):
                self._check_word(addr, want_write=False)
            store = self._pages.get(addr - offset)
            if store is None:
                if self.missing_page_hook is None:
                    return 0
                store = self.page(addr - offset)
                if store is None:
                    return 0
            return _U64.unpack_from(store, offset)[0]
        return _U64.unpack(self.read(addr, 8))[0]

    def read_i64(self, addr: int) -> int:
        value = self.read_u64(addr)
        return value - (1 << 64) if value >> 63 else value

    def write_u64(self, addr: int, value: int) -> None:
        offset = addr & PAGE_MASK
        if offset <= LAST_U64_SLOT:
            vma = self._hot_vma
            if (vma is None or addr < vma.start or addr + 8 > vma.end
                    or not vma.writable):
                self._check_word(addr, want_write=True)
            store = self._pages.get(addr - offset)
            if store is None:
                store = self.page(addr - offset, create=True)
            if self._dirty is not None:
                self._dirty.add(addr - offset)
            _U64.pack_into(store, offset, value & _U64_MASK)
            return
        self.write(addr, _U64.pack(value & _U64_MASK))

    def write_i64(self, addr: int, value: int) -> None:
        self.write_u64(addr, value)

    def read_cstr(self, addr: int, limit: int = 4096) -> str:
        """Read a NUL-terminated string, page-sized chunks at a time."""
        out = bytearray()
        cursor = addr
        remaining = limit
        while remaining > 0:
            vma = self.find_vma(cursor)
            if vma is None:
                raise SegmentationFault(cursor)
            chunk_len = min(PAGE_SIZE - (cursor & PAGE_MASK), remaining,
                            vma.end - cursor)
            chunk = self.read(cursor, chunk_len)
            nul = chunk.find(0)
            if nul >= 0:
                out += chunk[:nul]
                break
            out += chunk
            cursor += chunk_len
            remaining -= chunk_len
        return out.decode("utf-8", errors="replace")

    # -- instruction fetch ---------------------------------------------------

    def fetch(self, addr: int, length: int) -> bytes:
        """Read for execution: requires EXEC protection on the VMA."""
        self._check(addr, 1, Prot.EXEC)
        return self.read(addr, length, check=False)

    def populated_bytes(self) -> int:
        return len(self._pages) * PAGE_SIZE

    def clone(self) -> "AddressSpace":
        """Deep copy (used to snapshot for deterministic replay tests).
        ``origin`` is shared: its blob is immutable and its digests are
        pure functions of it."""
        new = AddressSpace()
        new.origin = self.origin
        new.vmas = [Vma(v.start, v.end, v.prot, v.name, v.file_backed,
                        v.file_path, v.file_offset) for v in self.vmas]
        new._pages = {base: bytearray(data)
                      for base, data in self._pages.items()}
        new._reindex()
        return new
