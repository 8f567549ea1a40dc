"""The process rewriter: byte-level image memory + policy application.

The paper implements state transformation as a CRIT sub-command doing
"a set of file reads and writes which set the live values within the
memory dump" (§III-D2b). :class:`ImageMemory` is that read/write layer:
it materializes the dumped pages from ``pages-1.img``/``pagemap.img``
into an addressable view, lets policies read and write words, add and
drop whole pages (code-page replacement), and then flushes back into
image-file form.
"""

from __future__ import annotations

import struct
import time
from bisect import bisect_left
from operator import itemgetter
from typing import Callable, Dict, List, Optional

from ..criu.images import ImageSet, PagemapEntry, PagemapImage
from ..errors import RewriteError
from ..mem.paging import PAGE_MASK, PAGE_SIZE, page_align_down
from .policy import TransformationPolicy


class ImageMemory:
    """Mutable, copy-on-write view over the dumped pages of a checkpoint.

    A page stays a slice of the image's immutable ``pages-1.img`` blob
    until something asks to change it: the first ``write``, ``page()``
    or ``add_page`` touching it copies it into a private ``bytearray``.
    Reads copy nothing, so the verifier's stack walk is free, and
    "untouched" is a fact of construction: :meth:`flush` carries the
    digests the image's :class:`~repro.mem.leaves.PageLeaves` already
    hold for untouched pages over to the rewritten image, which
    therefore hashes only what the policy actually wrote, and copies
    them out as whole stretches of the old blob.
    """

    def __init__(self, images: ImageSet):
        self._images = images
        leaves = self._leaves = images.page_leaves()
        if leaves.parent_run is not None:
            raise RewriteError(
                f"pagemap run at {leaves.parent_run:#x} lives in a parent "
                f"checkpoint; materialize the delta through the "
                f"checkpoint store before rewriting")
        #: untouched pages: vaddr -> offset into the image's page blob
        self._clean: Dict[int, int] = dict(leaves.offsets)
        #: touched (written, added or handed out) pages, owned copies
        self._pages: Dict[int, bytearray] = {}

    # -- page-level -------------------------------------------------------

    def has_page(self, base: int) -> bool:
        return base in self._pages or base in self._clean

    def page_bases(self) -> List[int]:
        return sorted(self._pages.keys() | self._clean.keys())

    def add_page(self, base: int, data: bytes) -> None:
        if len(data) != PAGE_SIZE:
            raise RewriteError("add_page needs exactly one page of data")
        self._clean.pop(base, None)
        self._pages[base] = bytearray(data)

    def drop_page(self, base: int) -> None:
        self._clean.pop(base, None)
        self._pages.pop(base, None)

    def _own(self, base: int) -> Optional[bytearray]:
        """The private copy of a dumped page, made on first demand."""
        store = self._pages.get(base)
        if store is None:
            offset = self._clean.pop(base, None)
            if offset is not None:
                store = self._pages[base] = bytearray(
                    self._leaves.blob[offset:offset + PAGE_SIZE])
        return store

    def page(self, base: int) -> bytearray:
        store = self._own(base)
        if store is None:
            raise RewriteError(f"page {base:#x} not in dump")
        return store

    # -- byte/word-level -----------------------------------------------------

    def read(self, addr: int, length: int) -> bytes:
        """``length`` bytes at ``addr``; bytes no page holds read as
        zeros. A range inside one page is sliced straight from its
        page."""
        offset = addr & PAGE_MASK
        if offset + length > PAGE_SIZE:
            return self._read_span(addr, length)
        base = addr - offset
        store = self._pages.get(base)
        if store is not None:
            return bytes(store[offset:offset + length])
        start = self._clean.get(base)
        if start is None:
            return bytes(length)
        start += offset
        return self._leaves.blob[start:start + length]

    def _read_span(self, addr: int, length: int) -> bytes:
        """:meth:`read` page by page, for ranges that cross pages."""
        out = bytearray()
        cursor = addr
        remaining = length
        blob = self._leaves.blob
        while remaining:
            base = page_align_down(cursor)
            offset = cursor - base
            chunk = min(PAGE_SIZE - offset, remaining)
            store = self._pages.get(base)
            if store is not None:
                out += store[offset:offset + chunk]
            else:
                start = self._clean.get(base)
                if start is None:
                    out += b"\x00" * chunk
                else:
                    start += offset
                    out += blob[start:start + chunk]
            cursor += chunk
            remaining -= chunk
        return bytes(out)

    def write(self, addr: int, data: bytes) -> None:
        """Store ``data`` at ``addr``, copying each page it touches on
        first write. A range inside one page is written straight into
        its page."""
        if not data:
            return
        offset = addr & PAGE_MASK
        end = offset + len(data)
        if end > PAGE_SIZE:
            self._write_span(addr, data)
            return
        base = addr - offset
        store = self._own(base)
        if store is None:
            store = self._pages[base] = bytearray(PAGE_SIZE)
        store[offset:end] = data

    def _write_span(self, addr: int, data: bytes) -> None:
        """:meth:`write` page by page, for ranges that cross pages."""
        cursor = addr
        view = memoryview(data)
        while view:
            base = page_align_down(cursor)
            offset = cursor - base
            chunk = min(PAGE_SIZE - offset, len(view))
            store = self._own(base)
            if store is None:
                # Writing into a page the dump did not contain (e.g. a
                # larger destination frame): materialize it as zeros.
                store = bytearray(PAGE_SIZE)
                self._pages[base] = store
            store[offset:offset + chunk] = view[:chunk]
            cursor += chunk
            view = view[chunk:]

    def read_u64(self, addr: int) -> int:
        return struct.unpack("<Q", self.read(addr, 8))[0]

    def read_i64(self, addr: int) -> int:
        return struct.unpack("<q", self.read(addr, 8))[0]

    def write_u64(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<Q", value & 0xFFFFFFFFFFFFFFFF))

    def write_i64(self, addr: int, value: int) -> None:
        self.write_u64(addr, value)

    # -- flush ------------------------------------------------------------------

    def flush(self) -> None:
        """Write the page view back into pagemap.img / pages-1.img, in
        address order. Untouched pages go out as slices of the old blob,
        one per stretch between touched pages, and keep their digests;
        a flush that changes no byte leaves both files as they were."""
        leaves, clean, touched = self._leaves, self._clean, self._pages
        cut = sorted(leaves.offsets.keys() - clean.keys())
        view = memoryview(leaves.blob)
        pieces = [(base, 1, store) for base, store in touched.items()]
        if leaves.ordered:
            for vaddr, offset, count in leaves.spans:
                end = vaddr + count * PAGE_SIZE
                at = bisect_left(cut, vaddr)
                while vaddr < end:
                    stop = cut[at] if at < len(cut) and cut[at] < end \
                        else end
                    if stop > vaddr:
                        pieces.append((vaddr, (stop - vaddr) // PAGE_SIZE,
                                       view[offset:offset + stop - vaddr]))
                    offset += stop + PAGE_SIZE - vaddr
                    vaddr = stop + PAGE_SIZE
                    at += 1
        else:       # a pagemap no flush wrote: page by page
            pieces += [(base, 1, view[offset:offset + PAGE_SIZE])
                       for base, offset in clean.items()]
        pieces.sort(key=itemgetter(0))
        entries: List[PagemapEntry] = []
        run_end = None
        for vaddr, count, _data in pieces:
            if vaddr == run_end:
                entries[-1].nr_pages += count
            else:
                entries.append(PagemapEntry(vaddr, count))
            run_end = vaddr + count * PAGE_SIZE
        pagemap = PagemapImage(entries)
        images = self._images
        if not (touched or cut) and leaves.ordered \
                and pagemap.to_bytes() == images.files["pagemap.img"]:
            return
        images.set_pagemap(pagemap)
        images.set_pages(b"".join([data for _, _, data in pieces]))
        digests = images.page_leaves().digests
        digests.update(leaves.digests)
        for base in cut:
            digests.pop(base, None)


class RewriteReport:
    """What one rewrite did (feeds the cost model and the benchmarks)."""

    def __init__(self, policy: str, stats: Dict, wall_seconds: float,
                 bytes_before: int, bytes_after: int):
        self.policy = policy
        self.stats = dict(stats)
        self.wall_seconds = wall_seconds
        self.bytes_before = bytes_before
        self.bytes_after = bytes_after

    def __repr__(self) -> str:
        return (f"<RewriteReport {self.policy} {self.wall_seconds * 1e3:.2f}ms "
                f"{self.bytes_before}B→{self.bytes_after}B {self.stats}>")


class ProcessRewriter:
    """Applies transformation policies to checkpointed image sets.

    ``clock`` is the wall-clock source for :class:`RewriteReport`
    timings. It defaults to ``time.perf_counter``; replayed and tested
    runs inject a deterministic clock so the recorded metadata is
    identical from run to run.
    """

    def __init__(self, policies: Optional[List[TransformationPolicy]] = None,
                 clock: Callable[[], float] = time.perf_counter):
        self.policies: List[TransformationPolicy] = list(policies or [])
        self.clock = clock

    def rewrite(self, images: ImageSet,
                policy: Optional[TransformationPolicy] = None
                ) -> List[RewriteReport]:
        """Run one policy (or all registered ones, in order)."""
        todo = [policy] if policy is not None else self.policies
        if not todo:
            raise RewriteError("no transformation policy given")
        reports = []
        for item in todo:
            start = self.clock()
            before = images.total_bytes()
            memory = ImageMemory(images)
            stats = item.apply(images, memory)
            memory.flush()
            wall = self.clock() - start
            reports.append(RewriteReport(item.name, stats or {}, wall,
                                         before, images.total_bytes()))
        return reports
