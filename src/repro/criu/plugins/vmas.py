"""VMAs plugin: memory layout (``mm.img``) and page contents
(``pagemap.img`` + ``pages-1.img``).

Page-dump policy mirrors CRIU (paper §III-C): file-backed (code) VMAs
contribute only the *execution context* — the page(s) each thread's
program counter points into — because clean code pages reload from the
binary at restore. All other populated pages are dumped.

Incremental dumps (like CRIU's ``--prev-images-dir``): pages that are
clean *and* available from the parent chain are emitted as
:data:`~repro.criu.images.PE_PARENT` pagemap runs with no data — the
checkpoint store resolves them at materialize time.

Lazy (post-copy) dumps instead partition populated pages into an eager
set (stack, TLS, execution context) written here and a lazy remainder
stashed on the context for the caller's :class:`~repro.criu.PageServer`.

This plugin owns the page section, so it also owns the pages' identity
(:mod:`repro.mem.leaves`): restore hands the arrived set's leaves to the
new address space as its ``origin``; dump gives every page that still
equals its origin slice the digest already known for it and makes the
image just written the new origin. A page is hashed once per change.
"""

from __future__ import annotations

from typing import List

from ...errors import MemoryError_, RestoreError
from ...mem import AddressSpace
from ...mem.paging import PAGE_SIZE, page_align_down
from ...mem.vma import Vma
from ..images import (PE_PARENT, ImageSet, MmImage, PagemapEntry,
                      PagemapImage)
from .base import CheckpointPlugin, DumpContext, RestoreContext


class VmasPlugin(CheckpointPlugin):
    name = "vmas"
    sections = ("mm.img", "pagemap.img", "pages-1.img")
    codes = ("pages-length", "run-align", "run-overlap", "run-outside-vma",
             "content-digest", "page-digest", "text-page", "unfetchable",
             "unlocatable")
    code_prefixes = ("decode:mm", "decode:pagemap", "delta-")

    def dump(self, ctx: DumpContext, images) -> None:
        process = ctx.process
        images.set_mm(MmImage(process.aspace.vmas, process.heap_end))
        _write_pages(ctx, images)

    def restore(self, ctx: RestoreContext, images) -> None:
        ctx.aspace = _build_address_space(images, ctx.binary)


def _write_pages(ctx: DumpContext, images: ImageSet) -> None:
    """Select and write the pages in one walk over the live pages in
    address order, looking a VMA up only when the walk leaves the last
    one. A file-backed (code) VMA gives only the execution context: the
    page under each live thread's pc, and its successor, since an
    instruction can straddle. A lazy dump writes stack and TLS pages and
    stashes the rest on ``ctx.lazy_pages``; a delta dump writes a page
    the parent chain holds and nothing wrote since as a PE_PARENT run."""
    aspace = ctx.process.aspace
    unchanged = aspace.origin.unchanged if aspace.origin is not None else None
    exec_pages = {page_align_down(t.pc) for t in ctx.live}
    in_parent = ctx.parent_pages if ctx.parent is not None \
        and not ctx.lazy else ()
    known = {}              # vaddr -> digest of pages unchanged since origin
    entries: List[PagemapEntry] = []
    parts = []              # page stores, joined once: no regrowing copy
    start = end = 0         # the VMA the walk is in
    code = eager = False
    run_end = None
    for base, data in aspace.populated_pages():
        if not start <= base < end:
            vma = aspace.find_vma(base)
            if vma is None:
                continue
            start, end, code = vma.start, vma.end, vma.file_backed
            eager = not ctx.lazy or vma.name.startswith(("stack:", "tls:"))
        if code:
            if base not in exec_pages and base - PAGE_SIZE not in exec_pages:
                continue    # clean code pages reload from the binary
        elif not eager:
            ctx.lazy_pages[base] = bytes(data)
            continue
        if base in in_parent and base not in ctx.dirty_pages:
            flags = PE_PARENT
        else:
            flags = 0
            parts.append(data)
            digest = unchanged and unchanged(base, data)
            if digest:
                known[base] = digest
        if base == run_end and entries[-1].flags == flags:
            entries[-1].nr_pages += 1
        else:
            entries.append(PagemapEntry(base, 1, flags))
        run_end = base + PAGE_SIZE
    images.set_pagemap(PagemapImage(entries))
    images.set_pages(b"".join(parts))
    leaves = aspace.origin = images.page_leaves()
    leaves.digests.update(known)


def _build_address_space(images: ImageSet, binary) -> AddressSpace:
    aspace = AddressSpace()
    mm = images.mm()
    try:
        for vma in mm.vmas:
            aspace.map(Vma(vma.start, vma.end, vma.prot, vma.name,
                           vma.file_backed, vma.file_path,
                           vma.file_offset))
        # Reload clean code pages from the (destination) binary — once
        # per text segment, into the file-backed VMA actually covering
        # it (not once per file-backed VMA of the whole layout).
        for segment in binary.segments:
            if segment.section != ".text":
                continue
            vma = aspace.find_vma(segment.vaddr)
            if vma is not None and vma.file_backed:
                aspace.write_code(segment.vaddr, binary.text)
    except MemoryError_ as exc:
        raise RestoreError(
            f"mm.img describes an invalid layout: {exc}") from exc
    # Overlay every dumped page (stacks, data, heap, TLS, and the
    # rewritten execution-context code pages).
    leaves = images.page_leaves()
    if len(leaves.blob) < leaves.data_bytes:
        raise RestoreError(
            f"pages-1.img holds {len(leaves.blob)} bytes but the pagemap "
            f"claims {leaves.data_bytes // PAGE_SIZE} data page(s) "
            f"({leaves.data_bytes} bytes)")
    if leaves.parent_run is not None:
        raise RestoreError(
            f"pagemap run at {leaves.parent_run:#x} references a parent "
            f"checkpoint — materialize the delta through the "
            f"checkpoint store first")
    for vaddr, offset, count in leaves.spans:
        end = vaddr + count * PAGE_SIZE
        cursor = vaddr
        while cursor < end:         # one lookup per VMA the run crosses
            vma = aspace.find_vma(cursor)
            if vma is None:
                raise RestoreError(
                    f"pagemap run page {cursor:#x} falls outside every "
                    f"dumped VMA")
            cursor = vma.end
        aspace.install_pages(vaddr, leaves.blob, offset, count)
    aspace.origin = leaves
    return aspace
