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

from typing import FrozenSet, List, Set, Tuple

from ...errors import MemoryError_, RestoreError
from ...mem import AddressSpace
from ...mem.paging import PAGE_SIZE, page_align_down
from ...mem.vma import Vma
from ...vm.cpu import ThreadStatus
from ..images import (PE_PARENT, ImageSet, MmImage, PagemapEntry,
                      PagemapImage)
from .base import CheckpointPlugin, DumpContext, RestoreContext, \
    frozen_in_parent


_ZERO_PAGE = bytes(PAGE_SIZE)


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
        if ctx.lazy:
            eager, lazy = _partition_pages(process)
            _write_pages(process, sorted(eager), images)
            for base in lazy:
                data = process.aspace.page(base)
                ctx.lazy_pages[base] = bytes(data) if data is not None \
                    else bytes(PAGE_SIZE)
            return
        dump_pages = _select_pages(process)
        in_parent = frozen_in_parent(ctx, dump_pages)
        _write_pages(process, sorted(dump_pages), images, in_parent)

    def restore(self, ctx: RestoreContext, images) -> None:
        ctx.aspace = _build_address_space(images, ctx.binary)


def _select_pages(process) -> Set[int]:
    """Page-aligned addresses to dump."""
    selected: Set[int] = set()
    exec_pages = {page_align_down(t.pc)
                  for t in process.threads.values()
                  if t.status != ThreadStatus.DEAD}
    for base, _data in process.aspace.populated_pages():
        vma = process.aspace.find_vma(base)
        if vma is None:
            continue
        if vma.file_backed:
            # Execution context only: the page under each thread's pc
            # (and its successor, since an instruction can straddle).
            if base in exec_pages or (base - PAGE_SIZE) in exec_pages:
                selected.add(base)
        else:
            selected.add(base)
    return selected


def _partition_pages(process) -> Tuple[Set[int], Set[int]]:
    """Split populated pages into (eagerly dumped, left at source)."""
    eager: Set[int] = set()
    lazy: Set[int] = set()
    exec_pages = {page_align_down(t.pc)
                  for t in process.threads.values()
                  if t.status != ThreadStatus.DEAD}
    for base, _data in process.aspace.populated_pages():
        vma = process.aspace.find_vma(base)
        if vma is None:
            continue
        if vma.file_backed:
            if base in exec_pages or (base - PAGE_SIZE) in exec_pages:
                eager.add(base)
            continue   # other clean code pages: reload from the binary
        if vma.name.startswith("stack:") or vma.name.startswith("tls:"):
            eager.add(base)
        else:
            lazy.add(base)
    return eager, lazy


def _write_pages(process, pages: List[int], images: ImageSet,
                 in_parent: FrozenSet[int] = frozenset()) -> None:
    aspace = process.aspace
    origin = aspace.origin
    known = {}              # vaddr -> digest of pages unchanged since origin
    entries: List[PagemapEntry] = []
    parts = []              # page stores, joined once: no regrowing copy
    run_start = None
    run_len = 0
    run_flags = 0
    for base in pages:
        flags = PE_PARENT if base in in_parent else 0
        if flags == 0:
            data = aspace.page(base)
            if data is None:
                parts.append(_ZERO_PAGE)
            else:
                parts.append(data)
                if origin is not None:
                    digest = origin.unchanged(base, data)
                    if digest is not None:
                        known[base] = digest
        if (run_start is not None and flags == run_flags
                and base == run_start + run_len * PAGE_SIZE):
            run_len += 1
        else:
            if run_start is not None:
                entries.append(PagemapEntry(run_start, run_len, run_flags))
            run_start = base
            run_len = 1
            run_flags = flags
    if run_start is not None:
        entries.append(PagemapEntry(run_start, run_len, run_flags))
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
    pages = memoryview(leaves.blob)         # page slices copy nothing
    if len(pages) < leaves.data_bytes:
        raise RestoreError(
            f"pages-1.img holds {len(pages)} bytes but the pagemap "
            f"claims {leaves.data_bytes // PAGE_SIZE} data page(s) "
            f"({leaves.data_bytes} bytes)")
    if leaves.parent_run is not None:
        raise RestoreError(
            f"pagemap run at {leaves.parent_run:#x} references a parent "
            f"checkpoint — materialize the delta through the "
            f"checkpoint store first")
    for base, offset in leaves.offsets.items():
        if aspace.find_vma(base) is None:
            raise RestoreError(
                f"pagemap run page {base:#x} falls outside every "
                f"dumped VMA")
        aspace.install_page(base, pages[offset:offset + PAGE_SIZE])
    aspace.origin = leaves
    return aspace
