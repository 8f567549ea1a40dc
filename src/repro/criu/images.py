"""Typed CRIU image classes and their wire schemas."""

from __future__ import annotations

import hashlib
import struct
from typing import Dict, List, Optional, Tuple

from .. import wire
from ..errors import ImageFormatError, MemoryError_, WireError
from ..mem.leaves import DIGEST_SIZE, PageLeaves, page_digest
from ..mem.paging import PAGE_SIZE
from ..mem.vma import Vma

#: pagemap-entry flag: the run's page data lives in the *parent*
#: checkpoint, not in this image set's pages-1.img (incremental dumps,
#: like CRIU's PE_PARENT).
PE_PARENT = 1

#: names the definition of :meth:`ImageSet.content_digest`. A digest
#: recorded under another definition (a fingerprint manifest) cannot be
#: compared with one computed now; the fold's first input is this name.
DIGEST_FORMAT = "fold-1"

_FOLD_TAG = f"dapper-images/{DIGEST_FORMAT}\x00".encode()

#: magic values at the head of each encoded image (like CRIU's magics)
MAGIC_INVENTORY = 0x58313116
MAGIC_CORE = 0x5A4E494D
MAGIC_MM = 0x5746F78B
MAGIC_PAGEMAP = 0x56084025
MAGIC_FILES = 0x56303138

_MAGIC_BY_KIND = {
    "inventory": MAGIC_INVENTORY,
    "core": MAGIC_CORE,
    "mm": MAGIC_MM,
    "pagemap": MAGIC_PAGEMAP,
    "files": MAGIC_FILES,
}


def register_magic(kind: str, magic: int) -> int:
    """Register a new image kind's magic value.

    Checkpoint plugins that introduce new image sections (sockets,
    tmpfs, ...) register their magics here instead of editing this
    module — the wrap/unwrap helpers then work for them unchanged.
    Re-registering the same (kind, magic) pair is a no-op; a conflicting
    magic for a known kind is an error.
    """
    existing = _MAGIC_BY_KIND.get(kind)
    if existing is not None and existing != magic:
        raise ImageFormatError(
            f"image kind {kind!r} already registered with magic "
            f"{existing:#x}")
    _MAGIC_BY_KIND[kind] = magic
    return magic


def _wrap(kind: str, payload: bytes) -> bytes:
    return struct.pack("<I", _MAGIC_BY_KIND[kind]) + payload


def _unwrap(kind: str, blob: bytes) -> bytes:
    if len(blob) < 4:
        raise ImageFormatError(f"{kind}: truncated image")
    magic = struct.unpack_from("<I", blob)[0]
    if magic != _MAGIC_BY_KIND[kind]:
        raise ImageFormatError(
            f"{kind}: bad magic {magic:#x} (want "
            f"{_MAGIC_BY_KIND[kind]:#x})")
    return blob[4:]


def _decode(kind: str, schema: wire.Schema, blob: bytes,
            required=()) -> dict:
    """Unwrap + decode an image, folding every malformed-input failure
    (bad magic, truncated wire data, missing required fields) into
    :class:`ImageFormatError` so callers need exactly one except."""
    payload = _unwrap(kind, blob)
    try:
        data = schema.decode(payload)
    except WireError as exc:
        raise ImageFormatError(f"{kind}: corrupt image: {exc}") from exc
    for name in required:
        if name not in data:
            raise ImageFormatError(
                f"{kind}: missing required field {name!r}")
    return data


# -- inventory ---------------------------------------------------------------

_INVENTORY_SCHEMA = wire.Schema("inventory", [
    wire.field(1, "pid", "int"),
    wire.field(2, "arch", "str"),
    wire.field(3, "source_name", "str"),
    wire.field(4, "tids", "int", repeated=True),
    wire.field(5, "lazy", "int"),
    wire.field(6, "parent", "str"),
])


class InventoryImage:
    def __init__(self, pid: int, arch: str, source_name: str,
                 tids: List[int], lazy: bool = False, parent: str = ""):
        self.pid = pid
        self.arch = arch
        self.source_name = source_name
        self.tids = list(tids)
        self.lazy = lazy
        #: checkpoint id this dump is a delta against ("" = full dump)
        self.parent = parent

    def copy(self) -> "InventoryImage":
        return InventoryImage(self.pid, self.arch, self.source_name,
                              self.tids, bool(self.lazy), self.parent)

    def to_bytes(self) -> bytes:
        return _wrap("inventory", _INVENTORY_SCHEMA.encode({
            "pid": self.pid, "arch": self.arch,
            "source_name": self.source_name, "tids": self.tids,
            "lazy": int(self.lazy), "parent": self.parent}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "InventoryImage":
        data = _decode("inventory", _INVENTORY_SCHEMA, blob,
                       required=("pid", "arch"))
        return cls(data["pid"], data["arch"], data.get("source_name", ""),
                   data.get("tids", []), bool(data.get("lazy", 0)),
                   data.get("parent", ""))


# -- core (per thread) ----------------------------------------------------------

_CORE_SCHEMA = wire.Schema("core", [
    wire.field(1, "tid", "int"),
    wire.field(2, "arch", "str"),
    wire.field(3, "pc", "int"),
    wire.field(4, "flags", "int"),
    wire.field(5, "tls_base", "int"),
    wire.field(6, "status", "str"),
    # Registers stored as (dwarf_number, value) pairs so the rewriter can
    # address them exactly the way the stackmaps do.
    wire.field(7, "reg_dwarf", "int", repeated=True),
    wire.field(8, "reg_value", "int", repeated=True),
])


class CoreImage:
    """One thread's dumped architectural state."""

    def __init__(self, tid: int, arch: str, pc: int, flags: int,
                 tls_base: int, status: str, regs: Dict[int, int]):
        self.tid = tid
        self.arch = arch
        self.pc = pc
        self.flags = flags
        self.tls_base = tls_base
        self.status = status
        #: dwarf register number -> signed value
        self.regs = dict(regs)

    def copy(self) -> "CoreImage":
        regs = self.regs
        return CoreImage(self.tid, self.arch, self.pc, self.flags,
                         self.tls_base, self.status,
                         {n: regs[n] for n in sorted(regs)})

    def to_bytes(self) -> bytes:
        numbers = sorted(self.regs)
        return _wrap("core", _CORE_SCHEMA.encode({
            "tid": self.tid, "arch": self.arch, "pc": self.pc,
            "flags": self.flags, "tls_base": self.tls_base,
            "status": self.status,
            "reg_dwarf": numbers,
            "reg_value": [self.regs[n] for n in numbers]}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CoreImage":
        data = _decode("core", _CORE_SCHEMA, blob,
                       required=("tid", "arch", "pc", "flags", "tls_base"))
        regs = dict(zip(data.get("reg_dwarf", []),
                        data.get("reg_value", [])))
        return cls(data["tid"], data["arch"], data["pc"], data["flags"],
                   data["tls_base"], data.get("status", "running"), regs)


# -- mm -----------------------------------------------------------------------

_VMA_SCHEMA = wire.Schema("vma", [
    wire.field(1, "start", "int"),
    wire.field(2, "end", "int"),
    wire.field(3, "prot", "int"),
    wire.field(4, "name", "str"),
    wire.field(5, "file_backed", "int"),
    wire.field(6, "file_path", "str"),
    wire.field(7, "file_offset", "int"),
])

_MM_SCHEMA = wire.Schema("mm", [
    wire.field(1, "vmas", "message", repeated=True, message=_VMA_SCHEMA),
    wire.field(2, "heap_end", "int"),
])


class MmImage:
    def __init__(self, vmas: List[Vma], heap_end: int):
        self.vmas = list(vmas)
        self.heap_end = heap_end

    def copy(self) -> "MmImage":
        return MmImage([Vma(v.start, v.end, v.prot, v.name,
                            bool(v.file_backed), v.file_path, v.file_offset)
                        for v in self.vmas], self.heap_end)

    def to_bytes(self) -> bytes:
        return _wrap("mm", _MM_SCHEMA.encode({
            "vmas": [v.to_dict() for v in self.vmas],
            "heap_end": self.heap_end}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "MmImage":
        data = _decode("mm", _MM_SCHEMA, blob)
        try:
            vmas = [Vma.from_dict(v) for v in data.get("vmas", [])]
        except KeyError as exc:
            raise ImageFormatError(
                f"mm: vma entry missing field {exc}") from exc
        except MemoryError_ as exc:
            raise ImageFormatError(f"mm: invalid vma: {exc}") from exc
        return cls(vmas, data.get("heap_end", 0))


# -- files ----------------------------------------------------------------------

_FILES_SCHEMA = wire.Schema("files", [
    wire.field(1, "exe_path", "str"),
    wire.field(2, "exe_arch", "str"),
])


class FilesImage:
    """Opened files. The entry that matters for Dapper is the executable:
    cross-ISA rewriting points it at the other architecture's binary."""

    def __init__(self, exe_path: str, exe_arch: str):
        self.exe_path = exe_path
        self.exe_arch = exe_arch

    def copy(self) -> "FilesImage":
        return FilesImage(self.exe_path, self.exe_arch)

    def to_bytes(self) -> bytes:
        return _wrap("files", _FILES_SCHEMA.encode({
            "exe_path": self.exe_path, "exe_arch": self.exe_arch}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "FilesImage":
        data = _decode("files", _FILES_SCHEMA, blob,
                       required=("exe_path",))
        return cls(data["exe_path"], data.get("exe_arch", ""))


# -- pagemap + pages ---------------------------------------------------------------

_PAGEMAP_ENTRY_SCHEMA = wire.Schema("pagemap_entry", [
    wire.field(1, "vaddr", "int"),
    wire.field(2, "nr_pages", "int"),
    wire.field(3, "flags", "int"),
])

_PAGEMAP_SCHEMA = wire.Schema("pagemap", [
    wire.field(1, "entries", "message", repeated=True,
               message=_PAGEMAP_ENTRY_SCHEMA),
])


class PagemapEntry:
    __slots__ = ("vaddr", "nr_pages", "flags")

    def __init__(self, vaddr: int, nr_pages: int, flags: int = 0):
        self.vaddr = vaddr
        self.nr_pages = nr_pages
        self.flags = flags

    @property
    def in_parent(self) -> bool:
        return bool(self.flags & PE_PARENT)

    def to_dict(self) -> dict:
        return {"vaddr": self.vaddr, "nr_pages": self.nr_pages,
                "flags": self.flags}

    @classmethod
    def from_dict(cls, data: dict) -> "PagemapEntry":
        return cls(data["vaddr"], data["nr_pages"],
                   data.get("flags", 0))

    def __repr__(self) -> str:
        tag = " parent" if self.in_parent else ""
        return f"<PagemapEntry {self.vaddr:#x} x{self.nr_pages}{tag}>"


class PagemapImage:
    """Index into ``pages-1.img``: runs of dumped pages in file order.

    Runs flagged :data:`PE_PARENT` are listed (the page *exists* in the
    checkpoint) but carry no data here — their contents live in the
    parent checkpoint, and only the checkpoint store can resolve them.
    """

    def __init__(self, entries: List[PagemapEntry]):
        self.entries = list(entries)

    def total_pages(self) -> int:
        return sum(e.nr_pages for e in self.entries)

    def data_pages(self) -> int:
        """Pages whose contents are in this image set's pages-1.img."""
        return sum(e.nr_pages for e in self.entries if not e.in_parent)

    def parent_pages(self) -> int:
        return sum(e.nr_pages for e in self.entries if e.in_parent)

    def is_delta(self) -> bool:
        return any(e.in_parent for e in self.entries)

    def page_addresses(self) -> List[int]:
        out = []
        for entry in self.entries:
            for i in range(entry.nr_pages):
                out.append(entry.vaddr + i * PAGE_SIZE)
        return out

    def copy(self) -> "PagemapImage":
        return PagemapImage([PagemapEntry(e.vaddr, e.nr_pages, e.flags)
                             for e in self.entries])

    def to_bytes(self) -> bytes:
        return _wrap("pagemap", _PAGEMAP_SCHEMA.encode({
            "entries": [e.to_dict() for e in self.entries]}))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PagemapImage":
        data = _decode("pagemap", _PAGEMAP_SCHEMA, blob)
        try:
            entries = [PagemapEntry.from_dict(e)
                       for e in data.get("entries", [])]
        except KeyError as exc:
            raise ImageFormatError(
                f"pagemap: entry missing field {exc}") from exc
        return cls(entries)


# -- the image set ------------------------------------------------------------------

class ImageSet:
    """One checkpoint: named image files, loadable from / savable to tmpfs.

    ``files`` holds the encoded bytes and is the only truth: digests,
    saves and transfers read it and nothing else. The typed accessors
    decode a file the first time it is asked for and keep the result
    beside the ``bytes`` object it came from; a later call decodes again
    unless ``files[name]`` *is* still that object. Stored blobs are
    immutable, so identity means unchanged content — and every way of
    changing a file (``set_*``, assigning into ``files``, a chaos
    injector swapping in a corrupted copy) installs a different object,
    which misses. A blob that fails to decode is never remembered: it
    raises on every call. Each call returns its own copy, so mutating a
    returned image changes nothing until it is written back with
    ``set_*``.

    A section this set encodes itself is never decoded back: ``set_*``
    (one :meth:`put_section`) stores the new blob together with a
    private copy of the image it was encoded from, as that blob's
    decode. Copies are
    canonical (``copy()`` gives what ``from_bytes`` would), so the memo
    is the bytes either way. Bytes that arrived from outside — a set
    built from ``files``, :meth:`load`, the store's ``materialize``, an
    injector's corrupted copy, a direct ``files[name] = blob`` — are
    decoded once each.

    Digests follow the same identity rule. :meth:`page_leaves` keeps the
    :class:`~repro.mem.leaves.PageLeaves` of ``pagemap.img`` +
    ``pages-1.img`` (page offsets from one pagemap walk, one page-digest
    manifest built on first request) for as long as both files are the objects
    it was built from, and :meth:`file_digest` keeps each file's chunk
    address while the file is the object that was hashed;
    :meth:`content_digest` folds those. A new ``ImageSet`` — from
    :meth:`load`, ``ImageSet(dict(files))``, the store's
    ``materialize`` — starts with none of them, so bytes that crossed a
    boundary are always hashed again.
    """

    def __init__(self, files: Optional[Dict[str, bytes]] = None):
        self.files: Dict[str, bytes] = dict(files or {})
        #: file name -> (the blob that was decoded, the decoded image)
        self._decoded: Dict[str, Tuple[bytes, object]] = {}
        #: (the pagemap blob walked, the leaves of the pages blob)
        self._leaves: Optional[Tuple[bytes, PageLeaves]] = None
        #: file name -> (the blob hashed, its chunk digest)
        self._chunk_ids: Dict[str, Tuple[bytes, str]] = {}

    # typed accessors (decode once per blob, write back explicitly)

    def _blob(self, name: str) -> bytes:
        try:
            return self.files[name]
        except KeyError:
            raise ImageFormatError(
                f"image set has no {name}") from None

    def section(self, name: str, kind):
        """The memoised decode of ``files[name]`` as a ``kind`` (any
        image class with ``from_bytes``/``to_bytes``/``copy``). This is
        how a plugin reads its own typed section. The result is shared,
        so it is for reading only; the accessors below hand out copies
        of it."""
        blob = self._blob(name)
        hit = self._decoded.get(name)
        if hit is None or hit[0] is not blob:
            hit = self._decoded[name] = (blob, kind.from_bytes(blob))
        return hit[1]

    def inventory(self) -> InventoryImage:
        return self.section("inventory.img", InventoryImage).copy()

    def core(self, tid: int) -> CoreImage:
        return self.section(f"core-{tid}.img", CoreImage).copy()

    def cores(self) -> List[CoreImage]:
        tids = self.section("inventory.img", InventoryImage).tids
        return [self.core(tid) for tid in tids]

    def mm(self) -> MmImage:
        return self.section("mm.img", MmImage).copy()

    def files_img(self) -> FilesImage:
        return self.section("files.img", FilesImage).copy()

    def pagemap(self) -> PagemapImage:
        return self.section("pagemap.img", PagemapImage).copy()

    def pages(self) -> bytes:
        return self._blob("pages-1.img")

    def put_section(self, name: str, image) -> None:
        """Encode ``image`` into ``files[name]`` and remember a private
        copy of it as that blob's decode: this set wrote the bytes from
        the image, so it never reads them back. This is how a plugin
        writes its own typed section; ``set_*`` call it too."""
        blob = self.files[name] = image.to_bytes()
        self._decoded[name] = (blob, image.copy())

    def set_inventory(self, image: InventoryImage) -> None:
        self.put_section("inventory.img", image)

    def set_core(self, image: CoreImage) -> None:
        self.put_section(f"core-{image.tid}.img", image)

    def set_mm(self, image: MmImage) -> None:
        self.put_section("mm.img", image)

    def set_files_img(self, image: FilesImage) -> None:
        self.put_section("files.img", image)

    def set_pagemap(self, image: PagemapImage) -> None:
        self.put_section("pagemap.img", image)

    def set_pages(self, data: bytes) -> None:
        self.files["pages-1.img"] = bytes(data)

    # page lookup helpers

    def page_leaves(self) -> PageLeaves:
        """Page identity of this set's ``pages-1.img`` — shared, and
        memoised against the identity of the pagemap and pages blobs
        exactly as :meth:`section` memoises decodes."""
        pagemap = self._blob("pagemap.img")
        pages = self._blob("pages-1.img")
        hit = self._leaves
        if hit is None or hit[0] is not pagemap or hit[1].blob is not pages:
            runs = self.section("pagemap.img", PagemapImage).entries
            hit = self._leaves = (pagemap, PageLeaves(pages, runs))
        return hit[1]

    def page_digests(self) -> Dict[int, str]:
        """``vaddr -> digest`` of every page with data in this set (the
        sender-side manifest, the chunk store's page addresses): the
        leaves' one memoised manifest, shared and read-only."""
        return self.page_leaves().manifest()

    def page_at(self, vaddr: int) -> Optional[bytes]:
        """Dumped page contents for a page-aligned address, if present.

        Pages flagged :data:`PE_PARENT` have no data in this image set
        (it is a delta dump) and return None — resolve them through the
        checkpoint store's parent chain instead.
        """
        return self.page_leaves().page(vaddr)

    def is_delta(self) -> bool:
        """True when this image set is an incremental (delta) dump."""
        return self.section("pagemap.img", PagemapImage).is_delta()

    def total_bytes(self) -> int:
        return sum(len(v) for v in self.files.values())

    def file_digest(self, name: str) -> str:
        """Chunk address of ``files[name]`` (``page_digest`` of the
        blob, the id the checkpoint store keeps it under), memoised
        against the identity of the blob exactly as :meth:`section`
        memoises decodes."""
        blob = self._blob(name)
        hit = self._chunk_ids.get(name)
        if hit is None or hit[0] is not blob:
            hit = self._chunk_ids[name] = (blob, page_digest(blob))
        return hit[1]

    def _pages_term(self) -> bytes:
        """``pages-1.img``'s term in the fold. When the pagemap walk
        covers the blob exactly — every byte in one page slice — it is
        the page digests in pagemap order (the leaves' memoised
        manifest, so a second call costs one join), under ``L``;
        otherwise (no or an undecodable pagemap, a short or long blob,
        runs that share an address) the blob's chunk digest, under
        ``R``. Total on garbage, and every byte is covered either way;
        the run count is judged before the walk, so a garbage pagemap
        never drives one."""
        size = len(self._blob("pages-1.img"))
        try:
            runs = self.section("pagemap.img", PagemapImage).entries
        except ImageFormatError:
            runs = None
        if runs is not None and size == PAGE_SIZE * sum(
                run.nr_pages for run in runs
                if not run.in_parent and run.nr_pages > 0):
            leaves = self.page_leaves()
            if len(leaves.offsets) * PAGE_SIZE == size:
                return b"L" + "".join(leaves.manifest().values()).encode()
        return b"R" + self.file_digest("pages-1.img").encode()

    def content_digest(self) -> str:
        """Order-independent identity of the whole set — the
        transactional migration pipeline compares source and arrival
        digests to catch wire corruption before restoring.

        One blake2b over the sorted ``(file name, file digest)`` pairs:
        a file's digest is its chunk address (:meth:`file_digest`,
        under ``C``), except ``pages-1.img``, whose term is its page
        digests (:meth:`_pages_term`). Both are memoised per blob,
        so the root costs the section hashes and page digests nobody
        has asked for yet — on a sender, whose manifest needs every
        page digest anyway, a few small hashes. Format:
        :data:`DIGEST_FORMAT`."""
        h = hashlib.blake2b(_FOLD_TAG, digest_size=DIGEST_SIZE)
        for name in sorted(self.files):
            term = (self._pages_term() if name == "pages-1.img"
                    else b"C" + self.file_digest(name).encode())
            h.update(name.encode("utf-8") + b"\x00" + term + b"\x01")
        return h.hexdigest()

    # tmpfs I/O

    def save(self, tmpfs, prefix: str) -> int:
        total = 0
        for name, data in self.files.items():
            tmpfs.write(f"{prefix.rstrip('/')}/{name}", data)
            total += len(data)
        return total

    @classmethod
    def load(cls, tmpfs, prefix: str) -> "ImageSet":
        files = {}
        for path in tmpfs.listdir(prefix):
            name = path[len(prefix.rstrip('/')) + 1:]
            files[name] = tmpfs.read(path)
        if not files:
            raise ImageFormatError(f"no images under {prefix!r}")
        return cls(files)

    def __repr__(self) -> str:
        return f"<ImageSet {sorted(self.files)} {self.total_bytes()}B>"
