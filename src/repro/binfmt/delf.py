"""The DELF binary container.

One DELF file = machine code + data for one ISA + all the Dapper
metadata sections. Files are serialized with the same wire format the
CRIU-style images use, prefixed with a magic and an ISA tag.

Address-space layout (shared by both ISAs — the linker aligns all symbol
addresses, creating the paper's unified global virtual address space):

====================  ==========================================
``0x0000_0040_0000``  ``.text`` (RX, file-backed: CRIU skips most
                      code pages at dump time)
``0x0000_0060_0000``  ``.data`` + ``.bss`` (RW)
``0x0000_1000_0000``  heap (grows up via the ``sbrk`` syscall)
``0x0000_7FFF_0000``  main-thread stack top (grows down);
                      additional thread stacks below, 1 MiB apart
====================  ==========================================
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import wire
from ..errors import LoaderError
from ..mem.vma import Prot
from .frames import FrameSection
from .stackmaps import StackMapSection
from .symtab import SymbolTable

DELF_MAGIC = b"DELF"
DELF_VERSION = 1

TEXT_BASE = 0x400000
DATA_BASE = 0x600000
HEAP_BASE = 0x10000000
STACK_TOP = 0x7FFF0000
THREAD_STACK_SIZE = 0x100000      # 1 MiB per thread
THREAD_STACK_GAP = 0x10000        # guard gap between thread stacks

_SEGMENT_SCHEMA = wire.Schema("segment", [
    wire.field(1, "vaddr", "int"),
    wire.field(2, "size", "int"),
    wire.field(3, "prot", "int"),
    wire.field(4, "section", "str"),
])

_BINARY_SCHEMA = wire.Schema("delf", [
    wire.field(1, "version", "int"),
    wire.field(2, "arch", "str"),
    wire.field(3, "entry", "int"),
    wire.field(4, "source_name", "str"),
    wire.field(5, "text", "bytes"),
    wire.field(6, "data", "bytes"),
    wire.field(7, "symtab", "bytes"),
    wire.field(8, "stackmaps", "bytes"),
    wire.field(9, "frames", "bytes"),
    wire.field(10, "tls_template", "bytes"),
    wire.field(11, "segments", "message", repeated=True,
               message=_SEGMENT_SCHEMA),
    wire.field(12, "extra_sections", "bytes"),
])

_EXTRA_SCHEMA = wire.Schema("extra_sections", [
    wire.field(1, "name", "str", repeated=True),
    wire.field(2, "data", "bytes", repeated=True),
])


class Segment:
    """One loadable region."""

    __slots__ = ("vaddr", "size", "prot", "section")

    def __init__(self, vaddr: int, size: int, prot: int, section: str):
        self.vaddr = vaddr
        self.size = size
        self.prot = prot
        self.section = section

    def to_dict(self) -> dict:
        return {"vaddr": self.vaddr, "size": self.size, "prot": self.prot,
                "section": self.section}

    @classmethod
    def from_dict(cls, data: dict) -> "Segment":
        return cls(data["vaddr"], data["size"], data["prot"],
                   data["section"])

    def __repr__(self) -> str:
        return (f"<Segment {self.section} @{self.vaddr:#x} +{self.size:#x} "
                f"{Prot.describe(self.prot)}>")


class DelfBinary:
    """A linked, loadable program image for one ISA.

    A binary obtained from :meth:`Machine.load_binary` (``process.binary``,
    a restore's ``ctx.binary``) is the node's one parse of that file,
    shared by every process running it: treat it as read-only. To change
    a program, build a new binary and write it over the path.
    """

    def __init__(self, *, arch: str, entry: int, source_name: str,
                 text: bytes, data: bytes, symtab: SymbolTable,
                 stackmaps: StackMapSection, frames: FrameSection,
                 tls_template: bytes = b"",
                 segments: Optional[List[Segment]] = None,
                 extra_sections: Optional[Dict[str, bytes]] = None):
        self.arch = arch
        self.entry = entry
        self.source_name = source_name
        self.text = text
        self.data = data
        self.symtab = symtab
        self.stackmaps = stackmaps
        self.frames = frames
        self.tls_template = tls_template
        self.segments = segments or self._default_segments()
        self.extra_sections = dict(extra_sections or {})

    def _default_segments(self) -> List[Segment]:
        return [
            Segment(TEXT_BASE, len(self.text), Prot.RX, ".text"),
            Segment(DATA_BASE, len(self.data), Prot.RW, ".data"),
        ]

    @property
    def tls_size(self) -> int:
        return len(self.tls_template)

    def section_data(self, name: str) -> bytes:
        if name == ".text":
            return self.text
        if name == ".data":
            return self.data
        if name in self.extra_sections:
            return self.extra_sections[name]
        raise LoaderError(f"no section {name!r}")

    def code_at(self, addr: int, length: int) -> bytes:
        """Slice of ``.text`` by virtual address."""
        offset = addr - TEXT_BASE
        if offset < 0 or offset + length > len(self.text):
            raise LoaderError(f"code range {addr:#x}+{length} outside .text")
        return self.text[offset:offset + length]

    # -- serialization ---------------------------------------------------

    def to_bytes(self) -> bytes:
        extra = _EXTRA_SCHEMA.encode({
            "name": list(self.extra_sections.keys()),
            "data": list(self.extra_sections.values()),
        })
        payload = _BINARY_SCHEMA.encode({
            "version": DELF_VERSION,
            "arch": self.arch,
            "entry": self.entry,
            "source_name": self.source_name,
            "text": self.text,
            "data": self.data,
            "symtab": self.symtab.to_bytes(),
            "stackmaps": self.stackmaps.to_bytes(),
            "frames": self.frames.to_bytes(),
            "tls_template": self.tls_template,
            "segments": [s.to_dict() for s in self.segments],
            "extra_sections": extra,
        })
        return DELF_MAGIC + payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "DelfBinary":
        if blob[:4] != DELF_MAGIC:
            raise LoaderError("bad DELF magic")
        decoded = _BINARY_SCHEMA.decode(blob[4:])
        if decoded.get("version") != DELF_VERSION:
            raise LoaderError(f"unsupported DELF version "
                              f"{decoded.get('version')}")
        extra_raw = _EXTRA_SCHEMA.decode(decoded.get("extra_sections", b""))
        extra = dict(zip(extra_raw["name"], extra_raw["data"]))
        try:
            return cls(
                arch=decoded["arch"],
                entry=decoded["entry"],
                source_name=decoded.get("source_name", ""),
                text=decoded["text"],
                data=decoded["data"],
                symtab=SymbolTable.from_bytes(decoded["symtab"]),
                stackmaps=StackMapSection.from_bytes(decoded["stackmaps"]),
                frames=FrameSection.from_bytes(decoded["frames"]),
                tls_template=decoded.get("tls_template", b""),
                segments=[Segment.from_dict(s) for s in decoded["segments"]],
                extra_sections=extra,
            )
        except KeyError as exc:
            # The sections raise their own typed errors; what is left
            # is a required field missing from the container itself.
            raise LoaderError(f"DELF without field {exc}") from None

    def __repr__(self) -> str:
        return (f"<DelfBinary {self.source_name} [{self.arch}] "
                f"text={len(self.text)}B data={len(self.data)}B "
                f"eqpoints={len(self.stackmaps)}>")
