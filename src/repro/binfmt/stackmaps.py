"""The ``.stackmaps`` section — live-value records at equivalence points.

This is the reproduction's analogue of LLVM's
``llvm.experimental.stackmap`` records (paper §III-A): for every
equivalence point the compiler's middle-end emits one :class:`EqPoint`
with the *architecture-independent* live values and, after code
generation, their *architecture-specific* locations (DWARF register
number and/or frame-pointer-relative stack offset — Fig. 4).

Equivalence-point and value identifiers are assigned in the IR, before
the backends split, so records from the x86_64 and aarch64 binaries of
one program pair up one-to-one — that pairing is the register/stack
translation table the Dapper rewriter uses.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import wire
from ..errors import ImageFormatError

#: Entry eqpoints sit right after the function prologue + inline checker;
#: a thread parked by the checker trap resumes at ``addr``.
KIND_ENTRY = "entry"
#: Call-site eqpoints describe a *suspended caller frame*: ``addr`` is the
#: return address of the call instruction.
KIND_CALLSITE = "callsite"

LOC_REG = "reg"
LOC_STACK = "stack"
LOC_BOTH = "both"   # parameter at entry: live in arg register AND spill slot

_LIVE_SCHEMA = wire.Schema("live_value", [
    wire.field(1, "value_id", "int"),
    wire.field(2, "name", "str"),
    wire.field(3, "loc_type", "str"),
    wire.field(4, "dwarf_reg", "int"),
    wire.field(5, "stack_offset", "int"),
    wire.field(6, "is_pointer", "int"),
    wire.field(7, "size", "int"),
])

_EQPOINT_SCHEMA = wire.Schema("eqpoint", [
    wire.field(1, "eqpoint_id", "int"),
    wire.field(2, "func", "str"),
    wire.field(3, "kind", "str"),
    wire.field(4, "addr", "int"),
    wire.field(5, "trap_addr", "int"),
    wire.field(6, "live", "message", repeated=True, message=_LIVE_SCHEMA),
])

_SECTION_SCHEMA = wire.Schema("stackmaps", [
    wire.field(1, "eqpoints", "message", repeated=True,
               message=_EQPOINT_SCHEMA),
])


class LiveValue:
    """One live program value and where this ISA keeps it."""

    __slots__ = ("value_id", "name", "loc_type", "dwarf_reg", "stack_offset",
                 "is_pointer", "size")

    def __init__(self, value_id: int, name: str, loc_type: str,
                 dwarf_reg: Optional[int] = None,
                 stack_offset: Optional[int] = None,
                 is_pointer: bool = False, size: int = 8):
        if loc_type not in (LOC_REG, LOC_STACK, LOC_BOTH):
            raise ImageFormatError(f"bad live-value location {loc_type!r}")
        if loc_type in (LOC_REG, LOC_BOTH) and dwarf_reg is None:
            raise ImageFormatError(f"{name}: register location needs dwarf_reg")
        if loc_type in (LOC_STACK, LOC_BOTH) and stack_offset is None:
            raise ImageFormatError(f"{name}: stack location needs offset")
        self.value_id = value_id
        self.name = name
        self.loc_type = loc_type
        self.dwarf_reg = dwarf_reg
        self.stack_offset = stack_offset
        self.is_pointer = is_pointer
        self.size = size

    def in_register(self) -> bool:
        return self.loc_type in (LOC_REG, LOC_BOTH)

    def on_stack(self) -> bool:
        return self.loc_type in (LOC_STACK, LOC_BOTH)

    def to_dict(self) -> dict:
        return {
            "value_id": self.value_id, "name": self.name,
            "loc_type": self.loc_type,
            "dwarf_reg": -1 if self.dwarf_reg is None else self.dwarf_reg,
            "stack_offset": (0x7FFFFFFF if self.stack_offset is None
                             else self.stack_offset),
            "is_pointer": int(self.is_pointer), "size": self.size,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LiveValue":
        dwarf = data.get("dwarf_reg", -1)
        offset = data.get("stack_offset", 0x7FFFFFFF)
        return cls(
            data["value_id"], data["name"], data["loc_type"],
            None if dwarf == -1 else dwarf,
            None if offset == 0x7FFFFFFF else offset,
            bool(data.get("is_pointer", 0)), data.get("size", 8))

    def __repr__(self) -> str:
        where = []
        if self.in_register():
            where.append(f"reg{self.dwarf_reg}")
        if self.on_stack():
            where.append(f"fp{self.stack_offset:+d}")
        ptr = "*" if self.is_pointer else ""
        return f"<Live {ptr}{self.name}#{self.value_id} {'/'.join(where)}>"


class EqPoint:
    """One equivalence point with its live-value records."""

    __slots__ = ("eqpoint_id", "func", "kind", "addr", "trap_addr", "live")

    def __init__(self, eqpoint_id: int, func: str, kind: str, addr: int,
                 trap_addr: int = 0, live: Optional[List[LiveValue]] = None):
        if kind not in (KIND_ENTRY, KIND_CALLSITE):
            raise ImageFormatError(f"bad eqpoint kind {kind!r}")
        self.eqpoint_id = eqpoint_id
        self.func = func
        self.kind = kind
        self.addr = addr
        self.trap_addr = trap_addr
        self.live = list(live or [])

    def live_by_id(self, value_id: int) -> Optional[LiveValue]:
        for value in self.live:
            if value.value_id == value_id:
                return value
        return None

    def to_dict(self) -> dict:
        return {"eqpoint_id": self.eqpoint_id, "func": self.func,
                "kind": self.kind, "addr": self.addr,
                "trap_addr": self.trap_addr,
                "live": [v.to_dict() for v in self.live]}

    @classmethod
    def from_dict(cls, data: dict) -> "EqPoint":
        return cls(data["eqpoint_id"], data["func"], data["kind"],
                   data["addr"], data.get("trap_addr", 0),
                   [LiveValue.from_dict(v) for v in data.get("live", [])])

    def __repr__(self) -> str:
        return (f"<EqPoint #{self.eqpoint_id} {self.kind} {self.func} "
                f"@{self.addr:#x} live={len(self.live)}>")


class StackMapSection:
    """All equivalence points of one binary, with fast lookups."""

    def __init__(self, eqpoints: Optional[List[EqPoint]] = None):
        self.eqpoints: List[EqPoint] = list(eqpoints or [])
        self._reindex()

    def _reindex(self) -> None:
        self.by_id: Dict[int, EqPoint] = {}
        self.by_addr: Dict[int, EqPoint] = {}
        self.by_trap: Dict[int, EqPoint] = {}
        for point in self.eqpoints:
            if point.eqpoint_id in self.by_id:
                raise ImageFormatError(
                    f"duplicate eqpoint id {point.eqpoint_id}")
            self.by_id[point.eqpoint_id] = point
            self.by_addr[point.addr] = point
            if point.kind == KIND_ENTRY and point.trap_addr:
                self.by_trap[point.trap_addr] = point

    def add(self, point: EqPoint) -> EqPoint:
        self.eqpoints.append(point)
        self._reindex()
        return point

    def park_point(self, pc: int) -> Optional[EqPoint]:
        """The entry eqpoint at ``pc`` — where a trapped thread may be
        parked — or None. The runtime, guard and strict walk ask this."""
        point = self.by_addr.get(pc)
        if point is None or point.kind != KIND_ENTRY:
            return None
        return point

    def entry_for(self, func: str) -> Optional[EqPoint]:
        for point in self.eqpoints:
            if point.kind == KIND_ENTRY and point.func == func:
                return point
        return None

    def for_func(self, func: str) -> List[EqPoint]:
        return [p for p in self.eqpoints if p.func == func]

    def __len__(self) -> int:
        return len(self.eqpoints)

    def to_bytes(self) -> bytes:
        return _SECTION_SCHEMA.encode(
            {"eqpoints": [p.to_dict() for p in self.eqpoints]})

    @classmethod
    def from_bytes(cls, data: bytes) -> "StackMapSection":
        decoded = _SECTION_SCHEMA.decode(data)
        try:
            return cls([EqPoint.from_dict(d) for d in decoded["eqpoints"]])
        except KeyError as exc:
            raise ImageFormatError(
                f"stackmap record without field {exc}") from None
