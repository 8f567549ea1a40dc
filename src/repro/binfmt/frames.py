"""The ``.frames`` section — per-function frame layout metadata.

This is the reproduction's analogue of DWARF call-frame information
(paper §III-A uses DWARF + stackmaps). Both ISAs use the same frame
*convention* — ``[fp+8]`` return address, ``[fp+0]`` saved caller frame
pointer, slots at negative fp offsets, ``sp = fp - frame_size`` — but the
slot *assignment* (offsets, ordering, padding, frame size) is decided
independently by each backend, so the cross-ISA stack rewriter has real
re-layout work to do.

``pair_member`` marks slots the aarch64 backend accesses with ``ldp``/
``stp`` pair instructions; the stack shuffler excludes them (the paper
scopes out re-encoding pair instructions, which is why aarch64 shows
lower entropy in Fig. 10).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .. import wire
from ..errors import ImageFormatError

SLOT_PARAM = "param"
SLOT_LOCAL = "local"
SLOT_ARRAY = "array"
SLOT_SPILL = "spill"

#: fp-relative offset of the return address (both ISAs, by convention).
RET_ADDR_OFFSET = 8
#: fp-relative offset of the saved caller frame pointer.
SAVED_FP_OFFSET = 0

_SLOT_SCHEMA = wire.Schema("slot", [
    wire.field(1, "slot_id", "int"),
    wire.field(2, "name", "str"),
    wire.field(3, "offset", "int"),
    wire.field(4, "size", "int"),
    wire.field(5, "kind", "str"),
    wire.field(6, "is_pointer", "int"),
    wire.field(7, "pair_member", "int"),
])

_FRAME_SCHEMA = wire.Schema("frame", [
    wire.field(1, "func", "str"),
    wire.field(2, "addr", "int"),
    wire.field(3, "end_addr", "int"),
    wire.field(4, "frame_size", "int"),
    wire.field(5, "entry_eqpoint", "int"),
    wire.field(6, "slots", "message", repeated=True, message=_SLOT_SCHEMA),
])

_SECTION_SCHEMA = wire.Schema("frames", [
    wire.field(1, "frames", "message", repeated=True, message=_FRAME_SCHEMA),
])


class Slot:
    """One stack slot in a function's frame.

    ``offset`` is fp-relative (negative, pointing at the slot's *low*
    address). ``slot_id`` is assigned in the IR, so the same program
    variable has the same slot_id in both ISAs' frame records.
    """

    __slots__ = ("slot_id", "name", "offset", "size", "kind", "is_pointer",
                 "pair_member")

    def __init__(self, slot_id: int, name: str, offset: int, size: int,
                 kind: str = SLOT_LOCAL, is_pointer: bool = False,
                 pair_member: bool = False):
        if offset >= 0:
            raise ImageFormatError(
                f"slot {name!r}: offset must be negative (fp-relative), "
                f"got {offset}")
        self.slot_id = slot_id
        self.name = name
        self.offset = offset
        self.size = size
        self.kind = kind
        self.is_pointer = is_pointer
        self.pair_member = pair_member

    def contains(self, fp_offset: int) -> bool:
        """Does ``fp + fp_offset`` fall inside this slot?"""
        return self.offset <= fp_offset < self.offset + self.size

    def to_dict(self) -> dict:
        return {"slot_id": self.slot_id, "name": self.name,
                "offset": self.offset, "size": self.size, "kind": self.kind,
                "is_pointer": int(self.is_pointer),
                "pair_member": int(self.pair_member)}

    @classmethod
    def from_dict(cls, data: dict) -> "Slot":
        return cls(data["slot_id"], data["name"], data["offset"],
                   data["size"], data.get("kind", SLOT_LOCAL),
                   bool(data.get("is_pointer", 0)),
                   bool(data.get("pair_member", 0)))

    def __repr__(self) -> str:
        flags = ("P" if self.is_pointer else "") + \
                ("2" if self.pair_member else "")
        return (f"<Slot #{self.slot_id} {self.name} fp{self.offset:+d} "
                f"+{self.size} {self.kind}{' ' + flags if flags else ''}>")


class FrameRecord:
    """Frame layout of one function on one ISA."""

    __slots__ = ("func", "addr", "end_addr", "frame_size", "entry_eqpoint",
                 "slots")

    def __init__(self, func: str, addr: int, end_addr: int, frame_size: int,
                 entry_eqpoint: int, slots: Optional[List[Slot]] = None):
        self.func = func
        self.addr = addr
        self.end_addr = end_addr
        self.frame_size = frame_size
        self.entry_eqpoint = entry_eqpoint
        self.slots = list(slots or [])

    def slot_by_id(self, slot_id: int) -> Optional[Slot]:
        for slot in self.slots:
            if slot.slot_id == slot_id:
                return slot
        return None

    def slot_by_name(self, name: str) -> Optional[Slot]:
        for slot in self.slots:
            if slot.name == name:
                return slot
        return None

    def slot_containing(self, fp_offset: int) -> Optional[Slot]:
        for slot in self.slots:
            if slot.contains(fp_offset):
                return slot
        return None

    def to_dict(self) -> dict:
        return {"func": self.func, "addr": self.addr,
                "end_addr": self.end_addr, "frame_size": self.frame_size,
                "entry_eqpoint": self.entry_eqpoint,
                "slots": [s.to_dict() for s in self.slots]}

    @classmethod
    def from_dict(cls, data: dict) -> "FrameRecord":
        return cls(data["func"], data["addr"], data["end_addr"],
                   data["frame_size"], data.get("entry_eqpoint", -1),
                   [Slot.from_dict(s) for s in data.get("slots", [])])

    def __repr__(self) -> str:
        return (f"<Frame {self.func} @{self.addr:#x} size={self.frame_size} "
                f"slots={len(self.slots)}>")


class FrameSection:
    """All frame records of one binary."""

    def __init__(self, frames: Optional[List[FrameRecord]] = None):
        self.frames: List[FrameRecord] = list(frames or [])
        self.by_func: Dict[str, FrameRecord] = {f.func: f for f in self.frames}

    def add(self, frame: FrameRecord) -> FrameRecord:
        if frame.func in self.by_func:
            raise ImageFormatError(f"duplicate frame record for {frame.func!r}")
        self.frames.append(frame)
        self.by_func[frame.func] = frame
        return frame

    def get(self, func: str) -> FrameRecord:
        try:
            return self.by_func[func]
        except KeyError:
            raise ImageFormatError(f"no frame record for {func!r}") from None

    def containing(self, addr: int) -> Optional[FrameRecord]:
        for frame in self.frames:
            if frame.addr <= addr < frame.end_addr:
                return frame
        return None

    def __len__(self) -> int:
        return len(self.frames)

    def to_bytes(self) -> bytes:
        return _SECTION_SCHEMA.encode(
            {"frames": [f.to_dict() for f in self.frames]})

    @classmethod
    def from_bytes(cls, data: bytes) -> "FrameSection":
        decoded = _SECTION_SCHEMA.decode(data)
        try:
            return cls([FrameRecord.from_dict(d) for d in decoded["frames"]])
        except KeyError as exc:
            raise ImageFormatError(
                f"frame record without field {exc}") from None
