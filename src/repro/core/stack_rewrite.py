"""Stack unwinding and cross-ISA re-layout (paper §III-C, §III-D2b).

Frame convention (both ISAs, established by our backends):

* ``[fp + 8]`` — return address,
* ``[fp + 0]`` — saved caller frame pointer (0 terminates the chain),
* slots at negative fp offsets per the binary's ``.frames`` records,
* on entry to a callee, ``callee.fp == caller.fp - caller.frame_size - 16``
  and ``callee.saved_fp == caller.fp`` (the *link* rule).

One walker, :func:`unwind`, follows the chain outward over any reader
with ``read``/``read_u64`` (a dump's :class:`ImageMemory`, a live
address space); :func:`read_live` / :func:`write_live` are the one
place a live value's location (register, slot or both) is decoded.
The *strict* walk (:func:`unwind_thread`) raises :class:`RewriteError`
unless the innermost pc is a park point (``StackMapSection.park_point``),
every return address is a call-site eqpoint, every link obeys the link
rule (so fp rises and the walk ends), and the chain ends (saved fp 0) only
at ``_start`` returning to 0 or at a thread entry returning to
``__thread_exit``, whose entry-sp (``fp + _ENTRY_SP_TO_FP[arch]``) is
the thread's first sp, ``thread_stack_top(tid) - 16``. These read no
more than the two link words. The *tolerant* walk (the debugger) names
frames by the ``.frames`` record containing the pc, gives each the
eqpoint of any kind there (None off one), decodes no values, and stops
quietly at an unknown pc, a zero fp, an unreadable link or 64 frames
(DAP frame ids are ``thread * 100 + index``).

Re-layout computes destination frame pointers top-of-stack down using the
destination ISA's frame sizes and prologue displacement, then copies
every live value from its source location (register or slot) to its
destination location, remapping pointers that point into any thread's
stack (paper: "map each live stack pointer to its respective stack
allocation").
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..binfmt.delf import DelfBinary
from ..binfmt.frames import RET_ADDR_OFFSET, SAVED_FP_OFFSET
from ..binfmt.stackmaps import EqPoint, KIND_CALLSITE, LOC_REG, LiveValue
from ..criu.images import CoreImage
from ..errors import ReproError, RewriteError
from ..isa import get_isa
from ..sysabi import RT_START, RT_THREAD_EXIT
from ..vm.kernel import thread_stack_top
from .rewriter import ImageMemory

#: distance from a function's entry-sp to its fp, per ISA convention
#: (x86: one push; arm: the stp-equivalent 16-byte pair area)
_ENTRY_SP_TO_FP = {"x86_64": 8, "aarch64": 16}

#: callee.fp = caller.fp - caller.frame_size - _FRAME_LINK
_FRAME_LINK = 16


class UnwoundFrame:
    """One frame of a walk. ``eqpoint`` is None off an eqpoint (tolerant
    walk); ``values`` are read by the strict walk only."""

    __slots__ = ("func", "eqpoint", "pc", "fp", "frame_size", "isa",
                 "values", "ret_addr", "saved_fp")

    def __init__(self, func: Optional[str], eqpoint: Optional[EqPoint],
                 pc: int, fp: int, frame_size: int, isa: str):
        self.func = func
        self.eqpoint = eqpoint
        self.pc = pc
        self.fp = fp
        self.frame_size = frame_size
        self.isa = isa
        #: value_id -> bytes (slot-sized)
        self.values: Dict[int, bytes] = {}
        self.ret_addr = 0
        self.saved_fp = 0

    def __repr__(self) -> str:
        return (f"<UnwoundFrame {self.func} fp={self.fp:#x} "
                f"pc={self.pc:#x} values={len(self.values)}>")


class UnwoundThread:
    __slots__ = ("core", "frames")

    def __init__(self, core: CoreImage, frames: List[UnwoundFrame]):
        self.core = core
        #: innermost first
        self.frames = frames


def read_live(memory, regs: Dict[int, int], fp: int,
              live: LiveValue) -> bytes:
    """One live value's bytes. ``LOC_BOTH`` (a parameter at entry)
    reads the spill slot, which equals the register at a park point."""
    if live.loc_type != LOC_REG:
        return memory.read(fp + live.stack_offset, live.size)
    value = regs.get(live.dwarf_reg)
    if value is None:
        raise RewriteError(f"live value {live.name!r} in unknown "
                           f"register {live.dwarf_reg}")
    return (value & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")


def write_live(memory, regs: Dict[int, int], fp: int, live: LiveValue,
               raw: bytes) -> None:
    """Place one live value at every location ``live`` names."""
    if live.on_stack():
        memory.write(fp + live.stack_offset, raw)
    if live.in_register():
        regs[live.dwarf_reg] = int.from_bytes(raw[:8], "little",
                                              signed=True)


def unwind(memory, binary: DelfBinary, pc: int, fp: int, strict: bool,
           regs: Optional[Dict[int, int]] = None,
           tid: int = 0) -> List[UnwoundFrame]:
    """Walk a stack innermost → outermost. ``regs`` (DWARF number →
    value) and ``tid`` are the parked thread's, for the strict walk."""
    stackmaps, records = binary.stackmaps, binary.frames
    point = stackmaps.park_point(pc) if strict else stackmaps.by_addr.get(pc)
    if strict and point is None:
        raise RewriteError(f"thread {tid}: pc {pc:#x} is not an entry "
                           f"equivalence point")
    record = records.get(point.func) if strict else records.containing(pc)
    frames: List[UnwoundFrame] = []
    while True:
        frame = UnwoundFrame(record.func if record else None, point, pc, fp,
                             record.frame_size if record else 0, binary.arch)
        frames.append(frame)
        if strict:
            for live in point.live:
                frame.values[live.value_id] = read_live(memory, regs, fp, live)
        elif record is None or fp == 0 or len(frames) == 64:
            return frames
        try:
            frame.saved_fp = memory.read_u64(fp + SAVED_FP_OFFSET)
            frame.ret_addr = pc = memory.read_u64(fp + RET_ADDR_OFFSET)
        except ReproError:
            if strict:
                raise
            return frames
        point = stackmaps.by_addr.get(pc)
        if not strict:
            record = records.containing(pc)
            if pc == 0 or record is None:
                return frames
        elif frame.saved_fp == 0:
            returns_to = (0 if frame.func == RT_START else
                          binary.symtab.address_of(RT_THREAD_EXIT))
            if (pc != returns_to or fp + _ENTRY_SP_TO_FP[binary.arch]
                    != thread_stack_top(tid) - 16):   # its first sp
                raise RewriteError(
                    f"thread {tid}: stack ends in {frame.func} at fp "
                    f"{fp:#x} returning to {pc:#x}, not at _start or a "
                    f"thread entry on the thread's first sp")
            return frames
        elif point is None or point.kind != KIND_CALLSITE:
            raise RewriteError(f"thread {tid}: return address {pc:#x} "
                               f"has no call-site stackmap")
        else:
            record = records.get(point.func)
            if frame.saved_fp != fp + record.frame_size + _FRAME_LINK:
                raise RewriteError(
                    f"thread {tid}: {frame.func} at fp {fp:#x} links to "
                    f"{frame.saved_fp:#x}, not to its caller's fp")
        fp = frame.saved_fp


def unwind_thread(memory: ImageMemory, core: CoreImage,
                  binary: DelfBinary) -> UnwoundThread:
    """The strict walk of one parked thread's dumped stack."""
    isa = get_isa(core.arch)
    fp = core.regs[isa.dwarf_of(isa.abi.frame_pointer)] & 0xFFFFFFFFFFFFFFFF
    return UnwoundThread(core, unwind(memory, binary, core.pc, fp, True,
                                      core.regs, core.tid))


class FrameMap:
    """Destination frame pointers for every source frame of every thread,
    plus the pointer-remapping function built from them."""

    def __init__(self):
        #: (tid, frame index) -> dst fp
        self.dst_fp: Dict[Tuple[int, int], int] = {}
        #: flat list of (thread, index, frame) for pointer search
        self._all: List[Tuple[UnwoundThread, int, UnwoundFrame]] = []
        self.pointers_remapped = 0
        self.pointers_kept = 0

    def add_thread(self, thread: UnwoundThread, dst_binary: DelfBinary,
                   dst_arch: str) -> None:
        """Lay the thread's destination frames out, outermost first."""
        dst_frames = dst_binary.frames
        outer = thread.frames[-1]
        # Reconstruct the outermost frame's entry-sp from the *source*
        # geometry, then place the destination fp per the destination
        # ISA's prologue displacement. entry_sp = fp + displacement.
        src_entry_sp = outer.fp + _ENTRY_SP_TO_FP[thread.core.arch]
        fp = src_entry_sp - _ENTRY_SP_TO_FP[dst_arch]
        for index in range(len(thread.frames) - 1, -1, -1):
            frame = thread.frames[index]
            self.dst_fp[(thread.core.tid, index)] = fp
            self._all.append((thread, index, frame))
            if index > 0:
                dst_size = dst_frames.get(frame.func).frame_size
                fp = fp - dst_size - _FRAME_LINK

    def lookup_dst_fp(self, tid: int, index: int) -> int:
        return self.dst_fp[(tid, index)]

    def remap_pointer(self, value: int, src_binary: DelfBinary,
                      dst_binary: DelfBinary) -> int:
        """Translate a pointer into some thread's source stack into the
        matching destination address; non-stack pointers pass through
        (code/data/heap addresses are aligned across ISAs)."""
        for thread, index, frame in self._all:
            delta = value - frame.fp
            # A slot address lies in [-frame_size, 0); the saved-fp /
            # return-address words are at [0, 16) and are rebuilt anyway.
            if not (-frame.frame_size <= delta < 0):
                continue
            src_record = src_binary.frames.get(frame.func)
            slot = src_record.slot_containing(delta)
            if slot is None:
                continue
            dst_slot = dst_binary.frames.get(frame.func).slot_by_id(
                slot.slot_id)
            if dst_slot is None:
                raise RewriteError(
                    f"{frame.func}: slot #{slot.slot_id} missing in "
                    f"destination frame record")
            dst_fp = self.lookup_dst_fp(thread.core.tid, index)
            self.pointers_remapped += 1
            return dst_fp + dst_slot.offset + (delta - slot.offset)
        self.pointers_kept += 1
        return value


def in_stack_region(value: int, mm_vmas) -> bool:
    """Is ``value`` inside any thread-stack VMA?"""
    for vma in mm_vmas:
        if vma.name.startswith("stack:") and vma.start <= value < vma.end:
            return True
    return False


def write_thread(memory: ImageMemory, thread: UnwoundThread,
                 frame_map: FrameMap, src_binary: DelfBinary,
                 dst_binary: DelfBinary, dst_arch: str,
                 mm_vmas, missing_live_ok: bool = False) -> CoreImage:
    """Write one thread's destination stack and build its new core image.

    ``missing_live_ok`` lets a destination live value with no source
    counterpart initialize to zero — used by the live-update policy when
    the updated function introduces new locals.
    """
    dst_isa = get_isa(dst_arch)
    dst_maps = dst_binary.stackmaps
    tid = thread.core.tid

    new_regs: Dict[int, int] = {r.dwarf: 0 for r in dst_isa.registers}

    for index, frame in enumerate(thread.frames):
        dst_fp = frame_map.lookup_dst_fp(tid, index)
        dst_point = dst_maps.by_id.get(frame.eqpoint.eqpoint_id)
        if dst_point is None:
            raise RewriteError(
                f"eqpoint #{frame.eqpoint.eqpoint_id} missing in "
                f"destination stackmaps")
        # Frame linkage: saved caller fp and return address follow the
        # destination ABI (paper: "DAPPER follows the destination
        # architecture's ABI and retains the register-save procedure").
        if index + 1 < len(thread.frames):
            saved_fp = frame_map.lookup_dst_fp(tid, index + 1)
            caller_point = thread.frames[index + 1].eqpoint
            ret_addr = dst_maps.by_id[caller_point.eqpoint_id].addr
        else:
            # Outermost frame: chain terminator + raw return target
            # (symbol addresses are aligned across ISAs, so e.g. the
            # __thread_exit stub address stays valid).
            saved_fp, ret_addr = 0, frame.ret_addr
        memory.write_u64(dst_fp + SAVED_FP_OFFSET, saved_fp)
        memory.write_u64(dst_fp + RET_ADDR_OFFSET, ret_addr)
        # Live values.
        src_live_by_id = {lv.value_id: lv for lv in frame.eqpoint.live}
        for live in dst_point.live:
            raw = frame.values.get(live.value_id)
            if raw is None:
                if not missing_live_ok:
                    raise RewriteError(
                        f"{frame.func}: live value #{live.value_id} "
                        f"({live.name}) absent from source frame")
                raw = bytes(live.size)
            src_live = src_live_by_id.get(live.value_id)
            if (live.is_pointer and live.size == 8
                    and src_live is not None and src_live.is_pointer):
                value = int.from_bytes(raw, "little")
                if in_stack_region(value, mm_vmas):
                    value = frame_map.remap_pointer(value, src_binary,
                                                    dst_binary)
                raw = value.to_bytes(8, "little")
            if index != 0 and live.in_register():
                raise RewriteError(
                    f"{frame.func}: register-resident live value in a "
                    f"suspended (non-innermost) frame")
            write_live(memory, new_regs, dst_fp, live, raw)
        if index == 0:
            new_regs[dst_isa.dwarf_of(dst_isa.abi.frame_pointer)] = dst_fp
            dst_record = dst_binary.frames.get(frame.func)
            new_regs[dst_isa.dwarf_of(dst_isa.abi.stack_pointer)] = \
                dst_fp - dst_record.frame_size
            new_pc = dst_point.addr

    return CoreImage(tid=tid, arch=dst_arch, pc=new_pc,
                     flags=thread.core.flags, tls_base=0,   # set by tlsmod
                     status=thread.core.status, regs=new_regs)
