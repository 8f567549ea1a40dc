"""The instruction interpreter, shared by both ISAs.

Semantics are defined over the architecture-neutral mnemonics (see
``repro.isa.isa``); the per-ISA differences (encodings, call/return
convention, push/pop vs ldp/stp availability) were resolved either at
decode time or via the ABI descriptor.

Decoded instructions are cached per process keyed by pc; the cache is
versioned so privileged code writes (``write_code``) invalidate it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..errors import DecodingError, KernelError, SegmentationFault
from ..isa.isa import Instruction
from .cpu import ThreadContext, ThreadStatus, to_i64, to_u64

if TYPE_CHECKING:
    from .kernel import Machine, Process

_MAX_INSTR_LEN = 10

#: (isa name, pc, raw bytes) -> decoded Instruction, shared by every
#: process. Content-addressed, so live-update rewrites are naturally
#: correct (changed bytes are a different key), and each binary's
#: instructions decode once per interpreter lifetime rather than once
#: per process — re-spawns and CRIU restores skip the decoder entirely.
#: Decoded Instructions are immutable after decode, which is what makes
#: sharing them across processes (and baking them into superblocks,
#: see ``repro.vm.blocks``) safe.
_GLOBAL_DECODE: dict = {}


class CpuFault(KernelError):
    """Raised when a thread performs an illegal operation; kills the process."""

    def __init__(self, thread: ThreadContext, message: str):
        super().__init__(f"thread {thread.tid} @pc={thread.pc:#x}: {message}")
        self.thread = thread


def fetch_decode(process: "Process", pc: int) -> Instruction:
    cached = process.decode_cache.get(pc)
    if cached is not None and cached[0] == process.code_version:
        return cached[1]
    window = process.aspace.fetch(pc, _MAX_INSTR_LEN)
    key = (process.isa.name, pc, window)
    instr = _GLOBAL_DECODE.get(key)
    if instr is None:
        instr = process.isa.decode(window, 0, pc)
        _GLOBAL_DECODE[key] = instr
    process.decode_cache[pc] = (process.code_version, instr)
    return instr


def step(machine: "Machine", process: "Process",
         thread: ThreadContext) -> None:
    """Execute exactly one instruction on ``thread``."""
    try:
        instr = fetch_decode(process, thread.pc)
    except SegmentationFault as exc:
        raise CpuFault(thread, str(exc)) from exc
    except DecodingError as exc:
        # SIGILL: undecodable bytes at the program counter.
        raise CpuFault(thread, f"illegal instruction: {exc}") from exc
    execute(machine, process, thread, instr, process.isa.cost(instr))


def execute(machine: "Machine", process: "Process", thread: ThreadContext,
            instr: Instruction, cost: int) -> None:
    """Execute ``instr``, already decoded from ``thread.pc``, and account
    it at ``cost`` cycles; a faulting instruction is not counted. The
    superblock engine's tier 0 calls this with the ops its trace
    decoded (``repro.vm.blocks.run_thread``)."""
    try:
        _execute(machine, process, thread, instr)
    except SegmentationFault as exc:
        raise CpuFault(thread, str(exc)) from exc
    thread.instr_count += 1
    process.instr_total += 1
    process.cycle_total += cost


def _execute(machine: "Machine", process: "Process", thread: ThreadContext,
             instr: Instruction) -> None:
    op = instr.op
    regs = thread.regs
    aspace = process.aspace
    next_pc = thread.pc + instr.size

    if op == "nop":
        pass
    elif op == "mov":
        regs[instr.rd] = regs[instr.rn]
    elif op in ("movi", "movi_full"):
        regs[instr.rd] = to_i64(instr.imm)
    elif op == "movz":
        regs[instr.rd] = to_i64(instr.imm & 0xFFFF)
    elif op == "movk1":
        regs[instr.rd] = to_i64((to_u64(regs[instr.rd]) & ~(0xFFFF << 16))
                                | ((instr.imm & 0xFFFF) << 16))
    elif op == "movk2":
        regs[instr.rd] = to_i64((to_u64(regs[instr.rd]) & ~(0xFFFF << 32))
                                | ((instr.imm & 0xFFFF) << 32))
    elif op == "movk3":
        regs[instr.rd] = to_i64((to_u64(regs[instr.rd]) & ~(0xFFFF << 48))
                                | ((instr.imm & 0xFFFF) << 48))
    elif op == "load":
        addr = to_u64(regs[instr.rn] + (instr.imm or 0))
        regs[instr.rd] = to_i64(aspace.read_u64(addr))
    elif op == "store":
        addr = to_u64(regs[instr.rn] + (instr.imm or 0))
        aspace.write_u64(addr, to_u64(regs[instr.rd]))
    elif op == "ldp":
        base = thread.fp
        regs[instr.rd] = to_i64(aspace.read_u64(to_u64(base + instr.imm)))
        regs[instr.rm] = to_i64(aspace.read_u64(to_u64(base + instr.imm + 8)))
    elif op == "stp":
        base = thread.fp
        aspace.write_u64(to_u64(base + instr.imm), to_u64(regs[instr.rd]))
        aspace.write_u64(to_u64(base + instr.imm + 8), to_u64(regs[instr.rm]))
    elif op == "lea":
        regs[instr.rd] = to_i64(regs[instr.rn] + (instr.imm or 0))
    elif op == "push":
        thread.sp = thread.sp - 8
        aspace.write_u64(to_u64(thread.sp), to_u64(regs[instr.rd]))
    elif op == "pop":
        value = aspace.read_u64(to_u64(thread.sp))
        sp_index = process.isa.reg(process.isa.abi.stack_pointer)
        regs[instr.rd] = to_i64(value)
        # pop sp itself would be odd; ordinary pops must bump sp after.
        if instr.rd != sp_index:
            thread.sp = thread.sp + 8
    elif op in _BINOPS:
        regs[instr.rd] = _BINOPS[op](thread, regs[instr.rn], regs[instr.rm])
    elif op == "addi":
        regs[instr.rd] = to_i64(regs[instr.rn] + (instr.imm or 0))
    elif op == "cmp":
        thread.flags = _sign(regs[instr.rn] - regs[instr.rm])
    elif op == "cmpi":
        thread.flags = _sign(regs[instr.rn] - (instr.imm or 0))
    elif op == "b":
        next_pc = instr.target
    elif op == "bcc":
        if _cond_holds(instr.cond, thread.flags):
            next_pc = instr.target
    elif op == "call":
        if process.isa.abi.link_register is None:
            thread.sp = thread.sp - 8
            aspace.write_u64(to_u64(thread.sp), next_pc)
        else:
            thread.set(process.isa.abi.link_register, next_pc)
        next_pc = instr.target
    elif op == "ret":
        if process.isa.abi.link_register is None:
            next_pc = aspace.read_u64(to_u64(thread.sp))
            thread.sp = thread.sp + 8
        else:
            next_pc = to_u64(thread.get(process.isa.abi.link_register))
    elif op == "syscall":
        number = thread.get(process.isa.abi.syscall_number_reg)
        args = [thread.get(r) for r in process.isa.abi.syscall_arg_regs]
        result = machine.dispatch_syscall(process, thread, number, args)
        if result is not None:
            thread.set(process.isa.abi.return_reg, result)
    elif op == "trap":
        # int3 / brk: the thread stops with SIGTRAP. Like x86 int3, the
        # saved pc points *after* the trap instruction, so a subsequent
        # resume (or a CRIU restore of the unmodified image) continues at
        # the equivalence point.
        thread.status = ThreadStatus.TRAPPED
        thread.trap_pc = next_pc
        machine.on_trap(process, thread)
    elif op == "tlsload":
        addr = to_u64(thread.tp + (instr.imm or 0))
        regs[instr.rd] = to_i64(aspace.read_u64(addr))
    elif op == "tlsstore":
        addr = to_u64(thread.tp + (instr.imm or 0))
        aspace.write_u64(addr, to_u64(regs[instr.rd]))
    elif op == ".byte":
        raise CpuFault(thread, f"illegal instruction byte {instr.imm:#x}")
    else:
        raise CpuFault(thread, f"unimplemented op {op!r}")

    thread.pc = next_pc


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _cond_holds(cond: str, flags: int) -> bool:
    if cond == "eq":
        return flags == 0
    if cond == "ne":
        return flags != 0
    if cond == "lt":
        return flags < 0
    if cond == "le":
        return flags <= 0
    if cond == "gt":
        return flags > 0
    if cond == "ge":
        return flags >= 0
    raise KernelError(f"bad condition {cond!r}")


def _div(thread: ThreadContext, a: int, b: int) -> int:
    if b == 0:
        raise CpuFault(thread, "integer division by zero")
    # C-style truncation toward zero.
    q = abs(a) // abs(b)
    return to_i64(-q if (a < 0) != (b < 0) else q)


def _rem(thread: ThreadContext, a: int, b: int) -> int:
    if b == 0:
        raise CpuFault(thread, "integer remainder by zero")
    r = abs(a) % abs(b)
    return to_i64(-r if a < 0 else r)


_BINOPS = {
    "add": lambda t, a, b: to_i64(a + b),
    "sub": lambda t, a, b: to_i64(a - b),
    "mul": lambda t, a, b: to_i64(a * b),
    "sdiv": _div,
    "srem": _rem,
    "and": lambda t, a, b: to_i64(to_u64(a) & to_u64(b)),
    "orr": lambda t, a, b: to_i64(to_u64(a) | to_u64(b)),
    "eor": lambda t, a, b: to_i64(to_u64(a) ^ to_u64(b)),
    "lsl": lambda t, a, b: to_i64(to_u64(a) << (b & 63)),
    "lsr": lambda t, a, b: to_i64(to_u64(a) >> (b & 63)),
}
