"""Per-thread architectural state."""

from __future__ import annotations

from typing import List, Optional

from ..isa.isa import Isa

U64 = 0xFFFFFFFFFFFFFFFF
I64_MIN = -(1 << 63)


def to_i64(value: int) -> int:
    """Wrap an arbitrary Python int to signed 64-bit."""
    value &= U64
    if value >> 63:
        value -= 1 << 64
    return value


def to_u64(value: int) -> int:
    return value & U64


class ThreadStatus:
    RUNNING = "running"
    TRAPPED = "trapped"     # executed the trap instruction (SIGTRAP)
    STOPPED = "stopped"     # SIGSTOP (whole-process stop)
    DEAD = "dead"


class ThreadContext:
    """Registers + pc + flags + TLS pointer of one simulated thread.

    ``__slots__`` matters here: the superblock engine's generated code
    reads and writes ``pc``/``flags``/``instr_count`` on every trace,
    so attribute access on threads is one of the hottest operations in
    the interpreter.
    """

    __slots__ = ("tid", "isa", "regs", "pc", "flags", "tp", "status",
                 "instr_count", "trap_pc")

    def __init__(self, tid: int, isa: Isa):
        self.tid = tid
        self.isa = isa
        self.regs: List[int] = [0] * len(isa.registers)
        self.pc = 0
        #: sign of the last cmp/cmpi: -1, 0, or 1
        self.flags = 0
        #: TLS base pointer (fs_base on x86-64, TPIDR on aarch64)
        self.tp = 0
        self.status = ThreadStatus.RUNNING
        self.instr_count = 0
        #: set when the thread traps: the eqpoint address (== pc)
        self.trap_pc: Optional[int] = None

    # -- named register access ------------------------------------------------

    def get(self, name: str) -> int:
        return self.regs[self.isa.reg(name)]

    def set(self, name: str, value: int) -> None:
        self.regs[self.isa.reg(name)] = to_i64(value)

    @property
    def sp(self) -> int:
        return self.get(self.isa.abi.stack_pointer)

    @sp.setter
    def sp(self, value: int) -> None:
        self.set(self.isa.abi.stack_pointer, value)

    @property
    def fp(self) -> int:
        return self.get(self.isa.abi.frame_pointer)

    @fp.setter
    def fp(self, value: int) -> None:
        self.set(self.isa.abi.frame_pointer, value)

    def runnable(self) -> bool:
        return self.status == ThreadStatus.RUNNING

    def __repr__(self) -> str:
        return (f"<Thread {self.tid} [{self.isa.name}] pc={self.pc:#x} "
                f"{self.status}>")
