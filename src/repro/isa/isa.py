"""ISA and ABI descriptors plus the architecture-neutral instruction form.

Both simulated ISAs share one *semantic* instruction vocabulary (the
mnemonics below) so that a single interpreter can execute either, while
each ISA supplies its own byte-level encoder/decoder, register file, and
ABI. This mirrors how Dapper's compiler lowers one LLVM IR to two machine
ISAs: semantics are shared, encodings and conventions are not.

Mnemonics
---------

====== =========================================== =================
op      semantics                                   operands
====== =========================================== =================
nop     no-op                                       —
trap    software breakpoint (int3 / brk #0)         —
mov     rd = rn                                     rd, rn
movi    rd = imm (pseudo on arm: movz+movk*)        rd, imm
load    rd = mem64[rn + imm]                        rd, rn, imm
store   mem64[rn + imm] = rd                        rd, rn, imm
ldp     rd = mem64[fp+imm]; rm = mem64[fp+imm+8]    rd, rm, imm (arm)
stp     mem64[fp+imm] = rd; [fp+imm+8] = rm         rd, rm, imm (arm)
lea     rd = rn + imm                               rd, rn, imm
push    sp -= 8; mem64[sp] = rd                     rd (x86)
pop     rd = mem64[sp]; sp += 8                     rd (x86)
add..   rd = rn OP rm (x86 encoder requires rd==rn) rd, rn, rm
addi    rd = rn + imm (x86 encoder: rd==rn)         rd, rn, imm
cmp     flags = sign(rn - rm)                       rn, rm
cmpi    flags = sign(rn - imm)                      rn, imm
b       pc = target                                 target
bcc     if cond(flags): pc = target                 cond, target
call    push/lr return addr; pc = target            target
ret     pc = return addr                            —
syscall trap into kernel (per-ABI arg registers)    —
tlsload rd = mem64[tls_base + imm]                  rd, imm
tlsstore mem64[tls_base + imm] = rd                 rd, imm
====== =========================================== =================

Binary ops: ``add sub mul sdiv srem and orr eor lsl lsr``.
Conditions: ``eq ne lt le gt ge`` (signed).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import EncodingError
from .registers import RegisterFile

BINARY_OPS = ("add", "sub", "mul", "sdiv", "srem", "and", "orr", "eor",
              "lsl", "lsr")
CONDITIONS = ("eq", "ne", "lt", "le", "gt", "ge")

#: Mnemonics whose ``target`` operand is a code address (branch-like).
BRANCH_OPS = ("b", "bcc", "call")

#: Mnemonics that end a superblock (see ``repro.vm.blocks``): control
#: flow leaves the straight line, enters the kernel, or parks the
#: thread. ``trap`` in particular MUST terminate a block — it is the
#: eqpoint checker's parking instruction, and a block spanning it would
#: change where the Dapper runtime observes the thread stop.
BLOCK_TERMINATOR_OPS = frozenset(("b", "bcc", "call", "ret", "trap",
                                  "syscall", ".byte"))


class Operand:
    """Marker namespace for operand kinds (documentation aid)."""

    REG = "reg"
    IMM = "imm"
    TARGET = "target"
    COND = "cond"


class Instruction:
    """One architecture-neutral instruction.

    ``rd``/``rn``/``rm`` are dense register indices into the owning ISA's
    register file. ``imm`` is a Python int (64-bit semantics applied at
    execution). ``target`` is an absolute code address for branch-like
    ops, or a symbolic label string before linking. ``label`` marks this
    instruction as a branch target during assembly.
    """

    __slots__ = ("op", "rd", "rn", "rm", "imm", "cond", "target",
                 "label", "addr", "size")

    def __init__(self, op: str, rd: int = None, rn: int = None,
                 rm: int = None, imm: int = None, cond: str = None,
                 target=None, label: str = None):
        self.op = op
        self.rd = rd
        self.rn = rn
        self.rm = rm
        self.imm = imm
        self.cond = cond
        self.target = target
        self.label = label
        self.addr: Optional[int] = None   # filled by assembler/disassembler
        self.size: Optional[int] = None   # filled by encoder/decoder

    def clone(self) -> "Instruction":
        new = Instruction(self.op, self.rd, self.rn, self.rm, self.imm,
                          self.cond, self.target, self.label)
        new.addr = self.addr
        new.size = self.size
        return new

    def __repr__(self) -> str:
        parts = [self.op]
        for name in ("rd", "rn", "rm", "imm", "cond", "target"):
            value = getattr(self, name)
            if value is not None:
                parts.append(f"{name}={value:#x}" if isinstance(value, int)
                             and name in ("imm", "target") else f"{name}={value}")
        where = f" @{self.addr:#x}" if self.addr is not None else ""
        return f"<{' '.join(str(p) for p in parts)}{where}>"


class Abi:
    """Calling convention and platform constants for one ISA."""

    def __init__(self, *, stack_pointer: str, frame_pointer: str,
                 link_register: Optional[str], return_reg: str,
                 arg_regs: Sequence[str], scratch_regs: Sequence[str],
                 syscall_number_reg: str, syscall_arg_regs: Sequence[str],
                 callee_saved: Sequence[str], stack_alignment: int,
                 tls_block_offset: int, redzone: int = 0):
        self.stack_pointer = stack_pointer
        self.frame_pointer = frame_pointer
        self.link_register = link_register
        self.return_reg = return_reg
        self.arg_regs = tuple(arg_regs)
        self.scratch_regs = tuple(scratch_regs)
        self.syscall_number_reg = syscall_number_reg
        self.syscall_arg_regs = tuple(syscall_arg_regs)
        self.callee_saved = tuple(callee_saved)
        self.stack_alignment = stack_alignment
        # Offset of the TLS block from the TLS base register. The paper
        # notes this differs between libc ports per ISA and that Dapper
        # "simply updates the offset values" during transformation.
        self.tls_block_offset = tls_block_offset
        self.redzone = redzone


class Isa:
    """One simulated instruction-set architecture."""

    def __init__(self, *, name: str, wordsize: int, registers: RegisterFile,
                 abi: Abi, encode_fn: Callable[[Instruction, "Isa"], bytes],
                 decode_fn: Callable[[bytes, int, int, "Isa"], Instruction],
                 size_fn: Callable[[Instruction, "Isa"], int],
                 nop_bytes: bytes, trap_bytes: bytes, ret_bytes: bytes,
                 fixed_width: Optional[int] = None,
                 cost_table: Optional[Dict[str, int]] = None):
        self.name = name
        self.wordsize = wordsize
        self.registers = registers
        self.abi = abi
        self._encode = encode_fn
        self._decode = decode_fn
        self._size = size_fn
        self.nop_bytes = nop_bytes
        self.trap_bytes = trap_bytes
        self.ret_bytes = ret_bytes
        self.fixed_width = fixed_width
        self.cost_table = dict(cost_table or {})

    # -- register helpers --------------------------------------------------

    def reg(self, name: str) -> int:
        """Dense register index for a register name."""
        return self.registers.by_name[name].index

    def reg_name(self, index: int) -> str:
        return self.registers.by_index[index].name

    def dwarf_of(self, name: str) -> int:
        return self.registers.by_name[name].dwarf

    def dwarf_of_index(self, index: int) -> int:
        return self.registers.by_index[index].dwarf

    def index_of_dwarf(self, dwarf: int) -> int:
        return self.registers.by_dwarf[dwarf].index

    # -- encode / decode ----------------------------------------------------

    def encode(self, instr: Instruction) -> bytes:
        """Encode one instruction to bytes (target must be resolved)."""
        data = self._encode(instr, self)
        instr.size = len(data)
        return data

    def decode(self, data: bytes, offset: int = 0, addr: int = 0) -> Instruction:
        """Decode one instruction at ``data[offset:]`` located at ``addr``."""
        return self._decode(data, offset, addr, self)

    def size_of(self, instr: Instruction) -> int:
        """Encoded size in bytes — independent of final addresses."""
        return self._size(instr, self)

    def encode_block(self, instrs: Sequence[Instruction], base_addr: int) -> bytes:
        """Assign addresses and encode a sequence of instructions."""
        addr = base_addr
        out = bytearray()
        for instr in instrs:
            instr.addr = addr
            data = self.encode(instr)
            out += data
            addr += len(data)
        return bytes(out)

    def disassemble(self, data: bytes, base_addr: int = 0,
                    limit: Optional[int] = None) -> List[Instruction]:
        """Linear-sweep disassembly of a code blob.

        Undecodable bytes are skipped one at a time (recorded as ``.byte``
        pseudo-instructions) so the sweep is total — the gadget scanner
        relies on this behaviour.
        """
        out: List[Instruction] = []
        offset = 0
        end = len(data) if limit is None else min(limit, len(data))
        while offset < end:
            try:
                instr = self.decode(data, offset, base_addr + offset)
            except Exception:
                instr = Instruction(".byte", imm=data[offset])
                instr.addr = base_addr + offset
                instr.size = 1
            out.append(instr)
            offset += instr.size
        return out

    def cost(self, instr: Instruction) -> int:
        """Abstract cycle cost (used by the node timing model)."""
        return self.cost_table.get(instr.op, 1)

    # -- superblock decode hooks -------------------------------------------

    def decode_straight_line(self, fetch: Callable[[int], Instruction],
                             pc: int, max_instrs: int) -> List[Instruction]:
        """Decode the straight-line run starting at ``pc``.

        ``fetch`` decodes (or serves from cache) one instruction at an
        address and may raise on unmapped/undecodable bytes — the run
        simply ends there and the interpreter's one-step path reports
        the fault with the exact faulting pc. The returned list never
        contains a block terminator.
        """
        out: List[Instruction] = []
        cursor = pc
        for _ in range(max_instrs):
            try:
                instr = fetch(cursor)
            except Exception:
                break
            if instr.op in BLOCK_TERMINATOR_OPS:
                break
            out.append(instr)
            cursor += instr.size
        return out

    def __repr__(self) -> str:
        return f"<Isa {self.name}>"


def check_reg(instr: Instruction, field_name: str, isa: Isa) -> int:
    """Fetch and validate a register-index operand."""
    value = getattr(instr, field_name)
    if value is None or value not in isa.registers.by_index:
        raise EncodingError(
            f"{isa.name}: {instr.op} needs valid register in {field_name!r}, "
            f"got {value!r}")
    return value


def signed_fits(value: int, bits: int) -> bool:
    lo = -(1 << (bits - 1))
    hi = (1 << (bits - 1)) - 1
    return lo <= value <= hi


def to_signed(value: int, bits: int) -> int:
    mask = (1 << bits) - 1
    value &= mask
    if value >> (bits - 1):
        value -= 1 << bits
    return value
