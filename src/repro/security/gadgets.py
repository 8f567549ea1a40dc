"""ROP gadget counting (paper §IV-C, Fig. 11).

Measures the attack surface of a program binary the way the paper does:
count the ROP gadgets reachable in its executable code.

* **x86_64** (variable-length): Galileo-style backward walk — for every
  ``ret`` (0xC3) byte, every start offset within a lookback window that
  decodes cleanly to an instruction sequence ending exactly at the
  ``ret`` is one gadget. Misaligned decodes count, as on real x86.
* **aarch64** (fixed-width): for every ``ret`` word, each suffix of up
  to ``max_insns`` valid preceding instruction words is one gadget.
"""

from __future__ import annotations

from ..binfmt.delf import DelfBinary
from ..isa import get_isa

_X86_LOOKBACK = 20
_ARM_MAX_INSNS = 5


def count_gadgets(binary: DelfBinary) -> int:
    if binary.arch == "x86_64":
        return _count_x86(binary.text)
    if binary.arch == "aarch64":
        return _count_arm(binary.text)
    raise ValueError(f"unknown arch {binary.arch}")


def _count_x86(text: bytes) -> int:
    isa = get_isa("x86_64")
    total = 0
    for i, byte in enumerate(text):
        if byte != 0xC3:
            continue
        start_min = max(0, i - _X86_LOOKBACK)
        for start in range(start_min, i):
            if _decodes_to_ret(isa, text, start, i):
                total += 1
    return total


def _decodes_to_ret(isa, text: bytes, start: int, ret_at: int) -> bool:
    offset = start
    while offset < ret_at:
        try:
            instr = isa.decode(text, offset, offset)
        except Exception:
            return False
        if instr.op in ("ret", "trap"):
            return False    # ends early — counted from its own start
        offset += instr.size
    return offset == ret_at


def _count_arm(text: bytes) -> int:
    isa = get_isa("aarch64")
    ret_word = isa.ret_bytes
    total = 0
    for i in range(0, len(text) - 3, 4):
        if bytes(text[i:i + 4]) != ret_word:
            continue
        # Each valid suffix of preceding instructions is one gadget.
        length = 1
        while length <= _ARM_MAX_INSNS:
            start = i - length * 4
            if start < 0:
                break
            try:
                instr = isa.decode(text, start, start)
            except Exception:
                break
            if instr.op in ("ret", "trap", "b", "call"):
                break
            length += 1
            total += 1
    return total


def gadget_reduction(dapper_binary: DelfBinary,
                     baseline_binary: DelfBinary) -> float:
    """Percentage reduction of Dapper's binary vs a baseline's (Fig. 11)."""
    base = count_gadgets(baseline_binary)
    ours = count_gadgets(dapper_binary)
    if base == 0:
        return 0.0
    return (1.0 - ours / base) * 100.0
