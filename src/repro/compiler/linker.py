"""The aligning linker.

Mirrors the paper's modified GNU gold linker (§III-D1): the same program
compiled for both ISAs gets *identical symbol addresses* — every
function, global and TLS symbol sits at the same virtual address in both
binaries, with ``nop`` padding absorbing per-ISA code-size differences.
This creates the unified global virtual address space that keeps code
and data pointers valid across a cross-ISA migration; only stack-internal
pointers need remapping at rewrite time.
"""

from __future__ import annotations

from typing import Dict, List

from .. import sysabi
from ..binfmt.delf import DATA_BASE, TEXT_BASE, DelfBinary
from ..binfmt.frames import FrameRecord, FrameSection
from ..binfmt.stackmaps import EqPoint, LiveValue, StackMapSection
from ..binfmt.symtab import (KIND_FUNC, KIND_OBJECT, KIND_TLS, Symbol,
                             SymbolTable)
from ..errors import LinkError
from ..isa.asm import AsmBlock
from ..isa.isa import Isa
from . import ir
from .codegen.common import FuncCode

_FUNC_ALIGN = 16


def link(program: ir.IrProgram,
         per_isa_code: Dict[str, List[FuncCode]],
         isas: Dict[str, Isa]) -> Dict[str, DelfBinary]:
    """Link per-ISA compiled functions into aligned DELF binaries."""
    isa_names = sorted(per_isa_code)
    if not isa_names:
        raise LinkError("nothing to link")
    func_names = [fc.name for fc in per_isa_code[isa_names[0]]]
    for isa_name in isa_names[1:]:
        if [fc.name for fc in per_isa_code[isa_name]] != func_names:
            raise LinkError("per-ISA function lists disagree")

    # ---- unified data layout (identical for all ISAs) --------------------
    data_symbols: List[Symbol] = []
    data_offset = 0
    # The Dapper flag is always the first global.
    data_symbols.append(Symbol(sysabi.DAPPER_FLAG_SYMBOL,
                               DATA_BASE + data_offset, ir.WORD, KIND_OBJECT,
                               ".data"))
    data_offset += ir.WORD
    for glob in program.globals:
        data_symbols.append(Symbol(glob.name, DATA_BASE + data_offset,
                                   glob.size, KIND_OBJECT, ".data"))
        data_offset += glob.size
    data = bytes(data_offset)   # zero-initialized

    tls_symbols = [Symbol(t.name, t.offset, ir.WORD, KIND_TLS, ".tls")
                   for t in program.tls_vars]
    tls_size = sysabi.TLS_USER_BASE + len(program.tls_vars) * ir.WORD
    tls_template = bytes(tls_size)

    # ---- unified text layout ------------------------------------------------
    blocks: Dict[str, Dict[str, AsmBlock]] = {name: {} for name in isa_names}
    for isa_name in isa_names:
        for code in per_isa_code[isa_name]:
            blocks[isa_name][code.name] = AsmBlock(isas[isa_name],
                                                   code.instrs)

    func_addr: Dict[str, int] = {}
    func_span: Dict[str, int] = {}
    cursor = TEXT_BASE
    for name in func_names:
        sizes = [blocks[isa_name][name].size for isa_name in isa_names]
        span = (max(sizes) + _FUNC_ALIGN - 1) & ~(_FUNC_ALIGN - 1)
        func_addr[name] = cursor
        func_span[name] = span
        cursor += span
    text_size = cursor - TEXT_BASE

    # ---- symbol table shared across ISAs -----------------------------------
    def make_symtab() -> SymbolTable:
        table = SymbolTable()
        for name in func_names:
            table.add(Symbol(name, func_addr[name], func_span[name],
                             KIND_FUNC, ".text"))
        for sym in data_symbols:
            table.add(Symbol(sym.name, sym.addr, sym.size, sym.kind,
                             sym.section))
        for sym in tls_symbols:
            table.add(Symbol(sym.name, sym.addr, sym.size, sym.kind,
                             sym.section))
        return table

    resolver_table = make_symtab()

    def resolve(symbol: str) -> int:
        return resolver_table.address_of(symbol)

    # ---- encode and build metadata per ISA ------------------------------------
    binaries: Dict[str, DelfBinary] = {}
    for isa_name in isa_names:
        isa = isas[isa_name]
        text = bytearray()
        stackmaps = StackMapSection()
        frames = FrameSection()
        for code in per_isa_code[isa_name]:
            block = blocks[isa_name][code.name]
            base = func_addr[code.name]
            body = block.encode(base, resolve)
            labels = block.layout()
            if len(body) > func_span[code.name]:
                raise LinkError(f"{code.name}: encoded size changed")
            pad = func_span[code.name] - len(body)
            text += body
            text += _nop_pad(isa, pad)
            _add_metadata(code, base, base + func_span[code.name], labels,
                          isa, stackmaps, frames)
        if len(text) != text_size:
            raise LinkError("text size mismatch across functions")
        binaries[isa_name] = DelfBinary(
            arch=isa_name,
            entry=func_addr[sysabi.RT_START],
            source_name=program.name,
            text=bytes(text),
            data=data,
            symtab=make_symtab(),
            stackmaps=stackmaps,
            frames=frames,
            tls_template=tls_template,
        )
    verify_alignment(binaries)
    return binaries


def _nop_pad(isa: Isa, pad: int) -> bytes:
    if pad % len(isa.nop_bytes):
        raise LinkError(f"{isa.name}: pad {pad} not a multiple of nop size")
    return isa.nop_bytes * (pad // len(isa.nop_bytes))


def _add_metadata(code: FuncCode, base: int, end: int,
                  labels: Dict[str, int], isa: Isa,
                  stackmaps: StackMapSection, frames: FrameSection) -> None:
    for desc in code.eqpoints:
        if desc.resume_label not in labels:
            raise LinkError(f"{code.name}: missing label {desc.resume_label}")
        addr = base + labels[desc.resume_label]
        trap_addr = 0
        if desc.trap_label is not None:
            trap_addr = base + labels[desc.trap_label]
        live = [LiveValue(lv.value_id, lv.name, lv.loc_type, lv.dwarf_reg,
                          lv.stack_offset, lv.is_pointer, lv.size)
                for lv in desc.live]
        stackmaps.add(EqPoint(desc.eqpoint_id, desc.func, desc.kind, addr,
                              trap_addr, live))
    frames.add(FrameRecord(code.name, base, end, code.frame_size,
                           code.entry_eqpoint, code.slots))


def verify_alignment(binaries: Dict[str, DelfBinary]) -> None:
    """Check the unified-address-space invariant across all binaries."""
    names = sorted(binaries)
    reference = binaries[names[0]].symtab
    for other_name in names[1:]:
        other = binaries[other_name].symtab
        if len(other) != len(reference):
            raise LinkError("symbol tables differ in size")
        for sym in reference:
            peer = other.lookup(sym.name)
            if peer is None or peer.addr != sym.addr:
                raise LinkError(
                    f"symbol {sym.name!r} not aligned: "
                    f"{sym.addr:#x} vs {peer.addr if peer else None}")
