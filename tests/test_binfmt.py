"""Tests for the DELF container and its metadata sections."""

import random

import pytest

from repro.apps import get_app
from repro.binfmt import delf, frames, stackmaps, symtab
from repro.binfmt import (DelfBinary, EqPoint, FrameRecord, FrameSection,
                          LiveValue, LOC_BOTH, LOC_REG, LOC_STACK, Slot,
                          StackMapSection, Symbol, SymbolTable)
from repro.binfmt.delf import TEXT_BASE
from repro.errors import ImageFormatError, LinkError, LoaderError, ReproError


class TestSymbolTable:
    def _table(self):
        return SymbolTable([
            Symbol("main", 0x400000, 0x100, "func", ".text"),
            Symbol("helper", 0x400100, 0x80, "func", ".text"),
            Symbol("g", 0x600000, 8, "object", ".data"),
            Symbol("t", 8, 8, "tls", ".tls"),
        ])

    def test_lookup(self):
        table = self._table()
        assert table.address_of("main") == 0x400000
        assert table.get("g").size == 8
        assert "main" in table
        assert "nope" not in table

    def test_undefined_raises(self):
        with pytest.raises(LinkError):
            self._table().get("nope")

    def test_duplicate_rejected(self):
        table = self._table()
        with pytest.raises(LinkError):
            table.add(Symbol("main", 0, 0, "func"))

    def test_find_containing(self):
        table = self._table()
        assert table.find_containing(0x400150).name == "helper"
        assert table.find_containing(0x500000) is None

    def test_functions_and_tls(self):
        table = self._table()
        assert {s.name for s in table.functions()} == {"main", "helper"}
        assert [s.name for s in table.tls_symbols()] == ["t"]

    def test_iteration_sorted_by_addr(self):
        names = [s.name for s in self._table()]
        assert names == ["t", "main", "helper", "g"]

    def test_serialization_roundtrip(self):
        table = self._table()
        copy = SymbolTable.from_bytes(table.to_bytes())
        assert len(copy) == len(table)
        assert copy.address_of("helper") == 0x400100


class TestStackMaps:
    def _section(self):
        live = [
            LiveValue(0, "a", LOC_BOTH, dwarf_reg=5, stack_offset=-8,
                      is_pointer=False, size=8),
            LiveValue(1, "p", LOC_STACK, stack_offset=-16, is_pointer=True),
        ]
        return StackMapSection([
            EqPoint(0, "main", "entry", 0x400020, trap_addr=0x40001F,
                    live=live),
            EqPoint(1, "main", "callsite", 0x400050, live=live),
        ])

    def test_lookups(self):
        maps = self._section()
        assert maps.by_id[0].kind == "entry"
        assert maps.by_addr[0x400050].eqpoint_id == 1
        assert maps.by_trap[0x40001F].eqpoint_id == 0
        assert maps.entry_for("main").eqpoint_id == 0
        assert len(maps.for_func("main")) == 2

    def test_duplicate_id_rejected(self):
        maps = self._section()
        with pytest.raises(ImageFormatError):
            maps.add(EqPoint(0, "x", "entry", 0x1000))

    def test_live_value_validation(self):
        with pytest.raises(ImageFormatError):
            LiveValue(0, "a", LOC_REG)          # needs dwarf_reg
        with pytest.raises(ImageFormatError):
            LiveValue(0, "a", LOC_STACK)        # needs stack_offset
        with pytest.raises(ImageFormatError):
            LiveValue(0, "a", "nowhere")

    def test_live_value_location_predicates(self):
        both = LiveValue(0, "a", LOC_BOTH, dwarf_reg=1, stack_offset=-8)
        assert both.in_register() and both.on_stack()
        reg = LiveValue(0, "a", LOC_REG, dwarf_reg=1)
        assert reg.in_register() and not reg.on_stack()

    def test_serialization_roundtrip(self):
        maps = self._section()
        copy = StackMapSection.from_bytes(maps.to_bytes())
        assert len(copy) == 2
        point = copy.by_id[0]
        assert point.trap_addr == 0x40001F
        assert point.live[0].dwarf_reg == 5
        assert point.live[1].is_pointer
        assert point.live[1].stack_offset == -16

    def test_bad_kind_rejected(self):
        with pytest.raises(ImageFormatError):
            EqPoint(5, "f", "middle", 0x1000)


class TestFrames:
    def _record(self):
        return FrameRecord("main", 0x400000, 0x400100, 48, 0, [
            Slot(0, "a", -8, 8, "param"),
            Slot(1, "arr", -40, 32, "array"),
            Slot(2, "p", -48, 8, "local", is_pointer=True,
                 pair_member=True),
        ])

    def test_slot_lookup(self):
        record = self._record()
        assert record.slot_by_id(1).name == "arr"
        assert record.slot_by_name("p").is_pointer
        assert record.slot_by_id(9) is None

    def test_slot_containing(self):
        record = self._record()
        assert record.slot_containing(-8).name == "a"
        assert record.slot_containing(-24).name == "arr"   # inside array
        assert record.slot_containing(-9).name == "arr"
        assert record.slot_containing(-100) is None

    def test_positive_offset_rejected(self):
        with pytest.raises(ImageFormatError):
            Slot(0, "bad", 8, 8)

    def test_section_lookup(self):
        section = FrameSection([self._record()])
        assert section.get("main").frame_size == 48
        assert section.containing(0x400050).func == "main"
        assert section.containing(0x500000) is None
        with pytest.raises(ImageFormatError):
            section.get("nope")

    def test_duplicate_rejected(self):
        section = FrameSection([self._record()])
        with pytest.raises(ImageFormatError):
            section.add(self._record())

    def test_serialization_roundtrip(self):
        section = FrameSection([self._record()])
        copy = FrameSection.from_bytes(section.to_bytes())
        record = copy.get("main")
        assert record.frame_size == 48
        assert record.slot_by_name("p").pair_member
        assert record.slot_by_name("arr").size == 32


class TestDelfBinary:
    def _binary(self):
        return DelfBinary(
            arch="x86_64", entry=TEXT_BASE, source_name="t",
            text=b"\x90" * 64, data=b"\x00" * 16,
            symtab=SymbolTable([Symbol("main", TEXT_BASE, 64, "func")]),
            stackmaps=StackMapSection([]),
            frames=FrameSection([]),
            tls_template=b"\x00" * 16,
            extra_sections={".note": b"hello"})

    def test_roundtrip(self):
        binary = self._binary()
        copy = DelfBinary.from_bytes(binary.to_bytes())
        assert copy.arch == "x86_64"
        assert copy.text == binary.text
        assert copy.extra_sections[".note"] == b"hello"
        assert copy.symtab.address_of("main") == TEXT_BASE
        assert copy.tls_size == 16

    def test_bad_magic(self):
        with pytest.raises(LoaderError):
            DelfBinary.from_bytes(b"NOPE" + b"\x00" * 10)

    def test_code_at(self):
        binary = self._binary()
        assert binary.code_at(TEXT_BASE + 8, 4) == b"\x90" * 4
        with pytest.raises(LoaderError):
            binary.code_at(TEXT_BASE + 100, 8)

    def test_section_data(self):
        binary = self._binary()
        assert binary.section_data(".text") == binary.text
        assert binary.section_data(".note") == b"hello"
        with pytest.raises(LoaderError):
            binary.section_data(".bogus")

    def test_default_segments(self):
        binary = self._binary()
        sections = {s.section for s in binary.segments}
        assert sections == {".text", ".data"}


class TestDecodingEdgeCases:
    """Edge cases the time-travel debugger leans on when decoding
    frames and live variables from arbitrary mid-run pc values."""

    # -- empty sections -----------------------------------------------

    def test_empty_frame_section(self):
        section = FrameSection()
        assert len(section) == 0
        assert section.containing(0x400000) is None
        with pytest.raises(ImageFormatError):
            section.get("main")

    def test_empty_frame_section_roundtrip(self):
        copy = FrameSection.from_bytes(FrameSection().to_bytes())
        assert len(copy) == 0
        assert copy.containing(0) is None

    def test_empty_stackmap_section(self):
        maps = StackMapSection()
        assert maps.by_addr.get(0x400000) is None
        assert maps.entry_for("main") is None
        copy = StackMapSection.from_bytes(maps.to_bytes())
        assert len(copy) == 0

    # -- pc between and outside frame extents -------------------------

    def _section(self):
        return FrameSection([
            FrameRecord("first", 0x400000, 0x400080, 16, 0,
                        [Slot(0, "x", -8, 8)]),
            FrameRecord("second", 0x400100, 0x400180, 16, 1,
                        [Slot(0, "y", -8, 8)]),
        ])

    def test_pc_in_gap_between_functions(self):
        section = self._section()
        # [0x400080, 0x400100) belongs to no function (padding)
        assert section.containing(0x400080) is None
        assert section.containing(0x4000FF) is None

    def test_pc_at_extent_boundaries(self):
        section = self._section()
        assert section.containing(0x400000).func == "first"
        assert section.containing(0x40007F).func == "first"
        assert section.containing(0x400100).func == "second"
        assert section.containing(0x40017F).func == "second"

    def test_pc_outside_all_extents(self):
        section = self._section()
        assert section.containing(0x3FFFFF) is None
        assert section.containing(0x400180) is None
        assert section.containing(0) is None

    def test_pc_between_eqpoints_has_no_livemap(self):
        maps = StackMapSection([
            EqPoint(0, "f", "entry", 0x400010),
            EqPoint(1, "f", "callsite", 0x400040),
        ])
        # mid-function pc that is not an equivalence point: no record,
        # the debugger falls back to frame slots
        assert maps.by_addr.get(0x400020) is None
        assert maps.by_addr.get(0x400010).kind == "entry"

    # -- variables spanning registers and stack slots ------------------

    def test_both_location_roundtrip(self):
        live = [
            LiveValue(0, "n", LOC_BOTH, dwarf_reg=5, stack_offset=-8,
                      size=8),
            LiveValue(1, "r", LOC_REG, dwarf_reg=0, size=8),
            LiveValue(2, "s", LOC_STACK, stack_offset=-24, size=16),
        ]
        maps = StackMapSection([EqPoint(0, "f", "entry", 0x400010,
                                        live=live)])
        copy = StackMapSection.from_bytes(maps.to_bytes())
        n, r, s = copy.by_id[0].live
        assert n.in_register() and n.on_stack()
        assert n.dwarf_reg == 5 and n.stack_offset == -8
        assert r.in_register() and not r.on_stack()
        assert s.on_stack() and not s.in_register()
        assert s.size == 16

    def test_wide_stack_value_spans_slots(self):
        record = FrameRecord("f", 0x400000, 0x400100, 48, 0, [
            Slot(0, "lo", -8, 8),
            Slot(1, "wide", -24, 16),
        ])
        # every byte of the 16-byte value resolves to the same slot
        for off in range(-24, -8):
            assert record.slot_containing(off).name == "wide"
        assert record.slot_containing(-8).name == "lo"
        assert record.slot_containing(-25) is None


class TestDecodingIsTotal:
    """``DelfBinary.from_bytes`` either parses or raises a typed error:
    a record missing a required field raises its decoder's own error
    (``LoaderError`` for the container, ``LinkError`` for the symbol
    table, ``ImageFormatError`` for stackmaps and frames), never a bare
    ``KeyError``."""

    @pytest.mark.parametrize("decode, blob, error", [
        (DelfBinary.from_bytes,
         delf.DELF_MAGIC + delf._BINARY_SCHEMA.encode({"version": 1}),
         LoaderError),
        (SymbolTable.from_bytes,
         symtab._TABLE_SCHEMA.encode({"symbols": [{"addr": 1}]}),
         LinkError),
        (StackMapSection.from_bytes,
         stackmaps._SECTION_SCHEMA.encode({"eqpoints": [{
             "eqpoint_id": 0, "func": "f", "kind": "entry", "addr": 1,
             "live": [{"value_id": 0, "name": "n"}]}]}),
         ImageFormatError),
        (FrameSection.from_bytes,
         frames._SECTION_SCHEMA.encode({"frames": [{"func": "f"}]}),
         ImageFormatError),
    ], ids=["delf", "symtab", "stackmaps", "frames"])
    def test_missing_required_field(self, decode, blob, error):
        with pytest.raises(error, match="without field"):
            decode(blob)

    def test_seeded_mutation_corpus(self):
        """2 000 seeded mutations of the kmeans x86 binary — bit flips,
        truncations and 8-byte overwrites — each parse or raise a
        ``ReproError``."""
        blob = get_app("kmeans").compile("small").binary(
            "x86_64").to_bytes()
        rng = random.Random(0xDE1F)
        parsed = 0
        for case in range(2000):
            mutant = bytearray(blob)
            if case % 3 == 0:
                for _ in range(rng.randint(1, 4)):
                    bit = rng.randrange(len(mutant) * 8)
                    mutant[bit // 8] ^= 1 << (bit % 8)
            elif case % 3 == 1:
                del mutant[rng.randrange(len(mutant)):]
            else:
                at = rng.randrange(len(mutant) - 8)
                mutant[at:at + 8] = rng.randbytes(8)
            try:
                DelfBinary.from_bytes(bytes(mutant))
                parsed += 1
            except ReproError:
                pass
        # the corpus reaches past the container into the sections
        assert 0 < parsed < 2000
