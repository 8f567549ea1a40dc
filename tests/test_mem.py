"""Tests for the memory substrate: paging, VMAs, address spaces."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import MemoryError_, SegmentationFault
from repro.mem import AddressSpace, PAGE_SIZE, Prot, Vma
from repro.mem.paging import (page_align_down, page_align_up, page_number,
                              pages_spanning)


class TestPaging:
    def test_align_down(self):
        assert page_align_down(0) == 0
        assert page_align_down(4095) == 0
        assert page_align_down(4096) == 4096
        assert page_align_down(8191) == 4096

    def test_align_up(self):
        assert page_align_up(0) == 0
        assert page_align_up(1) == 4096
        assert page_align_up(4096) == 4096

    def test_page_number(self):
        assert page_number(0) == 0
        assert page_number(4096 * 7 + 5) == 7

    def test_pages_spanning(self):
        assert list(pages_spanning(100, 1)) == [0]
        assert list(pages_spanning(4000, 200)) == [0, 4096]
        assert list(pages_spanning(0, 0)) == []

    @given(st.integers(min_value=0, max_value=2 ** 48))
    def test_align_invariants(self, addr):
        down = page_align_down(addr)
        up = page_align_up(addr)
        assert down <= addr <= up
        assert down % PAGE_SIZE == 0
        assert up % PAGE_SIZE == 0
        assert up - down in (0, PAGE_SIZE)


class TestVma:
    def test_basic(self):
        vma = Vma(0x1000, 0x3000, Prot.RW, name="data")
        assert vma.size == 0x2000
        assert vma.contains(0x1000)
        assert vma.contains(0x2FFF)
        assert not vma.contains(0x3000)

    def test_unaligned_rejected(self):
        with pytest.raises(MemoryError_):
            Vma(0x1001, 0x3000, Prot.RW)

    def test_empty_rejected(self):
        with pytest.raises(MemoryError_):
            Vma(0x3000, 0x3000, Prot.RW)

    def test_overlap_detection(self):
        a = Vma(0x1000, 0x3000, Prot.RW)
        b = Vma(0x2000, 0x4000, Prot.RW)
        c = Vma(0x3000, 0x4000, Prot.RW)
        assert a.overlaps(b)
        assert not a.overlaps(c)

    def test_dict_roundtrip(self):
        vma = Vma(0x400000, 0x402000, Prot.RX, name=".text",
                  file_backed=True, file_path="/bin/x", file_offset=0)
        copy = Vma.from_dict(vma.to_dict())
        assert copy.start == vma.start
        assert copy.file_backed
        assert copy.file_path == "/bin/x"

    def test_prot_describe(self):
        assert Prot.describe(Prot.RW) == "rw-"
        assert Prot.describe(Prot.RX) == "r-x"
        assert Prot.describe(0) == "---"


class TestAddressSpace:
    def _space(self):
        space = AddressSpace()
        space.map(Vma(0x1000, 0x5000, Prot.RW, name="data"))
        space.map(Vma(0x400000, 0x401000, Prot.RX, name=".text"))
        return space

    def test_rw_roundtrip(self):
        space = self._space()
        space.write(0x1100, b"hello world")
        assert space.read(0x1100, 11) == b"hello world"

    def test_unwritten_reads_zero(self):
        space = self._space()
        assert space.read(0x2000, 16) == bytes(16)

    def test_cross_page_write(self):
        space = self._space()
        data = bytes(range(256)) * 20
        space.write(0x1F00, data)
        assert space.read(0x1F00, len(data)) == data

    def test_unmapped_read_faults(self):
        space = self._space()
        with pytest.raises(SegmentationFault):
            space.read(0x9000, 1)

    def test_write_to_rx_faults(self):
        space = self._space()
        with pytest.raises(SegmentationFault):
            space.write(0x400000, b"\x90")

    def test_exec_requires_x(self):
        space = self._space()
        with pytest.raises(SegmentationFault):
            space.fetch(0x1000, 4)
        space.write_code(0x400000, b"\x90\x90")
        assert space.fetch(0x400000, 2) == b"\x90\x90"

    def test_straddling_mapping_faults(self):
        space = self._space()
        with pytest.raises(SegmentationFault):
            space.read(0x4FFC, 16)

    def test_overlap_map_rejected(self):
        space = self._space()
        with pytest.raises(MemoryError_):
            space.map(Vma(0x2000, 0x3000, Prot.RW))

    def test_unmap_drops_pages(self):
        space = self._space()
        space.write(0x1100, b"x")
        space.unmap(0x1000, 0x5000)
        assert space.find_vma(0x1100) is None
        assert list(space.populated_pages()) == []

    def test_u64_roundtrip(self):
        space = self._space()
        space.write_u64(0x1200, 0xDEADBEEFCAFEF00D)
        assert space.read_u64(0x1200) == 0xDEADBEEFCAFEF00D
        space.write_i64(0x1208, -42)
        assert space.read_i64(0x1208) == -42

    def test_populated_pages_sorted(self):
        space = self._space()
        space.write(0x3000, b"b")
        space.write(0x1000, b"a")
        bases = [b for b, _ in space.populated_pages()]
        assert bases == sorted(bases)

    def test_install_page_requires_full_page(self):
        space = self._space()
        with pytest.raises(MemoryError_):
            space.install_page(0x1000, b"short")
        space.install_page(0x1000, bytes(PAGE_SIZE))

    def test_clone_is_deep(self):
        space = self._space()
        space.write(0x1100, b"orig")
        copy = space.clone()
        copy.write(0x1100, b"copy")
        assert space.read(0x1100, 4) == b"orig"
        assert copy.read(0x1100, 4) == b"copy"

    def test_vma_by_name(self):
        space = self._space()
        assert space.vma_by_name(".text").start == 0x400000
        assert space.vma_by_name("nope") is None

    def test_read_cstr(self):
        space = self._space()
        space.write(0x1100, b"hello\x00world")
        assert space.read_cstr(0x1100) == "hello"

    def test_missing_page_hook_serves_reads(self):
        space = self._space()
        served = []

        def hook(base):
            served.append(base)
            return b"\xAB" * PAGE_SIZE

        space.missing_page_hook = hook
        assert space.read(0x2000, 2) == b"\xAB\xAB"
        assert served == [0x2000]
        # Second read hits the installed page, not the hook.
        assert space.read(0x2008, 1) == b"\xAB"
        assert served == [0x2000]

    def test_missing_page_hook_none_means_zero(self):
        space = self._space()
        space.missing_page_hook = lambda base: None
        assert space.read(0x2000, 4) == bytes(4)

    @given(st.integers(min_value=0, max_value=0x3F00),
           st.binary(min_size=1, max_size=300))
    def test_write_read_property(self, offset, data):
        space = AddressSpace()
        space.map(Vma(0x0, 0x5000, Prot.RW))
        space.write(offset, data)
        assert space.read(offset, len(data)) == data


class TestLayoutVersion:
    """``layout_version`` moves on every VMA-list change and on nothing
    else — it is the digest memo's validity test for the layout leaf."""

    def _space(self):
        space = AddressSpace()
        space.map(Vma(0x1000, 0x5000, Prot.RW, name="data"))
        return space

    def test_map_unmap_and_grow_bump(self):
        space = self._space()
        seen = [space.layout_version]
        heap = space.map(Vma(0x10000, 0x11000, Prot.RW, name="heap"))
        seen.append(space.layout_version)
        space.grow_vma(heap, 0x13000)
        seen.append(space.layout_version)
        space.unmap(0x10000, 0x13000)
        seen.append(space.layout_version)
        assert seen == sorted(set(seen))        # strictly increasing

    def test_grow_vma_extends_the_mapping(self):
        space = self._space()
        heap = space.map(Vma(0x10000, 0x11000, Prot.RW, name="heap"))
        with pytest.raises(SegmentationFault):
            space.write_u64(0x11008, 1)
        space.grow_vma(heap, 0x12000)
        space.write_u64(0x11008, 1)
        assert space.read_u64(0x11008) == 1

    def test_page_traffic_does_not_bump(self):
        space = self._space()
        before = space.layout_version
        space.write(0x1100, b"x")
        space.read(0x2000, 8)
        space.install_page(0x3000, bytes(PAGE_SIZE))
        space.drop_page(0x3000)
        assert space.page(0x4000, create=True) is not None
        assert space.layout_version == before

    def test_failed_map_does_not_bump(self):
        space = self._space()
        before = space.layout_version
        with pytest.raises(MemoryError_):
            space.map(Vma(0x2000, 0x3000, Prot.RW))
        assert space.layout_version == before

    def test_clone_has_its_own_counter(self):
        space = self._space()
        copy = space.clone()
        before = space.layout_version
        copy.map(Vma(0x10000, 0x11000, Prot.RW))
        assert space.layout_version == before
