"""Tests for the CRIU-style checkpoint/restore substrate and CRIT."""

from collections import Counter

import pytest

from repro.core.migration import exe_path_for, install_program
from repro.core.runtime import DapperRuntime
from repro.criu import crit
from repro.criu.dump import dump_process
from repro.criu.images import (CoreImage, FilesImage, ImageSet,
                               InventoryImage, MmImage, PagemapEntry,
                               PagemapImage)
from repro.criu.lazy import dump_process_lazy, restore_process_lazy
from repro.criu.restore import restore_process
from repro.errors import (CheckpointError, ImageFormatError, LazyPageError,
                          RestoreError)
from repro.isa import X86_ISA
from repro.mem import page_digest
from repro.mem.paging import PAGE_SIZE, page_align_down
from repro.mem.vma import Vma
from repro.store import ChunkStore
from repro.vm import Machine


@pytest.fixture
def parked(counter_program):
    """A counter process parked at an equivalence point, SIGSTOPped."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    assert not process.exited
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    return machine, process, runtime


class TestImageEncoding:
    def test_inventory_roundtrip(self):
        inv = InventoryImage(101, "x86_64", "app", [1, 2, 3], lazy=True)
        copy = InventoryImage.from_bytes(inv.to_bytes())
        assert (copy.pid, copy.arch, copy.tids, copy.lazy) == \
            (101, "x86_64", [1, 2, 3], True)

    def test_core_roundtrip(self):
        core = CoreImage(2, "aarch64", 0x400100, -1, 0x20000000, "trapped",
                         {0: -5, 31: 0x7FFE0000})
        copy = CoreImage.from_bytes(core.to_bytes())
        assert copy.regs == core.regs
        assert copy.pc == 0x400100
        assert copy.flags == -1

    def test_bad_magic_rejected(self):
        core = CoreImage(1, "x86_64", 0, 0, 0, "running", {})
        blob = core.to_bytes()
        with pytest.raises(ImageFormatError):
            InventoryImage.from_bytes(blob)

    def test_pagemap_page_addresses(self):
        pm = PagemapImage([PagemapEntry(0x1000, 2), PagemapEntry(0x8000, 1)])
        assert pm.total_pages() == 3
        assert pm.page_addresses() == [0x1000, 0x2000, 0x8000]

    def test_files_roundtrip(self):
        files = FilesImage("/bin/app.x86_64", "x86_64")
        copy = FilesImage.from_bytes(files.to_bytes())
        assert copy.exe_path == "/bin/app.x86_64"


class DecodeCount:
    """Counts ``from_bytes`` calls of one image class."""

    def __init__(self, monkeypatch, kind):
        self.calls = 0
        from_bytes = kind.from_bytes.__func__

        def counted(cls, blob):
            self.calls += 1
            return from_bytes(cls, blob)

        monkeypatch.setattr(kind, "from_bytes", classmethod(counted))


class TestImageSetDecodesOnce:
    """``ImageSet`` remembers a decode only while ``files[name]`` is the
    very blob it decoded, and never lets a caller's edits leak."""

    def _images(self):
        images = ImageSet()
        images.set_inventory(InventoryImage(7, "x86_64", "app", [1, 2]))
        images.set_core(CoreImage(1, "x86_64", 0x400100, 0, 0x2000,
                                  "trapped", {7: 123}))
        images.set_core(CoreImage(2, "x86_64", 0x400200, 0, 0x3000,
                                  "trapped", {7: 456}))
        images.set_mm(MmImage([Vma(0x1000, 0x3000, 0b101, "code")],
                              0x500000))
        images.set_pagemap(PagemapImage([PagemapEntry(0x1000, 2)]))
        images.set_files_img(FilesImage("/bin/app.x86_64", "x86_64"))
        images.set_pages(b"a" * PAGE_SIZE + b"b" * PAGE_SIZE)
        return images

    def _decodes(self, images, monkeypatch):
        """(core, pagemap) decodes over three rounds of reads."""
        cores = DecodeCount(monkeypatch, CoreImage)
        pagemaps = DecodeCount(monkeypatch, PagemapImage)
        for _ in range(3):
            assert [c.tid for c in images.cores()] == [1, 2]
            assert images.page_at(0x2000) == b"b" * PAGE_SIZE
            assert not images.is_delta()
        return cores.calls, pagemaps.calls

    def test_repeat_accessors_decode_once(self, monkeypatch):
        """A set never decodes what it encoded itself..."""
        assert self._decodes(self._images(), monkeypatch) == (0, 0)

    def test_arrived_bytes_decode_once(self, monkeypatch):
        """...and decodes bytes it was handed once each."""
        images = ImageSet(dict(self._images().files))
        assert self._decodes(images, monkeypatch) == (2, 1)

    def test_mutating_a_returned_image_is_invisible(self):
        images = self._images()
        before = dict(images.files)
        core = images.core(1)
        core.pc = 0
        core.regs[7] = -1
        mm = images.mm()
        mm.heap_end = 0
        mm.vmas[0].end = 0x9000
        mm.vmas.append(Vma(0x7000, 0x8000, 0b110, "stack:1"))
        pagemap = images.pagemap()
        pagemap.entries[0].nr_pages = 99
        pagemap.entries.append(PagemapEntry(0x9000, 1))
        inventory = images.inventory()
        inventory.tids.append(3)
        files_img = images.files_img()
        files_img.exe_path = "/bin/other"
        assert images.core(1).pc == 0x400100
        assert images.core(1).regs == {7: 123}
        assert (images.mm().heap_end, len(images.mm().vmas),
                images.mm().vmas[0].end) == (0x500000, 1, 0x3000)
        assert [(e.vaddr, e.nr_pages) for e in images.pagemap().entries] \
            == [(0x1000, 2)]
        assert images.inventory().tids == [1, 2]
        assert images.files_img().exe_path == "/bin/app.x86_64"
        assert images.files == before
        images.set_core(core)                   # ...until written back
        assert images.core(1).regs == {7: -1}

    def test_every_way_of_replacing_a_blob_decodes_afresh(self, monkeypatch):
        images = self._images()
        assert images.core(1).pc == 0x400100
        cores = DecodeCount(monkeypatch, CoreImage)
        images.set_core(CoreImage(1, "x86_64", 0x400300, 0, 0, "trapped", {}))
        assert images.core(1).pc == 0x400300
        assert cores.calls == 0                 # encoded here: not read back
        other = CoreImage(1, "x86_64", 0x400400, 0, 0, "trapped", {})
        images.files["core-1.img"] = other.to_bytes()
        assert images.core(1).pc == 0x400400
        assert cores.calls == 1
        # An equal-content copy is a different object: decoded again.
        images.files["core-1.img"] = bytes(bytearray(other.to_bytes()))
        assert images.core(1).pc == 0x400400
        assert cores.calls == 2
        flipped = bytearray(images.files["core-1.img"])
        flipped[-1] ^= 0x40                     # what a chaos injector does
        images.files["core-1.img"] = bytes(flipped)
        assert images.core(1).to_bytes() == bytes(flipped)
        assert cores.calls == 3
        del images.files["core-1.img"]
        with pytest.raises(ImageFormatError):
            images.core(1)

    def test_a_blob_that_fails_to_decode_raises_every_time(self):
        images = self._images()
        good = images.files["mm.img"]
        assert images.mm().heap_end == 0x500000
        images.files["mm.img"] = good[:-1]
        for _ in range(3):
            with pytest.raises(ImageFormatError):
                images.mm()
        images.files["mm.img"] = good
        assert images.mm().heap_end == 0x500000


class TestDump:
    def test_requires_sigstop(self, counter_program):
        machine = Machine(X86_ISA)
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.step_all(100)
        with pytest.raises(CheckpointError):
            dump_process(process)

    def test_dump_contents(self, parked):
        _machine, process, runtime = parked
        images = runtime.checkpoint()
        names = set(images.files)
        assert {"inventory.img", "mm.img", "files.img", "pagemap.img",
                "pages-1.img"} <= names
        assert f"core-{process.threads[1].tid}.img" in names
        inv = images.inventory()
        assert inv.arch == "x86_64"
        assert inv.tids == [1]

    def test_code_pages_limited_to_execution_context(self, parked):
        _machine, process, runtime = parked
        images = runtime.checkpoint()
        text_vma = process.aspace.vma_by_name(".text")
        code_pages = [e for e in images.pagemap().entries
                      if text_vma.start <= e.vaddr < text_vma.end]
        total_code_pages = sum(e.nr_pages for e in code_pages)
        # Paper: "one or two code pages pointed by the program counter".
        assert 1 <= total_code_pages <= 2
        pc_page = page_align_down(process.threads[1].pc)
        dumped = set(images.pagemap().page_addresses())
        assert pc_page in dumped

    def test_data_and_stack_pages_dumped(self, parked):
        _machine, process, runtime = parked
        images = runtime.checkpoint()
        dumped = set(images.pagemap().page_addresses())
        stack_vma = process.aspace.vma_by_name("stack:1")
        assert any(stack_vma.start <= a < stack_vma.end for a in dumped)
        data_vma = process.aspace.vma_by_name(".data")
        assert any(data_vma.start <= a < data_vma.end for a in dumped)

    def test_page_at_lookup(self, parked):
        _machine, process, runtime = parked
        images = runtime.checkpoint()
        entry = images.pagemap().entries[0]
        page = images.page_at(entry.vaddr)
        assert page is not None and len(page) == PAGE_SIZE
        assert images.page_at(0xDEAD000) is None

    def test_dead_process_rejected(self, parked):
        machine, process, _runtime = parked
        machine.kill(process)
        with pytest.raises(CheckpointError):
            dump_process(process, require_stopped=False)


class TestRestoreSameIsa:
    def test_restore_continues_to_same_output(self, parked,
                                              counter_reference_output):
        machine, process, runtime = parked
        before = process.stdout()
        images = runtime.checkpoint()
        runtime.kill_source()
        restored = restore_process(machine, images)
        machine.run_process(restored)
        assert before + restored.stdout() == counter_reference_output
        assert restored.exit_code == 0

    def test_restore_on_wrong_arch_rejected(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        from repro.isa import ARM_ISA
        wrong = Machine(ARM_ISA, name="wrong")
        with pytest.raises(RestoreError):
            restore_process(wrong, images)

    def test_restore_missing_binary_rejected(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        empty = Machine(X86_ISA, name="empty")
        with pytest.raises(RestoreError):
            restore_process(empty, images)

    def test_tmpfs_save_load_roundtrip(self, parked):
        machine, _process, runtime = parked
        images = runtime.checkpoint()
        images.save(machine.tmpfs, "/images/ckpt")
        loaded = ImageSet.load(machine.tmpfs, "/images/ckpt")
        assert loaded.files.keys() == images.files.keys()
        assert loaded.pages() == images.pages()


class TestCrit:
    def test_decode_all_images(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        decoded = crit.decode_set(images)
        assert decoded["inventory.img"]["kind"] == "inventory"
        assert decoded["mm.img"]["kind"] == "mm"
        assert decoded["pages-1.img"]["kind"] == "raw_pages"
        core_name = next(n for n in decoded if n.startswith("core-"))
        assert "regs" in decoded[core_name]

    def test_roundtrip_lossless(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        rebuilt = crit.roundtrip(images)
        for name in images.files:
            # Decoded views must agree (byte-level equality also holds for
            # our canonical encoder, but semantic equality is the contract).
            assert crit.decode_image(name, rebuilt.files[name]) == \
                crit.decode_image(name, images.files[name])

    def test_show_is_json(self, parked):
        import json
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        parsed = json.loads(crit.show(images))
        assert "inventory.img" in parsed

    def test_unknown_filename_rejected(self):
        with pytest.raises(ImageFormatError):
            crit.decode_image("bogus.img", b"")

    def test_mm_vmas_decoded(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        mm = crit.decode_image("mm.img", images.files["mm.img"])
        names = {v["name"] for v in mm["vmas"]}
        assert ".text" in names and "stack:1" in names


class TestLazy:
    def test_lazy_dump_leaves_pages_behind(self, parked):
        _machine, _process, runtime = parked
        images, server = runtime.checkpoint_lazy()
        assert images.inventory().lazy
        full = dump_process(runtime.process, require_stopped=False)
        assert images.total_bytes() < full.total_bytes()
        assert server.remaining_pages() > 0

    def test_lazy_restore_faults_pages_in(self, parked,
                                          counter_reference_output):
        machine, process, runtime = parked
        before = process.stdout()
        images, server = runtime.checkpoint_lazy()
        runtime.kill_source()
        restored = restore_process_lazy(machine, images, server)
        machine.run_process(restored)
        assert before + restored.stdout() == counter_reference_output
        assert server.requests > 0
        assert server.pages_served > 0
        assert server.log

    @pytest.mark.parametrize("on_chunks", [False, True],
                             ids=["copies", "chunks"])
    def test_tampered_page_is_refused_not_installed(self, parked,
                                                    on_chunks):
        """Every fetched page is checked against the manifest the
        restore took: a page changed at the source after the dump raises
        on first touch and never reaches the address space."""
        machine, _process, runtime = parked
        images, server = runtime.checkpoint_lazy()
        runtime.kill_source()
        chunks = ChunkStore()
        if on_chunks:
            server.move_to(chunks)
        uses = Counter(server.manifest.values())
        victim, digest = next(
            (vaddr, digest) for vaddr, digest in sorted(
                server.manifest.items()) if uses[digest] == 1)
        bad = bytearray(server.source.get(digest))
        bad[100] ^= 0x40
        if on_chunks:
            chunks.reinstall(digest, bytes(bad))
        else:
            server.source[digest] = bytes(bad)
        restored = restore_process_lazy(machine, images, server)
        with pytest.raises(LazyPageError) as err:
            restored.aspace.read(victim, 8)
        message = str(err.value)
        for part in (f"{victim:#x}", server.node_name, digest,
                     page_digest(bytes(bad))):
            assert part in message
        assert victim not in restored.aspace._pages

    def test_stack_pages_dumped_eagerly(self, parked):
        _machine, process, runtime = parked
        images, _server = runtime.checkpoint_lazy()
        dumped = set(images.pagemap().page_addresses())
        stack_vma = process.aspace.vma_by_name("stack:1")
        fp_page = page_align_down(process.threads[1].fp)
        assert stack_vma.start <= fp_page < stack_vma.end
        assert fp_page in dumped
