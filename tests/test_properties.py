"""Property-based tests (hypothesis) on core data structures/invariants."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.binfmt.delf import DelfBinary
from repro.compiler import compile_source
from repro.core.policies.stack_shuffle import shuffle_binary
from repro.core.rewriter import ImageMemory
from repro.criu.images import ImageSet, PagemapEntry, PagemapImage
from repro.isa import ARM_ISA, X86_ISA, Instruction
from repro.mem import page_digest
from repro.mem.paging import PAGE_SIZE
from repro.testing import generate_program


# -- ImageMemory: arbitrary write/read sequences over sparse pages -------------

def _empty_image_set():
    images = ImageSet()
    images.set_pagemap(PagemapImage([]))
    images.set_pages(b"")
    return images


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=0x40000),
                          st.binary(min_size=1, max_size=64)),
                min_size=1, max_size=20))
def test_image_memory_write_read_property(writes):
    memory = ImageMemory(_empty_image_set())
    # Last write to an address wins; verify via a shadow model.
    shadow = {}
    for addr, data in writes:
        memory.write(addr, data)
        for i, byte in enumerate(data):
            shadow[addr + i] = byte
    for addr, byte in list(shadow.items())[:200]:
        assert memory.read(addr, 1)[0] == byte


@given(st.sets(st.integers(min_value=0, max_value=200), max_size=24))
def test_pagemap_runlength_roundtrip_property(page_numbers):
    """flush() run-length-encodes pages; reloading must see the same set."""
    images = _empty_image_set()
    memory = ImageMemory(images)
    for number in page_numbers:
        memory.add_page(number * PAGE_SIZE,
                        bytes([number % 256]) * PAGE_SIZE)
    memory.flush()
    reloaded = ImageMemory(images)
    assert set(reloaded.page_bases()) == \
        {n * PAGE_SIZE for n in page_numbers}
    for number in page_numbers:
        assert reloaded.read(number * PAGE_SIZE, 1)[0] == number % 256
    # pagemap entries are maximal runs: consecutive entries never abut.
    entries = images.pagemap().entries
    for first, second in zip(entries, entries[1:]):
        assert first.vaddr + first.nr_pages * PAGE_SIZE < second.vaddr


class EagerImageMemory:
    """The reference ``ImageMemory`` flushes must equal byte for byte:
    every dumped page copied into a ``bytearray`` up front (the
    implementation before copy-on-write), page ops as plain dict ops."""

    def __init__(self, images):
        self.pages = {}
        blob = images.pages()
        offset = 0
        for entry in images.pagemap().entries:
            for i in range(entry.nr_pages):
                self.pages[entry.vaddr + i * PAGE_SIZE] = bytearray(
                    blob[offset:offset + PAGE_SIZE])
                offset += PAGE_SIZE

    def write(self, addr, data):
        for i, byte in enumerate(data):
            base = (addr + i) & ~(PAGE_SIZE - 1)
            self.pages.setdefault(base, bytearray(PAGE_SIZE))[
                addr + i - base] = byte

    def read(self, addr, length):
        return bytes(self.pages.get((addr + i) & ~(PAGE_SIZE - 1),
                                    bytes(PAGE_SIZE))[(addr + i) % PAGE_SIZE]
                     for i in range(length))

    def flush(self):
        """``(pagemap runs, pages blob)`` in canonical form."""
        runs, blob = [], bytearray()
        for base in sorted(self.pages):
            blob += self.pages[base]
            if runs and base == runs[-1][0] + runs[-1][1] * PAGE_SIZE:
                runs[-1][1] += 1
            else:
                runs.append([base, 1])
        return [tuple(run) for run in runs], bytes(blob)


_PAGE_NO = st.integers(min_value=0, max_value=11)
_IMAGE_MEMORY_OPS = st.one_of(
    st.tuples(st.just("write"),
              st.integers(min_value=0, max_value=12 * PAGE_SIZE - 1),
              st.binary(min_size=1, max_size=48)),
    st.tuples(st.just("write"),                      # straddles a boundary
              _PAGE_NO.map(lambda n: (n + 1) * PAGE_SIZE - 3),
              st.binary(min_size=4, max_size=16)),
    st.tuples(st.just("add"), _PAGE_NO, st.integers(0, 255)),
    st.tuples(st.just("drop"), _PAGE_NO),
    st.tuples(st.just("page"), _PAGE_NO, st.integers(0, PAGE_SIZE - 1),
              st.integers(0, 255)),
    st.tuples(st.just("read"),
              st.integers(min_value=0, max_value=12 * PAGE_SIZE - 1),
              st.integers(min_value=1, max_value=40)),
    st.tuples(st.just("flush")))


@given(st.sets(_PAGE_NO, max_size=8), st.lists(_IMAGE_MEMORY_OPS,
                                               max_size=24))
@settings(deadline=None)
def test_image_memory_matches_eager_reference(initial, ops):
    """Any sequence of write / add_page / drop_page / page() / read —
    with flushes in between — leaves the copy-on-write ``ImageMemory``
    byte-identical to the eager reference, and every digest ``flush``
    carried over for an untouched page is the digest of its bytes."""
    images = _empty_image_set()
    seed = ImageMemory(images)
    for number in initial:
        seed.add_page(number * PAGE_SIZE, bytes([number + 1]) * PAGE_SIZE)
    seed.flush()
    images.page_digests()                # every leaf known: all can carry
    memory = ImageMemory(images)
    reference = EagerImageMemory(images)
    for op in ops + [("flush",)]:
        if op[0] == "write":
            memory.write(op[1], op[2])
            reference.write(op[1], op[2])
        elif op[0] == "add":
            data = bytes([op[2]]) * PAGE_SIZE
            memory.add_page(op[1] * PAGE_SIZE, data)
            reference.pages[op[1] * PAGE_SIZE] = bytearray(data)
        elif op[0] == "drop":
            memory.drop_page(op[1] * PAGE_SIZE)
            reference.pages.pop(op[1] * PAGE_SIZE, None)
        elif op[0] == "page":
            base = op[1] * PAGE_SIZE
            assert memory.has_page(base) == (base in reference.pages)
            if base in reference.pages:
                memory.page(base)[op[2]] = op[3]     # a handed-out page
                reference.pages[base][op[2]] = op[3]     # is writable
        elif op[0] == "read":
            assert memory.read(op[1], op[2]) == reference.read(op[1], op[2])
        else:
            memory.flush()
            runs, blob = reference.flush()
            assert images.pages() == blob
            assert [(e.vaddr, e.nr_pages, e.flags)
                    for e in images.pagemap().entries] == \
                [(vaddr, count, 0) for vaddr, count in runs]
            leaves = images.page_leaves()
            for vaddr, digest in leaves.digests.items():
                assert digest == page_digest(leaves.page(vaddr))
        assert memory.page_bases() == sorted(reference.pages)


# -- the verifier's layout index: bisection == scanning every VMA -----------------

_SPAN = st.tuples(st.integers(0, 40), st.integers(1, 6))


@given(st.lists(_SPAN, max_size=8), st.lists(_SPAN, min_size=1, max_size=6))
def test_layout_bisection_matches_vma_scan(vma_spans, run_spans):
    """``_Layout`` answers exactly what ``any(v.start <= a < v.end)``
    over the raw (possibly overlapping, unsorted) VMA list answers, page
    by page and run by run, in address order."""
    from repro.mem.vma import Vma
    from repro.verify.verifier import _Layout
    vmas = [Vma(start * PAGE_SIZE, (start + pages) * PAGE_SIZE, 3)
            for start, pages in vma_spans]
    layout = _Layout(vmas)

    def scan(addr):
        return any(v.start <= addr < v.end for v in vmas)

    for start, pages in run_spans:
        lo, hi = start * PAGE_SIZE, (start + pages) * PAGE_SIZE
        assert list(layout.uncovered(lo, hi)) == \
            [base for base in range(lo, hi, PAGE_SIZE) if not scan(base)]
        for base in range(lo - PAGE_SIZE, hi + PAGE_SIZE, PAGE_SIZE):
            assert (base in layout) == scan(base)
            assert (base + 17 in layout) == scan(base + 17)


# -- encode/decode totality over both ISAs ---------------------------------------

@given(st.binary(min_size=0, max_size=64))
def test_disassembler_total_on_garbage(blob):
    """Linear sweep must terminate and cover every byte on any input."""
    for isa in (X86_ISA, ARM_ISA):
        instrs = isa.disassemble(blob, 0)
        assert sum(i.size for i in instrs) >= len(blob) - 16
        offset = 0
        for instr in instrs:
            assert instr.addr == offset
            offset += instr.size


@given(st.integers(min_value=0, max_value=15),
       st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1))
def test_x86_load_store_roundtrip_property(reg, offset):
    for op in ("load", "store", "lea"):
        instr = Instruction(op, rd=reg, rn=6, imm=offset)
        instr.addr = 0
        decoded = X86_ISA.decode(X86_ISA.encode(instr), 0, 0)
        assert (decoded.op, decoded.rd, decoded.rn, decoded.imm) == \
            (op, reg, 6, offset)


# -- shuffle invariants over generated programs ------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
def test_shuffle_preserves_structure(seed, arch):
    program = compile_source(generate_program(seed + 300), f"prop{seed}")
    original = program.binary(arch)
    shuffled, _stats = shuffle_binary(original, seed=seed * 13 + 1)
    # 1. code length and symbol addresses identical
    assert len(shuffled.text) == len(original.text)
    for symbol in original.symtab:
        assert shuffled.symtab.lookup(symbol.name).addr == symbol.addr
    # 2. per-function: same slot-id set, same offset multiset, same size
    for record in original.frames.frames:
        peer = shuffled.frames.get(record.func)
        assert peer.frame_size == record.frame_size
        assert {s.slot_id for s in peer.slots} == \
            {s.slot_id for s in record.slots}
        assert sorted(s.offset for s in peer.slots) == \
            sorted(s.offset for s in record.slots)
        # 3. pair-excluded slots never move
        for slot in record.slots:
            if slot.pair_member:
                assert peer.slot_by_id(slot.slot_id).offset == slot.offset
    # 4. eqpoint addresses unchanged (only locations move)
    for point in original.stackmaps.eqpoints:
        peer = shuffled.stackmaps.by_id[point.eqpoint_id]
        assert peer.addr == point.addr
        assert peer.trap_addr == point.trap_addr
    # 5. serialization round-trips
    rebuilt = DelfBinary.from_bytes(shuffled.to_bytes())
    assert rebuilt.text == shuffled.text


@pytest.mark.parametrize("seed", range(4))
def test_double_shuffle_composes(seed):
    """Shuffling a shuffled binary must still be valid and runnable."""
    from repro.core.migration import exe_path_for, install_program
    from repro.vm import Machine

    program = compile_source(generate_program(seed + 700), f"dbl{seed}")
    once, _ = shuffle_binary(program.binary("x86_64"), seed=1)
    twice, _ = shuffle_binary(once, seed=2)
    machine = Machine(X86_ISA)
    machine.tmpfs.write("/bin/t", twice.to_bytes())
    process = machine.spawn_process("/bin/t")
    machine.run_process(process, max_steps=3_000_000)
    assert process.exit_code == 0

    reference = Machine(X86_ISA)
    install_program(reference, program)
    ref_proc = reference.spawn_process(exe_path_for(f"dbl{seed}", "x86_64"))
    reference.run_process(ref_proc, max_steps=3_000_000)
    assert process.stdout() == ref_proc.stdout()


# -- wire format fuzz (beyond the unit tests) -----------------------------------------

@given(st.binary(max_size=128))
@settings(suppress_health_check=[HealthCheck.filter_too_much])
def test_image_decoders_never_crash_on_garbage(blob):
    from repro.criu import crit
    from repro.errors import ReproError
    for name in ("inventory.img", "core-1.img", "mm.img", "files.img",
                 "pagemap.img"):
        try:
            crit.decode_image(name, blob)
        except ReproError:
            pass    # clean rejection
        except (KeyError, UnicodeDecodeError):
            pass    # decoded shape missing required fields — acceptable
