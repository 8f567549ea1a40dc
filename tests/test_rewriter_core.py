"""Tests for ImageMemory, unwinding, register mapping and TLS adjustment."""

import pytest
from hypothesis import given, strategies as st

from repro.core.migration import exe_path_for, install_program
from repro.core.policies.cross_isa import CrossIsaPolicy
from repro.core.rewriter import ImageMemory, ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.core.stack_rewrite import unwind, unwind_thread
from repro.core.tlsmod import tls_block_address, translate_tls_base
from repro.criu.images import ImageSet
from repro.debug import DebugSession, SourceMap
from repro.debug.session import ThreadRef
from repro.errors import RewriteError
from repro.isa import ARM_ISA, X86_ISA
from repro.mem.paging import PAGE_SIZE
from repro.verify import verify_images
from repro.vm import Machine

from conftest import COUNTER_SOURCE, THREADED_SOURCE


@pytest.fixture
def checkpoint(counter_program):
    machine = Machine(X86_ISA)
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    return runtime.checkpoint()


class TestImageMemory:
    def test_read_write_words(self, checkpoint):
        memory = ImageMemory(checkpoint)
        base = memory.page_bases()[0]
        memory.write_u64(base + 8, 0xABCDEF0102030405)
        assert memory.read_u64(base + 8) == 0xABCDEF0102030405
        memory.write_i64(base + 16, -7)
        assert memory.read_i64(base + 16) == -7

    def test_write_materializes_missing_page(self, checkpoint):
        memory = ImageMemory(checkpoint)
        fresh = 0x7000000
        assert not memory.has_page(fresh)
        memory.write_u64(fresh + 24, 99)
        assert memory.has_page(fresh)
        assert memory.read_u64(fresh + 24) == 99

    def test_read_missing_page_is_zero(self, checkpoint):
        memory = ImageMemory(checkpoint)
        assert memory.read(0x7100000, 16) == bytes(16)

    def test_add_drop_page(self, checkpoint):
        memory = ImageMemory(checkpoint)
        memory.add_page(0x7200000, b"\xAA" * PAGE_SIZE)
        assert memory.read(0x7200000, 2) == b"\xAA\xAA"
        memory.drop_page(0x7200000)
        assert not memory.has_page(0x7200000)
        with pytest.raises(RewriteError):
            memory.add_page(0x7200000, b"short")

    def test_flush_roundtrips_through_images(self, checkpoint):
        memory = ImageMemory(checkpoint)
        base = memory.page_bases()[0]
        memory.write_u64(base, 0x1122334455667788)
        memory.flush()
        memory2 = ImageMemory(checkpoint)
        assert memory2.read_u64(base) == 0x1122334455667788

    def test_cross_page_write(self, checkpoint):
        memory = ImageMemory(checkpoint)
        base = memory.page_bases()[0]
        data = bytes(range(256))
        memory.write(base + PAGE_SIZE - 100, data)
        assert memory.read(base + PAGE_SIZE - 100, 256) == data

    def test_rewriter_requires_policy(self, checkpoint):
        with pytest.raises(RewriteError):
            ProcessRewriter().rewrite(checkpoint)


@pytest.fixture(scope="module")
def dumped_files(counter_program):
    """The files of one real dump, for tests that build many sets."""
    machine = Machine(X86_ISA)
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    return dict(runtime.checkpoint().files)


#: (is a write, page choice, offset in page, length, fill seed); the
#: offsets crowd the page end so that many accesses straddle pages
accesses = st.lists(st.tuples(
    st.booleans(), st.integers(0, 7),
    st.one_of(st.integers(0, PAGE_SIZE - 1),
              st.integers(PAGE_SIZE - 24, PAGE_SIZE - 1)),
    st.one_of(st.integers(0, 16), st.integers(0, 2 * PAGE_SIZE + 8)),
    st.integers(0, 255)), max_size=24)


class TestInPageFastPath:
    """``read``/``write`` slice a range inside one page straight from
    its page; the page-by-page loops (``_read_span``/``_write_span``)
    are the reference. Same bytes, same pages, same flushed image."""

    @given(ops=accesses)
    def test_fast_path_matches_the_page_loop(self, dumped_files, ops):
        fast_set, slow_set = (ImageSet(dict(dumped_files)),
                              ImageSet(dict(dumped_files)))
        fast, slow = ImageMemory(fast_set), ImageMemory(slow_set)
        dumped = fast.page_bases()
        # dumped pages, the absent pages around them, and one far off
        bases = sorted({dumped[0], dumped[-1], dumped[0] - PAGE_SIZE,
                        dumped[-1] + PAGE_SIZE, dumped[len(dumped) // 2],
                        dumped[len(dumped) // 2] + PAGE_SIZE,
                        0x7300000, 0x7301000})
        for is_write, page, offset, length, fill in ops:
            addr = bases[page] + offset
            if is_write:
                data = bytes((fill + i) & 0xFF for i in range(length))
                fast.write(addr, data)
                slow._write_span(addr, data)
            else:
                assert fast.read(addr, length) == \
                    slow._read_span(addr, length)
            assert fast.page_bases() == slow.page_bases()
            assert fast._pages.keys() == slow._pages.keys()
        for base in fast.page_bases():
            assert fast.read(base, PAGE_SIZE) == \
                slow._read_span(base, PAGE_SIZE)
        fast.flush()
        slow.flush()
        assert fast_set.files == slow_set.files

    def test_in_page_reads_copy_nothing(self, checkpoint):
        memory = ImageMemory(checkpoint)
        base = memory.page_bases()[0]
        assert memory.read(base + PAGE_SIZE - 8, 8) == \
            checkpoint.page_at(base)[-8:]
        assert memory.read(0x7400000 + PAGE_SIZE - 8, 8) == bytes(8)
        assert memory._pages == {}
        memory.write(0x7400000 + 8, b"")
        assert not memory.has_page(0x7400000)
        memory.write(0x7400000 + PAGE_SIZE - 8, b"\x01" * 8)
        assert memory.read(0x7400000, PAGE_SIZE) == \
            bytes(PAGE_SIZE - 8) + b"\x01" * 8


class TestUnwinding:
    def test_unwind_reaches_start(self, checkpoint, counter_program):
        memory = ImageMemory(checkpoint)
        core = checkpoint.cores()[0]
        unwound = unwind_thread(memory, core,
                                counter_program.binary("x86_64"))
        funcs = [f.func for f in unwound.frames]
        # Innermost is whatever parked; outermost must be _start.
        assert funcs[-1] == "_start"
        assert unwound.frames[-1].saved_fp == 0

    def test_innermost_is_entry_eqpoint(self, checkpoint, counter_program):
        memory = ImageMemory(checkpoint)
        core = checkpoint.cores()[0]
        unwound = unwind_thread(memory, core,
                                counter_program.binary("x86_64"))
        assert unwound.frames[0].eqpoint.kind == "entry"
        for frame in unwound.frames[1:]:
            assert frame.eqpoint.kind == "callsite"

    def test_live_values_read(self, checkpoint, counter_program):
        memory = ImageMemory(checkpoint)
        core = checkpoint.cores()[0]
        unwound = unwind_thread(memory, core,
                                counter_program.binary("x86_64"))
        for frame in unwound.frames:
            assert set(frame.values) == \
                {lv.value_id for lv in frame.eqpoint.live}

    def test_bad_pc_rejected(self, checkpoint, counter_program):
        memory = ImageMemory(checkpoint)
        core = checkpoint.cores()[0]
        core.pc = 0x400001   # not an eqpoint
        with pytest.raises(RewriteError):
            unwind_thread(memory, core, counter_program.binary("x86_64"))

    @pytest.mark.parametrize("corrupt", [
        "fp-zero", "fp-unmapped", "fp-minus-64", "saved-fp-flipped"])
    def test_garbage_frame_pointer_rejected(self, checkpoint,
                                            counter_program, corrupt):
        """Unmapped stack reads as zeros, so a garbage fp used to end
        the chain at the innermost frame and pass for a whole stack.
        The link and outermost-frame rules reject every such walk."""
        binary = counter_program.binary("x86_64")
        core = checkpoint.cores()[0]
        frames = unwind_thread(ImageMemory(checkpoint), core, binary).frames
        assert len(frames) == 3
        fp_reg = X86_ISA.dwarf_of(X86_ISA.abi.frame_pointer)
        if corrupt == "saved-fp-flipped":
            memory = ImageMemory(checkpoint)
            memory.write_u64(frames[1].fp, frames[1].saved_fp ^ 0x10)
            memory.flush()
        else:
            core.regs[fp_reg] = {"fp-zero": 0,
                                 "fp-unmapped": 0xdeadbeef000,
                                 "fp-minus-64": frames[0].fp - 64}[corrupt]
            checkpoint.set_core(core)
        with pytest.raises(RewriteError):
            unwind_thread(ImageMemory(checkpoint), checkpoint.cores()[0],
                          binary)
        report = verify_images(checkpoint, binary=binary,
                               raise_on_fail=False)
        assert "stack-walk" in {f.code for f in report.findings}
        assert not report.ok


def _parked(program, isa, steps=2000):
    machine = Machine(isa)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, isa.name))
    machine.step_all(steps)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    return machine, process, runtime


class TestOneWalker:
    """The debugger's tolerant walk over a live address space and the
    rewriter's strict walk over the dump see the same stack."""

    @pytest.fixture(params=["counter", "threaded"])
    def program(self, request, counter_program, threaded_program):
        return {"counter": (counter_program, COUNTER_SOURCE),
                "threaded": (threaded_program, THREADED_SOURCE)}[
            request.param]

    @pytest.mark.parametrize("isa", [X86_ISA, ARM_ISA], ids=["x86", "arm"])
    def test_walks_and_decodes_agree(self, program, isa):
        program, source = program
        machine, process, runtime = _parked(program, isa)
        binary = program.binary(isa.name)
        images = runtime.checkpoint()
        memory = ImageMemory(images)
        # a session over this live world: frame_variables reads only
        # the machines and the source map
        session = DebugSession.__new__(DebugSession)
        session.machines, session.source_map = [machine], SourceMap(source)
        exit_stub = binary.symtab.address_of("__thread_exit")
        cores = images.cores()
        assert len(cores) == len(process.live_threads())
        for core in cores:
            strict = unwind_thread(memory, core, binary).frames
            thread = process.threads[core.tid]
            tolerant = unwind(process.aspace, binary, thread.pc, thread.fp,
                              strict=False)
            shape = [(f.func, f.fp, f.ret_addr) for f in strict]
            assert [(f.func, f.fp, f.ret_addr)
                    for f in tolerant[:len(strict)]] == shape
            # past a spawned thread's entry the debugger also shows the
            # exit stub it returns into
            tail = [(f.func, f.pc, f.fp) for f in tolerant[len(strict):]]
            assert tail in ([], [("__thread_exit", exit_stub, 0)])
            assert tolerant[0].eqpoint is strict[0].eqpoint
            ref = ThreadRef(0, process.pid, core.tid, isa.name, "trapped")
            shown = {v.name: v.value
                     for v in session.frame_variables(ref, 0)}
            decoded = {live.name: int.from_bytes(
                strict[0].values[live.value_id], "little", signed=True)
                for live in strict[0].eqpoint.live}
            assert shown == decoded


class TestRegisterMapping:
    """Paper Fig. 4 on the real rewrite path: the thread parked at
    ``work``'s entry carries parameter ``i`` in rdi (DWARF 5) on x86-64,
    and the rewritten aarch64 core carries it in x0 (DWARF 0)."""

    @pytest.fixture
    def parked(self, counter_program, checkpoint):
        """(x86 core, x86 eqpoint, aarch64 core, aarch64 eqpoint)."""
        src_core = checkpoint.cores()[0]
        ProcessRewriter().rewrite(checkpoint, CrossIsaPolicy(
            counter_program.binary("x86_64"),
            counter_program.binary("aarch64"),
            exe_path_for("counter", "aarch64")))
        dst_core = checkpoint.cores()[0]
        return (src_core,
                counter_program.binary("x86_64").stackmaps.by_addr[
                    src_core.pc],
                dst_core,
                counter_program.binary("aarch64").stackmaps.by_addr[
                    dst_core.pc])

    def test_fig4_style_mapping(self, parked):
        _src_core, src_point, dst_core, dst_point = parked
        assert dst_core.arch == "aarch64"
        for point in (src_point, dst_point):
            assert (point.func, point.kind) == ("work", "entry")
        src_i, dst_i = ([lv for lv in point.live if lv.name == "i"][0]
                        for point in (src_point, dst_point))
        assert src_i.value_id == dst_i.value_id
        assert src_i.dwarf_reg == 5      # rdi
        assert dst_i.dwarf_reg == 0      # x0

    def test_translate_concrete_values(self, parked):
        src_core, _src_point, dst_core, _dst_point = parked
        # The rewriter zero-fills every register it does not translate.
        assert src_core.regs[5] != 0
        assert dst_core.regs[0] == src_core.regs[5]


class TestTlsTranslation:
    def test_block_address_invariant(self):
        # The TLS block must stay at the same virtual address after the
        # thread-pointer adjustment (paper §III-C).
        tp_src = 0x20000000
        block = tls_block_address(tp_src, "x86_64")
        tp_dst = translate_tls_base(tp_src, "x86_64", "aarch64")
        assert tls_block_address(tp_dst, "aarch64") == block

    def test_roundtrip_identity(self):
        tp = 0x20000000
        there = translate_tls_base(tp, "x86_64", "aarch64")
        back = translate_tls_base(there, "aarch64", "x86_64")
        assert back == tp

    def test_same_arch_is_identity(self):
        assert translate_tls_base(0x1234000, "x86_64", "x86_64") == 0x1234000

    def test_offsets_actually_differ(self):
        assert X86_ISA.abi.tls_block_offset != ARM_ISA.abi.tls_block_offset
