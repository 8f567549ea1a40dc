"""Flight recorder: journal format, record/replay bit-identity, fault
pinpointing, seek, and the repro-replay CLI."""

from __future__ import annotations

import gc
import hashlib
import weakref

import pytest

from repro import sysabi
from repro.apps.registry import all_apps, get_app
from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.core.runtime import DapperRuntime
from repro.criu.lazy import restore_process_lazy
from repro.errors import JournalError
from repro.isa import X86_ISA, get_isa
from repro.mem import PAGE_SIZE, Prot, Vma
from repro.replay import (BitFlip, FlightRecorder, Journal, ReplayObserver,
                          Replayer, ReplaySession, bisect_digest_streams,
                          pinpoint_by_reexecution, pinpoint_divergence,
                          record_migrate, record_rerandomize, record_run)
from repro.replay import digest as digest_mod
from repro.replay import journal as jn
from repro.replay.digest import DigestState, capture_state, machine_digest
from repro.tools import replay as replay_cli
from repro.vm import Machine, chains
from repro.vm.ptrace import Tracer

LOOP_SOURCE = """
global int acc;
func bump(int i) -> int {
    acc = acc + i;
    return acc;
}
func main() -> int {
    int i;
    i = 0;
    while (i < 400) { bump(i); i = i + 1; }
    print(acc);
    return 0;
}
"""

SENTINEL_SOURCE = """
global int sentinel;
global int acc;
func main() -> int {
    int i;
    sentinel = 12345;
    i = 0;
    while (i < 800) { acc = acc + i; i = i + 1; }
    print(sentinel);
    print(acc);
    return 0;
}
"""


@pytest.fixture(scope="module")
def loop_recording():
    return record_run(LOOP_SOURCE, "loop")


class TestJournalFormat:
    def test_roundtrip(self, loop_recording):
        journal = loop_recording.journal
        blob = journal.to_bytes()
        back = Journal.from_bytes(blob)
        assert back.header == journal.header
        assert back.events == journal.events
        assert back.to_bytes() == blob

    def test_bad_magic_rejected(self):
        with pytest.raises(JournalError):
            Journal.from_bytes(b"NOTAJRNL" + b"\x00" * 16)

    def test_bad_version_rejected(self, loop_recording):
        blob = bytearray(loop_recording.journal.to_bytes())
        blob[len(jn.MAGIC)] = 99
        with pytest.raises(JournalError):
            Journal.from_bytes(bytes(blob))

    def test_truncation_rejected(self, loop_recording):
        blob = loop_recording.journal.to_bytes()
        with pytest.raises(JournalError):
            Journal.from_bytes(blob[:len(blob) // 2])

    def test_save_load(self, loop_recording, tmp_path):
        path = str(tmp_path / "loop.jrn")
        loop_recording.journal.save(path)
        assert Journal.load(path).digest_stream() \
            == loop_recording.journal.digest_stream()

    def test_streams_and_summary(self, loop_recording):
        journal = loop_recording.journal
        assert journal.exit_code() == 0
        assert journal.instructions() == loop_recording.recorder.instructions
        summary = journal.summary()
        assert summary["sched"] > 0
        assert summary["digest"] == summary["sched"] + 1  # + final digest
        assert summary["end"] == 1


class TestRecordReplay:
    def test_same_engine_bit_identical(self, loop_recording):
        replayed = Replayer(loop_recording.journal).run()
        assert replayed.journal.digest_stream() \
            == loop_recording.journal.digest_stream()
        assert replayed.journal.sched_stream() \
            == loop_recording.journal.sched_stream()
        assert replayed.exit_code == loop_recording.exit_code

    def test_cross_engine_bit_identical(self, loop_recording):
        replayed = Replayer(loop_recording.journal, engine="interp").run()
        assert replayed.journal.digest_stream() \
            == loop_recording.journal.digest_stream()

    def test_cross_tier_matrix_bit_identical(self, loop_recording):
        """All three execution tiers are interchangeable under the
        flight recorder: a journal recorded under any one of them
        replays bit-identically under every other."""
        chain_rec = record_run(LOOP_SOURCE, "loop", engine="chains")
        assert chain_rec.journal.digest_stream() \
            == loop_recording.journal.digest_stream()
        for engine in ("interp", "blocks", "chains"):
            replayed = Replayer(chain_rec.journal, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == chain_rec.journal.digest_stream()
            assert replayed.journal.sched_stream() \
                == chain_rec.journal.sched_stream()

    def test_unknown_engine_rejected(self, loop_recording):
        with pytest.raises(JournalError):
            Replayer(loop_recording.journal, engine="turbo")

    def test_clean_run_pinpoints_nothing(self, loop_recording):
        assert pinpoint_by_reexecution(loop_recording.journal,
                                       engine="interp") is None

    @pytest.mark.parametrize("app_name", ["dhrystone", "kmeans"])
    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    def test_benchmarks_both_isas(self, app_name, arch):
        source = get_app(app_name).source("small")
        recorded = record_run(source, app_name, arch=arch, digest_every=8)
        assert recorded.exit_code == 0
        replayed = Replayer(recorded.journal, engine="interp").run()
        assert replayed.journal.digest_stream() \
            == recorded.journal.digest_stream()

    def test_migration_replays_across_isa_boundary(self):
        recorded = record_migrate(LOOP_SOURCE, "loop", src_arch="x86_64",
                                  dst_arch="aarch64", warmup=3000)
        assert recorded.exit_code == 0
        assert recorded.journal.of_kind(jn.EV_MIGRATE)
        for engine in (None, "interp"):
            replayed = Replayer(recorded.journal, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == recorded.journal.digest_stream()

    def test_rerandomize_replays_with_identical_rng(self):
        recorded = record_rerandomize(LOOP_SOURCE, "loop", interval=2000,
                                      seed=7)
        assert recorded.exit_code == 0
        assert recorded.journal.rng_stream()  # draws were journaled
        replayed = Replayer(recorded.journal).run()
        assert replayed.journal.rng_stream() \
            == recorded.journal.rng_stream()
        assert replayed.journal.digest_stream() \
            == recorded.journal.digest_stream()

    def test_seek_stops_at_instruction(self, loop_recording):
        result = Replayer(loop_recording.journal).run(stop_at_instr=2000)
        assert result.stopped
        assert result.snapshot is not None
        (_, proc), = [(k, v) for k, v in result.snapshot.items()]
        assert proc["instr_total"] >= 2000
        assert not proc["exited"]

    def test_syscalls_journaled(self, loop_recording):
        stream = loop_recording.journal.syscall_stream()
        assert stream  # at least print + exit
        numbers = [entry[2] for entry in stream]
        assert len(numbers) == len(stream)


class TestBisect:
    def test_identical_streams(self):
        stream = [b"a", b"b", b"c"]
        assert bisect_digest_streams(stream, list(stream)) is None

    def test_prefix_is_not_divergence(self):
        assert bisect_digest_streams([b"a", b"b"], [b"a", b"b", b"c"]) is None
        assert bisect_digest_streams([], [b"a"]) is None

    def test_finds_first_difference(self):
        a = [b"a", b"b", b"c", b"d"]
        b = [b"a", b"x", b"y", b"z"]
        assert bisect_digest_streams(a, b) == 1

    def test_minimal_even_if_streams_reconverge(self):
        a = [b"a", b"b", b"c", b"d", b"e"]
        b = [b"a", b"X", b"c", b"Y", b"e"]
        assert bisect_digest_streams(a, b) == 1

    def test_difference_at_zero_and_end(self):
        assert bisect_digest_streams([b"x"], [b"y"]) == 0
        a = [bytes([i]) for i in range(100)]
        b = list(a)
        b[99] = b"zz"
        assert bisect_digest_streams(a, b) == 99


class TestFaultInjection:
    def test_pinpoints_exact_quantum_and_address(self):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        good = record_run(SENTINEL_SOURCE, "faulty")
        bad = record_run(SENTINEL_SOURCE, "faulty",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        report = pinpoint_divergence(good.journal, bad.journal)
        assert report is not None
        # digest_every=1: the digest right after the faulted slice
        # catches it, so the index is exactly the fault slice - 1
        # (digest #k follows slice k+1).
        assert report.digest_index == 40 - 1
        assert report.first_addr == addr
        assert report.mem_diffs[0][1] ^ report.mem_diffs[0][2] == 1 << 3
        assert not report.reg_diffs
        assert f"{addr:#x}" in report.format()

    def test_faulty_journal_reproduces_itself(self):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        bad = record_run(SENTINEL_SOURCE, "faulty",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        assert bad.journal.of_kind(jn.EV_FAULT)
        replayed = Replayer(bad.journal).run()
        assert replayed.journal.digest_stream() \
            == bad.journal.digest_stream()

    def test_faulty_journal_replays_on_every_tier(self):
        """A bit-flip mid-run perturbs control flow (different branch
        outcomes, different park points); every tier must still follow
        the perturbed execution digest-for-digest."""
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        bad = record_run(SENTINEL_SOURCE, "faulty", engine="chains",
                         fault=BitFlip(at_slice=40, addr=addr, bit=3))
        for engine in ("interp", "blocks", "chains"):
            replayed = Replayer(bad.journal, engine=engine).run()
            assert replayed.journal.digest_stream() \
                == bad.journal.digest_stream()


class _FreshEverySlice(ReplayObserver):
    """After every slice, the digest the recorder's long-lived state
    just journaled must equal the same fold run on a fresh state."""

    def __init__(self):
        self.slices = 0
        self.mismatches = []

    def after_slice(self, recorder):
        self.slices += 1
        event = recorder.journal.events[-1]
        if event["kind"] != jn.EV_DIGEST \
                or event["payload"] != machine_digest(recorder.machines):
            self.mismatches.append(recorder.slices)


def _checked_run(program, arch, engine, quantum, budget=None, fault=None):
    """Run ``program`` under a dense recorder with the differential
    observer attached; ``budget`` caps the run (None = to exit)."""
    machine = Machine(get_isa(arch), quantum=quantum,
                      block_engine=engine != "interp",
                      chain_engine=engine == "chains")
    checker = _FreshEverySlice()
    recorder = FlightRecorder(observer=checker, fault=fault).attach(machine)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    if budget is None:
        machine.run_process(process)
    else:
        machine.step_all(budget)
    recorder.finalize(process.exit_code)
    return checker, recorder


@pytest.mark.usefixtures("early_chains")
class TestDigestMemoDifferential:
    """The one correctness claim of the memoised fold: a long-lived
    ``DigestState`` and a fresh one give the same bytes — checked after
    *every* slice, on every tier (the tier-2/3 site caches write page
    stores directly, so no write path may slip past the validity
    tests), at an aligned and a ragged quantum."""

    # quantum 64 runs to exit; quantum 7 (slices cut mid-block, ~9x as
    # many) runs a 12k-instruction prefix to keep the suite affordable
    @pytest.mark.parametrize("quantum,budget", [(64, None), (7, 12_000)])
    @pytest.mark.parametrize("engine", ["interp", "blocks", "chains"])
    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    @pytest.mark.parametrize("app_name", [a.name for a in all_apps()])
    def test_long_lived_state_equals_fresh_state(self, app_name, arch,
                                                 engine, quantum, budget):
        program = get_app(app_name).compile("small")
        bound = chains.chain_cache_info()["bound"]
        checker, recorder = _checked_run(program, arch, engine, quantum,
                                         budget)
        assert checker.slices == recorder.slices > 100
        assert checker.mismatches == []
        if engine == "chains":            # three tiers proven, not two
            assert chains.chain_cache_info()["bound"] > bound

    @pytest.mark.parametrize("engine", ["interp", "blocks", "chains"])
    def test_holds_across_an_injected_bit_flip(self, engine):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        fault = BitFlip(at_slice=40, addr=addr, bit=3)
        checker, recorder = _checked_run(program, "x86_64", engine, 64,
                                         fault=fault)
        assert fault.fired and recorder.journal.of_kind(jn.EV_FAULT)
        assert checker.mismatches == []

    def test_holds_across_a_lazy_migration(self):
        """Post-copy page-ins land between digests on the destination;
        both machines are folded by one state."""
        checker = _FreshEverySlice()
        recorded = record_migrate(LOOP_SOURCE, "loop", warmup=3000,
                                  lazy=True)
        Replayer(recorded.journal).run(observer=checker)
        assert checker.slices == recorded.recorder.slices
        assert checker.mismatches == []


@pytest.fixture
def running():
    """A mid-run process plus a long-lived digest state that has
    already digested it once (so every leaf is memoised)."""
    machine = Machine(X86_ISA)
    program = compile_source(SENTINEL_SOURCE, "memo")
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for("memo", "x86_64"))
    machine.step_all(3000)
    assert not process.exited
    state = DigestState()
    state.digest([machine])
    return machine, process, state


def _digest(state, machine):
    """Long-lived digest, checked against the fresh fold."""
    digest = state.digest([machine])
    assert digest == machine_digest([machine])
    return digest


class TestDigestLeaves:
    """Each way guest state can change behind the memo's back."""

    SCRATCH = 0x7000_0000

    def _untouched_base(self, process):
        base = process.aspace.vma_by_name("stack:1").start
        assert base not in dict(process.aspace.populated_pages())
        return base

    def test_bit_flip_changes_digest_k_and_not_k_minus_1(self):
        program = compile_source(SENTINEL_SOURCE, "faulty")
        addr = program.binary("x86_64").symtab.address_of("sentinel")
        good = record_run(SENTINEL_SOURCE, "faulty").journal.digest_stream()
        bad = record_run(
            SENTINEL_SOURCE, "faulty",
            fault=BitFlip(at_slice=40, addr=addr, bit=3)
        ).journal.digest_stream()
        # digest #k follows slice k+1: the flip after slice 40 is first
        # seen by digest 39
        assert bad[:39] == good[:39]
        assert bad[39] != good[39]

    def test_ptrace_poke_of_the_dapper_flag(self, running):
        machine, process, state = running
        before = _digest(state, machine)
        flag = process.binary.symtab.address_of(sysabi.DAPPER_FLAG_SYMBOL)
        tracer = Tracer(machine)
        tracer.attach_all(process)
        tracer.poke_data(flag, 1)
        poked = _digest(state, machine)
        assert poked != before
        tracer.poke_data(flag, 0)
        assert _digest(state, machine) == before

    def test_absent_zero_and_rezeroed_pages_digest_alike(self, running):
        machine, process, state = running
        aspace = process.aspace
        base = self._untouched_base(process)
        before = _digest(state, machine)
        aspace.page(base, create=True)              # materialized zeros
        assert _digest(state, machine) == before
        aspace.write_u64(base + 64, 0xFEED)
        written = _digest(state, machine)
        assert written != before
        aspace.write_u64(base + 64, 0)              # back to all zeros
        assert _digest(state, machine) == before
        aspace.write_u64(base + 64, 0xFEED)
        assert _digest(state, machine) == written

    def test_page_paged_in_as_zeros(self, running):
        machine, process, state = running
        base = self._untouched_base(process)
        before = _digest(state, machine)
        process.aspace.missing_page_hook = lambda _base: bytes(PAGE_SIZE)
        assert process.aspace.read_u64(base + 8) == 0
        assert base in dict(process.aspace.populated_pages())
        assert _digest(state, machine) == before

    def test_eager_and_lazy_restores_give_identical_streams(self):
        eager = record_migrate(LOOP_SOURCE, "loop", warmup=3000, lazy=False)
        lazy = record_migrate(LOOP_SOURCE, "loop", warmup=3000, lazy=True)
        assert lazy.journal.digest_stream() == eager.journal.digest_stream()

    def test_drop_page_then_repopulate_the_same_base(self, running):
        machine, process, state = running
        aspace = process.aspace
        base = self._untouched_base(process)
        before = _digest(state, machine)
        aspace.write_u64(base, 1)
        first = _digest(state, machine)
        aspace.drop_page(base)
        assert _digest(state, machine) == before
        # the dropped page's snapshot left the memo with it
        assert set(state._leaves[process].pages) \
            == set(dict(aspace.populated_pages()))
        aspace.write_u64(base, 2)
        second = _digest(state, machine)
        assert second not in (before, first)

    def test_unmap_then_map_and_repopulate(self, running):
        machine, process, state = running
        aspace = process.aspace
        before = _digest(state, machine)
        aspace.map(Vma(self.SCRATCH, self.SCRATCH + 2 * PAGE_SIZE, Prot.RW,
                       name="scratch"))
        aspace.write_u64(self.SCRATCH, 1)
        first = _digest(state, machine)
        aspace.unmap(self.SCRATCH, self.SCRATCH + 2 * PAGE_SIZE)
        assert _digest(state, machine) == before
        aspace.map(Vma(self.SCRATCH, self.SCRATCH + 2 * PAGE_SIZE, Prot.RW,
                       name="scratch"))
        aspace.write_u64(self.SCRATCH, 2)
        assert _digest(state, machine) not in (before, first)
        aspace.write_u64(self.SCRATCH, 1)
        assert _digest(state, machine) == first

    def test_install_page_replacing_the_store_object(self, running):
        machine, process, state = running
        aspace = process.aspace
        base, store = next(
            (b, s) for b, s in aspace.populated_pages() if any(s))
        before = _digest(state, machine)
        aspace.install_page(base, bytes(store))     # equal bytes, new object
        assert aspace.page(base) is not store
        assert _digest(state, machine) == before
        changed = bytearray(store)
        changed[100] ^= 0xFF
        aspace.install_page(base, bytes(changed))
        assert _digest(state, machine) != before
        aspace.install_page(base, bytes(store))
        assert _digest(state, machine) == before

    def test_map_and_grow_after_a_digest_reach_the_layout_leaf(self, running):
        machine, process, state = running
        aspace = process.aspace
        before = _digest(state, machine)
        version = aspace.layout_version
        vma = aspace.map(Vma(self.SCRATCH, self.SCRATCH + PAGE_SIZE,
                             Prot.RW, name="scratch"))
        assert aspace.layout_version > version
        mapped = _digest(state, machine)
        assert mapped != before
        aspace.grow_vma(vma, self.SCRATCH + 2 * PAGE_SIZE)
        assert _digest(state, machine) not in (before, mapped)

    def test_sbrk_growing_the_heap_in_place(self):
        """``sbrk`` extends the heap VMA in place once the break crosses
        a page; the layout leaf must not outlive that."""
        source = """
        func main() -> int {
            int i; int *p;
            i = 0;
            while (i < 40) { p = sbrk(1024); *p = i; i = i + 1; }
            print(i);
            return 0;
        }
        """
        program = compile_source(source, "brk")
        checker, recorder = _checked_run(program, "x86_64", "blocks", 64)
        assert checker.mismatches == []
        breaks = [e[4] for e in recorder.journal.syscall_stream()
                  if e[2] == sysabi.SYS_SBRK]
        assert len(breaks) == 40
        assert breaks[-1] - breaks[0] > 8 * PAGE_SIZE    # grew in place

    def test_output_leaf_follows_the_chunk_list(self, running):
        machine, process, state = running
        before = _digest(state, machine)
        process.output.append("x\n")
        appended = _digest(state, machine)
        assert appended != before
        process.output = list(process.output)       # same text, new list
        assert _digest(state, machine) == appended
        process.output = process.output[:-1]        # shorter, new list
        assert _digest(state, machine) == before

    def test_a_cloned_address_space_is_not_mistaken_for_the_old_one(
            self, running):
        machine, process, state = running
        clone = process.aspace.clone()
        while clone.layout_version != process.aspace.layout_version:
            clone.map(Vma(self.SCRATCH + clone.layout_version * PAGE_SIZE,
                          self.SCRATCH + (clone.layout_version + 1)
                          * PAGE_SIZE, Prot.RW))
        clone.map(Vma(self.SCRATCH - PAGE_SIZE, self.SCRATCH, Prot.RW))
        process.aspace.map(Vma(self.SCRATCH - 2 * PAGE_SIZE,
                               self.SCRATCH - PAGE_SIZE, Prot.RW))
        _digest(state, machine)
        assert clone.layout_version == process.aspace.layout_version
        process.aspace = clone
        _digest(state, machine)

    def test_capture_hands_out_the_memo_snapshots(self, running):
        machine, process, state = running
        _digest(state, machine)
        shared = state.capture([machine])
        assert shared == capture_state([machine])
        (_key, proc), = shared.items()
        memo = state._leaves[process].pages
        assert proc["pages"] and all(
            page is memo[base][0] for base, page in proc["pages"].items())
        # a write after the digest is still seen by the next capture
        base = next(iter(proc["pages"]))
        process.aspace.page(base)[7] ^= 0x55
        assert state.capture([machine]) == capture_state([machine])
        assert state.capture([machine]) != shared


class TestDigestCost:
    def test_page_hashes_are_a_fraction_of_page_visits(self, monkeypatch):
        """Deterministic guard on the memo's yield: over a dense
        kmeans-small recording at most 35 % of populated-page visits
        re-hash the page (measured: 25 %)."""
        hashed = []
        real = digest_mod._blake

        def counting(data=b""):
            if len(data) == PAGE_SIZE:
                hashed.append(1)
            return real(data)

        class Visits(ReplayObserver):
            pages = 0

            def after_slice(self, recorder):
                self.pages += sum(
                    len(list(p.aspace.populated_pages()))
                    for m in recorder.machines
                    for p in m.processes.values())

        monkeypatch.setattr(digest_mod, "_blake", counting)
        visits = Visits()
        machine = Machine(X86_ISA, chain_engine=False)
        recorder = FlightRecorder(observer=visits).attach(machine)
        program = get_app("kmeans").compile("small")
        install_program(machine, program)
        machine.run_process(
            machine.spawn_process(exe_path_for("kmeans", "x86_64")))
        assert recorder.digest_count > 2000
        assert 0 < len(hashed) <= 0.35 * visits.pages


class TestGoldenJournals:
    """``blake2b(journal.to_bytes())`` of dense recordings, written at
    the commit *before* the fold was memoised: digest values, event
    order and encoding are all unchanged."""

    GOLDEN = {
        ("kmeans", "x86_64"): "5cf8e6be3802f0cd57c30eea12c451de",
        ("kmeans", "aarch64"): "840e6ab1f6124c12dad429f20f43bae0",
        ("redis", "x86_64"): "a8357efe9870da29472c0482baa83005",
        ("redis", "aarch64"): "c135d6842f7dd1845d9121e214d42a49",
    }

    @pytest.mark.parametrize("app_name,arch", sorted(GOLDEN))
    def test_dense_recording_hash(self, app_name, arch):
        recorded = record_run(get_app(app_name).source("small"), app_name,
                              arch=arch)
        blob = recorded.journal.to_bytes()
        assert hashlib.blake2b(blob, digest_size=16).hexdigest() \
            == self.GOLDEN[(app_name, arch)]
        assert Replayer(recorded.journal).run().journal.to_bytes() == blob
        replayed = Replayer(recorded.journal, engine="interp").run()
        assert replayed.journal.events == recorded.journal.events

    def test_lazy_migration_recording_hash(self):
        recorded = record_migrate(get_app("kmeans").source("small"),
                                  "kmeans", lazy=True, warmup=3000)
        assert hashlib.blake2b(recorded.journal.to_bytes(),
                               digest_size=16).hexdigest() \
            == "c9850949f844f8ccb7d27d0b2bc9fbfe"


class TestRecorderLifetime:
    def test_killed_process_is_released_while_the_recorder_lives(self):
        machine = Machine(X86_ISA)
        recorder = FlightRecorder().attach(machine)
        program = compile_source(LOOP_SOURCE, "loop")
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("loop", "x86_64"))
        machine.step_all(2000)
        assert recorder.digest_count > 0 and not process.exited
        ref = weakref.ref(process)
        machine.kill(process)
        del process
        gc.collect()
        assert ref() is None
        assert recorder.journal.of_kind(jn.EV_EXIT)

    def test_finalize_frees_the_page_snapshots(self):
        recorded = record_run(LOOP_SOURCE, "loop")
        assert recorded.recorder.finalized
        assert not recorded.recorder.digest_state._leaves

    def test_session_state_matches_a_fresh_capture(self, loop_recording):
        with ReplaySession(loop_recording.journal) as session:
            assert session.run_until(2000)
            assert session.state() == capture_state(session.machines())
            assert session.run_until(5000)
            assert session.state() == capture_state(session.machines())


class TestBitFlipAddressSpace:
    """A flip goes through the address space like any first write."""

    def test_flip_on_an_unfetched_lazy_page_pages_it_in(self,
                                                        counter_program):
        machine = Machine(X86_ISA, name="src")
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.step_all(2500)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        # leave a non-zero global behind for the page server to own
        process.aspace.write_u64(
            counter_program.binary("x86_64").symtab.address_of("g"), 0x1234)
        images, server = runtime.checkpoint_lazy()
        runtime.kill_source()
        restored = restore_process_lazy(machine, images, server)
        base, original = next(
            (b, d) for b, d in sorted(server.pending_pages().items())
            if any(d))
        assert base not in dict(restored.aspace.populated_pages())
        flip = BitFlip(at_slice=0, addr=base + 9, bit=2)
        assert flip.fire([machine])
        expected = bytearray(original)
        expected[9] ^= 1 << 2
        assert restored.aspace.page(base) == expected
        assert base not in server.pending_pages()

    def test_flip_marks_the_page_dirty(self, running):
        machine, process, _state = running
        base = process.aspace.vma_by_name("stack:1").start
        process.start_dirty_tracking()
        assert BitFlip(at_slice=0, addr=base + 5, bit=7).fire([machine])
        assert process.aspace.read(base + 5, 1, check=False) == b"\x80"
        assert base in process.harvest_dirty_pages()

    def test_flip_skips_unmapped_addresses(self, running):
        machine, _process, _state = running
        assert not BitFlip(at_slice=0, addr=0x6000_0000).fire([machine])


class TestZeroOverheadOff:
    def test_machine_defaults_to_no_recorder(self):
        assert Machine(X86_ISA).recorder is None

    def test_attach_is_exclusive(self):
        machine = Machine(X86_ISA)
        FlightRecorder().attach(machine)
        with pytest.raises(Exception):
            FlightRecorder().attach(machine)


class TestReplayCli:
    @pytest.fixture(scope="class")
    def source_file(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("src") / "loop.dc"
        path.write_text(LOOP_SOURCE)
        return str(path)

    def test_record_replay_show_seek(self, source_file, tmp_path, capsys):
        journal = str(tmp_path / "loop.jrn")
        assert replay_cli.main(["record", source_file, "-o", journal]) == 0
        assert replay_cli.main(["replay", journal,
                                "--engine", "interp"]) == 0
        assert replay_cli.main(["show", journal]) == 0
        assert replay_cli.main(["seek", journal, "--instr", "1000"]) == 0
        out = capsys.readouterr().out
        assert "replay OK" in out
        assert "pc=" in out

    def test_diff_pinpoints_fault(self, source_file, tmp_path, capsys):
        program = compile_source(LOOP_SOURCE, "loop")
        addr = program.binary("x86_64").symtab.address_of("acc")
        good = str(tmp_path / "good.jrn")
        bad = str(tmp_path / "bad.jrn")
        assert replay_cli.main(["record", source_file, "-o", good]) == 0
        assert replay_cli.main(["record", source_file, "-o", bad,
                                "--fault-slice", "20",
                                "--fault-addr", hex(addr)]) == 0
        assert replay_cli.main(["diff", good, bad]) == 1
        out = capsys.readouterr().out
        assert "first divergence" in out
        assert hex(addr) in out

    def test_diff_identical_journals(self, source_file, tmp_path, capsys):
        a = str(tmp_path / "a.jrn")
        b = str(tmp_path / "b.jrn")
        assert replay_cli.main(["record", source_file, "-o", a]) == 0
        assert replay_cli.main(["record", source_file, "-o", b]) == 0
        assert replay_cli.main(["diff", a, b]) == 0
        assert "journals agree" in capsys.readouterr().out

    def test_record_migrate_scenario(self, source_file, tmp_path):
        journal = str(tmp_path / "mig.jrn")
        assert replay_cli.main(["record", source_file, "-o", journal,
                                "--scenario", "migrate",
                                "--warmup", "3000"]) == 0
        assert replay_cli.main(["replay", journal]) == 0

    def test_unknown_app_errors(self, tmp_path, capsys):
        # unified CLI contract: typed errors exit 1 (argparse usage
        # errors keep exit 2)
        assert replay_cli.main(["record", "no-such-app",
                                "-o", str(tmp_path / "x.jrn")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("repro-replay: error: ")
