"""Tests for the superblock execution engine (``repro.vm.blocks``).

Covers the engine's three safety-critical contracts:

1. invalidation — code rewrites (stack shuffle, live update, in-place
   patches) must discard predecoded superblocks, and the rewritten code
   must actually execute;
2. eqpoint boundaries — a block never spans an equivalence-point
   checker, so a parked thread's pc equals the eqpoint pc exactly;
3. parity — the generated tier (forced hot, including the partial
   quantum-boundary variant) is bit-identical to the per-step engine.
"""

import pytest

from repro.apps.registry import get_app
from repro.binfmt.stackmaps import KIND_ENTRY
from repro.compiler import compile_source
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.policies.live_update import LiveUpdatePolicy
from repro.core.policies.stack_shuffle import StackShufflePolicy
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.replay import record_run
from repro.vm import Machine, blocks, chains
from repro.vm.cpu import ThreadStatus
from repro.vm.interp import CpuFault

ARCHES = ["x86_64", "aarch64"]


def _spawn(program, arch, name=None):
    machine = Machine(get_isa(arch), name="host")
    install_program(machine, program)
    process = machine.spawn_process(
        exe_path_for(name or program.name, arch))
    return machine, process


def _run_to_exit(machine, process):
    """``run_process``, returning the block cache and the chain resume
    points as the exit syscall found them — a finished process drops
    its generated code (``Process.drop_code_caches``)."""
    found = []
    drop = process.drop_code_caches

    def spy():
        if process.exited:
            found.append((dict(process.block_cache),
                          dict(process.chain_entries)))
        drop()

    process.drop_code_caches = spy
    machine.run_process(process)
    assert process.block_cache == {} and process.chain_entries == {}
    return found[0]


def _fingerprint(process):
    return (process.stdout(), process.exit_code,
            process.instr_total, process.cycle_total)


class TestInvalidation:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_stack_shuffle_discards_superblocks(self, arch, counter_program,
                                                counter_reference_output):
        machine, process = _spawn(counter_program, arch, "counter")
        machine.step_all(2500)
        assert not process.exited
        # The source ran under the block engine: its cache is warm and
        # its executable pages have a content key for trace sharing.
        assert process.block_cache
        source_key = process.trace_content_key
        assert source_key is not None

        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        before = process.stdout()
        images = runtime.checkpoint()
        runtime.kill_source()
        policy = StackShufflePolicy(
            counter_program.binary(arch), seed=11,
            dst_exe_path=f"/bin/counter.{arch}.blkshuf")
        ProcessRewriter().rewrite(images, policy)
        machine.tmpfs.write(policy.dst_exe_path,
                            policy.shuffled_binary.to_bytes())
        restored = restore_process(machine, images)
        # The rewritten process must not inherit a single predecoded
        # superblock from the source.
        assert restored.block_cache == {}
        block_cache, _entries = _run_to_exit(machine, restored)
        # ... and the *shuffled* code really executed, correctly.
        assert before + restored.stdout() == counter_reference_output
        assert block_cache
        # Shuffled text hashes differently, so the global trace cache
        # cannot alias the source's traces onto the restored process.
        assert restored.trace_content_key != source_key

    def test_live_update_swap_discards_superblocks(self):
        v1 = compile_source(V1_SOURCE, "doubler")
        v2 = compile_source(V2_SOURCE, "doubler")
        machine, process = _spawn(v1, "x86_64")
        machine.step_all(2000)
        assert not process.exited
        assert process.block_cache
        source_key = process.trace_content_key

        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        lines_before = process.stdout().count("\n")
        images = runtime.checkpoint()
        runtime.kill_source()
        policy = LiveUpdatePolicy(v1.binary("x86_64"), v2.binary("x86_64"),
                                  "/bin/doubler.v2")
        ProcessRewriter().rewrite(images, policy)
        machine.tmpfs.write(policy.dst_exe_path,
                            v2.binary("x86_64").to_bytes())
        updated = restore_process(machine, images)
        assert updated.block_cache == {}
        machine.run_process(updated)
        assert updated.exit_code == 0
        # Every post-update line follows v2's tripling formula — stale
        # v1 superblocks would keep doubling.
        got = [int(line) for line in updated.stdout().splitlines()]
        expected = [3 * i for i in range(lines_before + 1, 201)]
        assert got == expected
        assert updated.trace_content_key != source_key

    def test_in_place_code_write_bumps_version(self, counter_program):
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.step_all(2000)
        assert not process.exited
        assert process.block_cache
        version = process.code_version
        thread = next(iter(process.threads.values()))
        # Patch illegal bytes at the thread's very next pc: if any stale
        # superblock survived the write, execution would sail past them.
        process.aspace.write_code(thread.pc, b"\x06" * 16)
        assert process.code_version == version + 1
        assert process.block_cache == {}
        assert process.decode_cache == {}
        with pytest.raises(CpuFault):
            machine.run_process(process)


class TestEqpointBoundary:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_park_pc_is_eqpoint_pc(self, arch, counter_program):
        """Regression: a superblock must never span an eqpoint checker.

        If a trace ran through the trap, the thread would park with its
        pc somewhere past the equivalence point and the stackmap check
        would reject it (or worse, state transformation would read the
        wrong frame).
        """
        machine, process = _spawn(counter_program, arch, "counter")
        machine.step_all(2500)       # warm superblocks before arming
        assert not process.exited
        runtime = DapperRuntime(machine, process)
        # This raises NotAtEquivalencePoint if any park pc is off.
        tids = runtime.pause_at_equivalence_points()
        stackmaps = process.binary.stackmaps
        for tid in tids:
            thread = process.threads[tid]
            assert thread.status == ThreadStatus.TRAPPED
            assert thread.pc == thread.trap_pc
            assert stackmaps.by_addr[thread.pc].kind == KIND_ENTRY

    @pytest.mark.parametrize("arch", ARCHES)
    def test_no_block_contains_kernel_entry(self, arch, counter_program,
                                            threaded_program):
        """Structural invariant: trap and syscall terminate trace decode,
        so no predecoded block body (or specialized terminator) can
        contain a kernel entry."""
        for program, name in ((counter_program, "counter"),
                              (threaded_program, "threaded")):
            machine, process = _spawn(program, arch, name)
            block_cache, _entries = _run_to_exit(machine, process)
            assert block_cache
            for block in block_cache.values():
                ops = [instr.op for instr in block.instrs]
                assert "trap" not in ops and "syscall" not in ops
                if block.term_instr is not None:
                    # backward b/bcc (loop back-edges) and ret are the
                    # only specialized terminators
                    assert block.term_instr.op in ("b", "bcc", "ret")


class TestEngineParity:
    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", ["counter", "threaded"])
    def test_forced_hot_parity(self, arch, name, counter_program,
                               threaded_program, monkeypatch):
        """With HOT_THRESHOLD forced to 0 every block tiers up on first
        dispatch, so the generated specializations (not tier 0) carry
        the whole run — and must match the per-step engine exactly."""
        program = counter_program if name == "counter" else threaded_program
        isa = get_isa(arch)
        base = Machine(isa, block_engine=False)
        install_program(base, program)
        ref = base.spawn_process(exe_path_for(name, arch))
        base.run_process(ref)

        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        machine, process = _spawn(program, arch, name)
        machine.run_process(process)
        assert _fingerprint(process) == _fingerprint(ref)

    @pytest.mark.parametrize("quantum", [1, 3, 7])
    def test_partial_variant_parity_at_odd_quanta(self, quantum,
                                                  counter_program,
                                                  monkeypatch):
        """Tiny quanta end inside nearly every trace, exercising the
        partial (quantum-boundary) variant; results must still be
        bit-identical to per-step execution at the same quantum."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        isa = get_isa("x86_64")
        base = Machine(isa, quantum=quantum, block_engine=False)
        install_program(base, counter_program)
        ref = base.spawn_process(exe_path_for("counter", "x86_64"))
        base.run_process(ref)

        machine = Machine(isa, quantum=quantum)
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "x86_64"))
        machine.run_process(process)
        assert _fingerprint(process) == _fingerprint(ref)


ENGINE_FLAGS = {"interp": dict(block_engine=False),
                "blocks": dict(chain_engine=False),
                "chains": dict()}


def _run_engine(program, name, arch, quantum, engine):
    """One run under the named tier; returns the full observable record
    (including any fault message and per-thread park state)."""
    isa = get_isa(arch)
    machine = Machine(isa, quantum=quantum, **ENGINE_FLAGS[engine])
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(name, arch))
    fault = None
    try:
        machine.run_process(process)
    except CpuFault as exc:
        fault = str(exc)
    return (process.stdout(), process.exit_code, process.instr_total,
            process.cycle_total, fault,
            sorted((t.pc, t.instr_count) for t in process.threads.values()))


def _force_chains(monkeypatch):
    """Tier every block up immediately and chain on second dispatch, so
    even short test programs execute almost entirely inside chains."""
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
    monkeypatch.setattr(chains, "CHAIN_THRESHOLD", 1)


class TestChainParity:
    """Tier-3 chains must be observationally identical to per-step
    execution: same output, same totals, same fault text, same park
    state at every quantum boundary — loops closed in-chain, linked
    side exits, metered mid-trace resumes and faults included."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", ["counter", "threaded"])
    def test_forced_chain_parity(self, arch, name, counter_program,
                                 threaded_program, monkeypatch):
        program = counter_program if name == "counter" else threaded_program
        ref = _run_engine(program, name, arch, 64, "interp")
        _force_chains(monkeypatch)
        assert _run_engine(program, name, arch, 64, "chains") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    def test_chain_actually_forms(self, arch, counter_program, monkeypatch):
        """Guards against the parity tests silently passing on tier-2:
        a chain must really be built and entered."""
        _force_chains(monkeypatch)
        machine, process = _spawn(counter_program, arch, "counter")
        block_cache, chain_entries = _run_to_exit(machine, process)
        bound = [b for b in block_cache.values()
                 if b.chain is not None and b.chain is not chains.NO_CHAIN]
        assert bound, "no chain was ever linked"
        # Loop-closing webs register interior pcs as metered resume
        # points for quantum boundaries that park mid-trace.
        assert chain_entries

    @pytest.mark.parametrize("quantum", [1, 3, 7, 13])
    def test_chain_parity_at_odd_quanta(self, quantum, counter_program,
                                        monkeypatch):
        """Tiny quanta park inside nearly every trace: every slice ends
        in a metered arm and most resume through chain_entries."""
        ref = _run_engine(counter_program, "counter", "x86_64", quantum,
                          "interp")
        _force_chains(monkeypatch)
        got = _run_engine(counter_program, "counter", "x86_64", quantum,
                          "chains")
        assert got == ref

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("source,name", [
        ("DIVZERO", "divzero"), ("WILD", "wild"), ("WILDLOAD", "wildload")])
    def test_fault_parity_mid_chain(self, arch, source, name, monkeypatch):
        """A div-by-zero or a segfault (store and load: the outlined
        miss paths) raised from inside a linked chain must surface the
        identical fault text and leave the identical
        retired-instruction state as per-step execution."""
        program = compile_source(globals()[source + "_SOURCE"], name)
        ref = _run_engine(program, name, arch, 64, "interp")
        assert ref[4] is not None            # the fault really fired
        _force_chains(monkeypatch)
        assert _run_engine(program, name, arch, 64, "chains") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    def test_dirty_set_parity_with_chains(self, arch, counter_program,
                                          monkeypatch):
        """Dirty tracking sees every page a chain writes: each store
        site's first touch of a page goes through its binding's
        ``store_miss`` into ``write_u64``, so the harvested set — and
        the state the slice stopped in — match per-step execution."""
        def tracked(engine):
            machine = Machine(get_isa(arch), **ENGINE_FLAGS[engine])
            install_program(machine, counter_program)
            process = machine.spawn_process(exe_path_for("counter", arch))
            machine.step_all(2500)
            process.start_dirty_tracking()
            machine.step_all(2500)
            dirty = process.harvest_dirty_pages()
            assert dirty and not process.exited
            return (dirty, process.instr_total, process.cycle_total,
                    sorted((t.pc, t.instr_count, tuple(t.regs))
                           for t in process.threads.values()))

        ref = tracked("interp")
        _force_chains(monkeypatch)
        built = chains.chain_cache_info()["bound"]
        assert tracked("chains") == ref
        assert chains.chain_cache_info()["bound"] > built

    def test_lazy_absent_page_parity_with_chains(self, counter_program,
                                                 counter_reference_output,
                                                 monkeypatch):
        """Under lazy post-copy an absent page is not proof of zeros:
        a chain load that misses on one takes the ``read_u64`` walk
        (and the page-server fetch) exactly as per-step does."""
        def lazily(engine):
            flags = ENGINE_FLAGS[engine]
            pipeline = MigrationPipeline(Machine(X86_ISA, **flags),
                                         Machine(ARM_ISA, **flags),
                                         counter_program)
            result = pipeline.run_and_migrate(2500, lazy=True)
            assert result.combined_output() == counter_reference_output
            return (_fingerprint(result.process),
                    result.page_server.pages_served)

        ref = lazily("interp")
        assert ref[1] >= 1
        _force_chains(monkeypatch)
        assert lazily("chains") == ref

    def test_invalidation_drops_chains_and_entries(self, counter_program,
                                                   monkeypatch):
        """A code rewrite must discard chain entry points with the block
        cache — a stale resume point would jump into retired code."""
        _force_chains(monkeypatch)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.step_all(2500)
        assert not process.exited
        assert process.chain_entries
        thread = next(iter(process.threads.values()))
        process.aspace.write_code(thread.pc, b"\x06" * 16)
        assert process.block_cache == {}
        assert process.chain_entries == {}


def _cold_code_caches(monkeypatch):
    """Empty process-global code caches, as a fresh interpreter has."""
    monkeypatch.setattr(chains, "_CHAIN_FACTORY_CACHE", blocks.LruCache())
    monkeypatch.setattr(blocks, "_FACTORY_CACHE", blocks.LruCache())
    monkeypatch.setattr(blocks, "_CODE_CACHE", blocks.LruCache())


def _chain_counters(run):
    """``chain_cache_info()`` counter deltas over ``run()``."""
    before = chains.chain_cache_info()
    result = run()
    after = chains.chain_cache_info()
    return result, {key: after[key] - before[key] for key in chains.chain_stats}


class TestChainFormation:
    """The relink policy: a chain bound at an older hot epoch is
    incomplete, never wrong, so rebuilding it is deferred until it
    pays — and skipped outright when the factory is already cached."""

    def test_cold_run_compiles_a_third_of_eager_rebuild(self, monkeypatch):
        """The ``cold_cli`` shape — redis/small on x86_64, migrated to
        aarch64 after 20k steps, run to exit, default thresholds. Eager
        relinking compiled 34 chains / 573 segments here when a sole
        thread was still time-sliced (26 / 501 now that it is not);
        the bound on ``built`` is what the relink calibration in
        ``chains.py`` measures."""
        _cold_code_caches(monkeypatch)
        program = get_app("redis").compile("small")

        def cold():
            pipeline = MigrationPipeline(Machine(X86_ISA), Machine(ARM_ISA),
                                         program)
            return pipeline.run_and_migrate(20000)

        result, spent = _chain_counters(cold)
        assert result.process.exit_code == 0
        assert 0 < spent["built"] <= 15
        assert spent["segments_emitted"] <= 573 // 3
        assert spent["lines_emitted"] > spent["segments_emitted"]
        assert spent["relinks_deferred"] > 0

    @pytest.mark.parametrize("arch", ARCHES)
    def test_digests_identical_whatever_the_relink_debt(self, arch,
                                                        monkeypatch):
        """Per-step, tier-2 and tier-3 digest streams agree at quantum
        7 and 64 with the relink constant at 0 (rebuild at every epoch:
        the old eager rule) and at 10**9 (never rebuild: stale chains
        serve to the end) — a stale chain is merely incomplete."""
        def digests(engine, quantum):
            return record_run(PHASED_SOURCE, "phased", arch=arch,
                              engine=engine, quantum=quantum
                              ).journal.digest_stream()

        spent = {}
        for quantum in (7, 64):
            ref = digests("interp", quantum)
            assert digests("blocks", quantum) == ref
            for debt in (0, 10 ** 9):
                _cold_code_caches(monkeypatch)
                monkeypatch.setattr(chains, "RELINK_DISPATCHES_PER_SEGMENT",
                                    debt)
                stream, spent[quantum, debt] = _chain_counters(
                    lambda: digests("chains", quantum))
                assert stream == ref
                assert spent[quantum, debt]["built"] > 0
        # Quantum 64 dispatches whole traces, so the extremes differ.
        eager, never = spent[64, 0], spent[64, 10 ** 9]
        assert eager["relinks_deferred"] == 0 < never["relinks_deferred"]
        assert eager["segments_emitted"] > never["segments_emitted"]

    @pytest.mark.parametrize("arch", ARCHES)
    def test_warm_node_binds_without_compiling(self, arch, monkeypatch):
        """Bind before build: once a node's caches hold a binary's
        webs, a new process of it reaches its predecessor's final webs
        with zero compiles, whatever its members still owe. (The cold
        process warms tier-2, which changes the order webs grow in, so
        the second may still compile some; the third must not.)"""
        _cold_code_caches(monkeypatch)
        program = compile_source(PHASED_SOURCE, "phased")

        def run():
            machine, process = _spawn(program, arch)
            block_cache, _entries = _run_to_exit(machine, process)
            webs = {pc: block.chain_web
                    for pc, block in block_cache.items()
                    if block.chain not in (None, chains.NO_CHAIN)}
            return process, webs

        (cold, _webs), spent_cold = _chain_counters(run)
        (second, second_webs), spent = _chain_counters(run)
        assert spent["built"] < spent_cold["built"]
        (third, third_webs), spent = _chain_counters(run)
        assert spent["built"] == 0 and spent["bound"] > 0
        assert third_webs == second_webs != {}
        assert (_fingerprint(cold) == _fingerprint(second)
                == _fingerprint(third))

    def test_code_caches_are_bounded_and_chains_keep_no_source(
            self, counter_program, counter_reference_output, monkeypatch):
        """Tier-2 and chain caches share the trace cache's LRU bound
        (eviction is a perf event only), and a chain's generated text
        is not held anywhere once compiled."""
        _cold_code_caches(monkeypatch)
        _force_chains(monkeypatch)
        monkeypatch.setattr(blocks, "GLOBAL_TRACES_CAP", 4)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.run_process(process)
        assert process.stdout() == counter_reference_output
        info = blocks.trace_cache_info()
        assert info["code_size"] <= 4 and info["factory_size"] <= 4
        assert info["code_evictions"] > 0 and info["factory_evictions"] > 0
        chain_info = chains.chain_cache_info()
        assert 0 < chain_info["factories"] <= 4
        assert not any("def run(thread, regs, budget" in text
                       for text in blocks._CODE_CACHE)


class TestDemotion:
    def test_demoted_block_stays_tier0_and_chains_skip_it(
            self, counter_program, counter_reference_output, monkeypatch):
        """When codegen refuses a block the engine must pin it to tier 0
        (``demoted``), never retry the compile, and chains must route
        around it rather than link it."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        monkeypatch.setattr(chains, "CHAIN_THRESHOLD", 1)
        # Find the hottest pc under normal execution, then refuse it.
        machine, process = _spawn(counter_program, "x86_64", "counter")
        block_cache, _entries = _run_to_exit(machine, process)
        target = max(block_cache.values(), key=lambda b: b.heat).pc

        real_codegen = blocks.codegen

        def refusing(process, block, partial=False, bind_only=False):
            if block.pc == target and not bind_only:
                return None
            return real_codegen(process, block, partial=partial,
                                bind_only=bind_only)

        monkeypatch.setattr(blocks, "codegen", refusing)
        machine, process = _spawn(counter_program, "x86_64", "counter")
        block_cache, _entries = _run_to_exit(machine, process)
        demoted = block_cache[target]
        assert demoted.demoted
        assert demoted.fn is None
        # Correctness is unaffected: the block just runs per-step.
        assert process.stdout() == counter_reference_output
        assert process.exit_code == 0
        # No chain web may contain the demoted block.
        for block in block_cache.values():
            if block.chain is not None and block.chain is not chains.NO_CHAIN:
                assert target not in block.chain_web


class TestTraceCacheLRU:
    def test_global_trace_cache_is_capped(self, counter_program,
                                          counter_reference_output,
                                          monkeypatch):
        """The shared trace cache must stay bounded under churn: inserts
        past the cap evict the least-recently-used trace, and eviction
        is only ever a perf event, never a correctness one."""
        monkeypatch.setattr(blocks, "GLOBAL_TRACES_CAP", 4)
        blocks._GLOBAL_TRACES.clear()
        before = blocks.trace_cache_info()["evictions"]
        machine, process = _spawn(counter_program, "x86_64", "counter")
        machine.run_process(process)
        info = blocks.trace_cache_info()
        assert info["size"] <= 4
        assert info["evictions"] > before
        assert process.stdout() == counter_reference_output


DIVZERO_SOURCE = """
func main() -> int {
    int i; int d; int acc;
    i = 0; d = 10; acc = 0;
    while (i < 120) {
        d = d - 1;
        acc = acc + i / d;
        print(acc);
        i = i + 1;
    }
    return 0;
}
"""

WILD_SOURCE = """
func main() -> int {
    int i; int acc;
    int x;
    int *p;
    p = &x;
    i = 0; acc = 0;
    while (i < 40) {
        acc = acc + i;
        i = i + 1;
    }
    p = p + 123456789;
    *p = acc;
    return 0;
}
"""

WILDLOAD_SOURCE = WILD_SOURCE.replace("*p = acc;", "acc = acc + *p;")

# A loop whose web keeps growing after its first chain is built: each
# guarded arm only turns hot sixty iterations after the last.
PHASED_SOURCE = """
global int acc;
func bump(int i) -> int { acc = acc + i; return acc; }
func twist(int i) -> int {
    if (i % 3 == 0) { return bump(i) * 2; }
    return i - 1;
}
func main() -> int {
    int i;
    i = 0;
    while (i < 360) {
        acc = acc + twist(i);
        if (i > 60) { acc = acc ^ i; }
        if (i > 120) { acc = acc - bump(i); }
        if (i > 180) { acc = acc + (i / 7); }
        if (i > 240) { acc = acc - twist(i + 1); }
        if (i > 300) { acc = acc * 3; }
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""

# v1 doubles, v2 triples; identical call structure so the live-update
# policy accepts the patch at any equivalence point.
V1_SOURCE = """
func f(int x) -> int {
    int y;
    y = x * 2;
    return y;
}

func main() -> int {
    int i;
    i = 1;
    while (i <= 200) {
        print(f(i));
        i = i + 1;
    }
    return 0;
}
"""

V2_SOURCE = """
func f(int x) -> int {
    int y;
    y = x * 3;
    return y;
}

func main() -> int {
    int i;
    i = 1;
    while (i <= 200) {
        print(f(i));
        i = i + 1;
    }
    return 0;
}
"""
