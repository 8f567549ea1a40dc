"""Tests for the superblock execution engine (``repro.vm.blocks``).

Covers the engine's three safety-critical contracts:

1. invalidation — code rewrites (stack shuffle, live update, in-place
   patches) must discard predecoded superblocks, and the rewritten code
   must actually execute;
2. eqpoint boundaries — a block never spans an equivalence-point
   checker, so a parked thread's pc equals the eqpoint pc exactly;
3. parity — the generated tier (forced hot, including the metered
   quantum-boundary variant) is bit-identical to the per-step engine.
"""

import sys
from types import SimpleNamespace

import pytest

from repro.apps.registry import get_app
from repro.binfmt.delf import TEXT_BASE
from repro.binfmt.stackmaps import KIND_ENTRY
from repro.compiler import compile_source
from repro.core.migration import MigrationPipeline
from repro.core.policies.live_update import LiveUpdatePolicy
from repro.core.policies.stack_shuffle import StackShufflePolicy
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.isa import ARM_ISA, X86_ISA
from repro.mem.address_space import AddressSpace
from repro.mem.paging import PAGE_MASK
from repro.replay import record_run
from repro.replay.digest import machine_digest
from repro.testing import lockstep
from repro.testing.lockstep import Track
from repro.vm import ENGINES, Machine, blocks, chains, interp
from repro.vm.cpu import ThreadStatus
from repro.vm.interp import CpuFault

_U64M = (1 << 64) - 1

ARCHES = ["x86_64", "aarch64"]


def _spawn(program, arch):
    track = Track(program, arch, "chains")
    return track.machine, track.process


def _run_to_exit(machine, process):
    """``run_process``, returning the block cache and the chain resume
    points as the exit syscall found them — a finished process drops
    its generated code (``Process.drop_code_caches``)."""
    found = []
    drop = process.drop_code_caches

    def spy():
        if process.exited:
            found.append((dict(process.block_cache),
                          dict(process.resume_points)))
        drop()

    process.drop_code_caches = spy
    machine.run_process(process)
    assert process.block_cache == {} and process.resume_points == {}
    return found[0]


def _fingerprint(process):
    return (process.stdout(), process.exit_code,
            process.instr_total, process.cycle_total)


class TestInvalidation:
    @pytest.mark.parametrize("arch", ARCHES)
    def test_stack_shuffle_discards_superblocks(self, arch, counter_program,
                                                counter_reference_output):
        machine, process = _spawn(counter_program, arch)
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
        machine, process = _spawn(counter_program, "x86_64")
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
        machine, process = _spawn(counter_program, arch)
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
        for program in (counter_program, threaded_program):
            machine, process = _spawn(program, arch)
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
        ref = _run_engine(program, arch, 64, "interp")
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        assert _run_engine(program, arch, 64, "chains") == ref

    @pytest.mark.parametrize("quantum", [1, 3, 7])
    def test_partial_variant_parity_at_odd_quanta(self, quantum,
                                                  counter_program,
                                                  monkeypatch):
        """Tiny quanta end inside nearly every trace, exercising the
        metered (quantum-boundary) variant and the resumes that enter
        it mid-trace; results must still be bit-identical to per-step
        execution at the same quantum. A recorder keeps a sole thread
        on the quantum grid."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        assert _run_sliced(counter_program, "x86_64", quantum, "chains") \
            == _run_sliced(counter_program, "x86_64", quantum, "interp")


def _run_engine(program, arch, quantum, engine):
    """One run to the end under the named tier; returns everything
    observable (``lockstep.Track.step``), a fault message included."""
    return Track(program, arch, engine, quantum).step(lockstep.MAX_STEPS)


def _run_sliced(program, arch, quantum, engine):
    """:func:`_run_engine` with a recorder attached, which keeps even a
    sole thread on the quantum grid, so slices park mid-trace."""
    return Track(program, arch, engine, quantum,
                 sliced=True).step(lockstep.MAX_STEPS)


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
        ref = _run_engine(program, arch, 64, "interp")
        _force_chains(monkeypatch)
        assert _run_engine(program, arch, 64, "chains") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    def test_chain_actually_forms(self, arch, counter_program, monkeypatch):
        """Guards against the parity tests silently passing on tier-2:
        a chain must really be built and entered."""
        _force_chains(monkeypatch)
        machine, process = _spawn(counter_program, arch)
        block_cache, resume_points = _run_to_exit(machine, process)
        bound = [b for b in block_cache.values()
                 if b.chain is not None and b.chain is not chains.NO_CHAIN]
        assert bound, "no chain was ever linked"
        # Loop-closing webs register interior pcs as metered resume
        # points for quantum boundaries that park mid-trace.
        assert resume_points

    @pytest.mark.parametrize("quantum", [1, 3, 7, 13])
    def test_chain_parity_at_odd_quanta(self, quantum, counter_program,
                                        monkeypatch):
        """Tiny quanta park inside nearly every trace: every slice ends
        in a metered arm and most resume through resume_points. A
        recorder keeps a sole thread on the quantum grid."""
        ref = _run_sliced(counter_program, "x86_64", quantum, "interp")
        _force_chains(monkeypatch)
        assert _run_sliced(counter_program, "x86_64", quantum,
                           "chains") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("source,name", [
        ("DIVZERO", "divzero"), ("WILD", "wild"), ("WILDLOAD", "wildload")])
    def test_fault_parity_mid_chain(self, arch, source, name, monkeypatch):
        """A div-by-zero or a segfault (store and load: the outlined
        miss paths) raised from inside a linked chain must surface the
        identical fault text and leave the identical
        retired-instruction state as per-step execution."""
        program = compile_source(globals()[source + "_SOURCE"], name)
        ref = _run_engine(program, arch, 64, "interp")
        assert isinstance(ref[0], str)       # the fault really fired
        _force_chains(monkeypatch)
        assert _run_engine(program, arch, 64, "chains") == ref

    @pytest.mark.parametrize("arch", ARCHES)
    def test_dirty_set_parity_with_chains(self, arch, counter_program,
                                          monkeypatch):
        """Dirty tracking sees every page a chain writes: each store
        site's first touch of a page goes through its binding's
        ``store_miss`` into ``write_u64``, so the harvested set — and
        the state the slice stopped in — match per-step execution."""
        def tracked(engine):
            track = Track(counter_program, arch, engine)
            machine, process = track.machine, track.process
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
            flags = ENGINES[engine]
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
        machine, process = _spawn(counter_program, "x86_64")
        machine.step_all(2500)
        assert not process.exited
        assert process.resume_points
        thread = next(iter(process.threads.values()))
        process.aspace.write_code(thread.pc, b"\x06" * 16)
        assert process.block_cache == {}
        assert process.resume_points == {}


def _cold_code_caches(monkeypatch):
    """Empty process-global code caches, as a fresh interpreter has —
    the shared trace records included, since tier-3 heat lives there,
    and the node's known webs."""
    monkeypatch.setattr(chains, "_CHAIN_FACTORY_CACHE", blocks.LruCache())
    monkeypatch.setattr(chains, "_KNOWN_WEBS", blocks.LruCache())
    monkeypatch.setattr(blocks, "_FACTORY_CACHE", blocks.LruCache())
    monkeypatch.setattr(blocks, "_CODE_CACHE", blocks.LruCache())
    monkeypatch.setattr(blocks, "_GLOBAL_TRACES", blocks.LruCache())


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
        # The first-build threshold this debt was calibrated under; at
        # the default one a cold run barely relinks (see
        # TestHeatBelongsToTheCode).
        monkeypatch.setattr(chains, "CHAIN_THRESHOLD", 8)
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

        _force_chains(monkeypatch)
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
        _force_chains(monkeypatch)
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
        machine, process = _spawn(counter_program, "x86_64")
        machine.run_process(process)
        assert process.stdout() == counter_reference_output
        info = blocks.trace_cache_info()
        assert info["code_size"] <= 4 and info["factory_size"] <= 4
        assert info["code_evictions"] > 0 and info["factory_evictions"] > 0
        chain_info = chains.chain_cache_info()
        assert 0 < chain_info["factories"] <= 4
        assert not any("def run(thread, regs, budget" in text
                       for text in blocks._CODE_CACHE)


#: (chains compiled, generated lines) of ``benchmarks/e2e/coldchild.py``
#: at the default thresholds. Counting heat per process and building at
#: 8 dispatches, the same runs compiled 15 / 26 250 and 13 / 21 509.
COLD_CHILD_COMPILES = {"redis": (1, 936), "kmeans": (1, 1085)}


def _heat_program(name):
    """HEAT_SOURCE sized so one run dispatches its one web about three
    quarters of ``CHAIN_THRESHOLD`` times: a run alone never compiles
    it, two runs together do."""
    iterations = chains.CHAIN_THRESHOLD * 3 // 4
    return compile_source(HEAT_SOURCE % iterations, name)


def _formations(block_cache):
    """pc -> a copy of each block's ``[chain heat, relink_at]``."""
    return {pc: list(block.formation) for pc, block in block_cache.items()}


class TestHeatBelongsToTheCode:
    """Tier-3 formation state lives in the shared trace record: chain
    heat and relink debt add up over every process running the same
    code, except rewritten or lazily restored code, and a head binds an
    already compiled web whatever its heat."""

    @pytest.mark.parametrize("app", sorted(COLD_CHILD_COMPILES))
    def test_cold_child_compiles_only_what_pays(self, app, monkeypatch):
        """The cold child's sequence in-process on cold code caches:
        compile, spawn, a 20 000-step warm-up, an x86 -> arm migration,
        run to exit. Counts, not timings."""
        _cold_code_caches(monkeypatch)
        program = compile_source(get_app(app).source("small"), app)

        def cold():
            pipeline = MigrationPipeline(Machine(X86_ISA, name="xeon"),
                                         Machine(ARM_ISA, name="rpi"),
                                         program)
            process = pipeline.start()
            pipeline.src_machine.step_all(20_000)
            result = pipeline.migrate(process)
            pipeline.dst_machine.run_process(result.process)
            return result

        result, spent = _chain_counters(cold)
        assert result.process.exit_code == 0
        assert (spent["built"], spent["lines_emitted"]) \
            == COLD_CHILD_COMPILES[app]

    @pytest.mark.parametrize("arch", ARCHES)
    def test_runs_add_up_and_the_next_binds_at_once(self, arch,
                                                    monkeypatch):
        """Two runs that each stay below the threshold compile the web
        during the second; a third binds it with zero compiles one trip
        round the loop in: no member is dispatched outside the chain
        more than twice."""
        _cold_code_caches(monkeypatch)
        program = _heat_program("heat")

        def run():
            machine, process = _spawn(program, arch)
            block_cache, _entries = _run_to_exit(machine, process)
            return process, [block for block in block_cache.values()
                             if block.chain not in (None, chains.NO_CHAIN)]

        (first, web), spent = _chain_counters(run)
        assert web == [] and spent["built"] == spent["bound"] == 0
        (second, web), spent = _chain_counters(run)
        assert spent["built"] == spent["bound"] == 1 and web
        assert max(b.formation[0] for b in web) == chains.CHAIN_THRESHOLD
        heat = [(block.formation, block.formation[0]) for block in web]
        (third, third_web), spent = _chain_counters(run)
        assert spent["built"] == 0 and spent["bound"] == 1
        assert {b.chain_web for b in third_web} == {b.chain_web for b in web}
        assert all(formation[0] <= was + 2 for formation, was in heat)
        assert (_fingerprint(first) == _fingerprint(second)
                == _fingerprint(third))

    def test_heat_is_not_shared_across_a_code_rewrite(self, monkeypatch):
        """After an in-place code write (``code_version`` 1) a process
        counts heat of its own: the two runs that add up to a compile
        above do not here, and the shared records are left as they
        were. Once the web is compiled, the rewritten process binds it
        one trip round its loop in, far below the threshold, with zero
        compiles."""
        _cold_code_caches(monkeypatch)
        program = _heat_program("rewritten")

        def run(rewrite):
            machine, process = _spawn(program, "x86_64")
            if rewrite:
                pc = next(iter(process.threads.values())).pc
                process.aspace.write_code(pc, process.aspace.fetch(pc, 8))
                assert process.code_version == 1
            return _run_to_exit(machine, process)[0]

        shared, _spent = _chain_counters(lambda: run(False))
        heat = _formations(shared)
        rewritten, spent = _chain_counters(lambda: run(True))
        assert spent["built"] == 0
        assert _formations(shared) == heat
        assert not any(block.formation is shared[pc].formation
                       for pc, block in rewritten.items() if pc in shared)
        _shared, spent = _chain_counters(lambda: run(False))
        assert spent["built"] == 1
        _rewritten, spent = _chain_counters(lambda: run(True))
        assert spent["built"] == 0 and spent["bound"] > 0

    def test_heat_is_not_shared_across_a_lazy_restore(self, monkeypatch):
        """A lazily restored process (``missing_page_hook`` set) cannot
        hash its code, so it counts heat of its own — and still binds
        the node's compiled web, far below the threshold."""
        _cold_code_caches(monkeypatch)
        program = _heat_program("lazy")

        def native():
            machine, process = _spawn(program, "aarch64")
            return process, _run_to_exit(machine, process)[0]

        def lazily():
            # Parked at its first equivalence point, before the loop.
            pipeline = MigrationPipeline(Machine(X86_ISA), Machine(ARM_ISA),
                                         program)
            result = pipeline.run_and_migrate(1, lazy=True)
            assert result.process.aspace.missing_page_hook is not None
            return result

        (reference, shared), spent = _chain_counters(native)
        assert spent["built"] == 0
        heat = _formations(shared)
        result, spent = _chain_counters(lazily)
        assert result.combined_output() == reference.stdout()
        assert spent["built"] == 0
        assert _formations(shared) == heat
        _native, spent = _chain_counters(native)
        assert spent["built"] == 1
        result, spent = _chain_counters(lazily)
        assert result.combined_output() == reference.stdout()
        assert spent["built"] == 0 and spent["bound"] > 0

    def test_shared_records_hold_ints_only(self, counter_program,
                                           monkeypatch):
        """What a record keeps alive is two ints: never a Block, a
        closure or a process (those go with the process, see
        ``tests/test_vm.py`` ``TestFinishedProcessReleasesItsCode``)."""
        _cold_code_caches(monkeypatch)
        _force_chains(monkeypatch)
        machine, process = _spawn(counter_program, "x86_64")
        block_cache, _entries = _run_to_exit(machine, process)
        assert any(block.chain not in (None, chains.NO_CHAIN)
                   for block in block_cache.values())
        records = {id(record[-1]): record[-1]
                   for record in blocks._GLOBAL_TRACES.values()}
        assert records
        for formation in records.values():
            assert [type(value) for value in formation] == [int, int]
        for block in block_cache.values():
            assert records[id(block.formation)] is block.formation


def _run_keeping_webs(program, arch):
    """One run to exit; returns the process and the webs its chains
    were bound over when it exited."""
    machine, process = _spawn(program, arch)
    block_cache, _entries = _run_to_exit(machine, process)
    return process, {block.chain_web for block in block_cache.values()
                     if block.chain not in (None, chains.NO_CHAIN)}


#: Runs that take a cold node to each program's final webs at the
#: default thresholds: counter compiles its one web in its second run,
#: kmeans/small the last of its three in its seventh.
WARM_RUNS = {"counter": 3, "kmeans": 7}

#: Chains the steady_compute app set (dhrystone medium, kmeans, redis
#: and nginx small, on both ISAs) compiles in passes 4-8 of one
#: interpreter started on cold code caches, by app. Each is the first
#: build of a web whose head has just served ``CHAIN_THRESHOLD``
#: dispatches: nginx's 64-segment web in pass 4, and kmeans' nested
#: loops one enclosing level at a time (4 -> 8 and 12 -> 17 segments in
#: passes 4 and 5), then its 4-segment initialisation loop in pass 7.
STEADY_LATE_BUILDS = {"dhrystone": 0, "kmeans": 8, "redis": 0, "nginx": 2}


class TestWarmNodeBindsKnownWebs:
    """A process on a warm node binds every web the node has converged
    on once, when the first of its members is dispatched
    (``chains.bind_known_web``), instead of re-planning after every
    tier-up and binding intermediate webs on the way there."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("name", sorted(WARM_RUNS))
    def test_fresh_process_binds_each_web_once(self, name, arch,
                                               counter_program,
                                               monkeypatch):
        """Counts: one bind per web the process keeps to exit, and no
        more plans than binds. Before the known webs a fresh kmeans
        process bound 6 chains for its 3 webs and planned 81 times; a
        counter process planned 17 times for its one."""
        _cold_code_caches(monkeypatch)
        program = (counter_program if name == "counter"
                   else get_app(name).compile("small"))
        for _ in range(WARM_RUNS[name]):
            reference, _webs = _run_keeping_webs(program, arch)
        (process, webs), spent = _chain_counters(
            lambda: _run_keeping_webs(program, arch))
        assert spent["built"] == 0 and webs
        assert spent["bound"] == len(webs)
        assert spent["planned"] <= spent["bound"]
        assert _fingerprint(process) == _fingerprint(reference)

    def test_known_web_never_binds_through_a_refused_member(
            self, counter_program, monkeypatch):
        """A member whose tier-2 code codegen refuses (a cached
        ``_NO_FACTORY``) is demoted to tier 0 here, so the known web is
        not bound through it: the process falls back to planning, and
        no chain it binds contains that member."""
        _cold_code_caches(monkeypatch)
        for _ in range(WARM_RUNS["counter"]):
            reference, webs = _run_keeping_webs(counter_program, "x86_64")
        (web,) = webs
        machine, process = _spawn(counter_program, "x86_64")
        refused = web[-1]
        key = blocks._factory_key(
            "x86_64", blocks.compile_block(process, refused), False)
        blocks._FACTORY_CACHE.insert(key, blocks._NO_FACTORY)
        block_cache, _entries = _run_to_exit(machine, process)
        assert block_cache[refused].demoted
        chained = [block for block in block_cache.values()
                   if block.chain not in (None, chains.NO_CHAIN)]
        assert chained
        assert all(refused not in block.chain_web for block in chained)
        assert _fingerprint(process) == _fingerprint(reference)

    def test_steady_set_builds_only_first_builds_late(self, monkeypatch):
        """Eight passes of the steady_compute app set in one interpreter.
        In passes 4-8 no web is compiled twice, the chains compiled are
        exactly ``STEADY_LATE_BUILDS``, and every process that compiles
        nothing binds each web it keeps once, with no more plans than
        binds."""
        _cold_code_caches(monkeypatch)
        table = [(app, arch, get_app(app).compile(size))
                 for app, size in (("dhrystone", "medium"),
                                   ("kmeans", "small"), ("redis", "small"),
                                   ("nginx", "small"))
                 for arch in ARCHES]
        keys = []
        compile_chain = chains._compile_chain

        def counting_compile(isa, segs, key):
            keys.append(key)
            return compile_chain(isa, segs, key)

        monkeypatch.setattr(chains, "_compile_chain", counting_compile)
        late = dict.fromkeys(STEADY_LATE_BUILDS, 0)
        for index in range(1, 9):
            for app, arch, program in table:
                (process, webs), spent = _chain_counters(
                    lambda: _run_keeping_webs(program, arch))
                assert process.exit_code == 0
                if index < 4:
                    continue
                late[app] += spent["built"]
                if not spent["built"]:
                    assert spent["bound"] == len(webs), (index, app, arch)
                    assert spent["planned"] <= spent["bound"]
        assert len(set(keys)) == len(keys)
        assert late == STEADY_LATE_BUILDS


class TestDemotion:
    def test_demoted_block_stays_tier0_and_chains_skip_it(
            self, counter_program, counter_reference_output, monkeypatch):
        """When codegen refuses a block the engine must pin it to tier 0
        (``demoted``), never retry the compile, and chains must route
        around it rather than link it."""
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        monkeypatch.setattr(chains, "CHAIN_THRESHOLD", 1)
        # Find the hottest pc under normal execution, then refuse it.
        machine, process = _spawn(counter_program, "x86_64")
        block_cache, _entries = _run_to_exit(machine, process)
        target = max(block_cache.values(), key=lambda b: b.heat).pc

        real_codegen = blocks.codegen

        def refusing(process, block, metered=False, bind_only=False):
            if block.pc == target and not bind_only:
                return None
            return real_codegen(process, block, metered=metered,
                                bind_only=bind_only)

        monkeypatch.setattr(blocks, "codegen", refusing)
        machine, process = _spawn(counter_program, "x86_64")
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
        machine, process = _spawn(counter_program, "x86_64")
        machine.run_process(process)
        info = blocks.trace_cache_info()
        assert info["size"] <= 4
        assert info["evictions"] > before
        assert process.stdout() == counter_reference_output


class TestChainPageMemo:
    """A chain binding remembers the pages its memory sites have been
    refilled with (``chains._miss_paths``), so a site shared by several
    threads' stacks does not walk the address space on every thread
    switch. The memo must not outlive a dirty-tracking epoch, and only
    aligned words may use it."""

    @pytest.mark.parametrize("arch", ARCHES)
    def test_dirty_set_parity_with_chains_four_threads(self, arch,
                                                       monkeypatch):
        """Three workers share one chain binding and every slice
        switches threads; over four ``harvest_dirty_pages`` epochs each
        epoch's dirty set, and the state each slice stops in, match
        per-step execution."""
        program = compile_source(QUAD_SOURCE, "quad")

        def tracked(engine):
            track = Track(program, arch, engine)
            machine, process = track.machine, track.process
            machine.step_all(3000)
            process.start_dirty_tracking()
            epochs = []
            for _ in range(4):
                machine.step_all(2500)
                epochs.append(process.harvest_dirty_pages())
                epochs.append(machine_digest([machine]))
            assert not process.exited and len(process.threads) == 4
            return epochs

        ref = tracked("interp")
        assert all(ref[0::2])
        _force_chains(monkeypatch)
        bound = chains.chain_cache_info()["bound"]
        assert tracked("chains") == ref
        assert chains.chain_cache_info()["bound"] > bound

    @pytest.mark.parametrize("arch", ARCHES)
    def test_misaligned_and_straddling_words_on_a_remembered_page(
            self, arch, monkeypatch):
        """A warm chain loads and stores through ``*p`` on a page its
        binding remembers; then ``p`` is poked to a misaligned word on
        that page, to a word straddling into the next page, and to one
        straddling the end of the mapping. Values, state and the fault
        match per-step execution."""
        program = compile_source(MISALIGN_SOURCE, "misalign")

        def poked(engine):
            track = Track(program, arch, engine)
            machine, process = track.machine, track.process
            aspace = process.aspace
            symtab = process.binary.symtab
            ptr = symtab.address_of("p")
            word = symtab.address_of("table") + 8 * 8
            page_end = (word | PAGE_MASK) + 1
            machine.step_all(4000)
            seen = [machine_digest([machine])]
            for addr in (word + 3, page_end - 4):
                aspace.write_u64(ptr, addr)
                machine.step_all(300)
                seen.append(machine_digest([machine]))
            aspace.write_u64(ptr, aspace.find_vma(word).end - 4)
            with pytest.raises(CpuFault) as fault:
                machine.step_all(300)
            seen.append(str(fault.value))
            seen.append(sorted((t.pc, t.instr_count, tuple(t.regs))
                               for t in process.threads.values()))
            return seen, process.instr_total, process.cycle_total

        ref = poked("interp")
        assert "straddles mapping" in ref[0][-2]
        _force_chains(monkeypatch)
        bound = chains.chain_cache_info()["bound"]
        assert poked("chains") == ref
        assert chains.chain_cache_info()["bound"] > bound


#: Address-space word walks (``read_u64``, ``write_u64``) per pause of a
#: warm swaptions/small process on x86_64, counted over the whole
#: process. Before chain bindings remembered their pages: 87 / 433.
#: What is left is tier-2 sites' first touches; chain sites walk 0.
WARM_PAUSE_WALKS = (40, 37)

#: Instructions a restored redis/medium process's pauses fetch through
#: ``interp.step``, summed over the ten measured migrations of
#: ``test_restored_pause_fetches_only_off_trace``. When tier 0 fetched
#: every instruction: 690.
RESTORED_PAUSE_FETCHES = 69


def _counting_walks(monkeypatch):
    """Count every ``read_u64``/``write_u64`` call on any address space
    (chain bindings capture the patched methods when they bind)."""
    walks = {"read": 0, "write": 0}
    read_u64 = AddressSpace.read_u64
    write_u64 = AddressSpace.write_u64

    def counted_read(self, addr):
        walks["read"] += 1
        return read_u64(self, addr)

    def counted_write(self, addr, value):
        walks["write"] += 1
        return write_u64(self, addr, value)

    monkeypatch.setattr(AddressSpace, "read_u64", counted_read)
    monkeypatch.setattr(AddressSpace, "write_u64", counted_write)
    return walks


class TestPauseAtWarmSpeed:
    """The pause that precedes every migration runs at warm speed.
    Counts, not timings: a regression is a diff."""

    def test_warm_pause_walks_each_page_once_per_binding(self,
                                                         monkeypatch):
        """Swaptions' three workers run one chain binding; a quantum
        switches threads, so each site's one cached page is always the
        previous thread's stack. Each binding walks the address space
        at most once per distinct page it touches, and a warm pause
        walks ``WARM_PAUSE_WALKS``."""
        _cold_code_caches(monkeypatch)
        walks = _counting_walks(monkeypatch)
        bindings = []
        miss_paths = chains._miss_paths

        def recording(aspace):
            """The real miss paths over an address space that counts
            this binding's walks, and the pages its misses touch."""
            seen = {"read": 0, "write": 0, "load": set(), "store": set()}

            def read_u64(addr):
                seen["read"] += 1
                return aspace.read_u64(addr)

            def write_u64(addr, value):
                seen["write"] += 1
                return aspace.write_u64(addr, value)

            load_miss, store_miss = miss_paths(SimpleNamespace(
                _pages=aspace._pages, find_vma=aspace.find_vma,
                read_u64=read_u64, write_u64=write_u64))

            def load(a, base, view):
                seen["load"].add(a & _U64M & ~PAGE_MASK)
                return load_miss(a, base, view)

            def store(a, value, base, view):
                seen["store"].add(a & _U64M & ~PAGE_MASK)
                return store_miss(a, value, base, view)

            bindings.append(seen)
            return load, store

        monkeypatch.setattr(chains, "_miss_paths", recording)
        machine, process = _spawn(get_app("swaptions").compile("small"),
                                  "x86_64")
        machine.step_all(20_000)
        runtime = DapperRuntime(machine, process)
        per_pause = []
        for _ in range(40):
            before = dict(walks)
            runtime.pause_at_equivalence_points()
            per_pause.append((walks["read"] - before["read"],
                              walks["write"] - before["write"]))
            runtime.resume()
            machine.step_all(500)
        assert not process.exited and len(process.threads) == 4
        assert bindings
        for seen in bindings:
            assert seen["store"]
            assert seen["read"] <= len(seen["load"])
            assert seen["write"] <= len(seen["store"])
        assert per_pause[-1] == per_pause[-2]
        reads, writes = per_pause[-1]
        assert reads <= WARM_PAUSE_WALKS[0]
        assert writes <= WARM_PAUSE_WALKS[1]

    def test_restored_pause_fetches_only_off_trace(self, monkeypatch):
        """A restored process starts with an empty decode cache. Its
        pause runs mostly on tier 0, which executes the ops its trace
        record already decoded. ``interp.step`` fetches kernel entries,
        and otherwise only the rest of a tier-0 run whose trace a side
        exit has left: every such fetch directly follows, on its thread,
        a trace op or another such fetch."""
        step, execute = interp.step, interp.execute
        runs = {}              # thread -> [instr_count at last trace op, steps]
        seen = {"trace": 0, "fetched": 0}
        stepping = []

        def traced_execute(machine, process, thread, instr, cost):
            execute(machine, process, thread, instr, cost)
            if not stepping:
                seen["trace"] += 1
                runs[thread] = [thread.instr_count, 0]

        def fetching_step(machine, process, thread):
            pc = thread.pc
            stepping.append(pc)
            try:
                step(machine, process, thread)
            finally:
                stepping.pop()
            seen["fetched"] += 1
            op = process.decode_cache[pc][1].op
            run = runs.setdefault(thread, [None, 0])
            run[1] += 1
            if op not in ("syscall", "trap"):
                mark, steps = run
                assert mark is not None and thread.instr_count - mark == steps, (
                    f"tier 0 fetched {op} at {pc:#x}, the head of its run")

        program = get_app("redis").compile("medium")
        x86 = Machine(X86_ISA, name="x86")
        arm = Machine(ARM_ISA, name="arm")
        pipes = {"x86_64": MigrationPipeline(x86, arm, program),
                 "aarch64": MigrationPipeline(arm, x86, program)}
        process = pipes["x86_64"].start()
        x86.step_all(3000)
        gaps = iter([300, 700, 450, 600, 350, 500, 650, 400] * 4)
        for _ in range(20):
            process = pipes[process.isa.name].migrate(process).process
            process.machine.step_all(next(gaps))
        monkeypatch.setattr(interp, "step", fetching_step)
        monkeypatch.setattr(interp, "execute", traced_execute)
        paused = {"trace": 0, "fetched": 0}
        for _ in range(10):
            runs.clear()
            before = dict(seen)
            process = pipes[process.isa.name].migrate(process).process
            for key in paused:
                paused[key] += seen[key] - before[key]
            process.machine.step_all(next(gaps))
        assert not process.exited
        assert paused["trace"] > paused["fetched"] > 0
        assert paused["fetched"] <= RESTORED_PAUSE_FETCHES


def _tier0_only(monkeypatch):
    """Keep every block on tier 0, and count the trace ops it executes
    without fetching and the taken side exits among them. The code
    caches start empty: a cached factory binds on first dispatch,
    whatever the threshold."""
    _cold_code_caches(monkeypatch)
    monkeypatch.setattr(blocks, "HOT_THRESHOLD", 10 ** 9)
    execute = interp.execute
    seen = {"trace": 0, "side_exits": 0}

    def traced_execute(machine, process, thread, instr, cost):
        pc = thread.pc
        execute(machine, process, thread, instr, cost)
        if sys._getframe(1).f_code is blocks.run_thread.__code__:
            seen["trace"] += 1
            if instr.op == "bcc" and thread.pc != pc + instr.size:
                seen["side_exits"] += 1

    monkeypatch.setattr(interp, "execute", traced_execute)
    return seen


class TestTierZeroRunsTheTrace:
    """Tier 0 executes the ops its trace record decoded instead of
    fetching them again; it must stay digest-identical to the per-step
    engine, which fetches every instruction."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("quantum", [7, 64])
    def test_digests_identical_across_side_exits(self, arch, quantum,
                                                 monkeypatch):
        """PHASED_SOURCE's guarded arms are forward side exits, some
        landing further down their own trace (an if without else)."""
        def digests(engine):
            return record_run(PHASED_SOURCE, "phased", arch=arch,
                              engine=engine, quantum=quantum
                              ).journal.digest_stream()

        ref = digests("interp")
        seen = _tier0_only(monkeypatch)
        assert digests("blocks") == ref
        assert seen["trace"] > 0 and seen["side_exits"] > 0

    @pytest.mark.parametrize("arch", ARCHES)
    def test_digests_identical_across_an_in_place_code_write(self, arch,
                                                             monkeypatch):
        """A live update written over the running text between two
        slices: v1 doubles, v2 triples, and the two texts differ in one
        byte. Tier 0 must run the new code from the next slice on, and
        so must tier 2: no slice resumes at a resume point registered
        before the write."""
        v1 = compile_source(V1_SOURCE, "doubler")
        v2_text = compile_source(V2_SOURCE, "doubler").binary(arch).text
        resumes = {}

        def sliced(engine):
            track = Track(v1, arch, engine)
            machine, process = track.machine, track.process
            spy = process.resume_points = _ResumeSpy()
            digests = []
            while not process.exited:
                if len(digests) == 40:
                    resumes["before"] = spy.found
                    spy.found = []
                    process.aspace.write_code(TEXT_BASE, v2_text)
                    assert spy == {}
                machine.step_all(64)
                digests.append(machine_digest([machine]))
            resumes["after"] = spy.found
            return digests, process.stdout()

        def resumed_only_current_code():
            before, after = resumes["before"], resumes["after"]
            assert before and after
            assert all(block.version == 0 for block, _k in before)
            assert all(block.version == 1 for block, _k in after)

        ref = sliced("interp")
        seen = _tier0_only(monkeypatch)
        assert sliced("blocks") == ref
        assert seen["trace"] > 0
        resumed_only_current_code()
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        assert sliced("blocks") == ref
        resumed_only_current_code()
        values = [int(line) for line in ref[1].splitlines()]
        assert values[0] == 2 and values[-1] == 600


#: Tier-0 instructions (``interp.execute`` calls: ``interp.step`` makes
#: one too) of a warm recorded run on x86_64 with ``engine="blocks"``,
#: quantum 64 and a digest every slice. While a slice that parked
#: mid-trace made the next one decode a new trace at that pc, which ran
#: on tier 0, these read kmeans 10 435, redis 14 642 and swaptions
#: 7 669; 6 751 of swaptions' are its syscalls, which only tier 0 runs.
RECORDED_TIER0 = {"kmeans": 2500, "redis": 1000, "swaptions": 7669}

#: Blocks the same runs create (``compile_block`` calls): at most half
#: of the 505 (kmeans) and 585 (redis) one per parked pc came to.
RECORDED_BLOCKS = {"kmeans": 505 // 2, "redis": 585 // 2}

#: Recordings that bring the code caches of a cold node to the steady
#: state the pins are measured in (a trace bound from a cached factory
#: on first dispatch moves where later slices park, for two runs).
WARM_RECORDINGS = 3


class _ResumeSpy(dict):
    """A process's ``resume_points`` that logs every entry a dispatch
    finds (``run_thread`` reads the map through ``get``)."""

    def __init__(self):
        super().__init__()
        self.found = []

    def get(self, pc, default=None):
        entry = dict.get(self, pc, default)
        if entry is not None:
            self.found.append(entry)
        return entry


def _resumed_faults(monkeypatch):
    """Wrap every tier-2 metered variant codegen emits; returns the list
    the wrappers append ``K`` to when a run entered mid-trace (``K >
    0``) ends in a fault."""
    seen = []
    real_codegen = blocks.codegen

    def spying(process, block, metered=False, bind_only=False):
        fn = real_codegen(process, block, metered=metered,
                          bind_only=bind_only)
        if not metered or fn is None:
            return fn

        def metered(thread, regs, m, K=0):
            try:
                return fn(thread, regs, m, K)
            except CpuFault:
                if K:
                    seen.append(K)
                raise
        return metered

    monkeypatch.setattr(blocks, "codegen", spying)
    return seen


class TestRecordingAtTierSpeed:
    """A recording keeps the 64-instruction slice grid, and a slice
    that parks mid-trace resumes that trace at its op K — in generated
    code once the trace is hot — instead of decoding a new trace at the
    parked pc. Counts, not timings."""

    @pytest.mark.parametrize("app", sorted(RECORDED_TIER0))
    def test_warm_recorded_run_stays_off_tier0(self, app, monkeypatch):
        _cold_code_caches(monkeypatch)
        source = get_app(app).source("small")

        def recorded():
            return record_run(source, app, arch="x86_64", engine="blocks",
                              quantum=64, digest_every=1)

        for _ in range(WARM_RECORDINGS):
            recorded()
        seen = {"tier0": 0, "blocks": 0}
        execute, compile_block = interp.execute, blocks.compile_block

        def counting_execute(*args):
            seen["tier0"] += 1
            return execute(*args)

        def counting_compile(*args):
            seen["blocks"] += 1
            return compile_block(*args)

        monkeypatch.setattr(interp, "execute", counting_execute)
        monkeypatch.setattr(blocks, "compile_block", counting_compile)
        result = recorded()
        assert result.exit_code == 0
        assert seen["tier0"] <= RECORDED_TIER0[app]
        if app in RECORDED_BLOCKS:
            assert seen["blocks"] <= RECORDED_BLOCKS[app]


class TestResumedTraceIsExact:
    """A trace resumed at op K retires exactly what per-step execution
    does from the same pc: faults, side exits and accounting included."""

    @pytest.mark.parametrize("arch", ARCHES)
    @pytest.mark.parametrize("source,name", [
        ("WILDLOAD", "wildload"), ("WILD", "wild"), ("DIVZERO", "divzero")])
    def test_fault_after_a_resume_matches_per_step(self, arch, source,
                                                   name, monkeypatch):
        """Every slice length from 2 to 40 instructions, so some slice
        parks inside the faulting trace before the faulting op and the
        next one resumes it there: the fault text, ``pc``,
        ``instr_count``, ``instr_total`` and ``cycle_total`` equal the
        per-step engine's (``Track.step`` returns all of them)."""
        program = compile_source(globals()[source + "_SOURCE"], name)
        resumed = _resumed_faults(monkeypatch)
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        for quantum in range(2, 41):
            ref = _run_sliced(program, arch, quantum, "interp")
            assert isinstance(ref[0], str)       # the fault really fired
            assert _run_sliced(program, arch, quantum, "blocks") == ref
        assert resumed

    @pytest.mark.parametrize("arch", ARCHES)
    def test_a_dirty_tracking_epoch_drops_resume_points(
            self, arch, counter_program, monkeypatch):
        """Each epoch begins with no resume point, so a resumed trace's
        first store to a page in the epoch reaches ``write_u64`` and the
        harvested sets equal the per-step engine's."""
        def tracked(engine):
            track = Track(counter_program, arch, engine)
            machine, process = track.machine, track.process
            spy = process.resume_points = _ResumeSpy()

            def slices():
                for _ in range(30):
                    machine.step_all(61)    # parks all over the loop
                if engine != "interp":
                    assert spy and spy.found

            slices()
            process.start_dirty_tracking()
            assert spy == {}
            epochs = []
            for _ in range(3):
                slices()
                epochs.append(process.harvest_dirty_pages())
                assert spy == {}
            assert all(epochs) and not process.exited
            return (epochs, process.instr_total, process.cycle_total,
                    sorted((t.pc, t.instr_count, tuple(t.regs))
                           for t in process.threads.values()))

        ref = tracked("interp")
        monkeypatch.setattr(blocks, "HOT_THRESHOLD", 0)
        assert tracked("blocks") == ref


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

# One hot web: a one-trace loop, dispatched once per iteration. It runs
# in a function called once, so a run paused at its first equivalence
# point migrates before the loop starts.
HEAT_SOURCE = """
func spin(int n) -> int {
    int i; int acc;
    i = 0; acc = 0;
    while (i < n) { acc = acc + i * 3 + 1; i = i + 1; }
    return acc;
}
func main() -> int {
    print(spin(%d));
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

# Three workers run one function (one chain binding), each over its own
# stack array, and scatter stores over a two-page global table.
QUAD_SOURCE = """
global int total;
global int table[1024];

func mix(int *q, int i) -> int {
    *q = *q * 3 + i;
    return *q;
}

func worker(int n) {
    int i;
    int acc[64];
    int *p;
    i = 0;
    while (i < n) {
        p = &acc[i % 64];
        mix(p, i);
        table[(i * 7 + n) % 1024] = *p;
        total = total + 1;
        i = i + 1;
    }
}

func main() -> int {
    int t1; int t2; int t3;
    t1 = spawn(worker, 900);
    t2 = spawn(worker, 800);
    t3 = spawn(worker, 700);
    join(t1);
    join(t2);
    join(t3);
    print(total);
    return 0;
}
"""

# One load site and one store site through a global pointer, which a
# test re-aims between slices.
MISALIGN_SOURCE = """
global int table[1024];
global int *p;
global int acc;

func main() -> int {
    int i;
    p = &table[8];
    i = 0;
    while (i < 100000) {
        *p = *p + i;
        acc = acc + *p;
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""
