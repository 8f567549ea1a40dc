"""Tests for the simulated machine: kernel, syscalls, scheduler, ptrace."""

import gc
import itertools
import weakref

import pytest

from repro import sysabi
from repro.apps.registry import get_app
from repro.compiler import compile_source
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.runtime import DapperRuntime
from repro.errors import KernelError, PtraceError
from repro.isa import ARM_ISA, X86_ISA
from repro.replay import record_run
from repro.testing import lockstep
from repro.testing.lockstep import Track, side_by_side
from repro.vm import ENGINES, Machine, Tracer, chains
from repro.vm.cpu import ThreadStatus, to_i64, to_u64
from repro.vm.interp import CpuFault
from repro.vm.tmpfs import TmpFs


def run(source, isa=X86_ISA, name="t", max_steps=30_000_000):
    program = compile_source(source, name)
    machine = Machine(isa)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(name, isa.name))
    machine.run_process(process, max_steps=max_steps)
    return process


class TestCpuHelpers:
    def test_to_i64_wraps(self):
        assert to_i64(2 ** 63) == -(2 ** 63)
        assert to_i64(-1) == -1
        assert to_i64(2 ** 64 + 5) == 5

    def test_to_u64(self):
        assert to_u64(-1) == 2 ** 64 - 1


class TestTmpfs:
    def test_rw(self):
        fs = TmpFs()
        fs.write("/a/b", b"data")
        assert fs.read("/a/b") == b"data"
        assert fs.exists("/a/b")
        assert fs.size("/a/b") == 4

    def test_missing_raises(self):
        with pytest.raises(Exception):
            TmpFs().read("/nope")

    def test_listdir_prefix(self):
        fs = TmpFs()
        fs.write("/img/1/core.img", b"1")
        fs.write("/img/1/mm.img", b"2")
        fs.write("/img/2/core.img", b"3")
        assert fs.listdir("/img/1") == ["/img/1/core.img", "/img/1/mm.img"]

    def test_copy_tree(self):
        src, dst = TmpFs(), TmpFs()
        src.write("/img/a", b"xx")
        src.write("/img/b", b"yyy")
        copied = src.copy_tree("/img", dst)
        assert copied == 5
        assert dst.read("/img/b") == b"yyy"

    def test_copy_tree_dest_prefix(self):
        src, dst = TmpFs(), TmpFs()
        src.write("/img/a", b"x")
        src.copy_tree("/img", dst, "/other")
        assert dst.read("/other/a") == b"x"

    def test_parsed_follows_the_stored_object(self):
        """One parse per stored file: kept while ``read`` returns the
        same object, redone after a rewrite (equal content or not),
        dropped with the file, never kept for a parse that failed."""
        fs = TmpFs()
        calls = []

        def parse(data):
            calls.append(data)
            if data == b"bad":
                raise ValueError("bad")
            return [data]

        fs.write("/bin/a", b"one")
        first = fs.parsed("/bin/a", parse)
        assert fs.parsed("/bin/a", parse) is first
        assert len(calls) == 1
        fs.write("/bin/a", bytearray(b"one"))       # same content, new file
        second = fs.parsed("/bin/a", parse)
        assert second == first and second is not first
        fs.write("/bin/a", b"two")
        assert fs.parsed("/bin/a", parse) == [b"two"]
        assert len(calls) == 3
        fs.write("/bin/a", b"bad")
        for _ in range(2):
            with pytest.raises(ValueError):
                fs.parsed("/bin/a", parse)
        assert len(calls) == 5
        fs.write("/bin/b", b"other")
        fs.parsed("/bin/b", parse)
        assert set(fs._parsed) <= {"/bin/a", "/bin/b"}   # one per live path
        fs.remove("/bin/a")
        fs.remove("/bin/b")
        assert fs._parsed == {}
        with pytest.raises(Exception):
            fs.parsed("/bin/a", parse)


class TestBasicExecution:
    def test_exit_code(self):
        process = run("func main() -> int { return 42; }")
        assert process.exit_code == 42

    def test_print_output(self):
        process = run("func main() -> int { print(7); printc(65); "
                      "print(-3); return 0; }")
        assert process.stdout() == "7\nA-3\n"

    def test_arithmetic_semantics(self):
        process = run("""
        func main() -> int {
            print(7 / 2);
            print(-7 / 2);
            print(7 % 3);
            print(-7 % 3);
            print(1 << 10);
            print(1024 >> 3);
            return 0;
        }
        """)
        assert process.stdout() == "3\n-3\n1\n-1\n1024\n128\n"

    def test_division_by_zero_faults(self):
        with pytest.raises(KernelError):
            run("func main() -> int { int z; z = 0; return 5 / z; }")

    def test_sbrk_heap(self):
        process = run("""
        func main() -> int {
            int *p; int *q;
            p = sbrk(16);
            q = sbrk(8);
            *p = 11;
            p[1] = 22;
            *q = 33;
            print(*p + p[1] + *q);
            print(q - p);
            return 0;
        }
        """)
        assert process.stdout() == "66\n16\n"

    def test_gettid_and_now(self):
        process = run("""
        func main() -> int {
            print(self());
            print(now() > 0);
            return 0;
        }
        """)
        assert process.stdout() == "1\n1\n"

    def test_wrong_arch_binary_rejected(self):
        program = compile_source("func main() -> int { return 0; }", "t")
        machine = Machine(X86_ISA)
        machine.tmpfs.write("/bin/t.aarch64",
                            program.binary("aarch64").to_bytes())
        for _ in range(2):          # the arch check is not cached away
            with pytest.raises(KernelError):
                machine.spawn_process("/bin/t.aarch64")

    def test_spawn_shares_one_parse_and_sees_an_overwrite(self):
        v1 = compile_source("func main() -> int { return 1; }", "t")
        v2 = compile_source("func main() -> int { return 2; }", "t")
        machine, other = Machine(X86_ISA), Machine(X86_ISA)
        path = exe_path_for("t", "x86_64")
        install_program(machine, v1)
        install_program(other, v1)
        first = machine.spawn_process(path)
        assert machine.spawn_process(path).binary is first.binary
        assert machine.load_binary(path) is first.binary
        assert other.load_binary(path) is not first.binary   # per machine
        install_program(machine, v2)                 # a live update
        updated = machine.spawn_process(path)
        assert updated.binary is not first.binary
        machine.run_process(updated)
        machine.run_process(first)
        assert (first.exit_code, updated.exit_code) == (1, 2)
        machine.tmpfs.remove(path)
        assert path not in machine.tmpfs._parsed
        with pytest.raises(Exception):
            machine.load_binary(path)


THREAD_SOURCE = """
global int total;
global int mtx;

func worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        lock(&mtx);
        total = total + 1;
        unlock(&mtx);
        i = i + 1;
    }
}

func main() -> int {
    int t1; int t2; int t3;
    t1 = spawn(worker, 10);
    t2 = spawn(worker, 20);
    t3 = spawn(worker, 5);
    join(t1);
    join(t2);
    join(t3);
    print(total);
    return 0;
}
"""


class TestThreads:
    def test_spawn_join_lock(self):
        process = run(THREAD_SOURCE)
        assert process.stdout() == "35\n"
        assert process.exit_code == 0

    def test_deterministic_across_runs(self):
        out1 = run(THREAD_SOURCE).stdout()
        out2 = run(THREAD_SOURCE).stdout()
        assert out1 == out2

    def test_same_result_on_arm(self):
        assert run(THREAD_SOURCE, ARM_ISA).stdout() == "35\n"

    def test_unlock_not_held_faults(self):
        with pytest.raises(KernelError):
            run("""
            global int m;
            func main() -> int { unlock(&m); return 0; }
            """)

    def test_tls_is_per_thread(self):
        process = run("""
        global int sum;
        global int mtx;
        tls int mine;

        func worker(int k) {
            int i;
            i = 0;
            while (i < k) {
                mine = mine + 1;
                i = i + 1;
            }
            lock(&mtx);
            sum = sum + mine;
            unlock(&mtx);
        }

        func main() -> int {
            int t1; int t2;
            t1 = spawn(worker, 3);
            t2 = spawn(worker, 9);
            join(t1);
            join(t2);
            print(sum);
            print(mine);
            return 0;
        }
        """)
        assert process.stdout() == "12\n0\n"


def _threads():
    return Track(compile_source(THREAD_SOURCE, "t"), "x86_64", "chains")


class TestPtrace:
    def _paused_setup(self):
        track = _threads()
        track.machine.step_all(500)
        return track.process.binary, track.machine, track.process

    def test_attach_poke_wait(self):
        binary, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        tracer.attach_all(process)
        flag_addr = binary.symtab.address_of("__dapper_flag")
        tracer.poke_data(flag_addr, 1)
        assert tracer.peek_data(flag_addr) == 1
        tids = tracer.wait_all_trapped()
        assert tids
        for tid in tids:
            thread = tracer.get_regs(tid)
            assert thread.status == ThreadStatus.TRAPPED
            # Parked pc must be a known entry equivalence point.
            point = binary.stackmaps.by_addr.get(thread.pc)
            assert point is not None and point.kind == "entry"

    def test_cont_resumes(self):
        binary, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        tracer.attach_all(process)
        flag_addr = binary.symtab.address_of("__dapper_flag")
        tracer.poke_data(flag_addr, 1)
        tids = tracer.wait_all_trapped()
        tracer.poke_data(flag_addr, 0)
        for tid in tids:
            tracer.cont(tid)
        tracer.detach_all()
        machine.run_process(process)
        assert process.stdout() == "35\n"

    def test_unattached_tracer_rejects_ops(self):
        machine = Machine(X86_ISA)
        tracer = Tracer(machine)
        with pytest.raises(PtraceError):
            tracer.poke_data(0x1000, 1)

    def test_attach_unknown_tid(self):
        _binary, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        with pytest.raises(PtraceError):
            tracer.attach(process, 99)


class TestScheduler:
    def test_step_all_respects_budget(self):
        machine = _threads().machine
        executed = machine.step_all(100)
        assert 0 < executed <= 100

    def test_sigstop_halts_process(self):
        track = _threads()
        machine, process = track.machine, track.process
        machine.sigstop(process)
        assert machine.step_all(1000) == 0
        machine.sigcont(process)
        assert machine.step_all(1000) > 0

    def test_kill_removes_process(self):
        track = _threads()
        machine, process = track.machine, track.process
        machine.kill(process)
        assert process.pid not in machine.processes
        assert process.exited


# -- tickless scheduling ---------------------------------------------------------
#
# A sole thread with no recorder attached runs undivided; everything
# else is sliced on the quantum grid. The two must be the same schedule.
# The sliced path is reached the only way the product reaches it — by
# attaching a recorder — never through a switch. Every registry app is
# compared undivided against sliced by the lockstep runner's
# ``undivided_sliced`` oracle (tests/test_lockstep.py); the cases below
# place the boundaries by hand.

def _first_spawn_index(program, arch):
    """1-based index of the instruction (the spawn syscall) that gives
    the main thread company."""
    track = Track(program, arch, "interp", sliced=True)
    while len(track.process.threads) == 1:
        assert track.machine.step_all(1) == 1
    return track.process.instr_total


LOOPER_SOURCE = """
func step(int i) -> int { return i * 3 + 1; }

func main() -> int {
    int i; int acc;
    i = 0; acc = 0;
    while (i < 900) { acc = acc + step(i); i = i + 1; }
    print(acc);
    return 7;
}
"""

LATE_FAULT_SOURCE = """
func main() -> int {
    int i; int d; int acc;
    i = 0; d = 300; acc = 0;
    while (i < 400) {
        d = d - 1;
        acc = acc + i / d;
        i = i + 1;
    }
    print(acc);
    return 0;
}
"""


@pytest.mark.usefixtures("early_chains")
class TestTicklessBoundaries:
    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("arch", lockstep.ARCHES)
    @pytest.mark.parametrize("offset", [0, 1, 62, 63, 64])
    def test_thread_created_at_slice_offset(self, offset, arch, engine):
        """The creating syscall is instruction ``offset + 1`` of a long
        slice: the slice must end on the next multiple of 64 (at the
        syscall itself for offset 63), where the round-robin pass
        starts — main again, then the new thread."""
        program = lockstep.program("spawner")
        lead = _first_spawn_index(program, arch) - 1 - offset
        assert lead > 64
        free, tick = side_by_side(program, arch, engine, 50_000,
                                  prefix=[lead])
        want = -(-(offset + 1) // 64) * 64
        pid = free.process.pid
        assert free.calls[:4] == [(pid, 1, lead), (pid, 1, want),
                                  (pid, 1, 64), (pid, 2, 64)]
        sliced = [call for call in tick.calls if call[2]]
        assert sum(done for _p, _t, done in sliced[:lead // 64 + 1]) == lead
        after = sliced[lead // 64 + 1:]
        assert [tid for _p, tid, _d in after[:want // 64 + 2]] \
            == [1] * (want // 64) + [1, 2]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_step_all_retires_exactly_the_budget(self, engine):
        program = compile_source(LOOPER_SOURCE, "looper")
        side = Track(program, "x86_64", engine)
        total = 0
        for budget in (1, 63, 64, 65, 997, 1000, 4097):
            assert side.machine.step_all(budget) == budget
            total += budget
            assert side.process.instr_total == total
            assert side.calls[-1][2] == budget    # one undivided slice
        side_by_side(program, "x86_64", engine, 1000,
                     prefix=[1, 63, 64, 65, 997])

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_exit_inside_a_long_slice(self, engine):
        program = compile_source(LOOPER_SOURCE, "looper")
        free, _tick = side_by_side(program, "aarch64", engine, 10 ** 7)
        assert free.process.exit_code == 7
        assert free.calls == [(free.process.pid, 1,
                               free.process.instr_total)]

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_fault_inside_a_long_slice(self, engine):
        program = compile_source(LATE_FAULT_SOURCE, "latefault")
        free, _tick = side_by_side(program, "x86_64", engine, 10 ** 7)
        assert not free.process.exited
        assert free.process.instr_total > 64 * 20
        with pytest.raises(CpuFault, match="division by zero"):
            free.machine.step_all(1)

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_trap_inside_a_long_slice(self, engine):
        """Parking at an equivalence point ends the slice at the trap,
        sliced or not: the paused states are identical."""
        program = compile_source(LOOPER_SOURCE, "looper")
        sides = [Track(program, "x86_64", engine, sliced=sliced)
                 for sliced in (False, True)]
        seen = []
        for side in sides:
            assert side.machine.step_all(1500) == 1500
            tids = DapperRuntime(side.machine, side.process) \
                .pause_at_equivalence_points()
            thread = side.process.threads[tids[0]]
            assert thread.status == ThreadStatus.TRAPPED
            seen.append((thread.pc, thread.instr_count, side.step(1000)))
        assert seen[0] == seen[1]
        assert seen[0][2][0] == 0              # SIGSTOPped: nothing runs

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize("lead", [1500, 1531])
    def test_second_process_spawned_mid_slice(self, lead, engine):
        """A trap hook resumes the trapped thread and starts a second
        process: the first finishes its quantum, then the two
        alternate — from the same grid boundary either way."""
        program = compile_source(LOOPER_SOURCE, "looper")

        def prepare(side):
            machine, first = side.machine, side.process
            flag = first.binary.symtab.address_of(sysabi.DAPPER_FLAG_SYMBOL)

            def hook(process, thread):
                if len(machine.processes) == 1:
                    process.aspace.write_u64(flag, 0)
                    thread.status = ThreadStatus.RUNNING
                    thread.trap_pc = None
                    machine.spawn_process(side.path)

            machine.trap_hooks.append(hook)
            assert machine.step_all(lead) == lead
            first.aspace.write_u64(flag, 1)

        free, tick = side_by_side(program, "x86_64", engine, 100_000,
                                  prepare=prepare)
        assert len(free.machine.processes) == 2
        assert all(p.exit_code == 7 for p in free.machine.processes.values())
        first, second = sorted(free.machine.processes)
        # lead, then one long slice cut on the grid, then alternation
        assert free.calls[0] == (first, 1, lead)
        assert free.calls[1][2] % 64 == 0 and free.calls[1][2] > 0
        assert [pid for pid, _t, _d in free.calls[2:6]] \
            == [first, second, first, second]
        assert all(done <= 64 for _p, _t, done in free.calls[2:])
        cut = sum(done for _p, _t, done in free.calls[:2])
        ticked, index = 0, 0
        while ticked < cut:
            ticked += tick.calls[index][2]
            index += 1
        assert ticked == cut
        assert tick.calls[index][0] == first       # general pass: pid order
        assert tick.calls[index + 1][0] == second


class TestTicklessIsNotAMode:
    def test_sole_thread_run_is_a_handful_of_slices(self):
        """The deterministic guard (wall time cannot gate): a sole
        thread is woken once per ``step_all``, not once per quantum."""
        program = get_app("dhrystone").compile("medium")
        side = Track(program, "x86_64", "chains")
        side.machine.run_process(side.process)
        total = side.process.instr_total
        assert total > 250_000
        assert len(side.calls) <= total // 1000
        assert len(side.calls) <= total // 100_000 + 1

    def test_recorded_runs_stay_on_the_grid(self):
        """With a recorder attached nothing changes: every slice is
        journaled, none is longer than the quantum, and a sole thread's
        slices are all full ones until it stops."""
        recorded = record_run(LOOPER_SOURCE, "looper", arch="x86_64")
        sched = recorded.journal.sched_stream()
        assert len(sched) == -(-recorded.journal.instructions() // 64)
        assert all(budget == 64 for _p, _t, budget, _d in sched)
        assert all(done == 64 for _p, _t, _b, done in sched[:-1])
        assert len(recorded.journal.digests()) >= len(sched)

    def test_quantum_is_honoured_once_threads_interleave(self):
        program = lockstep.program("spawner")
        for quantum in (7, 64):
            side = Track(program, "x86_64", "chains", quantum=quantum)
            side.machine.run_process(side.process)
            crowd = next(i for i, call in enumerate(side.calls)
                         if call[1] != 1)
            assert all(done <= quantum
                       for _p, _t, done in side.calls[crowd:])
            assert all(done % quantum == 0
                       for _p, _t, done in side.calls[:crowd])


@pytest.mark.usefixtures("early_chains")
class TestFinishedProcessReleasesItsCode:
    """Block and chain closures hold the process and the process holds
    them through its caches: a finished process must let go of them
    itself instead of waiting for a generation-2 collection."""

    def _warm(self):
        program = compile_source(LOOPER_SOURCE, "looper")
        side = Track(program, "x86_64", "chains")
        side.machine.step_all(4000)
        process = side.process
        assert not process.exited and process.resume_points
        fn = next(b.fn for b in process.block_cache.values()
                  if b.fn is not None)
        chain = next(b.chain for b in process.block_cache.values()
                     if callable(b.chain))
        return side, weakref.ref(fn), weakref.ref(chain)

    def _released(self, finish):
        gc.collect()
        gc.disable()
        try:
            side, fn_ref, chain_ref = self._warm()
            assert fn_ref() is not None and chain_ref() is not None
            finish(side)
            assert side.process.exited
            assert side.process.block_cache == {}
            assert side.process.resume_points == {}
            assert side.process.decode_cache == {}
            return fn_ref() is None and chain_ref() is None
        finally:
            gc.enable()

    def test_exit_drops_generated_code_without_the_collector(self):
        assert self._released(
            lambda side: side.machine.run_process(side.process))

    def test_kill_drops_generated_code_without_the_collector(self):
        assert self._released(
            lambda side: side.machine.kill(side.process))

    # The process itself: ``aspace.code_write_hook`` is a bound method of
    # the process (a Process <-> AddressSpace cycle) and the chain
    # emitter's recursive local function used to pin the compiled
    # blocks. With both broken at death, a dead process — pages, page
    # views and the page blob of ``aspace.origin`` included — is freed
    # by reference count the moment its last user lets go.

    def _warm_chained(self, machine, program):
        install_program(machine, program)
        process = machine.spawn_process(
            exe_path_for(program.name, machine.isa.name))
        built = chains.chain_cache_info()["built"]
        machine.step_all(4000)
        assert not process.exited
        assert chains.chain_cache_info()["built"] > built   # emitter ran
        assert any(callable(b.chain) for b in process.block_cache.values())
        return process

    def _freed(self, finish):
        gc.collect()
        gc.disable()
        try:
            # A fresh loop bound: a cached chain factory would skip the
            # emitter, whose cycle is half of what this guards.
            program = compile_source(
                LOOPER_SOURCE.replace("900", str(901 + next(self._bounds))),
                "looper")
            machine = Machine(X86_ISA)
            process = self._warm_chained(machine, program)
            refs = weakref.ref(process), weakref.ref(process.aspace)
            finish(machine, process, program)
            # A Machine keeps its exited processes (exit code, stdout);
            # reaping the zombie is the caller's last reference.
            machine.processes.pop(process.pid, None)
            del process
            return [ref() for ref in refs] == [None, None]
        finally:
            gc.enable()

    _bounds = itertools.count()

    def test_exited_process_is_freed_without_the_collector(self):
        assert self._freed(
            lambda machine, process, _program:
                machine.run_process(process))

    def test_killed_process_is_freed_without_the_collector(self):
        assert self._freed(
            lambda machine, process, _program: machine.kill(process))

    def test_migrated_source_is_freed_when_migrate_returns(self):
        def migrate(machine, process, program):
            pipeline = MigrationPipeline(machine, Machine(ARM_ISA),
                                         program)
            restored = pipeline.migrate(process).process
            assert process.exited and not restored.exited
            assert restored.aspace.origin is not None

        assert self._freed(migrate)
