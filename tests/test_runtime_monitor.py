"""Tests for the Dapper runtime monitor (pausing at equivalence points)."""

import pytest

from repro import sysabi
from repro.binfmt.stackmaps import KIND_CALLSITE
from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.core.rewriter import ImageMemory
from repro.core.runtime import DapperRuntime
from repro.core.stack_rewrite import unwind_thread
from repro.errors import NotAtEquivalencePoint, RewriteError
from repro.isa import ARM_ISA, X86_ISA
from repro.verify import verify_images
from repro.vm import Machine
from repro.vm.cpu import ThreadStatus


def setup(program, steps=2000):
    machine = Machine(X86_ISA)
    install_program(machine, program)
    process = machine.spawn_process(
        exe_path_for(program.name, "x86_64"))
    machine.step_all(steps)
    assert not process.exited
    return machine, process


class TestPausing:
    def test_all_threads_park_at_entry_eqpoints(self, threaded_program):
        machine, process = setup(threaded_program)
        runtime = DapperRuntime(machine, process)
        tids = runtime.pause_at_equivalence_points()
        assert len(tids) == len(process.live_threads())
        stackmaps = threaded_program.binary("x86_64").stackmaps
        for tid in tids:
            thread = process.threads[tid]
            assert thread.status == ThreadStatus.TRAPPED
            point = stackmaps.by_addr[thread.pc]
            assert point.kind == "entry"
        assert process.stopped

    def test_flag_poked_through_ptrace(self, counter_program):
        machine, process = setup(counter_program)
        flag_addr = counter_program.binary("x86_64").symtab.address_of(
            sysabi.DAPPER_FLAG_SYMBOL)
        assert process.aspace.read_u64(flag_addr) == 0
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        assert process.aspace.read_u64(flag_addr) == 1

    def test_resume_continues_execution(self, counter_program,
                                         counter_reference_output):
        machine, process = setup(counter_program)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        runtime.resume()
        machine.run_process(process)
        assert process.stdout() == counter_reference_output

    def test_repeated_pause_resume(self, counter_program,
                                   counter_reference_output):
        machine, process = setup(counter_program, steps=500)
        runtime = DapperRuntime(machine, process)
        for _ in range(5):
            runtime.pause_at_equivalence_points()
            runtime.resume()
            machine.step_all(200)
            if process.exited:
                break
        if not process.exited:
            machine.run_process(process)
        assert process.stdout() == counter_reference_output

    def test_checkpoint_clears_flag_in_dump(self, counter_program):
        machine, process = setup(counter_program)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        images = runtime.checkpoint()
        flag_addr = counter_program.binary("x86_64").symtab.address_of(
            sysabi.DAPPER_FLAG_SYMBOL)
        from repro.core.rewriter import ImageMemory
        memory = ImageMemory(images)
        assert memory.read_u64(flag_addr) == 0


class TestParkPoint:
    """One rule — the pc is an entry eqpoint — at all three places that
    ask: the runtime after the trap, the restore guard and the strict
    stack walk. Each answers in its own error."""

    @pytest.fixture(params=[X86_ISA, ARM_ISA], ids=["x86", "arm"])
    def parked(self, request, counter_program):
        isa = request.param
        machine = Machine(isa)
        install_program(machine, counter_program)
        process = machine.spawn_process(
            exe_path_for(counter_program.name, isa.name))
        machine.step_all(2000)
        runtime = DapperRuntime(machine, process)
        tid, = runtime.pause_at_equivalence_points()
        return counter_program.binary(isa.name), runtime, process, tid

    @pytest.mark.parametrize("where", ["entry", "callsite", "entry+1"])
    def test_runtime_guard_and_walk_agree(self, parked, monkeypatch, where):
        binary, runtime, process, tid = parked
        thread = process.threads[tid]
        callsite = next(p.addr for p in binary.stackmaps.eqpoints
                        if p.kind == KIND_CALLSITE)
        pc = {"entry": thread.pc, "callsite": callsite,
              "entry+1": thread.pc + 1}[where]
        accepted = where == "entry"
        assert (binary.stackmaps.park_point(pc) is not None) == accepted

        monkeypatch.setattr(thread, "pc", pc)
        if accepted:
            runtime._verify_at_equivalence_points([tid])
        else:
            with pytest.raises(NotAtEquivalencePoint):
                runtime._verify_at_equivalence_points([tid])
        monkeypatch.undo()

        images = runtime.checkpoint()
        core, = images.cores()
        core.pc = pc
        images.set_core(core)
        report = verify_images(images, binary=binary, raise_on_fail=False)
        assert report.ok == accepted
        assert ("eqpoint" in {f.code for f in report.findings}) \
            == (not accepted)
        if accepted:
            assert unwind_thread(ImageMemory(images), core, binary).frames
        else:
            with pytest.raises(RewriteError):
                unwind_thread(ImageMemory(images), core, binary)


class TestLockInteraction:
    LOCKED_SOURCE = """
    global int m;
    global int progress;

    func tick() { progress = progress + 1; }

    func main() -> int {
        int i;
        lock(&m);
        i = 0;
        while (i < 2000) {
            tick();
            i = i + 1;
        }
        unlock(&m);
        i = 0;
        while (i < 2000) {
            tick();
            i = i + 1;
        }
        print(progress);
        return 0;
    }
    """

    def test_holder_never_parks_inside_critical_section(self):
        program = compile_source(self.LOCKED_SOURCE, "locked")
        machine = Machine(X86_ISA)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("locked", "x86_64"))
        # Step into the critical section: the lock is taken early.
        machine.step_all(300)
        assert process.locks, "main should hold the lock by now"
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        # The thread must have run past unlock before parking.
        assert not process.locks, "parked while holding a lock"
        runtime.resume()
        machine.run_process(process)
        assert process.stdout() == "4000\n"
