"""Tests for the simulated machine: kernel, syscalls, scheduler, ptrace."""

import pytest

from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.errors import KernelError, PtraceError
from repro.isa import ARM_ISA, X86_ISA
from repro.vm import Machine, Tracer
from repro.vm.cpu import ThreadStatus, to_i64, to_u64
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


class TestPtrace:
    def _paused_setup(self):
        program = compile_source(THREAD_SOURCE, "t")
        machine = Machine(X86_ISA)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("t", "x86_64"))
        machine.step_all(500)
        return program, machine, process

    def test_attach_poke_wait(self):
        program, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        tracer.attach_all(process)
        flag_addr = program.binary("x86_64").symtab.address_of(
            "__dapper_flag")
        tracer.poke_data(flag_addr, 1)
        assert tracer.peek_data(flag_addr) == 1
        tids = tracer.wait_all_trapped()
        assert tids
        for tid in tids:
            thread = tracer.get_regs(tid)
            assert thread.status == ThreadStatus.TRAPPED
            # Parked pc must be a known entry equivalence point.
            point = program.binary("x86_64").stackmaps.by_addr.get(thread.pc)
            assert point is not None and point.kind == "entry"

    def test_cont_resumes(self):
        program, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        tracer.attach_all(process)
        flag_addr = program.binary("x86_64").symtab.address_of(
            "__dapper_flag")
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
        _program, machine, process = self._paused_setup()
        tracer = Tracer(machine)
        with pytest.raises(PtraceError):
            tracer.attach(process, 99)


class TestScheduler:
    def test_step_all_respects_budget(self):
        program = compile_source(THREAD_SOURCE, "t")
        machine = Machine(X86_ISA)
        install_program(machine, program)
        machine.spawn_process(exe_path_for("t", "x86_64"))
        executed = machine.step_all(100)
        assert 0 < executed <= 100

    def test_sigstop_halts_process(self):
        program = compile_source(THREAD_SOURCE, "t")
        machine = Machine(X86_ISA)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("t", "x86_64"))
        machine.sigstop(process)
        assert machine.step_all(1000) == 0
        machine.sigcont(process)
        assert machine.step_all(1000) > 0

    def test_kill_removes_process(self):
        program = compile_source(THREAD_SOURCE, "t")
        machine = Machine(X86_ISA)
        install_program(machine, program)
        process = machine.spawn_process(exe_path_for("t", "x86_64"))
        machine.kill(process)
        assert process.pid not in machine.processes
        assert process.exited
