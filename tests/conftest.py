"""Shared fixtures: compiled programs are expensive, so cache per session."""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.core.migration import exe_path_for, install_program
from repro.isa import ARM_ISA, X86_ISA
from repro.vm import Machine

COUNTER_SOURCE = """
global int g;
tls int tcount;

func work(int i) -> int {
    int acc;
    int j;
    acc = 0;
    j = 0;
    while (j <= i) {
        acc = acc + j;
        j = j + 1;
    }
    tcount = tcount + 1;
    return acc;
}

func main() -> int {
    int i;
    int arr[6];
    int *p;
    i = 0;
    while (i < 30) {
        arr[i % 6] = work(i);
        print(arr[i % 6]);
        i = i + 1;
    }
    p = &arr[2];
    print(*p);
    print(tcount);
    g = arr[5];
    print(g);
    return 0;
}
"""

THREADED_SOURCE = """
global int total;
global int mtx;
tls int tls_hits;

func bump(int *q, int k) -> int {
    *q = *q + k;
    tls_hits = tls_hits + 1;
    return *q;
}

func worker(int n) {
    int i;
    int local_acc[4];
    int *p;
    p = &local_acc[1];
    *p = 0;
    i = 0;
    while (i < n) {
        bump(p, i);
        lock(&mtx);
        total = total + 1;
        unlock(&mtx);
        i = i + 1;
    }
    lock(&mtx);
    total = total + *p;
    unlock(&mtx);
}

func main() -> int {
    int t1; int t2;
    int mine[8];
    int *mp;
    mp = &mine[5];
    *mp = 7;
    t1 = spawn(worker, 40);
    t2 = spawn(worker, 25);
    join(t1);
    join(t2);
    print(total + *mp);
    return 0;
}
"""


@pytest.fixture
def early_chains(monkeypatch):
    """Chain a compiled trace from its first dispatch. A short test
    program never serves the dispatches that repay a chain compile
    (``chains.CHAIN_THRESHOLD``), so a differential that names the
    chains engine would quietly compare two tiers instead of three."""
    from repro.vm import chains
    monkeypatch.setattr(chains, "CHAIN_THRESHOLD", 1)


@pytest.fixture(scope="session")
def counter_program():
    return compile_source(COUNTER_SOURCE, "counter")


@pytest.fixture(scope="session")
def threaded_program():
    return compile_source(THREADED_SOURCE, "threaded")


@pytest.fixture(scope="session")
def counter_reference_output(counter_program):
    machine = Machine(X86_ISA)
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.run_process(process)
    return process.stdout()


@pytest.fixture(scope="session")
def threaded_reference_output(threaded_program):
    machine = Machine(X86_ISA)
    install_program(machine, threaded_program)
    process = machine.spawn_process(exe_path_for("threaded", "x86_64"))
    machine.run_process(process)
    return process.stdout()


def run_native(program, arch: str, max_steps: int = 30_000_000):
    """Run a compiled program natively; returns the finished process."""
    isa = X86_ISA if arch == "x86_64" else ARM_ISA
    machine = Machine(isa)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    machine.run_process(process, max_steps=max_steps)
    return process


@pytest.fixture
def run_native_fixture():
    return run_native
