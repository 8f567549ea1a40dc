"""Shared fixtures: compiled programs are expensive, so cache per session."""

from __future__ import annotations

import pytest

from repro.compiler import compile_source
from repro.criu.lazy import PageServer
from repro.store import ChunkStore
from repro.testing.lockstep import Track

try:
    from hypothesis import settings
except ImportError:  # the smoke jobs install pytest alone
    settings = None

if settings is not None:
    #: ``pytest --hypothesis-profile=deep``: many more examples per
    #: property, no per-example deadline (CI runs the image codec's
    #: round-trip property under it)
    settings.register_profile("deep", max_examples=3000, deadline=None)

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


def _native_stdout(program):
    track = Track(program, "x86_64", "chains")
    track.run()
    return track.process.stdout()


@pytest.fixture(scope="session")
def counter_reference_output(counter_program):
    return _native_stdout(counter_program)


@pytest.fixture(scope="session")
def threaded_reference_output(threaded_program):
    return _native_stdout(threaded_program)


class OnChunkStore:
    """Mixin for a page-server contract class, one whose tests build
    servers through ``self.server(pages, **kwargs)``: reruns its tests on
    a server moved onto a chunk store, as a store-backed migration
    serves."""

    @staticmethod
    def server(pages, **kwargs):
        server = PageServer(pages, **kwargs)
        server.move_to(ChunkStore())
        return server
