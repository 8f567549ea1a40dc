"""The VM's differentials as oracles over one lockstep runner
(``repro.testing.lockstep``).

``test_cell`` is one test per (oracle, program, ISA, engine, quantum)
cell, ids like ``memo_fresh-redis-aarch64-chains-q7``: ``-k memo_fresh``
selects one oracle, ``-k redis-aarch64`` one program on one ISA. The
first cell of a (program, ISA) drives it; the rest read the verdicts.
Chains are forced from the first dispatch (``early_chains``), or short
programs would compare two tiers instead of three.
"""

import collections
import itertools

import pytest

from repro.compiler import compile_source
from repro.replay import BitFlip, Replayer, record_migrate
from repro.replay import journal as jn
from repro.testing import lockstep
from repro.vm import ENGINES

from conftest import LOOP_SOURCE, SENTINEL_SOURCE

pytestmark = pytest.mark.usefixtures("early_chains")


@pytest.mark.parametrize("cell", lockstep.cells(), ids=lambda cell: cell.id)
def test_cell(cell):
    failures = lockstep.check(cell)
    assert not failures, "\n".join(failures)


# -- memo_fresh beyond the drive: a fault and a lazy migration ---------------------

BIT_FLIP_IDS = [f"memo_fresh-faulty-x86_64-{engine}-q64-bitflip"
                for engine in ENGINES]


@pytest.mark.parametrize("engine", list(ENGINES), ids=BIT_FLIP_IDS)
def test_memo_fresh_across_an_injected_bit_flip(engine):
    """With the lazy migration below: 160 memo_fresh cases in all."""
    program = compile_source(SENTINEL_SOURCE, "faulty")
    addr = program.binary("x86_64").symtab.address_of("sentinel")
    fault = BitFlip(at_slice=40, addr=addr, bit=3)
    track = lockstep.Track(program, "x86_64", engine, sliced=True,
                           fresh=True, fault=fault)
    track.run()
    assert fault.fired and track.recorder.journal.of_kind(jn.EV_FAULT)
    assert track.checker.mismatches == []


def test_memo_fresh_across_a_lazy_migration():
    """Post-copy page-ins land between digests on the destination;
    both machines are folded by one state."""
    checker = lockstep.FreshEverySlice()
    recorded = record_migrate(LOOP_SOURCE, "loop", warmup=3000, lazy=True)
    Replayer(recorded.journal).run(observer=checker)
    assert checker.slices == recorded.recorder.slices
    assert checker.mismatches == []


# -- coverage pin ------------------------------------------------------------------


def test_every_cell_the_separate_differentials_covered_is_covered():
    """The digest-memo, tickless and fuzz differentials were separate
    harnesses; every (oracle, program, ISA, engine, quantum) cell they
    checked is a runner cell now, and ``cross_engine`` is new."""
    print(collections.Counter(cell.oracle for cell in lockstep.cells()))
    have = set(lockstep.cells())

    def want(oracle, programs, arches, engines, quanta, chunks=(997,)):
        return {lockstep.Cell(oracle, *cell) for cell in itertools.product(
            programs, arches, engines, quanta, chunks)}

    apps, arches, engines = lockstep.APPS, lockstep.ARCHES, list(ENGINES)
    threaded = ("blackscholes", "streamcluster", "swaptions")
    assert len(apps) == 13 and len(BIT_FLIP_IDS) == 3
    assert have >= want("memo_fresh", apps, arches, engines, (64, 7))
    assert have >= want("undivided_sliced", apps, arches, engines, (64,))
    assert have >= want("undivided_sliced", threaded, arches, engines, (64,),
                        (100_000,))
    assert have >= want("undivided_sliced", ["spawner"], ["x86_64"], engines,
                        (7, 64), (100, 997, 100_000))
    assert have >= want("cross_engine", apps, arches, engines[1:], (64, 7))
    assert len(lockstep.cells("tier3_bound")) >= 84
    assert {cell.program for cell in lockstep.cells("cross_isa")} \
        == set(apps) | {f"fuzz{seed}" for seed in range(20)}
