"""One lockstep runner for the tier and ISA differentials.

Per (program, ISA) a drive runs every engine of ``repro.vm.ENGINES`` as
two tracks, *undivided* (no recorder: a sole thread runs a whole
``step_all`` as one slice) and *sliced* (a ``FlightRecorder`` attached:
every slice stays on the quantum grid), steps all six by the same
budgets under each :class:`Schedule`, and judges them with named
oracles: ``memo_fresh`` (the recorder's memoised digest equals a fresh
``machine_digest`` after every slice), ``undivided_sliced`` (the two
tracks observe the same after every ``step_all``), ``cross_engine``
(blocks and chains observe what interp does), ``tier3_bound`` (the
chains engine bound a chain) and ``cross_isa`` (native runs agree on
both ISAs). A verdict belongs to a :class:`Cell`; its id, e.g.
``memo_fresh-redis-aarch64-chains-q7``, starts every failure message.
The runner does not force tier 3: short programs bind chains only with
``chains.CHAIN_THRESHOLD`` at 1.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Dict, List, NamedTuple, Optional

from ..apps.registry import all_apps, get_app
from ..compiler import compile_source
from ..core.migration import exe_path_for, install_program
from ..isa import get_isa
from ..replay import journal as jn
from ..replay.digest import DigestState, machine_digest
from ..replay.recorder import FlightRecorder, ReplayObserver
from ..vm import ENGINES, Machine, chains
from ..vm.interp import CpuFault
from .generator import generate_program

ARCHES = ("x86_64", "aarch64")
APPS = tuple(spec.name for spec in all_apps())
THREAD_CREATING = ("blackscholes", "streamcluster", "swaptions")
CHUNK = 997             # prime: sync points drift across the quantum grid
LONG_CHUNK = 100_000    # one step_all spans a whole sole-thread prologue
MAX_STEPS = 30_000_000
FUZZ_SEEDS = tuple(range(20))

#: A sole-thread prologue of many quanta, then two threads.
SPAWNER_SOURCE = """
global int total;
global int mtx;

func worker(int n) {
    int i;
    i = 0;
    while (i < n) {
        lock(&mtx);
        total = total + i;
        unlock(&mtx);
        i = i + 1;
    }
}

func main() -> int {
    int i; int acc; int t1; int t2;
    i = 0; acc = 0;
    while (i < 70) { acc = acc + i * i; i = i + 1; }
    t1 = spawn(worker, 30);
    i = 0;
    while (i < 90) { acc = acc + i; i = i + 1; }
    t2 = spawn(worker, 20);
    join(t1);
    join(t2);
    print(acc + total);
    return 0;
}
"""


@lru_cache(maxsize=None)
def program(name: str):
    """A registry app (size ``small``), ``spawner`` or ``fuzz<seed>``,
    compiled once."""
    if name == "spawner":
        return compile_source(SPAWNER_SOURCE, name)
    if name.startswith("fuzz"):
        return compile_source(generate_program(int(name[4:])), name)
    return get_app(name).compile("small")


class Reference(NamedTuple):
    stdout: str
    exit_code: Optional[int]
    instr_total: int
    bound: int              # chains bound during the run


@lru_cache(maxsize=None)
def reference(name: str, arch: str) -> Reference:
    """``name`` run natively to exit on a default machine."""
    track = Track(program(name), arch, "chains")
    track.run()
    return track.as_reference()


class FreshEverySlice(ReplayObserver):
    """``memo_fresh``: the digest the recorder just journaled must equal
    the same fold run on a fresh state."""

    def __init__(self):
        self.slices = 0
        self.mismatches: List[int] = []

    def after_slice(self, recorder: FlightRecorder) -> None:
        self.slices += 1
        event = recorder.journal.events[-1]
        if event["kind"] != jn.EV_DIGEST \
                or event["payload"] != machine_digest(recorder.machines):
            self.mismatches.append(recorder.slices)


class Track:
    """One machine running one program. ``sliced`` attaches a recorder
    (digesting every slice, checked by ``checker``, when ``fresh``).
    ``calls`` lists every ``(pid, tid, executed)`` slice; ``bound``
    counts the chains bound while this track ran."""

    def __init__(self, program, arch: str, engine: str, quantum: int = 64,
                 sliced: bool = False, fresh: bool = False, fault=None):
        self.machine = machine = Machine(get_isa(arch), quantum=quantum,
                                         **ENGINES[engine])
        self.checker = FreshEverySlice() if fresh else None
        self.recorder = None
        if sliced:
            self.recorder = FlightRecorder(
                digest_every=int(fresh), fault=fault,
                observer=self.checker).attach(machine)
        install_program(machine, program)
        self.path = exe_path_for(program.name, arch)
        self.process = machine.spawn_process(self.path)
        self.calls: List[tuple] = []
        self.bound = 0
        self._digests = DigestState()
        inner = machine._run_thread

        def counted(process, thread, quantum):
            bound = chains.chain_stats["bound"]
            done = inner(process, thread, quantum)
            self.bound += chains.chain_stats["bound"] - bound
            self.calls.append((process.pid, thread.tid, done))
            return done

        machine._run_thread = counted

    def run(self) -> None:
        self.machine.run_process(self.process, MAX_STEPS)

    def step(self, budget: int) -> tuple:
        """``step_all(budget)`` and everything observable after it: the
        count (or fault), digest, whether anything can run, and per
        process its output, exit code, totals and threads."""
        try:
            executed = self.machine.step_all(budget)
        except CpuFault as exc:
            executed = str(exc)
        machine = self.machine
        return (executed, self._digests.digest([machine]),
                machine.has_runnable(),
                [(p.pid, p.stdout(), p.exit_code, p.instr_total,
                  p.cycle_total, [(t.tid, t.status, t.pc, t.instr_count)
                                  for t in p.threads.values()])
                 for p in machine.processes.values()])

    def as_reference(self) -> Reference:
        process = self.process
        return Reference(process.stdout(), process.exit_code,
                         process.instr_total, self.bound)


class Lane:
    """One engine's undivided and sliced tracks, stepped together."""

    def __init__(self, program, arch, engine, quantum, fresh=False):
        self.engine = engine
        self.tracks = (Track(program, arch, engine, quantum),
                       Track(program, arch, engine, quantum, sliced=True,
                             fresh=fresh))
        self.seen = None
        self.done = False

    def step(self, budget: int) -> None:
        self.seen = tuple(track.step(budget) for track in self.tracks)
        got = self.seen[0]
        self.done = not got[0] or isinstance(got[0], str) or not got[2]
        # nothing reads the journal; the fresh check saw each slice's
        self.tracks[1].recorder.journal.events.clear()


def _lockstep(lanes: List[Lane], budgets, at_sync) -> None:
    """Step every unfinished lane by each budget in turn, calling
    ``at_sync(index, budget)`` after each round."""
    for index, budget in enumerate(budgets):
        live = [lane for lane in lanes if not lane.done]
        if not live:
            return
        for lane in live:
            lane.step(budget)
        at_sync(index, budget)


def _chunks(chunk: int):
    return itertools.repeat(chunk, MAX_STEPS // chunk)


def side_by_side(program, arch, engine, chunk, quantum=64, prefix=(),
                 prepare=None):
    """Run ``program`` undivided and sliced, ``chunk`` instructions at a
    time after the ``prefix`` budgets, asserting ``undivided_sliced``
    after every ``step_all``; ``prepare`` sees each track first.
    Returns (undivided, sliced)."""
    lane = Lane(program, arch, engine, quantum)
    for track in lane.tracks:
        if prepare is not None:
            prepare(track)

    def at_sync(index, budget):
        assert lane.seen[0] == lane.seen[1], (
            f"undivided_sliced-{program.name}-{arch}-{engine}-q{quantum}: "
            f"diverged in step_all #{index} (budget {budget})")

    _lockstep([lane], itertools.chain(prefix, _chunks(chunk)), at_sync)
    return lane.tracks


# -- the plan -------------------------------------------------------------------


class Schedule(NamedTuple):
    quantum: int
    chunk: int
    budget: Optional[int]       # None: to exit
    memo: bool                  # digest every slice (memo_fresh)

    def budgets(self):
        if self.budget is None:
            return _chunks(self.chunk)
        full, rest = divmod(self.budget, self.chunk)
        return [self.chunk] * full + [rest] * bool(rest)


class Cell(NamedTuple):
    oracle: str
    program: str
    arch: str
    engine: str
    quantum: int
    chunk: int = CHUNK

    @property
    def id(self) -> str:
        chunk = "" if self.chunk == CHUNK else f"-c{self.chunk}"
        return (f"{self.oracle}-{self.program}-{self.arch}-{self.engine}"
                f"-q{self.quantum}{chunk}")


def schedules(name: str) -> List[Schedule]:
    """Quantum 64 runs to exit; quantum 7 (slices cut mid-block, ~9x as
    many) a 12k-instruction prefix, which keeps the suite affordable."""
    if name == "spawner":
        return [Schedule(quantum, chunk, None, False) for quantum in (7, 64)
                for chunk in (100, CHUNK, LONG_CHUNK)]
    plan = [Schedule(64, CHUNK, None, True), Schedule(7, CHUNK, 12_000, True)]
    if name in THREAD_CREATING:         # also span the whole prologue
        plan.append(Schedule(64, LONG_CHUNK, None, False))
    return plan


DRIVES = [(app, arch) for app in APPS for arch in ARCHES] \
    + [("spawner", "x86_64")]


def _cells(name: str, arch: str, schedule: Schedule) -> List[Cell]:
    oracles = {"memo_fresh": list(ENGINES)} if schedule.memo else {}
    oracles.update(undivided_sliced=list(ENGINES),
                   cross_engine=["blocks", "chains"], tier3_bound=["chains"])
    return [Cell(oracle, name, arch, engine, schedule.quantum, schedule.chunk)
            for oracle, engines in oracles.items() for engine in engines]


def cells(oracle: Optional[str] = None) -> List[Cell]:
    """Every cell, or one ``oracle``'s, in the order a session runs them."""
    out = [cell for name, arch in DRIVES for schedule in schedules(name)
           for cell in _cells(name, arch, schedule)]
    fuzz = tuple(f"fuzz{seed}" for seed in FUZZ_SEEDS)
    out += [Cell("cross_isa", name, "aarch64", "chains", 64)
            for name in APPS + fuzz]
    out += [Cell("tier3_bound", name, arch, "chains", 64)
            for name in fuzz for arch in ARCHES]
    return [cell for cell in out if oracle in (None, cell.oracle)]


# -- drives and verdicts ------------------------------------------------------------


class Drive(NamedTuple):
    verdicts: Dict[Cell, List[str]]     # failures per cell; [] = held
    reference: Optional[Reference]      # the default machine's run


@lru_cache(maxsize=None)
def drive(name: str, arch: str) -> Drive:
    verdicts: Dict[Cell, List[str]] = {}
    native = None
    for schedule in schedules(name):
        verdicts.update((cell, []) for cell in _cells(name, arch, schedule))
        end = _drive(name, arch, schedule, verdicts)
        if native is None and schedule[:3] == (64, CHUNK, None):
            native = end
    return Drive(verdicts, native)


def _drive(name, arch, schedule, verdicts) -> Reference:
    """Drive one schedule; returns where the chains engine's undivided
    track — the default machine — ended."""
    quantum, chunk = schedule.quantum, schedule.chunk
    lanes = [Lane(program(name), arch, engine, quantum, schedule.memo)
             for engine in ENGINES]

    def fail(oracle, engine, message):
        cell = Cell(oracle, name, arch, engine, quantum, chunk)
        if not verdicts[cell]:              # the first failure says it
            verdicts[cell].append(f"{cell.id}: {message}")

    def at_sync(index, budget):
        where = f"after step_all #{index} (budget {budget})"
        for lane in lanes:
            if lane.seen[0] != lane.seen[1]:
                fail("undivided_sliced", lane.engine, f"diverged {where}")
            if lane.seen != lanes[0].seen:
                fail("cross_engine", lane.engine,
                     f"differs from interp {where}")

    _lockstep(lanes, schedule.budgets(), at_sync)
    for lane in lanes:
        for oracle, message in _guards(schedule, *lane.tracks):
            fail(oracle, lane.engine, message)
        for track in lane.tracks:       # what still runs frees its code now
            for process in list(track.machine.processes.values()):
                track.machine.kill(process)
    undivided, sliced = lanes[-1].tracks
    if not undivided.bound + sliced.bound:
        fail("tier3_bound", "chains", "the chains engine bound no chain")
    return undivided.as_reference()


def _guards(schedule: Schedule, undivided: Track, sliced: Track):
    """What makes a lane's comparison mean what its oracles claim."""
    checker, quantum = sliced.checker, schedule.quantum
    if checker is not None and checker.mismatches:
        yield "memo_fresh", (f"memoised digest != fresh after slices "
                             f"{checker.mismatches[:5]}")
    elif checker is not None \
            and not checker.slices == sliced.recorder.slices > 100:
        yield "memo_fresh", f"checked {checker.slices} slices"
    if not (len(sliced.calls) > len(undivided.calls)
            and max(done for _p, _t, done in sliced.calls) <= quantum):
        yield "undivided_sliced", "the sliced track was not on the grid"
    process = undivided.process
    if schedule.budget is None and process.exit_code != 0:
        yield "undivided_sliced", f"exit code {process.exit_code}"
    first = undivided.calls[0][2]
    if schedule.chunk == LONG_CHUNK and not (
            len(process.threads) > 1 and first > quantum
            and first % quantum == 0):
        # the prologue should run as one slice and end on the grid
        yield "undivided_sliced", f"the first slice ran {first}"


def check(cell: Cell) -> List[str]:
    """The failures of ``cell``, driving its program on first use."""
    if cell.oracle == "cross_isa":
        x86, arm = (drive(cell.program, arch).reference
                    if (cell.program, arch) in DRIVES
                    else reference(cell.program, arch) for arch in ARCHES)
        failures = []
        if (x86.exit_code, arm.exit_code) != (0, 0):
            failures.append(f"exit codes {x86.exit_code}, {arm.exit_code}")
        if x86.stdout != arm.stdout:
            failures.append("stdout differs between the ISAs")
        if not x86.stdout.strip():
            failures.append("the program printed nothing")
    elif (cell.program, cell.arch) in DRIVES:
        return drive(cell.program, cell.arch).verdicts.get(
            cell, [f"{cell.id}: not covered by its drive"])
    elif not reference(cell.program, cell.arch).bound:
        failures = ["the native run bound no chain"]
    else:
        failures = []
    return [f"{cell.id}: {failure}" for failure in failures]
