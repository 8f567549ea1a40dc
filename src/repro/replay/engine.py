"""Replay engine: scenarios reconstructed from journal headers.

A journal header is a complete, self-contained description of a run —
including the DapperC source text — so any journal can be re-executed
from scratch. The single-program scenario shapes:

* ``run`` — spawn the program on one machine and run it to exit,
* ``migrate`` — run, pause at equivalence points after a warmup,
  cross-ISA migrate via the full pipeline, finish on the destination,
* ``rerandomize`` — run under the periodic stack re-randomizer, with
  every epoch-seed and frame-shuffle draw journaled via the RNG
  service,

plus the ``fleet`` storm and the coordinated ``group`` checkpoint. The
chaos harnesses judge trials that :func:`migrate_scenario` and
:func:`group_scenario` build, so a trial and its journal are one run.

The :class:`Replayer` re-executes a journal's scenario, optionally on
a different execution engine (digests must not change) and under a
:class:`~repro.replay.recorder.ReplayObserver` (a
:class:`~repro.replay.recorder.StateAt` reconstructs the machine state
at an instruction count or digest index, and may stop the run there).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional

from ..compiler import compile_source
from ..core.migration import (MigrationPipeline, exe_path_for,
                              install_program)
from ..core.rerandomize import PeriodicRerandomizer
from ..core.rng import RngService
from ..errors import JournalError, MigrationRollback
from ..isa import get_isa
from ..vm.kernel import ENGINES, Machine
from . import journal as jn
from .journal import Journal
from .recorder import BitFlip, FlightRecorder, ReplayStop

DEFAULT_MAX_STEPS = 50_000_000


@lru_cache(maxsize=32)
def _compile(source: str, name: str):
    return compile_source(source, name)


class ReplayResult:
    """Outcome of one (possibly partial) scenario execution."""

    def __init__(self, journal: Journal, recorder: FlightRecorder,
                 stopped: bool, exit_code: Optional[int]):
        self.journal = journal
        self.recorder = recorder
        self.stopped = stopped
        self.exit_code = exit_code

    def __repr__(self) -> str:
        state = "stopped" if self.stopped else f"exit={self.exit_code}"
        return (f"<ReplayResult {state} slices={self.recorder.slices} "
                f"digests={self.recorder.digest_count}>")


def _machine(header: Dict, arch: str, name: str = "node") -> Machine:
    """A machine for one journaled run. A journal may name any of the
    ``ENGINES``; all of them produce the same digest stream for the
    same scenario, which is what lets a journal recorded under one tier
    be validated under another."""
    return Machine(get_isa(arch), name=name,
                   quantum=header.get("quantum", 64),
                   **ENGINES[header.get("engine", "blocks")])


def _execute_run(header: Dict, recorder: FlightRecorder) -> Optional[int]:
    program = _compile(header["source"], header["program"])
    arch = header["src_arch"]
    machine = _machine(header, arch)
    recorder.attach(machine)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    machine.run_process(process,
                        header.get("max_steps", DEFAULT_MAX_STEPS))
    return process.exit_code


def _chaos_injector(header: Dict, recorder: Optional[FlightRecorder]):
    """The fault injector a ``chaos`` header field describes, or None.

    The spec round-trips the seed + per-kind probabilities, every fault
    decision is an RNG-service draw the recorder journals, and fired
    faults land as EV_FAULT events — so a faulted run replays
    bit-identically from its own journal."""
    chaos = header.get("chaos") or ""
    if not chaos:
        return None
    from ..chaos import FaultInjector, FaultPlan
    plan = FaultPlan.from_spec(chaos)
    observer = recorder.on_rng if recorder is not None else None
    return FaultInjector(
        plan, rng=RngService(plan.seed, observer=observer, name="chaos"),
        recorder=recorder)


def migrate_scenario(header: Dict,
                     recorder: Optional[FlightRecorder] = None):
    """Build the migration a ``migrate`` header describes, up to its
    cut: ``(pipeline, process)``, the process warmed up on the source
    and ready for ``pipeline.migrate``."""
    program = _compile(header["source"], header["program"])
    src = _machine(header, header["src_arch"], name="src")
    dst = _machine(header, header["dst_arch"], name="dst")
    if recorder is not None:
        recorder.attach(src)
        recorder.attach(dst)
    pipeline = MigrationPipeline(
        src, dst, program, use_store=bool(header.get("store", 0)),
        injector=_chaos_injector(header, recorder),
        retry_budget=header.get("retries", 3) or 3,
        arrival_check=not header.get("verify_gate", 0))
    process = pipeline.start()
    src.step_all(header.get("warmup", 5000))
    if process.exited:
        raise JournalError("process exited before the migration point; "
                           "lower warmup")
    return pipeline, process


def _execute_migrate(header: Dict, recorder: FlightRecorder
                     ) -> Optional[int]:
    pipeline, process = migrate_scenario(header, recorder)
    max_steps = header.get("max_steps", DEFAULT_MAX_STEPS)
    try:
        result = pipeline.migrate(process, lazy=bool(header.get("lazy", 0)))
    except MigrationRollback as exc:
        # Transaction aborted: the source resumed untouched — finish the
        # run there. The rollback is part of the journaled control flow.
        recorder.on_event(jn.EV_MIGRATE, pid=process.pid,
                          label=f"rolled-back@{exc.stage}", a=exc.attempts)
        pipeline.src_machine.run_process(process, max_steps)
        return process.exit_code
    recorder.on_event(jn.EV_CHECKPOINT, pid=process.pid,
                      a=result.images.total_bytes())
    recorder.on_event(jn.EV_REWRITE, label="cross-isa",
                      a=result.stats.get("frames", 0))
    recorder.on_event(jn.EV_MIGRATE,
                      label=f"{header['src_arch']}->{header['dst_arch']}",
                      pid=result.process.pid)
    pipeline.dst_machine.run_process(result.process, max_steps)
    return result.process.exit_code


def _execute_rerandomize(header: Dict, recorder: FlightRecorder
                         ) -> Optional[int]:
    program = _compile(header["source"], header["program"])
    arch = header["src_arch"]
    machine = _machine(header, arch)
    recorder.attach(machine)
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    rng = RngService(header.get("seed", 0), observer=recorder.on_rng,
                     name="rerandomize")
    rerand = PeriodicRerandomizer(machine, process, program.binary(arch),
                                  interval_steps=header.get("interval",
                                                            2000),
                                  rng=rng)
    for _ in range(1000):
        if not rerand.run_epoch():
            break
        epoch = rerand.epochs[-1]
        recorder.on_event(jn.EV_REWRITE, label="stack-shuffle",
                          a=epoch.seed, b=epoch.pairs)
    else:
        raise JournalError("process still running after 1000 epochs")
    return rerand.process.exit_code


def _execute_fleet(header: Dict, recorder: FlightRecorder
                   ) -> Optional[int]:
    """Run (or re-run) a fleet migration storm from its header.

    The ``fleet`` spec string and the optional ``chaos`` plan are the
    entire input: the storm is a pure function of the two, every chaos
    draw goes through a journal-observed RNG service, and the barrier
    schedule plus periodic fleet-state digests land in the journal —
    so a recorded thousand-node storm replays bit-identically, exactly
    like the single-process scenarios above.
    """
    # Imported lazily: the fleet package pulls in the apps registry,
    # which plain run/migrate replays never need.
    from ..fleet import FleetSpec, FleetStorm
    spec = FleetSpec.from_spec(header["fleet"])
    plan = None
    chaos = header.get("chaos") or ""
    if chaos:
        from ..chaos import FaultPlan
        plan = FaultPlan.from_spec(chaos)
    storm = FleetStorm(spec, plan, recorder=recorder,
                       digest_every=header.get("digest_every", 8))
    result = storm.run()
    return 0 if result.invariant_ok else 1


def group_scenario(header: Dict,
                   recorder: Optional[FlightRecorder] = None):
    """Build the group checkpoint a ``group`` header describes, up to
    its cut: ``(group, placements, coordinator)``, every member warmed
    up, the workers placed on ``dst_arch`` and the backend on a
    same-ISA destination. The ``group`` spec (with its forced fault
    phase, if any) and the optional ``chaos`` plan are the input."""
    # Lazy import: the group package pulls in the apps registry, which
    # plain run/migrate replays never need.
    from ..group import GroupCoordinator, GroupSpec, ServiceGroup, \
        split_placements
    from ..store import CheckpointStore
    spec = GroupSpec.from_spec(header["group"])
    src = _machine(header, header["src_arch"], name="src")
    group = ServiceGroup(spec, recorder=recorder, machine=src)
    group.warmup()
    dst_a = _machine(header, header.get("dst_arch", "aarch64"),
                     name="dst-a")
    dst_b = _machine(header, header["src_arch"], name="dst-b")
    if recorder is not None:
        recorder.attach(dst_a)
        recorder.attach(dst_b)
    placements = split_placements(group, dst_a, dst_b)
    coordinator = GroupCoordinator(
        group, placements, store=CheckpointStore(),
        injector=_chaos_injector(header, recorder), recorder=recorder,
        fault_phase=spec.fault,
        retry_budget=header.get("retries", 3) or 3)
    return group, placements, coordinator


def _execute_group(header: Dict, recorder: FlightRecorder
                   ) -> Optional[int]:
    """Run (or re-run) a coordinated group checkpoint from its header.

    Each protocol phase journals as a content-derived ``EV_GROUP``
    event and every chaos decision draws through a journal-observed
    RNG, so a group checkpoint replays bit-identically from its own
    journal, commit and abort alike."""
    from ..errors import GroupRollback
    group, placements, coordinator = group_scenario(header, recorder)
    max_steps = header.get("max_steps", DEFAULT_MAX_STEPS)
    try:
        result = coordinator.migrate()
    except GroupRollback:
        # Aborted: every member resumed at the cut — finish the run on
        # the source. The abort is part of the journaled control flow.
        return group.run_to_exit_on_source(max_steps)[-1]
    code: Optional[int] = 0
    for machine, process in zip(placements, result.processes):
        code = machine.run_process(process, max_steps)
    return code


_SCENARIOS = {
    "run": _execute_run,
    "migrate": _execute_migrate,
    "rerandomize": _execute_rerandomize,
    "fleet": _execute_fleet,
    "group": _execute_group,
}


def execute(header: Dict, recorder: FlightRecorder) -> ReplayResult:
    """Run the scenario ``header`` describes under ``recorder``."""
    scenario = header.get("scenario", "run")
    runner = _SCENARIOS.get(scenario)
    if runner is None:
        raise JournalError(f"unknown scenario {scenario!r}; "
                           f"known: {sorted(_SCENARIOS)}")
    recorder.journal.header.update(header)
    try:
        exit_code = runner(header, recorder)
    except ReplayStop:
        return ReplayResult(recorder.journal, recorder, True, None)
    finally:
        recorder.detach_all()
    recorder.finalize(exit_code)
    return ReplayResult(recorder.journal, recorder, False, exit_code)


def _make_header(scenario: str, source: str, name: str, arch: str,
                 engine: str, quantum: int, digest_every: int,
                 max_steps: int, record_syscalls: bool,
                 fault: Optional[BitFlip], **extra) -> Dict:
    if engine not in ENGINES:
        raise JournalError(f"unknown engine {engine!r}")
    header = {
        "scenario": scenario, "program": name, "source": source,
        "src_arch": arch, "engine": engine, "quantum": quantum,
        "digest_every": digest_every, "max_steps": max_steps,
        "record_syscalls": int(record_syscalls),
    }
    header.update({k: v for k, v in extra.items() if v is not None})
    if fault is not None:
        header.update(fault.header_fields())
    return header


def record(header: Dict, fault: Optional[BitFlip] = None
           ) -> ReplayResult:
    """Record the scenario ``header`` describes under a fresh
    :class:`FlightRecorder` at the header's digest cadence."""
    recorder = FlightRecorder(
        digest_every=header.get("digest_every", 1),
        record_syscalls=bool(header.get("record_syscalls", 1)),
        fault=fault)
    return execute(header, recorder)


def record_run(source: str, name: str, arch: str = "x86_64",
               engine: str = "blocks", quantum: int = 64,
               digest_every: int = 1, max_steps: int = DEFAULT_MAX_STEPS,
               record_syscalls: bool = True,
               fault: Optional[BitFlip] = None) -> ReplayResult:
    """Record one plain run; returns the completed :class:`ReplayResult`."""
    header = _make_header("run", source, name, arch, engine, quantum,
                          digest_every, max_steps, record_syscalls, fault)
    return record(header, fault)


def migrate_header(source: str, name: str, src_arch: str = "x86_64",
                   dst_arch: str = "aarch64", warmup: int = 5000,
                   lazy: bool = False, store: bool = False,
                   engine: str = "blocks",
                   quantum: int = 64, digest_every: int = 1,
                   max_steps: int = DEFAULT_MAX_STEPS,
                   record_syscalls: bool = True,
                   fault: Optional[BitFlip] = None,
                   chaos: str = "",
                   retries: Optional[int] = None,
                   verify_gate: bool = False) -> Dict:
    """The self-contained journal header for one cross-ISA migration.

    ``store=True`` transfers through the checkpoint store; ``chaos`` (a
    :meth:`~repro.chaos.FaultPlan.to_spec` string) and its ``retries``
    budget make it a fault-injected transaction; ``verify_gate`` turns
    the arrival digest check off, so injected corruption is judged by
    the restore guard. Fields left off are omitted from the header."""
    return _make_header("migrate", source, name, src_arch, engine,
                        quantum, digest_every, max_steps,
                        record_syscalls, fault, dst_arch=dst_arch,
                        warmup=warmup, lazy=int(lazy),
                        store=int(store) if store else None,
                        chaos=chaos or None, retries=retries,
                        verify_gate=1 if verify_gate else None)


def record_migrate(source: str, name: str, **shape) -> ReplayResult:
    """Record a run that live-migrates across ISAs mid-execution; the
    keywords are :func:`migrate_header`'s. Store operations land as
    content-derived EV_STORE events and a chaotic run's faults as
    EV_FAULT events, so record and replay stay bit-identical."""
    return record(migrate_header(source, name, **shape),
                  shape.get("fault"))


def record_rerandomize(source: str, name: str, arch: str = "x86_64",
                       interval: int = 2000, seed: int = 0,
                       engine: str = "blocks", quantum: int = 64,
                       digest_every: int = 1,
                       max_steps: int = DEFAULT_MAX_STEPS,
                       record_syscalls: bool = True,
                       fault: Optional[BitFlip] = None) -> ReplayResult:
    """Record a run under periodic stack re-randomization."""
    header = _make_header("rerandomize", source, name, arch, engine,
                          quantum, digest_every, max_steps,
                          record_syscalls, fault, interval=interval,
                          seed=seed)
    return record(header, fault)


def fleet_header(fleet_spec: str, chaos: str = "",
                 digest_every: int = 8) -> Dict:
    """The self-contained journal header for one fleet storm.

    ``fleet_spec`` is a :meth:`~repro.fleet.FleetSpec.to_spec` string;
    ``chaos`` an optional :meth:`~repro.chaos.FaultPlan.to_spec`
    string. Both embed in the header, which therefore fully describes
    the storm — :class:`Replayer` re-runs it and must reproduce the
    same barrier schedule, RNG stream, and fleet-state digests
    byte-for-byte.
    """
    header: Dict = {
        "scenario": "fleet", "program": "fleet-storm", "source": "",
        "src_arch": "x86_64", "fleet": fleet_spec,
        "digest_every": digest_every, "record_syscalls": 0,
    }
    if chaos:
        header["chaos"] = chaos
    return header


def record_fleet(fleet_spec: str, chaos: str = "",
                 digest_every: int = 8) -> ReplayResult:
    """Record one fleet migration storm (see :func:`fleet_header`)."""
    recorder = FlightRecorder(digest_every=0, record_syscalls=False)
    return execute(fleet_header(fleet_spec, chaos, digest_every),
                   recorder)


def group_header(group_spec: str, chaos: str = "",
                 digest_every: int = 64) -> Dict:
    """The self-contained journal header for one coordinated group
    checkpoint.

    ``group_spec`` is a :meth:`~repro.group.GroupSpec.to_spec` string
    (including the forced fault phase, if any); ``chaos`` an optional
    :meth:`~repro.chaos.FaultPlan.to_spec` string. Both embed in the
    header, which therefore fully describes the run — :class:`Replayer`
    re-runs it and must reproduce the same ``EV_GROUP`` protocol
    events, RNG stream, fired faults, and machine digests
    byte-for-byte, whether the group committed or aborted.
    """
    header: Dict = {
        "scenario": "group", "program": "group-nginx+redis",
        "source": "", "src_arch": "x86_64", "dst_arch": "aarch64",
        "group": group_spec, "digest_every": digest_every,
        "record_syscalls": 0,
    }
    if chaos:
        header["chaos"] = chaos
    return header


def record_group(group_spec: str, chaos: str = "",
                 digest_every: int = 64) -> ReplayResult:
    """Record one coordinated group checkpoint (see
    :func:`group_header`)."""
    return record(group_header(group_spec, chaos, digest_every))


class Replayer:
    """Re-executes a journal's scenario.

    ``engine`` switches the execution engine (``"interp"`` /
    ``"blocks"`` / ``"chains"``); a correct engine produces a
    bit-identical digest stream, which is exactly what the CI
    replay-smoke job asserts. The fault recorded in the journal's own
    header (if any) is re-injected, so a divergent run reproduces from
    its own journal.
    """

    def __init__(self, journal: Journal, engine: Optional[str] = None):
        self.header = dict(journal.header)
        if engine is not None:
            if engine not in ENGINES:
                raise JournalError(f"unknown engine {engine!r}")
            self.header["engine"] = engine

    def run(self, observer=None) -> ReplayResult:
        """Execute the scenario; ``observer`` is a
        :class:`~repro.replay.recorder.ReplayObserver` notified at every
        safe point (state capture and snapshot hooks)."""
        recorder = FlightRecorder(
            digest_every=self.header.get("digest_every", 1),
            record_syscalls=bool(self.header.get("record_syscalls", 1)),
            fault=BitFlip.from_header(self.header),
            observer=observer)
        return execute(dict(self.header), recorder)


def replay_check(recorded: ReplayResult, kinds) -> List[str]:
    """Replay ``recorded`` from its own journal and compare its digest
    stream and the event streams of ``kinds`` (``EV_*`` codes); returns
    one line per stream that diverged (empty: bit-identical)."""
    replayed = Replayer(recorded.journal).run()

    def streams(journal: Journal):
        yield "digest", journal.digest_stream()
        for kind in kinds:
            yield jn.KIND_NAMES[kind], [
                (e.get("label", ""), e.get("a", 0), e.get("b", 0))
                for e in journal.of_kind(kind)]

    return [f"{name} stream DIVERGED ({len(a)} vs {len(b)} events)"
            for (name, a), (_, b) in zip(streams(recorded.journal),
                                         streams(replayed.journal))
            if a != b]
