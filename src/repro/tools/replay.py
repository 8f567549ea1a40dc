"""repro-replay — flight-recorder CLI: record, replay, diff, seek, show.

Examples::

    # record a benchmark app (or any DapperC source file) into a journal
    python -m repro.tools.replay record dhrystone -o dhry.jrn
    python -m repro.tools.replay record app.dc --scenario migrate \\
        --src-arch x86_64 --dst-arch aarch64 -o mig.jrn

    # re-execute and verify bit-identity (optionally on the other engine)
    python -m repro.tools.replay replay dhry.jrn --engine interp

    # pinpoint the first diverging quantum between two journals
    python -m repro.tools.replay diff good.jrn bad.jrn

    # reconstruct machine state at one or more instruction counts
    # (a single re-execution copies the state at every target)
    python -m repro.tools.replay seek dhry.jrn --instr 2000 --instr 5000

    # summarize a journal
    python -m repro.tools.replay show dhry.jrn
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..errors import ReproError
from ..replay import (BitFlip, Journal, Replayer, StateAt,
                      pinpoint_divergence, record_migrate,
                      record_rerandomize, record_run)
from ..replay.journal import KIND_NAMES
from ._cli import guarded


def _load_source(spec: str) -> tuple:
    """Resolve ``spec`` as a benchmark-app name or a DapperC file path."""
    if os.path.exists(spec):
        with open(spec, "r", encoding="utf-8") as handle:
            name = os.path.splitext(os.path.basename(spec))[0]
            return handle.read(), name
    from ..apps.registry import get_app
    try:
        app = get_app(spec)
    except KeyError as exc:
        raise ReproError(str(exc)) from None
    return app.source("small"), app.name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-replay",
        description="Deterministic record/replay of simulated VM runs.")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="record a run into a journal")
    rec.add_argument("program",
                     help="benchmark app name (e.g. dhrystone) or a "
                          "DapperC source file")
    rec.add_argument("-o", "--output", required=True,
                     help="journal file to write")
    rec.add_argument("--scenario", default="run",
                     choices=["run", "migrate", "rerandomize"])
    rec.add_argument("--arch", "--src-arch", dest="src_arch",
                     default="x86_64")
    rec.add_argument("--dst-arch", default="aarch64",
                     help="destination ISA (migrate scenario)")
    rec.add_argument("--engine", default="blocks",
                     choices=["blocks", "interp", "chains"])
    rec.add_argument("--quantum", type=int, default=64)
    rec.add_argument("--digest-every", type=int, default=1,
                     help="emit a state digest every N scheduling slices")
    rec.add_argument("--warmup", type=int, default=5000,
                     help="instructions before migrating (migrate)")
    rec.add_argument("--lazy", action="store_true",
                     help="post-copy restore (migrate)")
    rec.add_argument("--store", action="store_true",
                     help="route the transfer through the "
                          "content-addressed checkpoint store (migrate)")
    rec.add_argument("--interval", type=int, default=2000,
                     help="instructions per shuffle epoch (rerandomize)")
    rec.add_argument("--seed", type=int, default=0,
                     help="RNG seed (rerandomize)")
    rec.add_argument("--max-steps", type=int, default=50_000_000)
    rec.add_argument("--fault-slice", type=int,
                     help="inject a bit flip at this scheduling slice")
    rec.add_argument("--fault-addr", type=lambda v: int(v, 0),
                     help="address of the byte to flip")
    rec.add_argument("--fault-bit", type=int, default=0,
                     help="bit index to flip (default 0)")

    rep = sub.add_parser("replay",
                         help="re-execute a journal and verify bit-identity")
    rep.add_argument("journal")
    rep.add_argument("--engine", choices=["blocks", "interp", "chains"],
                     help="override the execution engine")
    rep.add_argument("-o", "--output",
                     help="also write the replay's journal here")

    diff = sub.add_parser("diff",
                          help="pinpoint the first divergence between "
                               "two journals")
    diff.add_argument("journal_a")
    diff.add_argument("journal_b")
    diff.add_argument("--mem-limit", type=int, default=64,
                      help="max memory byte diffs to report")

    seek = sub.add_parser("seek",
                          help="re-execute up to one or more instruction "
                               "counts and dump thread state at each")
    seek.add_argument("journal")
    seek.add_argument("--instr", type=int, required=True, action="append",
                      help="dump the state at the first slice boundary "
                           "at or past this many retired instructions "
                           "(repeatable; one re-execution serves all "
                           "targets)")
    seek.add_argument("--engine", choices=["blocks", "interp", "chains"])

    show = sub.add_parser("show", help="summarize a journal")
    show.add_argument("journal")
    show.add_argument("--events", action="store_true",
                      help="dump every event")
    return parser


def _fault_from(args: argparse.Namespace) -> Optional[BitFlip]:
    if args.fault_slice is None:
        return None
    if args.fault_addr is None:
        raise ReproError("--fault-slice needs --fault-addr")
    return BitFlip(args.fault_slice, args.fault_addr, args.fault_bit)


def _cmd_record(args: argparse.Namespace) -> int:
    source, name = _load_source(args.program)
    common = dict(engine=args.engine, quantum=args.quantum,
                  digest_every=args.digest_every,
                  max_steps=args.max_steps, fault=_fault_from(args))
    if args.scenario == "run":
        result = record_run(source, name, arch=args.src_arch, **common)
    elif args.scenario == "migrate":
        result = record_migrate(source, name, src_arch=args.src_arch,
                                dst_arch=args.dst_arch, warmup=args.warmup,
                                lazy=args.lazy, store=args.store, **common)
    else:
        result = record_rerandomize(source, name, arch=args.src_arch,
                                    interval=args.interval, seed=args.seed,
                                    **common)
    result.journal.save(args.output)
    summary = result.journal.summary()
    print(f"recorded {name} [{args.scenario}]: exit={result.exit_code} "
          f"slices={result.recorder.slices} "
          f"instr={result.recorder.instructions} "
          f"digests={summary.get('digest', 0)} -> {args.output}")
    return 0


def _cmd_replay(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    result = Replayer(journal, engine=args.engine).run()
    if args.output:
        result.journal.save(args.output)
    report = pinpoint_divergence(journal, result.journal,
                                 engine_b=args.engine)
    engine = args.engine or journal.header.get("engine", "blocks")
    if report is None:
        recorded = len(journal.digest_stream())
        replayed = len(result.journal.digest_stream())
        print(f"replay OK on engine={engine}: "
              f"{min(recorded, replayed)} digests bit-identical")
        return 0
    print(f"replay DIVERGED on engine={engine}:")
    print(report.format())
    return 1


def _cmd_diff(args: argparse.Namespace) -> int:
    journal_a = Journal.load(args.journal_a)
    journal_b = Journal.load(args.journal_b)
    report = pinpoint_divergence(journal_a, journal_b,
                                 mem_limit=args.mem_limit)
    if report is None:
        print("journals agree (digest streams identical on the "
              "common prefix)")
        return 0
    print(report.format())
    return 1


def _print_state(snapshot: dict) -> None:
    for (mi, pid), proc in sorted(snapshot.items()):
        print(f"  machine {mi} pid {pid} [{proc['isa']}] "
              f"heap_end={proc['heap_end']:#x} "
              f"instr={proc['instr_total']}")
        for tid, thread in sorted(proc["threads"].items()):
            regs = " ".join(f"r{i}={v:#x}"
                            for i, v in enumerate(thread["regs"]))
            print(f"    tid {tid} pc={thread['pc']:#x} "
                  f"status={thread['status']} {regs}")


def _cmd_seek(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    at = StateAt(instrs=args.instr)
    result = Replayer(journal, engine=args.engine).run(observer=at)
    for target in sorted(set(args.instr)):
        if ("instr", target) not in at.states:
            print(f"run completed (exit={result.exit_code}) before "
                  f"instruction {target}", file=sys.stderr)
            return 1
        instructions, slices, state = at.states[("instr", target)]
        print(f"state at instr>={target} "
              f"(instr={instructions} slices={slices}):")
        _print_state(state)
    return 0


def _cmd_show(args: argparse.Namespace) -> int:
    journal = Journal.load(args.journal)
    header = journal.header
    print(f"journal {args.journal}: {header.get('program')} "
          f"[{header.get('scenario')}] engine={header.get('engine')} "
          f"src_arch={header.get('src_arch')}"
          + (f" dst_arch={header['dst_arch']}"
             if "dst_arch" in header else ""))
    print(f"  instructions={journal.instructions()} "
          f"exit={journal.exit_code()}")
    print("  events:", " ".join(f"{k}={v}" for k, v
                                in sorted(journal.summary().items())))
    if args.events:
        for event in journal.events:
            kind = KIND_NAMES.get(event["kind"], str(event["kind"]))
            rest = {k: (v.hex() if isinstance(v, bytes) else v)
                    for k, v in event.items() if k != "kind"}
            print(f"  {kind:10s} {rest}")
    return 0


_COMMANDS = {
    "record": _cmd_record,
    "replay": _cmd_replay,
    "diff": _cmd_diff,
    "seek": _cmd_seek,
    "show": _cmd_show,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("repro-replay", lambda: _COMMANDS[args.command](args))


if __name__ == "__main__":
    raise SystemExit(main())
