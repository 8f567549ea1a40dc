"""repro-group — coordinated group checkpoints from the command line.

Runs one two-phase group checkpoint-and-migrate (an nginx worker pool
plus a redis backend quiesced at a consistent cut, drained inside a
bounded budget, prepared into one group manifest, committed atomically)
— or, with ``--chaos``, the full chaos sweep: one forced fault per
protocol phase plus seeded probabilistic trials, asserting the
commit-or-resume invariant on every one.

Examples::

    python -m repro.tools.group --workers 3 --conns 12 --drain 6
    python -m repro.tools.group --fault commit --record group.journal
    python -m repro.tools.group --chaos --trials 8 --crash 0.25 \\
        --replay-check
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..chaos import KINDS, FaultPlan
from ..group.spec import FAULT_PHASES, GroupSpec
from ._cli import guarded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-group",
        description="Coordinated group checkpoint: quiesce, drain, "
                    "prepare, commit — any fault at any phase aborts "
                    "cleanly with every member resumed at the cut.")
    parser.add_argument("--workers", type=int, default=2,
                        help="nginx worker-pool size (default 2)")
    parser.add_argument("--conns", type=int, default=8,
                        help="simulated in-flight connections "
                             "(default 8)")
    parser.add_argument("--drain", type=int, default=4,
                        help="drain budget: connections served to "
                             "completion before the cut; the rest are "
                             "journaled into sockets.img (default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="connection-broker seed")
    parser.add_argument("--warmup", type=int, default=4000,
                        help="instructions each member runs before the "
                             "cut (default 4000)")
    parser.add_argument("--fault", default="", metavar="PHASE",
                        help="force a coordinator fault at a protocol "
                             f"phase ({', '.join(FAULT_PHASES)})")
    parser.add_argument("--record", metavar="PATH",
                        help="save the run's flight-recorder journal "
                             "to PATH")
    parser.add_argument("--replay-check", action="store_true",
                        help="replay the recorded journal and assert "
                             "its digest / RNG / fault / group event "
                             "streams are bit-identical")
    parser.add_argument("--chaos", action="store_true",
                        help="chaos-harness mode: forced-fault sweep "
                             "over every protocol phase plus seeded "
                             "probabilistic trials")
    parser.add_argument("--trials", type=int, default=0,
                        help="probabilistic trials in --chaos mode")
    parser.add_argument("--seed0", type=int, default=0,
                        help="first trial seed in --chaos mode")
    for kind in KINDS:
        parser.add_argument(f"--{kind}", type=float, default=0.0,
                            metavar="P",
                            help=f"chaos {kind} probability in [0, 1]")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary line")
    return parser


def _spec(args: argparse.Namespace, fault: str = "") -> GroupSpec:
    return GroupSpec(workers=args.workers, conns=args.conns,
                     drain=args.drain, seed=args.seed,
                     warmup=args.warmup, fault=fault)


def _replay_check(recorded) -> bool:
    """Replay a recorded group run from its own journal and compare
    the digest / RNG / fault / group-protocol event streams."""
    from ..replay import journal as jn
    from ..replay.engine import replay_check
    diverged = replay_check(recorded, (jn.EV_RNG, jn.EV_FAULT,
                                       jn.EV_GROUP))
    for line in diverged:
        print(f"[replay-check] {line}", file=sys.stderr)
    if diverged:
        return False
    phases = ", ".join(e.get("label", "") for e in
                       recorded.journal.of_kind(jn.EV_GROUP))
    print(f"[replay-check] journal replays bit-identically ({phases})",
          file=sys.stderr)
    return True


def _run_one(args: argparse.Namespace, chaos_spec: str) -> int:
    """One group run through the flight recorder; prints the protocol
    trace and reports commit or clean abort."""
    from ..replay import journal as jn
    from ..replay.engine import record_group
    spec = _spec(args, fault=args.fault)
    recorded = record_group(spec.to_spec(), chaos=chaos_spec)
    group_events = [(e["label"], e["a"], e["b"]) for e in
                    recorded.journal.of_kind(jn.EV_GROUP)]
    if not args.quiet:
        for label, a, b in group_events:
            print(f"  {label}  members={a} detail={b}")
    last = group_events[-1][0] if group_events else "?"
    outcome = ("committed" if last.startswith("group:committed")
               else "aborted" if last.startswith("group:aborted")
               else last)
    print(f"[group] {spec.to_spec()}"
          f"{' chaos=' + chaos_spec if chaos_spec else ''}: {outcome}, "
          f"exit {recorded.exit_code}")
    if args.record:
        recorded.journal.save(args.record)
        print(f"[group] journal saved to {args.record}")
    if args.replay_check and not _replay_check(recorded):
        return 1
    return recorded.exit_code or 0


def _run_chaos(args: argparse.Namespace, probabilities: dict) -> int:
    """The chaos sweep: one forced fault per protocol phase, a
    fault-free control, and optional seeded probabilistic trials."""
    from ..group.chaos import GroupChaosHarness
    if args.trials > 0 and not any(probabilities.values()):
        raise ValueError("probabilistic trials need at least one "
                         "fault probability (e.g. --crash 0.25)")
    harness = GroupChaosHarness(_spec(args))
    trials = harness.sweep_phases()
    if args.trials > 0:
        trials += harness.run_trials(args.trials, seed0=args.seed0,
                                     **probabilities)
    failed = [t for t in trials if not t.ok]
    committed = sum(1 for t in trials if t.outcome == "committed")
    resumed = sum(1 for t in trials if t.outcome == "resumed")
    if not args.quiet:
        for t in trials:
            mark = "ok " if t.ok else "FAIL"
            which = (f"fault={t.phase}" if t.phase
                     else f"seed={t.seed}" if t.faults else "control")
            extra = f" ({t.detail})" if t.detail else ""
            print(f"  {which:<14} {t.outcome:<9} [{mark}] "
                  f"faults={t.faults or '{}'}{extra}")
    print(f"[group-chaos] {len(trials)} trials "
          f"({len(FAULT_PHASES)} forced phases + control"
          f"{f' + {args.trials} seeded' if args.trials else ''}): "
          f"{committed} committed, {resumed} resumed, "
          f"{len(failed)} invariant violation(s)")
    if failed:
        return 1
    if args.replay_check:
        from ..replay.engine import record
        header = harness.trial_header(fault=FAULT_PHASES[0])
        if not _replay_check(record(header)):
            return 1
    return 0


def _run(args: argparse.Namespace) -> int:
    probabilities = {kind: getattr(args, kind) for kind in KINDS}
    if args.chaos:
        return _run_chaos(args, probabilities)
    chaos_spec = (FaultPlan(args.seed, **probabilities).to_spec()
                  if any(probabilities.values()) else "")
    return _run_one(args, chaos_spec)


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("repro-group", lambda: _run(args))


if __name__ == "__main__":
    raise SystemExit(main())
