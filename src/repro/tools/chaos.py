"""chaos — seeded fault-injection trials against the migration pipeline.

Runs N seeded chaos trials and asserts the transactional invariant:
every migration either **completes** (byte-identical output + settled
memory vs a fault-free reference) or **rolls back** to a resumable
source (destination swept clean: no images, no orphan chunks, no
half-restored process) — never anything in between.

Examples::

    python -m repro.tools.chaos --trials 20 --drop 0.3 --corrupt 0.2
    python -m repro.tools.chaos --lazy --pskill 0.8 --trials 10
    python -m repro.tools.chaos --store --drop 0.4 --partition 0.15 \\
        --replay-check
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..chaos import KINDS, FaultPlan
from ..chaos.harness import ChaosHarness
from ..errors import ReproError
from ._cli import guarded


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapper-chaos",
        description="Seeded chaos trials: every migration completes "
                    "byte-identically or rolls back to a resumable "
                    "source.")
    parser.add_argument("--app", default="kmeans",
                        help="registered app to migrate (default kmeans)")
    parser.add_argument("--trials", type=int, default=10,
                        help="number of seeded trials")
    parser.add_argument("--seed0", type=int, default=0,
                        help="first seed (trials use seed0..seed0+N-1)")
    for kind in KINDS:
        parser.add_argument(f"--{kind}", type=float, default=0.0,
                            metavar="P",
                            help=f"{kind} fault probability in [0, 1]")
    parser.add_argument("--lazy", action="store_true",
                        help="post-copy (lazy) migrations")
    parser.add_argument("--store", action="store_true",
                        help="content-addressed store transfer")
    parser.add_argument("--retry-budget", type=int, default=3,
                        help="attempts per stage before rollback")
    parser.add_argument("--warmup", type=int, default=5000,
                        help="instructions to run before migrating")
    parser.add_argument("--verify-gate", action="store_true",
                        help="disable the transfer's own arrival digest "
                             "check so corrupt faults reach (and must "
                             "be caught by) the restore guard")
    parser.add_argument("--replay-check", action="store_true",
                        help="record the first faulted trial with the "
                             "flight recorder and assert its journal "
                             "replays bit-identically")
    parser.add_argument("--quiet", action="store_true",
                        help="only print the summary line")
    return parser


def _replay_check(harness: ChaosHarness, plan: FaultPlan) -> bool:
    """Record the judged trial of ``plan`` from its own header, replay
    it from its journal, and compare the digest / RNG / fault event
    streams."""
    from ..replay import journal as jn
    from ..replay.engine import record, replay_check

    header = harness.trial_header(plan)
    recorded = record(header)
    diverged = replay_check(recorded, (jn.EV_RNG, jn.EV_FAULT))
    for line in diverged:
        print(f"[replay-check] {line}", file=sys.stderr)
    if diverged:
        return False
    faults = len(recorded.journal.of_kind(jn.EV_FAULT))
    print(f"[replay-check] seed {plan.seed} ({header['chaos']}): journal "
          f"replays bit-identically ({faults} fault event(s))",
          file=sys.stderr)
    return True


def _run(args: argparse.Namespace, probabilities: dict) -> int:
    try:
        harness = ChaosHarness(args.app, lazy=args.lazy,
                               use_store=args.store, warmup=args.warmup,
                               retry_budget=args.retry_budget,
                               verify_gate=args.verify_gate)
    except KeyError as exc:  # unknown app name from the registry
        raise ReproError(exc.args[0]) from None
    trials = harness.run_trials(args.trials, seed0=args.seed0,
                                **probabilities)

    failed = [t for t in trials if not t.ok]
    completed = sum(1 for t in trials if t.outcome == "completed")
    rolled = sum(1 for t in trials if t.outcome == "rolled-back")
    fallbacks = sum(1 for t in trials if t.fallback)
    repaired = sum(t.repaired_pages for t in trials)
    quarantined = sum(1 for t in trials if t.quarantined)
    fired = sum(sum(t.faults.values()) for t in trials)
    if not args.quiet:
        for t in trials:
            mark = "ok " if t.ok else "FAIL"
            extra = f" ({t.detail})" if t.detail else ""
            print(f"  seed {t.seed:>4}  {t.outcome:<11} [{mark}] "
                  f"faults={t.faults or '{}'}{extra}")
    print(f"[chaos] {args.app}{' lazy' if args.lazy else ''}"
          f"{' store' if args.store else ''}"
          f"{' verify-gate' if args.verify_gate else ''}: "
          f"{len(trials)} trials, "
          f"{completed} completed, {rolled} rolled back, "
          f"{fallbacks} pre-copy fallback(s), {repaired} page(s) "
          f"repaired, {quarantined} quarantine(s), {fired} faults fired, "
          f"{len(failed)} invariant violation(s)")
    if failed:
        return 1

    if args.replay_check:
        faulted = next((t.seed for t in trials if t.faults), None)
        if faulted is None:
            print("[replay-check] skipped: no trial fired a fault",
                  file=sys.stderr)
        elif not _replay_check(harness,
                               FaultPlan(faulted, **probabilities)):
            return 1
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    probabilities = {kind: getattr(args, kind) for kind in KINDS}
    if not any(probabilities.values()):
        print("dapper-chaos: no fault probabilities given "
              "(e.g. --drop 0.3)", file=sys.stderr)
        return 2
    return guarded("dapper-chaos", lambda: _run(args, probabilities))


if __name__ == "__main__":
    raise SystemExit(main())
