"""Time-travel debugger benchmark: reverse-seek cost vs snapshot gap.

The debugger's reverse operations reconstruct state by restoring the
nearest store-backed snapshot at-or-before the target and re-executing
journaled slices forward. The claim to verify is the complexity one:
a reverse step costs **O(snapshot gap)**, not O(run) — walking one
instruction backward from deep inside a long recording re-executes at
most one snapshot interval of slices, however long the recording is.

The cost metric is ``DebugSession.slices_reexecuted`` — a
deterministic counter of scheduling slices replayed by seeks — so the
assertions are exact and CI-safe (no timing gates). For each snapshot
interval the harness records a fixed run, then performs a burst of
reverse steps from the deep end of the timeline plus a reverse-continue
to a breakpoint, and reports slices re-executed per operation.

Writes ``BENCH_debug.json`` at the repo root; ``--out PATH`` writes
the record there instead. ``--smoke`` writes no record unless given
``--out``.

Usage::

    PYTHONPATH=src python benchmarks/bench_debug.py [--smoke] [--out PATH]

``--smoke`` asserts the bars: per-reverse-step cost bounded by the
snapshot gap (+1 partial slice), growing with the gap, and far below
the run length.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.debug import DebugSession            # noqa: E402
from repro.replay import record_run             # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

SOURCE = """
global int acc;
func bump(int i) -> int {
    acc = (acc + i) % 1000003;
    return acc;
}
func main() -> int {
    int i;
    i = 0;
    while (i < 1200) { bump(i); i = i + 1; }
    print(acc);
    return 0;
}
"""

INTERVALS = (8, 32, 128)
REVERSE_STEPS = 24


def measure(journal, snapshot_every: int) -> dict:
    session = DebugSession(journal, snapshot_every=snapshot_every)
    total_slices = session.total_slices

    # burst of reverse steps from the deep end of the timeline
    session.seek_instr(session.total_instructions - 64)
    costs = []
    for _ in range(REVERSE_STEPS):
        before = session.slices_reexecuted
        assert session.step_back() is not None
        costs.append(session.slices_reexecuted - before)

    # reverse-continue from the end to a function breakpoint
    for addr, arch, _line in session.resolve_function("bump"):
        session.pc_breakpoints.add((addr, arch))
    session.seek(session.end_position())
    before = session.slices_reexecuted
    stop = session.reverse_continue()
    reverse_continue_cost = session.slices_reexecuted - before
    assert stop.reason == "breakpoint"

    return {
        "snapshot_every": snapshot_every,
        "snapshots": len(session.snapshots),
        "total_slices": total_slices,
        "total_instructions": session.total_instructions,
        "step_back_avg_slices": round(sum(costs) / len(costs), 2),
        "step_back_max_slices": max(costs),
        "reverse_continue_slices": reverse_continue_cost,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="assert the O(gap) acceptance bars")
    parser.add_argument("--out", default=None,
                        help="write the JSON record here (default: "
                             "BENCH_debug.json at the repo root; "
                             "--smoke writes nothing without --out)")
    args = parser.parse_args()

    recorded = record_run(SOURCE, "revseek", digest_every=8)
    journal = recorded.journal

    results = [measure(journal, k) for k in INTERVALS]
    for row in results:
        print(f"gap={row['snapshot_every']:>4} slices "
              f"({row['snapshots']} snapshots over "
              f"{row['total_slices']} slices): "
              f"step-back avg={row['step_back_avg_slices']} "
              f"max={row['step_back_max_slices']} "
              f"reverse-continue={row['reverse_continue_slices']}")

    if args.smoke:
        for row in results:
            gap = row["snapshot_every"]
            # bound: one snapshot interval plus the partial slice the
            # seek finishes inside
            assert row["step_back_max_slices"] <= gap + 1, (
                f"gap {gap}: a reverse step re-executed "
                f"{row['step_back_max_slices']} slices — more than "
                f"one snapshot interval")
            assert row["step_back_max_slices"] < \
                row["total_slices"] / 4, (
                f"gap {gap}: reverse-step cost is a constant fraction "
                f"of the whole run — O(run), not O(gap)")
        avgs = [row["step_back_avg_slices"] for row in results]
        assert avgs == sorted(avgs), (
            f"reverse-step cost must grow with the snapshot gap, "
            f"got {avgs} for gaps {list(INTERVALS)}")
        print("smoke OK: reverse-step cost tracks the snapshot gap, "
              "never the run length")

    record = {
        "benchmark": "debug-reverse-seek",
        "mode": "smoke" if args.smoke else "full",
        "reverse_steps_sampled": REVERSE_STEPS,
        "results": results,
    }
    out_path = args.out or (
        None if args.smoke else os.path.join(REPO_ROOT, "BENCH_debug.json"))
    if out_path is None:
        return 0
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
