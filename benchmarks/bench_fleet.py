"""Fleet migration-storm benchmark: events/sec, migrations/sec, and
tail latency under a thousand-node storm.

Runs one :class:`~repro.fleet.FleetStorm` at full scale — 1000 nodes,
hundreds of services, a load spike, a rolling-update wave bounded at
128 concurrent migrations, chaos on — and reports:

* **events/sec** — wall-clock throughput of the sharded event core,
* **migrations/sec** — completed live migrations per simulated second,
* **p50/p95/p99 request latency** — from the open-loop traffic
  histograms, plus the p99 *inside* the storm window (spike + wave),
* **complete-or-rollback** — every started migration's fate,
* **replay** — the recorded journal re-executes bit-identically,
* **calibration** — real shared-store pipeline migrations measuring
  the warm-transfer fraction the model uses (``warm_bp``).

Writes ``BENCH_fleet.json`` at the repo root so the trajectory is
tracked across PRs; ``--out PATH`` writes the record there instead.
``--smoke`` writes no record unless given ``--out``.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py [--smoke] [--out PATH]

``--smoke`` runs a small fleet (32 nodes) and asserts the invariants
only — no timing gates, CI-safe.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.chaos import FaultPlan                           # noqa: E402
from repro.fleet import (FleetSpec, FleetStorm,             # noqa: E402
                         run_shared_store_migrations)
from repro.replay.engine import Replayer, record_fleet      # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

#: the storm configurations (chaos probabilities are per consultation)
FULL = dict(nodes=1000, shards=8, services=900, duration=60.0,
            max_in_flight=128, update_fraction=0.4)
SMOKE = dict(nodes=32, shards=4, services=0, duration=30.0,
             max_in_flight=8, update_fraction=0.4)
CHAOS = "drop=300,latency=500,pskill=120,crash=250"
SEED = 42


def run_storm(params: dict) -> dict:
    spec = FleetSpec(seed=SEED, **params)
    chaos = f"seed={SEED},{CHAOS}"
    plan = FaultPlan.from_spec(chaos)
    result = FleetStorm(spec, plan).run()
    out = result.to_dict()

    recorded = record_fleet(spec.to_spec(), chaos=chaos)
    replayed = Replayer(recorded.journal).run()
    out["replay_identical"] = (replayed.journal.to_bytes()
                               == recorded.journal.to_bytes())
    out["journal_events"] = len(recorded.journal.events)
    return out


def run_calibration(destinations: int) -> dict:
    calibration = run_shared_store_migrations("nginx",
                                              destinations=destinations)
    return calibration.to_dict()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--smoke", action="store_true",
                        help="small fleet, invariants only (CI)")
    parser.add_argument("--out", default=None,
                        help="write the JSON record here (default: "
                             "BENCH_fleet.json at the repo root; "
                             "--smoke writes nothing without --out)")
    args = parser.parse_args()

    params = SMOKE if args.smoke else FULL
    storm = run_storm(params)
    calibration = run_calibration(2 if args.smoke else 3)
    out = {"mode": "smoke" if args.smoke else "full",
           "storm": storm, "calibration": calibration}

    m = storm["migrations"]
    lat = storm["latency_ms"]
    print(f"[fleet-bench] {storm['nodes']} nodes / {storm['shards']} "
          f"shards / {storm['services']} services, "
          f"{storm['duration_s']:.0f}s simulated in "
          f"{storm['wall_s']:.2f}s wall")
    print(f"  events/sec (wall):     {storm['events_per_sec_wall']:,.0f}")
    print(f"  migrations:            {m['started']} started / "
          f"{m['completed']} completed / {m['rolled_back']} rolled back "
          f"(peak {m['peak_in_flight']} in flight)")
    print(f"  migrations/sim-sec:    {m['migrations_per_sim_sec']}")
    print(f"  latency ms p50/p95/p99: {lat['p50']} / {lat['p95']} / "
          f"{lat['p99']}  (storm-window p99: {lat['p99_storm']})")
    print(f"  energy: {storm['energy_kj']} kJ   cost: "
          f"${storm['cost_usd']}   chaos: {storm['chaos']}")
    print(f"  invariant: {'OK' if storm['invariant_ok'] else 'VIOLATED'}"
          f"   replay: "
          f"{'identical' if storm['replay_identical'] else 'DIVERGED'}")
    print(f"  calibration ({calibration['app']}): "
          f"{calibration['migrations']} real shared-store migrations, "
          f"warm_bp={calibration['warm_bp']}")

    failures = []
    if not storm["invariant_ok"]:
        failures.append("complete-or-rollback invariant violated")
    if not storm["replay_identical"]:
        failures.append("journal replay diverged")
    if calibration["warm_bp"] <= 0:
        failures.append("calibration measured no warm dedup")
    shipped = [t["shipped"] for t in calibration["transfers"]]
    if len(shipped) > 1 and min(shipped[1:]) >= shipped[0]:
        failures.append("warm migrations did not ship fewer bytes")
    if not args.smoke:
        if m["peak_in_flight"] < 100:
            failures.append(
                f"peak in-flight {m['peak_in_flight']} < 100")
        if storm["nodes"] < 1000:
            failures.append("full run must cover >= 1000 nodes")
        if lat["p99_storm"] <= lat["p50"]:
            failures.append("storm p99 not above baseline p50")

    path = args.out or (
        None if args.smoke else os.path.join(REPO_ROOT, "BENCH_fleet.json"))
    if path is not None:
        with open(path, "w") as handle:
            json.dump(out, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"[fleet-bench] wrote {path}")

    for failure in failures:
        print(f"[fleet-bench] FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
