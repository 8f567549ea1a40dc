"""Interpreter speed benchmark: per-step vs tier-2 blocks vs tier-3 chains.

Executes a mixed application suite — Dhrystone and K-means plus server
and HPC workloads (nginx, redis, NPB CG, PARSEC Black-Scholes) — on
both ISAs under all three execution tiers:

* ``per_step``  — the per-instruction interpreter baseline
  (``Machine(block_engine=False)``),
* ``tier2``     — per-trace superblock specialization
  (:mod:`repro.vm.blocks`),
* ``tier3``     — linked superblock chains with loop-closing jumps
  (:mod:`repro.vm.chains`),

plus a ``default`` row — ``Machine(isa)`` exactly as the examples, the
CLIs and ``MigrationPipeline`` build it (quantum 64, every engine on):
the speed users actually get. It reports instructions/sec for each,
and writes ``BENCH_interp.json`` at the repo root so the perf
trajectory is tracked across PRs.

Methodology: engines are compared at steady state — each measurement
spawns a fresh process (so per-process warmup is included) inside a
warmed interpreter (so one-time global costs — decoding traces,
``compile()``-ing specializations — are not billed to a single run;
they are amortized across every process a long-lived node executes,
which is the deployment model the paper's runtime assumes). The three
tiers run under the same scheduling quantum (4096; the per-step
baseline's speed is insensitive to it, while fine-grained slicing
bills the compiled tiers a register spill/reload at every slice
boundary — the comparison is identical-slicing by construction). The
scheduler only slices when threads interleave (``Machine.step_all``),
so on the single-threaded apps the ``default`` row at quantum 64 reads
like ``tier3``; on Black-Scholes it shows what quantum 64 costs.
Tier timings are interleaved and the best of ``--reps`` runs is taken,
because wall-clock noise on a shared host easily exceeds the effect
being measured. Every run is also checked for bit-identical results
(stdout, exit code, instruction and cycle totals) against the per-step
baseline — a speedup that changes architectural behaviour is a bug,
not a result.

Usage::

    PYTHONPATH=src python benchmarks/bench_interp_speed.py [--smoke]

``--smoke`` is the quick CI signal: every app runs once at the small
size under all three tiers and the default machine (fingerprint
agreement, harness sanity); a *cold* row runs each of them once more
per ISA, each in a fresh interpreter, and asserts that the chains
compiled and the lines generated stay under ``COLD_BUDGET`` (counts,
not timings); then a short timed Dhrystone medium comparison asserts
that tier-3 is at least as fast as tier-2 — the one ordering that must
survive even a noisy shared runner — and prints the default machine's
speed next to them. Full mode records the cold row in
``BENCH_interp.json`` as ``cold``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps.registry import get_app          # noqa: E402
from repro.isa import get_isa                    # noqa: E402
from repro.vm import blocks, chains              # noqa: E402
from repro.vm.kernel import Machine              # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")

APPS = ("dhrystone", "kmeans", "nginx", "redis", "cg", "blackscholes")
ARCHES = ("x86_64", "aarch64")
QUANTUM = 4096

# Timed problem size per app ("medium" unless listed). Dhrystone medium
# retires only ~284k instructions — under 30 ms at chain speed, short
# enough that timer granularity and CPU frequency ramping swamp the
# signal; the large size (~2.1M instructions) keeps every timed region
# in the hundreds of milliseconds.
SIZES = {"dhrystone": "large"}

#: tier name -> Machine keyword arguments; ``default`` passes none.
TIERS = {
    "per_step": dict(quantum=QUANTUM, block_engine=False,
                     chain_engine=False),
    "tier2": dict(quantum=QUANTUM, block_engine=True, chain_engine=False),
    "tier3": dict(quantum=QUANTUM, block_engine=True, chain_engine=True),
    "default": dict(),
}


def run_once(app: str, arch: str, size: str, tier: str,
             **override) -> tuple:
    """One fresh process run; returns (result fingerprint, seconds)."""
    binary = get_app(app).compile(size).binary(arch)
    machine = Machine(get_isa(arch), **{**TIERS[tier], **override})
    machine.install_binary(binary, f"/bin/{app}")
    process = machine.spawn_process(f"/bin/{app}")
    start = time.perf_counter()
    machine.run_process(process)
    elapsed = time.perf_counter() - start
    fingerprint = (process.stdout(), process.exit_code,
                   process.instr_total, process.cycle_total)
    return fingerprint, elapsed


def check_fingerprints(app: str, arch: str, size: str) -> tuple:
    """Every tier must retire the same execution, bit for bit, as the
    per-step engine at the same quantum (a threaded app's interleaving
    — and so its spin counts — depends on the quantum, so the default
    machine has its own per-step reference). Returns the quantum-4096
    and the default-quantum fingerprints."""
    base_fp, _ = run_once(app, arch, size, "per_step")
    default_fp, _ = run_once(app, arch, size, "default",
                             block_engine=False)
    for tier, want in (("tier2", base_fp), ("tier3", base_fp),
                       ("default", default_fp)):
        fp, _ = run_once(app, arch, size, tier)
        if fp != want:
            raise SystemExit(
                f"ENGINE MISMATCH on {app}/{arch}/{tier}: per-step and "
                f"{tier} runs differ — refusing to report a speed for "
                f"wrong results")
    return base_fp, default_fp


def measure(app: str, arch: str, size: str, reps: int) -> dict:
    base_fp, default_fp = check_fingerprints(app, arch, size)
    times = {tier: [] for tier in TIERS}
    for _ in range(reps):                  # interleaved to share the noise
        for tier in TIERS:
            times[tier].append(run_once(app, arch, size, tier)[1])
    instrs = base_fp[2]
    ips = {tier: (default_fp[2] if tier == "default" else instrs) / min(ts)
           for tier, ts in times.items()}
    return {
        "app": app,
        "arch": arch,
        "size": size,
        "instructions": instrs,
        "per_step_ips": round(ips["per_step"]),
        "tier2_ips": round(ips["tier2"]),
        "tier3_ips": round(ips["tier3"]),
        "default_ips": round(ips["default"]),
        "tier2_speedup": round(ips["tier2"] / ips["per_step"], 2),
        "tier3_speedup": round(ips["tier3"] / ips["per_step"], 2),
        "default_speedup": round(ips["default"] / ips["per_step"], 2),
    }


#: One cold run: a fresh interpreter runs one app on a default Machine
#: and reports what tier 3 compiled for it.
COLD_CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1])
from repro.apps.registry import get_app
from repro.isa import get_isa
from repro.vm import chains
from repro.vm.kernel import Machine
app, arch = sys.argv[2], sys.argv[3]
machine = Machine(get_isa(arch))
machine.install_binary(get_app(app).compile("small").binary(arch), "/bin/a")
process = machine.spawn_process("/bin/a")
machine.run_process(process)
info = chains.chain_cache_info()
print(json.dumps({"chains": info["built"], "lines": info["lines_emitted"],
                  "instructions": process.instr_total}))
"""

#: Ceiling on chains compiled and generated lines, summed over the cold
#: row. A web is first built once the node has dispatched it
#: ``chains.CHAIN_THRESHOLD`` times, so one short process compiles at
#: most its hottest loop: 6 chains / 9 196 lines in all. Counting heat
#: per process and building at 8 dispatches, the row compiled
#: 112 / 182 927.
COLD_BUDGET = {"chains": 8, "lines": 12_000}


def cold_row() -> dict:
    """Every app at the small size on both ISAs, each run once in a
    fresh interpreter on a default ``Machine``: the compile work a cold
    ``dapper-run`` pays."""
    src = os.path.join(REPO_ROOT, "src")
    runs = []
    for app in APPS:
        for arch in ARCHES:
            child = subprocess.run(
                [sys.executable, "-c", COLD_CHILD, src, app, arch],
                capture_output=True, text=True, check=True, timeout=300)
            runs.append(dict(app=app, arch=arch,
                             **json.loads(child.stdout)))
    return {"size": "small", "runs": runs,
            "chains": sum(run["chains"] for run in runs),
            "lines": sum(run["lines"] for run in runs),
            "budget": COLD_BUDGET}


def smoke() -> int:
    for app in APPS:
        for arch in ARCHES:
            check_fingerprints(app, arch, "small")
            print(f"{app:14s} {arch:8s} fingerprints agree across tiers")
    cold = cold_row()
    for run in cold["runs"]:
        print(f"cold {run['app']:14s} {run['arch']:8s} "
              f"chains={run['chains']} lines={run['lines']}")
    print(f"cold total: chains={cold['chains']}/{COLD_BUDGET['chains']} "
          f"lines={cold['lines']}/{COLD_BUDGET['lines']}")
    if any(cold[key] > COLD_BUDGET[key] for key in COLD_BUDGET):
        print("FAIL: cold runs compile more chains than the budget")
        return 1
    # One ordering must hold even on a noisy runner: chains beat bare
    # superblocks on Dhrystone at a size past chain warmup. The
    # default machine's speed is printed beside them, not gated.
    best = {"tier2": 0.0, "tier3": 0.0, "default": 0.0}
    for _ in range(3):
        for tier in best:
            fp, elapsed = run_once("dhrystone", "x86_64", "medium", tier)
            best[tier] = max(best[tier], fp[2] / elapsed)
    print(f"dhrystone medium x86_64: tier2={best['tier2']/1e6:.2f} M i/s "
          f"tier3={best['tier3']/1e6:.2f} M i/s "
          f"default={best['default']/1e6:.2f} M i/s")
    if best["tier3"] < best["tier2"]:
        print("FAIL: tier-3 chains slower than tier-2 blocks on Dhrystone")
        return 1
    print("OK: tier3 >= tier2 on Dhrystone")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="fingerprint check + tier3>=tier2 assertion")
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per tier (default 5)")
    parser.add_argument("--min-speedup", type=float, default=10.0,
                        help="required tier-3 speedup on Dhrystone and "
                             "K-means (default 10.0)")
    args = parser.parse_args()

    if args.smoke:
        return smoke()

    reps = max(1, args.reps)
    rows = []
    for app in APPS:
        for arch in ARCHES:
            row = measure(app, arch, SIZES.get(app, "medium"), reps)
            rows.append(row)
            print(f"{app:14s} {arch:8s} "
                  f"per_step={row['per_step_ips']/1e6:5.2f} "
                  f"tier2={row['tier2_ips']/1e6:5.2f} "
                  f"tier3={row['tier3_ips']/1e6:5.2f} "
                  f"default={row['default_ips']/1e6:5.2f} M i/s  "
                  f"speedup={row['tier2_speedup']:.2f}x"
                  f"/{row['tier3_speedup']:.2f}x")
    cold = cold_row()
    print(f"cold: chains={cold['chains']} lines={cold['lines']}")

    payload = {
        "benchmark": "interp_speed",
        "mode": "full",
        "reps": reps,
        "quantum": QUANTUM,
        "default_quantum": Machine(get_isa(ARCHES[0])).quantum,
        "results": rows,
        "cold": cold,
        "trace_cache": blocks.trace_cache_info(),
        "chain_cache": chains.chain_cache_info(),
    }
    out_path = os.path.join(REPO_ROOT, "BENCH_interp.json")
    with open(out_path, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.normpath(out_path)}")

    gated = [r for r in rows if r["app"] in ("dhrystone", "kmeans")]
    failing = [r for r in gated if r["tier3_speedup"] < args.min_speedup]
    if failing:
        print(f"FAIL: tier-3 speedup below {args.min_speedup}x: "
              + ", ".join(f"{r['app']}/{r['arch']}={r['tier3_speedup']}x"
                          for r in failing))
        return 1
    print(f"OK: tier-3 >= {args.min_speedup}x on Dhrystone and K-means, "
          f"both ISAs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
