#!/usr/bin/env python3
"""End-to-end + per-layer benchmark of the Dapper reproduction.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1
    python3 benchmarks/e2e/run.py [--trace] [--seed N] [--out FILE]   # all workloads
    python3 benchmarks/e2e/run.py --repeat 2      # A/A: two sets, compared
    python3 benchmarks/e2e/run.py --smoke         # <= 20 s, no timing verdicts
    python3 benchmarks/e2e/run.py --rebless       # regenerate expected.json

With ``--workload`` the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``) of BENCHMARK.json. Without it, every workload runs in a
fresh process of its own (the VM's code caches are process-global, and
set-up time and peak memory are per process). See README.md.
"""

import time

T0 = time.perf_counter()        # set-up time is measured from here

import argparse                                             # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import subprocess                                           # noqa: E402
import sys                                                  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import metrics                                              # noqa: E402

NAMES = [name for name, _why in metrics.WORKLOADS]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=float(metrics.RUN_SECONDS))
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every set's results here")
    parser.add_argument("--rebless", action="store_true")
    parser.add_argument("--write-manifest", action="store_true",
                        help="write BENCHMARK.json from metrics.py")
    return parser.parse_args(argv)


def run_workload(args) -> int:
    import harness
    import workloads

    run = harness.Run(args.workload, args.seed,
                      0.0 if args.smoke else args.seconds,
                      bool(args.trace), args.smoke, T0)
    workloads.WORKLOADS[args.workload](run)
    result = run.result()
    kinds = metrics.kinds()
    for name, entry in result["metrics"].items():
        print(f"{args.workload:18s} {name:28s} {entry['value']:>16.6g} "
              f"{entry['unit']:6s} {kinds[name]}")
    for failure in run.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 1 if run.failed else 0


def run_set(args, trace_modes) -> dict:
    """Every workload, each in a fresh process, in manifest order."""
    results = {}
    load = os.getloadavg()[0]
    for name in NAMES:
        for trace in trace_modes:
            command = [sys.executable, os.path.join(HERE, "run.py"),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace)]
            if args.smoke:
                command.append("--smoke")
            proc = subprocess.run(command, capture_output=True, text=True,
                                  timeout=600)
            lines = proc.stdout.strip().splitlines()
            sys.stdout.write("\n".join(lines[:-1]) + "\n")
            sys.stderr.write(proc.stderr)
            if not lines or not lines[-1].startswith("{"):
                raise SystemExit(f"{name} --trace {trace}: no result "
                                 f"(exit {proc.returncode})")
            result = json.loads(lines[-1])
            entry = results.setdefault(name, {"attempted": 0, "failed": 0,
                                              "metrics": {}})
            entry["attempted"] += result["attempted"]
            entry["failed"] += result["failed"]
            entry["metrics"].update(
                {k: v["value"] for k, v in result["metrics"].items()})
            print(f"{name:18s} trace={trace} ops={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
    return {"seed": args.seed, "seconds": args.seconds,
            "smoke": args.smoke, "loadavg_start": load,
            "noisy": load > (os.cpu_count() or 1), "results": results}


def check_schema(one_set: dict) -> list:
    """--smoke: the manifest on disk, the tables in metrics.py and what
    the workloads emit must be one and the same."""
    problems = []
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as handle:
        if json.load(handle) != metrics.manifest():
            problems.append("BENCHMARK.json differs from metrics.manifest()"
                            " (run.py --write-manifest)")
    wanted = ({name for name, *_ in metrics.END_TO_END}
              | {name for name, *_ in metrics.PER_LAYER})
    for name in NAMES:
        got = set(one_set["results"].get(name, {}).get("metrics", ()))
        if got != wanted:
            problems.append(f"{name}: metrics {sorted(got ^ wanted)} "
                            f"missing or unknown")
    return problems


def main() -> int:
    args = parse_args()
    if args.write_manifest:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as handle:
            json.dump(metrics.manifest(), handle, indent=2)
            handle.write("\n")
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.rebless:
        import refs
        return refs.rebless()
    if args.workload:
        return run_workload(args)

    import compare

    both = args.trace or args.smoke or args.repeat > 1
    sets = [run_set(args, (0, 1) if both else (0,))
            for _ in range(args.repeat)]
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"sets": sets}, handle, indent=1)
            handle.write("\n")
    failed = sum(entry["failed"] for one in sets
                 for entry in one["results"].values())
    status = 1 if failed else 0
    if args.smoke:
        for problem in check_schema(sets[0]):
            print(f"SMOKE FAILED: {problem}", file=sys.stderr)
            status = 1
    elif args.repeat > 1:
        # A/A: nothing changed between the sets, so any verdict other
        # than "unchanged" is the benchmark's own noise -- or a bug.
        rows = compare.compare(sets[:1], sets[1:])
        compare.report(rows)
        bounds = metrics.bounds()
        if any(row["verdict"] == "differs"
               or abs(row["delta"]) > bounds.get(row["metric"], float("inf"))
               for row in rows):
            status = 1
    for one in sets:
        if one["noisy"]:
            print(f"NOISY: 1-min load {one['loadavg_start']:.2f} > nproc "
                  f"when this set started", file=sys.stderr)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
