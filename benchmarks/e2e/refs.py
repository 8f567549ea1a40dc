"""``run.py --rebless``: regenerate expected.json and print the diff.

Program references (``apps``) come from the **per-step interpreter**
only (``Machine(block_engine=False)``): it shares no code with the
tier-2/tier-3 engines or with the migration, store and replay paths the
workloads exercise, so a reference cannot drift together with the thing
it judges. ``storm`` and ``store`` hold self-pinned exact values (event
counts per storm seed, the store's space ratio at seed 1): nothing
independent computes those, so they only detect drift between commits.
"""

from __future__ import annotations

import json

from repro import compile_source

import workloads
from harness import EXPECTED_PATH, Run, blake


def _programs():
    keys = set()
    for table in (workloads.FULL, workloads.SMOKE):
        for const in table.values():
            keys.update(const.get("apps", ()))
            keys.update(const.get("residents", ()))
            keys.update(("bigheap", const[name])
                        for name in ("shape", "extreme") if name in const)
    return sorted(keys)


def _reference(app: str, size: str) -> dict:
    program = compile_source(workloads.app_source(app, size), app)
    entry = {"instr_total": {}}
    for arch in workloads.ARCHES:
        process, _wall = workloads.native_run(program, arch,
                                              block_engine=False)
        digest = blake(process.stdout())
        if entry.setdefault("stdout_blake2b", digest) != digest:
            raise SystemExit(f"{app}/{size}: stdout differs between ISAs")
        entry["exit_code"] = process.exit_code
        entry["instr_total"][arch] = process.instr_total
    return entry


def _flatten(tree, prefix=""):
    if not isinstance(tree, dict):
        return {prefix: tree}
    out = {}
    for key, value in tree.items():
        out.update(_flatten(value, f"{prefix}/{key}" if prefix else key))
    return out


def rebless() -> int:
    try:
        with open(EXPECTED_PATH) as handle:
            old = json.load(handle)
    except FileNotFoundError:
        old = {}
    new = {"apps": {}, "storm": {}, "store": {}}
    for app, size in _programs():
        print(f"per-step reference: {app}/{size}", flush=True)
        new["apps"][workloads.app_key(app, size)] = _reference(app, size)
    # The pin workloads read the references just computed.
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(new, handle, indent=1, sort_keys=True)
    for name in ("fleet_storm", "store_epochs"):
        print(f"self-pinned values: {name} seed 1", flush=True)
        run = Run(name, seed=1, seconds=0.0, trace=True, smoke=False,
                  t0=0.0)
        workloads.WORKLOADS[name](run)
        run.tracer.unpatch()
        for failure in run.failures:
            print(f"  FAILED: {failure}")
        if run.failed:
            return 1
        for section, pins in run.pins.items():
            new[section].update(pins)
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(new, handle, indent=1, sort_keys=True)
        handle.write("\n")
    before, after = _flatten(old), _flatten(new)
    changed = 0
    for key in sorted(set(before) | set(after)):
        if before.get(key) != after.get(key):
            changed += 1
            print(f"  {key}: {before.get(key)!r} -> {after.get(key)!r}")
    print(f"expected.json: {changed} value(s) changed")
    return 0
