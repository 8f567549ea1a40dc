"""The eight workloads and the one table of their iteration constants.

Each workload stresses a different layer and predicts *no movement* for
a change to the others (see README.md for the layer -> metric ->
workload list). All are closed loops with one client; see
:mod:`harness` for the loop and the meaning of a round.

Seeds: ``--seed`` jitters the migration points (gap between
migrations), the bigheap salt, which checkpoint an epoch materializes,
the SimDisk tear offsets and the storm/chaos seeds. Programs receive
only generated inputs, and no seed changes how much work a round does
by more than a few per cent.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from repro import Machine, MigrationPipeline, compile_source
from repro.apps.registry import get_app
from repro.chaos import FaultPlan
from repro.core.runtime import DapperRuntime
from repro.criu.dump import dump_process
from repro.errors import PtraceError, ReproError
from repro.fleet import FleetSpec, FleetStorm
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.replay.engine import Replayer, record_fleet, record_run
from repro.store import CheckpointStore
from repro.store.backend import DirBackend, SimDisk
from repro.store.transfer import plan_transfer, ship
from repro.vm import chains

import bigheap
from harness import HERE, Run, geomean, percentile

ARCHES = ("x86_64", "aarch64")
STORM_CHAOS = "drop=300,latency=500,pskill=120,crash=250"

#: Every iteration constant, sized so one run's timed region is
#: RUN_SECONDS on 2 cores and the whole driver schedule fits its cap.
#: ``counted``/``untraced`` are rounds (see harness.Run.loop); a trace
#: run executes exactly untraced + counted of them.
FULL = {
    "cold_cli": dict(
        apps=[("redis", "small"), ("kmeans", "small")],
        warmup_steps=(19_900, 20_100), counted=4, untraced=1,
        warm_reps=3),
    "steady_compute": dict(
        apps=[("dhrystone", "medium"), ("kmeans", "small"),
              ("redis", "small"), ("nginx", "small")],
        arches=ARCHES, warm_passes=2, counted=5, untraced=4, tier_reps=3),
    "migrate_pingpong": dict(
        residents=[("redis", "medium"), ("swaptions", "small")],
        gap=(300, 700), discard=12, counted=75, untraced=50),
    "migrate_bigheap": dict(
        residents=[("bigheap", "1m10")],
        gap=(2300, 3300), discard=10, counted=60, untraced=40),
    "migrate_store": dict(
        residents=[("redis", "medium"), ("swaptions", "small")],
        gap=(300, 700), discard=12, counted=50, untraced=30, prune=25),
    "store_epochs": dict(
        shape="1m10", extreme="144k100", discard=3, counted=60,
        untraced=30, gc_every=10, gc_drop=5, keep=40),
    "fleet_storm": dict(
        spec=dict(nodes=1000, shards=8, services=900, duration=30.0,
                  max_in_flight=128, update_fraction=0.4),
        counted=4, untraced=3),
    "recorded_compute": dict(
        apps=[("kmeans", "small"), ("redis", "small")],
        warm_passes=2, counted=4, untraced=4, reps=3),
}

#: --smoke: same code paths, tiny constants, no timing verdicts.
SMOKE = {
    "cold_cli": dict(apps=[("kmeans", "small")], counted=1, untraced=1,
                     warm_reps=1),
    "steady_compute": dict(
        apps=[("dhrystone", "medium")], arches=("x86_64",),
        warm_passes=0, counted=1, untraced=1, tier_reps=0),
    "migrate_pingpong": dict(
        residents=[("swaptions", "small")], discard=1, counted=3,
        untraced=2),
    "migrate_bigheap": dict(
        residents=[("bigheap", "144k100")], discard=1, counted=2,
        untraced=1),
    "migrate_store": dict(
        residents=[("swaptions", "small")], discard=1, counted=4,
        untraced=2, prune=2),
    "store_epochs": dict(
        shape="144k100", extreme="144k100", discard=1, counted=4,
        untraced=2, gc_every=2, gc_drop=1, keep=3),
    "fleet_storm": dict(
        spec=dict(nodes=32, shards=4, services=0, duration=20.0,
                  max_in_flight=8, update_fraction=0.4),
        counted=1, untraced=1),
    "recorded_compute": dict(
        apps=[("kmeans", "small")], warm_passes=0, counted=1, untraced=1,
        reps=1),
}


def constants(run: Run) -> dict:
    table = dict(FULL[run.workload])
    if run.smoke:
        table.update(SMOKE[run.workload])
    return table


# -- programs ------------------------------------------------------------------


def app_key(app: str, size: str) -> str:
    return f"{app}/{size}"


def app_source(app: str, size: str, salt: int = 0) -> str:
    if app == "bigheap":
        return bigheap.source(size, salt)
    return get_app(app).source(size)


def native_run(program, arch: str, **machine_kwargs):
    """One native run to exit on a machine built exactly as
    examples/quickstart.py and the CLIs build theirs (quantum 64, both
    engines on) unless ``machine_kwargs`` says otherwise. Returns the
    process and the wall time of ``run_process`` alone."""
    machine = Machine(get_isa(arch), name="node", **machine_kwargs)
    machine.install_binary(program.binary(arch), f"/bin/{program.name}")
    process = machine.spawn_process(f"/bin/{program.name}")
    start = time.perf_counter()
    machine.run_process(process)
    return process, time.perf_counter() - start


# -- 1. cold_cli ---------------------------------------------------------------


def cold_cli(run: Run) -> None:
    const = constants(run)
    apps = const["apps"]
    child = os.path.join(HERE, "coldchild.py")
    samples: Dict[str, List[dict]] = {app_key(*a): [] for a in apps}

    def one_child(app: str, size: str) -> dict:
        warmup = run.rng.randint(*const["warmup_steps"])
        spawned = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, child, app, size, str(warmup)],
            capture_output=True, text=True, timeout=150)
        if proc.returncode != 0:
            run.check(False, f"cold child {app}: exit {proc.returncode}: "
                             f"{proc.stderr.strip()[-200:]}")
            return {"total_s": time.perf_counter() - spawned}
        report = json.loads(proc.stdout.strip().splitlines()[-1])
        ref = run.expected["apps"].get(app_key(app, size), {})
        run.check(report["stdout_blake2b"] == ref.get("stdout_blake2b")
                  and report["exit_code"] == ref.get("exit_code"),
                  f"cold child {app}/{size}: migrated output differs from "
                  f"the pinned per-step reference")
        if run.tracing_on:
            # The child times its own phases; replay them as spans.
            at = spawned
            for phase, name in (("import_s", "python.import"),
                                ("compile_s", "compiler.compile"),
                                ("warmup_s", "vm.warmup"),
                                ("migrate_s", "migration.migrate"),
                                ("finish_s", "vm.run_to_exit")):
                run.tracer.add(name, at, at + report[phase])
                at += report[phase]
        return report

    def do_round(index: int):
        ops = []
        for app, size in apps:
            with run.span("cold.child"):
                report = one_child(app, size)
            ops.append((app, report["total_s"]))
            if run.counting and "compile_s" in report:
                samples[app_key(app, size)].append(report)
        return ops, len(apps)

    # No warm-up round: importing this module already compiled (and,
    # where bytecode caching is on, cached) every file a child imports.
    run.loop(do_round, const["counted"], const["untraced"])

    if run.tracer is None:
        return
    reports = [r for rs in samples.values() for r in rs]
    if not all(samples.values()):
        return              # a child failed: already counted
    layer = run.layer
    layer["compiler.compile_ms"] = statistics.median(
        r["compile_s"] for r in reports) * 1e3
    layer["compiler.text_bytes"] = sum(
        rs[0]["text_bytes"] for rs in samples.values())
    layer["compiler.eqpoints"] = sum(
        rs[0]["eqpoints"] for rs in samples.values())
    layer["migration.first_ms"] = statistics.median(
        r["migrate_s"] for r in reports) * 1e3
    layer["vm.cold_run_s"] = sum(
        statistics.median(r["warmup_s"] + r["finish_s"] for r in rs)
        for rs in samples.values())
    # The same sequence in this (long-lived) process: the last pass
    # runs with every cache warm.
    warm = 0.0
    for app, size in apps:
        for _ in range(const["warm_reps"]):
            start = time.perf_counter()
            program = compile_source(app_source(app, size), app)
            pipeline = MigrationPipeline(Machine(X86_ISA, name="xeon"),
                                         Machine(ARM_ISA, name="rpi"),
                                         program)
            result = pipeline.run_and_migrate(
                warmup_steps=const["warmup_steps"][0])
            last = time.perf_counter() - start
        run.check_app(app_key(app, size), result.combined_output(),
                      result.process.exit_code)
        warm += last
    cold = sum(statistics.median(r["total_s"] for r in rs)
               for rs in samples.values())
    layer["vm.cold_warm_x"] = cold / warm


# -- 2. steady_compute -----------------------------------------------------------


def steady_compute(run: Run) -> None:
    const = constants(run)
    table = [(app, size, arch, get_app(app).compile(size))
             for app, size in const["apps"] for arch in const["arches"]]
    instr: Dict[tuple, int] = {}

    def one_pass() -> list:
        ops = []
        for app, size, arch, program in table:
            with run.span("vm.native_run"):
                process, wall = native_run(program, arch)
            run.check_app(app_key(app, size), process.stdout(),
                          process.exit_code,
                          {arch: process.instr_total})
            instr[(app, size, arch)] = process.instr_total
            ops.append((f"{app}/{arch}", wall))
        return ops

    for _ in range(const["warm_passes"]):
        one_pass()
    work = sum(run.expected["apps"][app_key(app, size)]["instr_total"][arch]
               for app, size, arch, _p in table)
    before = chains.chain_cache_info()

    def do_round(index: int):
        return one_pass(), work

    run.loop(do_round, const["counted"], const["untraced"])

    if run.tracer is None:
        return
    after = chains.chain_cache_info()
    layer = run.layer
    layer["vm.chains_built"] = after["built"] - before["built"]
    layer["vm.chains_unlinked"] = after["unlinked"] - before["unlinked"]
    mips = {key: instr[key] / 1e6
            / statistics.median(run.op_s[f"{key[0]}/{key[2]}"])
            for key in instr}
    layer["vm.mips"] = geomean(mips.values())
    for app, _size in const["apps"]:
        layer[f"vm.mips.{app}"] = geomean(
            v for key, v in mips.items() if key[0] == app)
        layer[f"vm.instr_total.{app}"] = sum(
            v for key, v in instr.items() if key[0] == app)
    # Tier split at quantum 4096, best of tier_reps, interleaved -- the
    # BENCH_interp method, so the two ledgers can be read side by side.
    tiers = {"tier2": dict(block_engine=True, chain_engine=False),
             "tier3": dict(block_engine=True, chain_engine=True)}
    best: Dict[tuple, float] = {}
    for _ in range(const["tier_reps"] + 1):     # first rep warms q4096
        for tier, flags in tiers.items():
            for app, size, arch, program in table:
                process, wall = native_run(program, arch, quantum=4096,
                                           **flags)
                run.check_app(app_key(app, size), process.stdout(),
                              process.exit_code,
                              {arch: process.instr_total})
                key = (tier, app, arch)
                best[key] = min(best.get(key, wall), wall)
    for tier in tiers:
        for app, _size in const["apps"]:
            layer[f"vm.mips_{tier}.{app}"] = geomean(
                instr[(a, s, arch)] / best[(tier, a, arch)] / 1e6
                for a, s, arch, _p in table if a == app)
    app, size, arch, program = table[0]
    process, wall = native_run(program, arch, block_engine=False)
    run.check_app(app_key(app, size), process.stdout(), process.exit_code,
                  {arch: process.instr_total})
    layer["vm.mips_per_step"] = process.instr_total / wall / 1e6


# -- 3-5. migrate_pingpong / migrate_bigheap / migrate_store -----------------------


class Resident:
    """One program ping-ponged between its own x86 and arm machines."""

    def __init__(self, run: Run, app: str, size: str, stores=None):
        self.run = run
        self.app = app
        self.key = app_key(app, size)
        #: instructions every (re)start runs before the resident is
        #: used: bigheap is only its nominal size once populated
        self.prefill = bigheap.fill_steps(size) if app == "bigheap" else 0
        salt = run.rng.randrange(1, 1 << 20) if app == "bigheap" else 0
        self.program = compile_source(app_source(app, size, salt), app)
        x86 = Machine(X86_ISA, name=f"{app}-xeon")
        arm = Machine(ARM_ISA, name=f"{app}-rpi")
        forward = backward = {}
        if stores is not None:
            at_x86, at_arm = stores
            forward = dict(use_store=True, src_store=at_x86,
                           dst_store=at_arm)
            backward = dict(use_store=True, src_store=at_arm,
                            dst_store=at_x86)
        #: keyed by the ISA the process currently runs on
        self.pipes = {
            "x86_64": MigrationPipeline(x86, arm, self.program, **forward),
            "aarch64": MigrationPipeline(arm, x86, self.program, **backward),
        }
        self.start()

    def start(self) -> None:
        self.process = self.pipes["x86_64"].start()
        self.output = ""
        self.process.machine.step_all(self.prefill)

    def advance(self, steps: int) -> None:
        """Run ``steps`` more instructions; a resident that exits is
        checked against its pinned reference and restarted."""
        self.process.machine.step_all(steps)
        if self.process.exited:
            self.finish()
            self.start()
            self.process.machine.step_all(steps)

    def finish(self) -> None:
        process = self.process
        if not process.exited:
            process.machine.run_process(process)
        self.run.check_app(self.key, self.output + process.stdout(),
                           process.exit_code)

    def migrate(self, gap):
        """Advance by a seeded gap, then migrate to the other ISA.
        Returns ``(source ISA, result, wall seconds, instructions the
        pause ran)``, or None when the migration failed (counted as
        failed; the resident is restarted).

        A resident about to exit can run out of program before every
        thread reaches an equivalence point: that is a finished
        resident, not a failed op, and a fresh one takes its turn."""
        run = self.run
        while True:
            self.advance(run.rng.randint(*gap))
            source = self.process
            pipe = self.pipes[source.isa.name]
            retired = source.instr_total
            start = time.perf_counter()
            try:
                with run.span("migration.migrate"):
                    result = pipe.migrate(source)
            except ReproError as exc:
                finished = source.exited and source.exit_code != -9
                if finished:
                    self.finish()
                else:
                    run.check(False, f"migrate {self.key}: {exc}")
                self.start()
                if finished:
                    continue
                return None
            wall = time.perf_counter() - start
            run.check(not result.process.exited,
                      f"migrate {self.key}: restored process is dead")
            self.output += result.output_before
            self.process = result.process
            # Drop the arrived image files, as a node's janitor would:
            # left in the tmpfs they grow peak memory by one image set
            # per migration, i.e. with the number of ops run.
            tmpfs = self.process.machine.tmpfs
            for path in tmpfs.listdir("/images/"):
                tmpfs.remove(path)
            return (source.isa.name, result, wall,
                    source.instr_total - retired)


def _pingpong(run: Run, use_store: bool) -> None:
    const = constants(run)
    stores = (CheckpointStore(), CheckpointStore()) if use_store else None
    residents = [Resident(run, app, size, stores)
                 for app, size in const["residents"]]
    migrate_s: List[float] = []
    sim_s: List[float] = []
    rounds = itertools.count(1)

    def do_round(index: int):
        ops = []
        for resident in residents:
            for _ in range(2):          # there and back
                outcome = resident.migrate(const["gap"])
                if outcome is None:
                    continue
                arch, result, wall, pause_steps = outcome
                ops.append((f"{resident.app}/{arch}", wall))
                if index >= 0:
                    migrate_s.append(wall)
                    sim_s.append(result.total_seconds)
                if run.counting:
                    _count_migration(run, result, pause_steps)
        if use_store and next(rounds) % const["prune"] == 0:
            # A long-lived node GCs: keep each store at the newest
            # checkpoint per resident, so one migrate() costs the same
            # at round 40 as at round 4000.
            for store in stores:
                ids = store.checkpoint_ids()
                for cid in ids[:-len(residents)]:
                    store.delete(cid)
                store.gc()
        return ops, len(ops)

    for _ in range(const["discard"]):
        do_round(-1)
    run.loop(do_round, const["counted"], const["untraced"])
    for resident in residents:
        resident.finish()
    if use_store:
        for store in stores:
            problems = store.verify()
            run.check(not problems, f"store fsck: {problems[:3]}")

    if run.tracer is None:
        return
    layer = run.layer
    layer.update(run.counts)
    counted = migrate_s[-const["counted"] * 2 * len(residents):]
    layer["migration.ms_p50"] = statistics.median(counted) * 1e3
    layer["migration.ms_p95"] = percentile(counted, 0.95) * 1e3
    layer["migration.sim_downtime_ms"] = statistics.median(
        sim_s[-len(counted):]) * 1e3
    layer["migration.self_ms"] = run.span_ms("migration.migrate")
    layer["rewriter.frames"] = run.round_count("rewriter.rewrite", "frames")
    layer["rewriter.bytes_before"] = run.round_count("rewriter.rewrite",
                                                     "bytes_before")
    if use_store:
        full = layer.pop("store.bytes_full")
        layer["store.ship_ratio"] = layer["store.bytes_shipped"] / full
        layer["store.dedup_ratio"] = stores[0].stats()["dedup_ratio"]


def _count_migration(run: Run, result, pause_steps: int) -> None:
    run.count("runtime.pause_steps", pause_steps)
    run.count("criu.image_bytes", result.images.total_bytes())
    run.count("criu.pages_dumped", result.images.pagemap().total_pages())
    run.count("verify.checks", result.stats["verify"]["checks"])
    run.count("verify.findings", result.stats["verify"]["repaired_pages"])
    store = result.stats.get("store")
    if store:
        run.count("store.new_chunks", store["new_chunks"])
        run.count("store.dup_chunks", store["dup_chunks"])
        run.count("store.bytes_shipped", store["bytes_shipped"])
        run.count("store.bytes_full", store["bytes_full_copy"])


# -- 6. store_epochs -----------------------------------------------------------


class CountingDisk(SimDisk):
    """SimDisk that counts what the store asks of it. SimDisk, not
    OsDisk: real fsync on a shared sandbox varies 3x run to run, so the
    latencies here are this Python program's, not a device's."""

    def __init__(self, seed: int):
        super().__init__(seed)
        self.writes = self.fsyncs = self.bytes_written = 0

    def write(self, name: str, data: bytes) -> None:
        self.writes += 1
        self.bytes_written += len(data)
        super().write(name, data)

    def append(self, name: str, data: bytes) -> None:
        self.writes += 1
        self.bytes_written += len(data)
        super().append(name, data)

    def fsync(self, name: str) -> None:
        self.fsyncs += 1
        super().fsync(name)


def store_epochs(run: Run) -> None:
    const = constants(run)
    shape = const["shape"]
    gap = bigheap.round_steps(shape)
    resident = Resident(run, "bigheap", shape)
    disk = CountingDisk(run.seed)
    store = CheckpointStore(backend=DirBackend(disk))
    peer = CheckpointStore()            # the warm second node
    live: List[str] = []
    digests: Dict[str, str] = {}
    put_s: List[float] = []
    put_bytes: List[int] = []
    mat_s: List[float] = []
    mat_bytes: List[int] = []
    gc_s: List[float] = []
    epoch = itertools.count(1)
    runtime = None          # the paused resident's runtime, between epochs

    def pause(steps: int) -> DapperRuntime:
        while True:
            resident.advance(steps)
            process = resident.process
            paused = DapperRuntime(process.machine, process)
            try:
                paused.pause_at_equivalence_points()
                return paused
            except PtraceError:
                # Ran out of program before an equivalence point: the
                # resident is done; advance() checks and restarts it.
                if not process.exited:
                    raise

    def do_round(index: int):
        nonlocal runtime
        if runtime is not None:
            runtime.resume()
        runtime = pause(run.rng.randint(gap - gap // 5, gap + gap // 5))
        process = resident.process
        pick = run.rng.choice(live) if live else None

        start = time.perf_counter()
        runtime.clear_flag()
        with run.span("criu.dump"):
            images = dump_process(process)
        put = store.put(images)
        t_put = time.perf_counter()
        if pick is None:
            pick = put.checkpoint_id
        restored = store.materialize(pick, verify=True)
        t_mat = time.perf_counter()
        with run.span("store.plan"):
            plan = plan_transfer(store, peer, put.checkpoint_id)
        with run.span("store.ship"):
            shipped = ship(store, peer, plan)
        wall = time.perf_counter() - start

        cid = put.checkpoint_id
        if cid not in digests:
            live.append(cid)
            digests[cid] = images.content_digest()
        run.check(restored.content_digest() == digests[pick],
                  f"epoch {index}: materialized {pick[:12]} differs from "
                  f"the dump it came from")
        logical = store.logical_bytes(pick)
        if index >= 0:
            put_s.append(t_put - start)
            put_bytes.append(put.logical_bytes)
            mat_s.append(t_mat - t_put)
            mat_bytes.append(logical)
        if run.counting:
            run.count("store.new_chunks", put.new_chunks)
            run.count("store.dup_chunks", put.dup_chunks)
            run.count("store.new_physical", put.new_physical_bytes)
            run.count("store.bytes_shipped", shipped)
            run.count("store.bytes_full", plan.full_bytes)
            run.count("criu.image_bytes", images.total_bytes())
            run.count("criu.pages_dumped", images.pagemap().total_pages())
        if next(epoch) % const["gc_every"] == 0:
            start_gc = time.perf_counter()
            # Oldest gc_drop go, and whatever exceeds `keep`: the live
            # set (and with it peak memory) must not grow with the
            # number of epochs a faster machine fits into the window.
            drop = max(const["gc_drop"], len(live) - const["keep"])
            with run.span("store.gc_cycle"):
                for old in live[:drop]:
                    store.delete(old)
                    peer.delete(old)
                    del digests[old]
                del live[:drop]
                store.gc()
                peer.gc()
            gc_s.append(time.perf_counter() - start_gc)
        return [("epoch", wall)], (put.logical_bytes + logical) / 1e6

    for _ in range(const["discard"]):
        do_round(-1)
    writes0, fsyncs0, bytes0 = disk.writes, disk.fsyncs, disk.bytes_written
    run.loop(do_round, const["counted"], const["untraced"])

    stats = store.stats()
    start = time.perf_counter()
    disk.crash()
    with run.span("store.recover"):
        recovered, report = CheckpointStore.recover(DirBackend(disk))
    recover_s = time.perf_counter() - start
    run.check(report.clean and not report.damaged,
              f"recover: fsck {report.fsck[:3]} damaged {report.damaged[:3]}")
    run.check(all(cid in recovered for cid in live),
              "recover: a committed checkpoint did not survive the crash")
    start = time.perf_counter()
    with run.span("store.scrub"):
        scrub = recovered.scrub()
    scrub_s = time.perf_counter() - start
    run.check(not scrub.corrupt, f"scrub: {len(scrub.corrupt)} corrupt")
    start = time.perf_counter()
    with run.span("store.fsck"):
        problems = recovered.verify()
    fsck_s = time.perf_counter() - start
    run.check(not problems, f"fsck after recover: {problems[:3]}")
    last = recovered.materialize(live[-1], verify=True)
    run.check(last.content_digest() == digests[live[-1]],
              "recover: newest checkpoint differs from its dump")
    runtime.resume()
    resident.finish()

    if run.tracer is None:
        return
    space = stats["physical_bytes"] / stats["logical_bytes"]
    run.check_pin("store", f"space_ratio/seed{run.seed}", space)
    layer = run.layer
    layer.update(run.counts)
    counted = const["counted"]
    layer["store.put_mb_s"] = (sum(put_bytes[-counted:]) / 1e6
                               / sum(put_s[-counted:]))
    layer["store.materialize_mb_s"] = (sum(mat_bytes[-counted:]) / 1e6
                                       / sum(mat_s[-counted:]))
    layer["store.gc_ms"] = statistics.median(gc_s) * 1e3 if gc_s else 0
    layer["store.recover_s"] = recover_s
    layer["store.scrub_mb_s"] = scrub.logical_bytes / 1e6 / scrub_s
    layer["store.fsck_ms"] = fsck_s * 1e3
    layer["store.space_ratio"] = space
    layer["store.dedup_ratio"] = stats["dedup_ratio"]
    layer["store.ship_ratio"] = (layer["store.bytes_shipped"]
                                 / layer.pop("store.bytes_full"))
    layer["store.disk_writes"] = disk.writes - writes0
    layer["store.disk_fsyncs"] = disk.fsyncs - fsyncs0
    layer["store.disk_bytes_written"] = disk.bytes_written - bytes0
    layer["store.write_amp"] = ((disk.bytes_written - bytes0)
                                / layer.pop("store.new_physical"))
    # The dedup-free extreme, trace run only: every page dirty between
    # checkpoints, so put finds no duplicate page.
    extreme = Resident(run, "bigheap", const["extreme"])
    machine = extreme.process.machine
    scratch = CheckpointStore()
    for _ in range(3):
        machine.step_all(bigheap.round_steps(const["extreme"]))
        runtime = DapperRuntime(machine, extreme.process)
        runtime.pause_at_equivalence_points()
        runtime.clear_flag()
        put = scratch.put(dump_process(extreme.process))
        runtime.resume()
    run.check(put.dup_chunks < put.new_chunks,
              f"144 KB / 100 % shape deduplicated: {put!r}")
    extreme.finish()


# -- 7. fleet_storm --------------------------------------------------------------


def fleet_storm(run: Run) -> None:
    const = constants(run)
    results: List[dict] = []
    walls: List[float] = []

    def specs(seed: int):
        return (FleetSpec(seed=seed, **const["spec"]),
                f"seed={seed},{STORM_CHAOS}")

    def do_round(index: int):
        seed = run.seed + max(index, 0)
        spec, chaos = specs(seed)
        start = time.perf_counter()
        with run.span("fleet.build"):
            storm = FleetStorm(spec, FaultPlan.from_spec(chaos))
        with run.span("fleet.run"):
            result = storm.run()
        wall = time.perf_counter() - start
        run.check(result.invariant_ok,
                  f"storm seed {seed}: complete-or-rollback violated")
        run.check_pin("storm", f"events_total/seed{seed}",
                      result.events_total)
        if run.counting:
            results.append(result.to_dict())
            walls.append(wall)
        return [("storm", wall)], result.events_total

    do_round(-1)        # first-use imports and allocator growth
    run.loop(do_round, const["counted"], const["untraced"])

    spec, chaos = specs(run.seed)
    with run.span("fleet.record"):
        recorded = record_fleet(spec.to_spec(), chaos=chaos)
    with run.span("fleet.replay"):
        replayed = Replayer(recorded.journal).run()
    run.check(replayed.journal.to_bytes() == recorded.journal.to_bytes(),
              f"storm seed {run.seed}: journal replay diverged")
    run.check_pin("storm", f"journal_events/seed{run.seed}",
                  len(recorded.journal.events))

    if run.tracer is None:
        return
    layer = run.layer
    events = sum(r["events_total"] for r in results)
    layer["fleet.events_per_s"] = events / sum(walls)
    layer["fleet.host_us_per_event"] = sum(walls) / events * 1e6
    layer["fleet.wall_s"] = statistics.median(walls)
    layer["fleet.build_ms"] = run.span_ms("fleet.build")
    layer["fleet.events_total"] = events
    layer["fleet.barriers"] = sum(r["barriers"] for r in results)
    for name, key in (("migrations_completed", "completed"),
                      ("rolled_back", "rolled_back"),
                      ("bytes_shipped", "bytes_shipped"),
                      ("blackout_s_sim", "blackout_s_total")):
        layer[f"fleet.{name}"] = sum(r["migrations"][key] for r in results)
    for name in ("p50", "p95", "p99", "p99_storm"):
        layer[f"fleet.{name}_ms_sim"] = statistics.median(
            r["latency_ms"][name] for r in results)
    layer["fleet.journal_events"] = len(recorded.journal.events)


# -- 8. recorded_compute -----------------------------------------------------------


def recorded_compute(run: Run) -> None:
    const = constants(run)
    apps = [(app, size, app_source(app, size)) for app, size in const["apps"]]
    work = sum(run.expected["apps"][app_key(app, size)]
               ["instr_total"]["x86_64"] for app, size, _s in apps)
    journals: Dict[str, bytes] = {}

    def record(app: str, size: str, source: str, digest_every: int):
        start = time.perf_counter()
        with run.span("replay.record_run"):
            result = record_run(source, app, digest_every=digest_every)
        wall = time.perf_counter() - start
        ref = run.expected["apps"][app_key(app, size)]
        run.check(result.exit_code == ref["exit_code"]
                  and result.recorder.instructions
                  == ref["instr_total"]["x86_64"],
                  f"record {app}/{size} every={digest_every}: exit code or "
                  f"instructions retired differ from the pinned reference")
        return result, wall

    def do_round(index: int):
        ops = []
        for app, size, source in apps:
            result, wall = record(app, size, source, 1)
            ops.append((app, wall))
            blob = result.journal.to_bytes()
            first = journals.setdefault(app, blob)
            run.check(blob == first,
                      f"record {app}: journal differs between two "
                      f"recordings of the same run")
        return ops, work

    for _ in range(const["warm_passes"]):
        do_round(-1)
    run.loop(do_round, const["counted"], const["untraced"])

    replay_s = 0.0
    for app, size, source in apps:
        result, _wall = record(app, size, source, 1)
        start = time.perf_counter()
        with run.span("replay.replay"):
            replayed = Replayer(result.journal).run()
        replay_s += time.perf_counter() - start
        run.check(replayed.journal.to_bytes() == journals[app],
                  f"replay {app}: not bit-identical to the recording")
        if run.tracer is not None:
            run.layer["replay.journal_bytes"] = (
                run.layer.get("replay.journal_bytes", 0)
                + len(journals[app]))
            run.layer["replay.digests"] = (
                run.layer.get("replay.digests", 0)
                + len(result.journal.digests()))
            run.layer["replay.events"] = (
                run.layer.get("replay.events", 0)
                + len(result.journal.events))

    if run.tracer is None:
        return
    # Recorder off / dense / sparse, interleaved to share the noise; the
    # plain run uses the engine record_run defaults to (tier 2).
    walls = {(mode, app): [] for mode in ("plain", "dense", "sparse")
             for app, _s, _src in apps}
    for _ in range(const["reps"]):
        for app, size, source in apps:
            program = compile_source(source, app)
            process, wall = native_run(program, "x86_64",
                                       chain_engine=False)
            run.check_app(app_key(app, size), process.stdout(),
                          process.exit_code,
                          {"x86_64": process.instr_total})
            walls[("plain", app)].append(wall)
            walls[("dense", app)].append(record(app, size, source, 1)[1])
            walls[("sparse", app)].append(record(app, size, source, 8)[1])
    best = {key: min(ws) for key, ws in walls.items()}
    layer = run.layer
    names = [app for app, _s, _src in apps]
    layer["replay.plain_s"] = sum(best[("plain", a)] for a in names)
    layer["replay.record_dense_s"] = sum(best[("dense", a)] for a in names)
    layer["replay.record_sparse_s"] = sum(best[("sparse", a)] for a in names)
    layer["replay.record_overhead_x"] = geomean(
        best[("dense", a)] / best[("plain", a)] for a in names)
    layer["replay.sparse_overhead_x"] = geomean(
        best[("sparse", a)] / best[("plain", a)] for a in names)
    layer["replay.replay_s"] = replay_s


WORKLOADS = {
    "cold_cli": cold_cli,
    "steady_compute": steady_compute,
    "migrate_pingpong": functools.partial(_pingpong, use_store=False),
    "migrate_bigheap": functools.partial(_pingpong, use_store=False),
    "migrate_store": functools.partial(_pingpong, use_store=True),
    "store_epochs": store_epochs,
    "fleet_storm": fleet_storm,
    "recorded_compute": recorded_compute,
}
