"""The benchmark's contract: workloads, end-to-end and per-layer metrics.

``BENCHMARK.json`` at the repo root is ``manifest()`` written out
(``run.py --write-manifest``); ``run.py --smoke`` fails when the two
drift apart. ``kind`` is this file's own label and is not part of the
manifest: **host** metrics are wall clock (or memory) of this Python
program on this machine and carry a bound; **sim** metrics are modelled
seconds or deterministic counts, repeat exactly for one seed, and are
compared exactly by ``compare.py``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

COMMAND = ["python3", "benchmarks/e2e/run.py"]
PATHS = ["benchmarks/e2e"]
RUN_SECONDS = 8

#: (name, why) -- names are stable; later issues cite them.
WORKLOADS: List[Tuple[str, str]] = [
    ("cold_cli",
     "fresh process per op: compiler, VM codegen and first-use lazy "
     "set-up do nearly all the work here and none in steady_compute"),
    ("steady_compute",
     "native runs on a warm node: vm/ is >=99% of the time and migrate, "
     "store and fleet are absent, so a migrate-layer change predicts no "
     "movement"),
    ("migrate_pingpong",
     "small residents (33 KB/3 frames, 42 KB/4 threads) ping-ponged "
     "x86<->arm, plain scp: restore, pause and verify are the top spans; "
     "VM speed is <10% of the time"),
    ("migrate_bigheap",
     "1 MB/266-page resident ping-ponged, plain scp: the page-bound "
     "layers (digests, verify, rewrite, dump) dominate instead of "
     "restore"),
    ("migrate_store",
     "small residents again but use_store=True over two warm stores: "
     "put, plan, ship, materialize and pipeline self time sit on top"),
    ("store_epochs",
     "dump+put+materialize(verify)+ship epochs of one resident into a "
     "durable store on SimDisk: zlib, blake2b and the WAL do the work, "
     "VM and rewriter none"),
    ("fleet_storm",
     "1000-node chaos storm: fleet/, cluster events and the cost model "
     "only, no VM at all, so a VM or store change predicts no movement"),
    ("recorded_compute",
     "the VM with the flight-recorder hook on (digest every slice): "
     "replay/ digesting dominates, which steady_compute never sees"),
]

#: (name, unit, better, bound, kind, what it is)
END_TO_END: List[Tuple[str, str, str, float, str, str]] = [
    ("op_ms_p10", "ms", "lower", 0.25, "host",
     "fastest-decile wall time of one round of the workload's ops (the "
     "op itself, not the loop around it)"),
    ("work_per_s", "1/s", "higher", 0.25, "host",
     "fastest-decile rate over rounds: work units completed per host "
     "second of the closed loop, everything between ops included"),
    ("peak_rss_mb", "MB", "lower", 0.20, "host",
     "peak resident set of this process or its largest child, set-up "
     "and timed loop"),
    ("setup_s", "s", "lower", 0.25, "host",
     "first line of run.py to first timed op: imports, compiles, "
     "reference checks, warm-up passes and discarded rounds"),
]

_APPS = ("dhrystone", "kmeans", "redis", "nginx")

#: (name, unit, better, kind, what it is)
PER_LAYER: List[Tuple[str, str, str, str, str]] = [
    # compiler
    ("compiler.compile_ms", "ms", "lower", "host",
     "compile_source of one app, both ISAs"),
    ("compiler.text_bytes", "count", "lower", "sim", "x86 text size"),
    ("compiler.eqpoints", "count", "lower", "sim", "x86 stackmap records"),
    # vm
    ("vm.cold_run_s", "s", "lower", "host",
     "cold child: VM time (warm-up + run to exit) per round"),
    ("vm.cold_warm_x", "ratio", "lower", "host",
     "cold child total / same sequence in a warm process"),
    ("vm.mips", "M/s", "higher", "host",
     "geomean over app x ISA of instr_total / median run wall, x1e-6"),
    *[(f"vm.mips.{app}", "M/s", "higher", "host",
       f"{app}: geomean over ISAs, quantum 64, both engines")
      for app in _APPS],
    ("vm.mips_per_step", "M/s", "higher", "host",
     "dhrystone x86 on the per-step interpreter"),
    *[(f"vm.mips_tier2.{app}", "M/s", "higher", "host",
       f"{app}: tier-2 only, quantum 4096 (as BENCH_interp)")
      for app in _APPS],
    *[(f"vm.mips_tier3.{app}", "M/s", "higher", "host",
       f"{app}: tier-3 chains, quantum 4096 (as BENCH_interp)")
      for app in _APPS],
    ("vm.step_all_ms", "ms", "lower", "host",
     "self time in Machine.step_all per round"),
    ("vm.chains_built", "count", "lower", "sim",
     "chains compiled during the counted rounds"),
    ("vm.chains_unlinked", "count", "lower", "sim",
     "chains unlinked during the counted rounds"),
    *[(f"vm.instr_total.{app}", "count", "lower", "sim",
       f"{app}: instructions retired, x86 + arm")
      for app in _APPS],
    # core.runtime
    ("runtime.pause_ms", "ms", "lower", "host",
     "pause_at_equivalence_points self time per round"),
    ("runtime.pause_steps", "count", "lower", "sim",
     "instructions run to park every thread, counted rounds"),
    # criu
    ("criu.dump_ms", "ms", "lower", "host", "dump_process per round"),
    ("criu.restore_ms", "ms", "lower", "host", "restore_process per round"),
    ("criu.content_digest_ms", "ms", "lower", "host",
     "ImageSet.content_digest per round"),
    ("criu.save_ms", "ms", "lower", "host",
     "ImageSet.save into the destination tmpfs per round"),
    ("criu.image_bytes", "count", "lower", "sim",
     "bytes of the image sets restored, counted rounds"),
    ("criu.pages_dumped", "count", "lower", "sim",
     "pages in those image sets"),
    # core.rewriter
    ("rewriter.rewrite_ms", "ms", "lower", "host",
     "ProcessRewriter.rewrite per round"),
    ("rewriter.frames", "count", "lower", "sim", "frames rewritten"),
    ("rewriter.bytes_before", "count", "lower", "sim",
     "image bytes entering the rewriter"),
    # verify
    ("verify.verify_ms", "ms", "lower", "host",
     "restore guard (ImageVerifier.repair / verify_images) per round"),
    ("verify.page_digests_ms", "ms", "lower", "host",
     "image_page_digests per round"),
    ("verify.checks", "count", "lower", "sim", "checks the guard ran"),
    ("verify.findings", "count", "lower", "sim",
     "findings + repairs (0 on a fault-free run)"),
    # core.migration
    ("migration.ms_p50", "ms", "lower", "host",
     "median wall of one migrate() call"),
    ("migration.ms_p95", "ms", "lower", "host",
     "p95 wall of one migrate() call (diagnostic: unstable run to run)"),
    ("migration.self_ms", "ms", "lower", "host",
     "migrate() time no wrapped layer accounts for, per round"),
    ("migration.first_ms", "ms", "lower", "host",
     "first migrate() of a cold process"),
    ("migration.sim_downtime_ms", "ms", "lower", "sim",
     "median sum of stage_seconds: the paper's Fig. 5 quantity"),
    # store
    ("store.put_ms", "ms", "lower", "host", "CheckpointStore.put per round"),
    ("store.materialize_ms", "ms", "lower", "host",
     "materialize minus the verify inside it, per round"),
    ("store.plan_ms", "ms", "lower", "host", "plan_transfer per round"),
    ("store.ship_ms", "ms", "lower", "host", "ship per round"),
    ("store.gc_ms", "ms", "lower", "host", "delete + gc, per gc"),
    ("store.recover_s", "s", "lower", "host",
     "crash -> CheckpointStore.recover returns clean"),
    ("store.fsck_ms", "ms", "lower", "host", "CheckpointStore.verify"),
    ("store.put_mb_s", "MB/s", "higher", "host",
     "logical MB per second of put"),
    ("store.materialize_mb_s", "MB/s", "higher", "host",
     "logical MB per second of materialize(verify=True)"),
    ("store.scrub_mb_s", "MB/s", "higher", "host",
     "logical MB per second of scrub"),
    ("store.space_ratio", "ratio", "lower", "sim",
     "physical bytes per logical byte after the counted rounds"),
    ("store.new_chunks", "count", "lower", "sim", "chunks put created"),
    ("store.dup_chunks", "count", "higher", "sim", "chunks put found"),
    ("store.dedup_ratio", "ratio", "higher", "sim",
     "store.stats() logical : physical"),
    ("store.bytes_shipped", "count", "lower", "sim",
     "compressed bytes ship moved"),
    ("store.ship_ratio", "ratio", "lower", "sim",
     "bytes shipped per logical byte of the checkpoints shipped"),
    ("store.disk_writes", "count", "lower", "sim",
     "SimDisk write + append calls"),
    ("store.disk_fsyncs", "count", "lower", "sim", "SimDisk fsync calls"),
    ("store.disk_bytes_written", "count", "lower", "sim",
     "bytes handed to SimDisk"),
    ("store.write_amp", "ratio", "lower", "sim",
     "disk bytes written per new physical chunk byte"),
    # replay
    ("replay.plain_s", "s", "lower", "host",
     "one round of the apps with the recorder off"),
    ("replay.record_dense_s", "s", "lower", "host",
     "one round under record_run(digest_every=1)"),
    ("replay.record_sparse_s", "s", "lower", "host",
     "one round under record_run(digest_every=8)"),
    ("replay.record_overhead_x", "ratio", "lower", "host",
     "geomean over apps of dense record wall / plain wall"),
    ("replay.sparse_overhead_x", "ratio", "lower", "host",
     "geomean over apps of sparse record wall / plain wall"),
    ("replay.replay_s", "s", "lower", "host",
     "one round of Replayer(journal).run()"),
    ("replay.on_slice_ms", "ms", "lower", "host",
     "FlightRecorder.on_slice (journal append + digest) per round"),
    ("replay.journal_bytes", "count", "lower", "sim",
     "dense journal size, one round"),
    ("replay.digests", "count", "lower", "sim", "digests in those journals"),
    ("replay.events", "count", "lower", "sim", "events in those journals"),
    # fleet
    ("fleet.events_per_s", "1/s", "higher", "host",
     "sum of events / sum of storm wall, counted rounds"),
    ("fleet.host_us_per_event", "us", "lower", "host", "the inverse"),
    ("fleet.wall_s", "s", "lower", "host", "median storm wall"),
    ("fleet.build_ms", "ms", "lower", "host",
     "FleetStorm construction (placement) per round"),
    ("fleet.events_total", "count", "lower", "sim", "events fired"),
    ("fleet.barriers", "count", "lower", "sim", "barrier windows"),
    ("fleet.migrations_completed", "count", "higher", "sim", ""),
    ("fleet.rolled_back", "count", "lower", "sim", ""),
    ("fleet.bytes_shipped", "count", "lower", "sim", ""),
    ("fleet.blackout_s_sim", "s", "lower", "sim", "summed blackout"),
    ("fleet.p50_ms_sim", "ms", "lower", "sim", "median over storms"),
    ("fleet.p95_ms_sim", "ms", "lower", "sim", "median over storms"),
    ("fleet.p99_ms_sim", "ms", "lower", "sim", "median over storms"),
    ("fleet.p99_storm_ms_sim", "ms", "lower", "sim",
     "median over storms of the storm-window p99"),
    ("fleet.journal_events", "count", "lower", "sim",
     "events in the recorded journal of the first storm"),
    # the benchmark itself
    ("bench.trace_overhead_x", "ratio", "lower", "host",
     "median op wall of the traced rounds / of the untraced rounds"),
    ("bench.self_time_coverage", "ratio", "higher", "host",
     "sum of span self times / sum of root spans (1.0 by construction)"),
    ("bench.spans", "count", "lower", "sim", "spans recorded"),
    ("bench.loadavg_start", "ratio", "lower", "host", "1-min load at start"),
    ("bench.noisy", "count", "lower", "host",
     "1 when loadavg_start > nproc: numbers still reported"),
]


def _column(end_to_end: int, per_layer: int) -> Dict[str, object]:
    out = {row[0]: row[end_to_end] for row in END_TO_END}
    out.update({row[0]: row[per_layer] for row in PER_LAYER})
    return out


def units() -> Dict[str, str]:
    return _column(1, 1)


def better() -> Dict[str, str]:
    return _column(2, 2)


def kinds() -> Dict[str, str]:
    return _column(4, 3)


def bounds() -> Dict[str, float]:
    """End-to-end metrics only: per-layer metrics carry no bound."""
    return {row[0]: row[3] for row in END_TO_END}


def manifest() -> dict:
    """Exactly what BENCHMARK.json holds."""
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": b,
                        "bound": bound}
                       for name, unit, b, bound, _k, _w in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": b}
                      for name, unit, b, _k, _w in PER_LAYER],
    }
