"""Checkpoint-store benchmark: dedup, incremental dumps, delta transfer.

Measures, per app, what the content-addressed store buys over the
plain copy-the-images pipeline:

* **full-copy scp** — bytes a vanilla migration ships (the baseline),
* **cold store** — bytes shipped to a destination store that has never
  seen anything (compression only),
* **warm store** — bytes shipped when the destination has already
  received one migration of the same program (dedup: only genuinely
  new chunks cross the wire),
* **incremental dumps** — physical bytes each successive epoch
  checkpoint adds to the store (dirty pages only),
* **durability** — wall-clock crash-recovery time and scrub
  throughput of the dir-backend store holding the epoch chain, plus
  the crash-point sweep verdict (every durability site of a ``put``
  killed and recovered; deterministic, so asserted under ``--smoke``),
* **page hashes** — page-sized blake2b calls one warm delta migration
  makes, counted (not timed) around ``hashlib.blake2b``: a page is
  hashed once where it is dumped, once where it arrives by wire
  (``adopt``) and once by the restore guard over the materialised set
  — ``put`` and restore reuse those results (deterministic, so
  asserted under ``--smoke``),
* store fsck (``verify``) must be clean on both sides, and the
  restored output must be byte-identical on every path.

Writes ``BENCH_store.json`` at the repo root so the trajectory is
tracked across PRs; ``--out PATH`` writes the record there instead.
``--smoke`` writes no record unless given ``--out``, so a smoke run
never replaces the committed full-mode one.

Usage::

    PYTHONPATH=src python benchmarks/bench_store.py [--smoke] [--out PATH]

``--smoke`` runs the small app size only and *asserts* the acceptance
bar: a warm delta migration ships < 50% of the bytes of a full-copy
scp migration, with identical restored output. Byte counts are
deterministic, so this is CI-safe (no timing gates).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.apps.registry import get_app                     # noqa: E402
from repro.core.migration import MigrationPipeline          # noqa: E402
from repro.core.runtime import DapperRuntime                # noqa: E402
from repro.isa import get_isa                               # noqa: E402
from repro.mem.paging import PAGE_SIZE                      # noqa: E402
from repro.store import (CheckpointStore,                   # noqa: E402
                         IncrementalCheckpointer)
from repro.vm.kernel import Machine                         # noqa: E402

REPO_ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
APPS = ("dhrystone", "kmeans")
WARMUP = 5000
EPOCH_STEPS = 3000
EPOCHS = 4


class PageHashCount:
    """Counts page-sized one-shot ``hashlib.blake2b`` calls while
    active (every page digest in ``src/`` goes through that name)."""

    def __enter__(self):
        self.pages = 0
        self._real = real = hashlib.blake2b

        def counted(data=b"", **kwargs):
            if len(data) == PAGE_SIZE:
                self.pages += 1
            return real(data, **kwargs)

        hashlib.blake2b = counted
        return self

    def __exit__(self, *exc):
        hashlib.blake2b = self._real


def migrate_once(program, use_store, src_store=None, dst_store=None):
    src = Machine(get_isa("x86_64"), name="src")
    dst = Machine(get_isa("aarch64"), name="dst")
    pipeline = MigrationPipeline(src, dst, program, use_store=use_store,
                                 src_store=src_store, dst_store=dst_store)
    result = pipeline.run_and_migrate(WARMUP)
    return result


def incremental_epochs(program):
    """Physical bytes each epoch checkpoint adds to the store."""
    machine = Machine(get_isa("x86_64"), name="inc")
    from repro.core.migration import exe_path_for, install_program
    install_program(machine, program)
    process = machine.spawn_process(
        exe_path_for(program.name, "x86_64"))
    machine.step_all(WARMUP)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    store = CheckpointStore()
    checkpointer = IncrementalCheckpointer(store, process,
                                           runtime=runtime)
    epochs = []
    for _ in range(EPOCHS):
        result = checkpointer.checkpoint()
        epochs.append({
            "delta": result.delta,
            "pages_total": result.pages_total,
            "pages_carried": result.pages_carried,
            "new_physical_bytes": result.new_physical_bytes,
            "logical_bytes": result.logical_bytes,
        })
        runtime.resume()
        machine.step_all(EPOCH_STEPS)
        if process.exited:
            break
        runtime.pause_at_equivalence_points()
    problems = store.verify()
    if problems:
        raise SystemExit(f"store verify failed after incremental "
                         f"dumps: {problems}")
    stats = store.stats()
    # gc sanity: unpinning every checkpoint must drain the store
    for cid in reversed(store.chain(checkpointer.last_id)):
        store.delete(cid)
    store.gc()
    if len(store.chunks) != 0:
        raise SystemExit("gc left unreferenced chunks behind")
    return epochs, stats


def durability(program) -> dict:
    """Recovery time, scrub throughput, and the crash-sweep verdict
    for a dir-backend store holding the epoch chain."""
    import time

    from repro.chaos import sweep as crash_sweep
    from repro.core.migration import exe_path_for, install_program
    from repro.criu.dump import dump_process
    from repro.store import DirBackend, SimDisk

    machine = Machine(get_isa("x86_64"), name="dur")
    install_program(machine, program)
    process = machine.spawn_process(
        exe_path_for(program.name, "x86_64"))
    machine.step_all(WARMUP)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()

    disk = SimDisk(seed=0)
    store = CheckpointStore(backend=DirBackend(disk))
    first_images = None
    for _ in range(EPOCHS):
        images = dump_process(process)
        if first_images is None:
            first_images = images
        store.put(images)
        runtime.resume()
        machine.step_all(EPOCH_STEPS)
        if process.exited:
            break
        runtime.pause_at_equivalence_points()

    start = time.perf_counter()
    recovered, report = CheckpointStore.recover(DirBackend(disk.clone()))
    recover_ms = (time.perf_counter() - start) * 1000.0
    if report.fsck:
        raise SystemExit(f"recovery fsck failed: {report.fsck}")

    start = time.perf_counter()
    scrubbed = store.scrub()
    elapsed = max(time.perf_counter() - start, 1e-9)
    if scrubbed.corrupt:
        raise SystemExit(f"scrub found corruption on a healthy "
                         f"store: {scrubbed.corrupt}")

    swept = crash_sweep(lambda s: None,
                        lambda s, ctx: s.put(first_images),
                        seed=0, atomic=True)
    return {
        "checkpoints": len(recovered.checkpoint_ids()),
        "chunks": len(recovered.chunks),
        "recover_ms": round(recover_ms, 3),
        "scrub_chunks": scrubbed.scanned,
        "scrub_mb_per_s": round(
            scrubbed.logical_bytes / elapsed / 1e6, 2),
        "crash_sites": len(swept),
        "crash_sweep_ok": all(trial.ok for trial in swept),
    }


def measure(app_name: str, size: str) -> dict:
    program = get_app(app_name).compile(size)

    plain = migrate_once(program, use_store=False)
    full_bytes = plain.images.total_bytes()

    src_store, dst_store = CheckpointStore(), CheckpointStore()
    cold = migrate_once(program, True, src_store, dst_store)
    with PageHashCount() as hashed:
        warm = migrate_once(program, True, src_store, dst_store)
    # The budget: each dumped page once at the source (a fresh process
    # has no arrival image to compare against, so every page counts as
    # changed), each page chunk that crossed the wire once on adoption,
    # and the guard's one pass over the materialised set.
    pages = warm.images.pagemap().total_pages()
    shipped = warm.stats["store"]["chunks_shipped"]
    hash_budget = shipped + pages + pages

    for label, result in (("cold", cold), ("warm", warm)):
        if result.combined_output() != plain.combined_output():
            raise SystemExit(f"OUTPUT MISMATCH on {app_name} ({label} "
                             f"store path) — refusing to report sizes "
                             f"for wrong results")
    for label, store in (("src", src_store), ("dst", dst_store)):
        problems = store.verify()
        if problems:
            raise SystemExit(f"{label} store verify failed on "
                             f"{app_name}: {problems}")

    epochs, inc_stats = incremental_epochs(program)
    durable = durability(program)

    cold_bytes = cold.stats["store"]["bytes_shipped"]
    warm_bytes = warm.stats["store"]["bytes_shipped"]
    return {
        "app": app_name,
        "size": size,
        "full_copy_bytes": full_bytes,
        "cold_store_bytes": cold_bytes,
        "warm_store_bytes": warm_bytes,
        "cold_ratio": round(cold_bytes / full_bytes, 4),
        "warm_ratio": round(warm_bytes / full_bytes, 4),
        "store_dedup_ratio": round(
            cold.stats["store"]["dedup_ratio"], 2),
        "plain_total_seconds": round(plain.total_seconds, 6),
        "warm_total_seconds": round(warm.total_seconds, 6),
        "warm_pages": pages,
        "warm_chunks_shipped": shipped,
        "warm_page_hashes": hashed.pages,
        "warm_page_hash_budget": hash_budget,
        "incremental_epochs": epochs,
        "incremental_dedup_ratio": round(
            inc_stats["dedup_ratio"], 2),
        "durability": durable,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="small size + assert the <50%% warm-delta "
                             "acceptance bar")
    parser.add_argument("--size", default=None,
                        help="app size override (default: small for "
                             "--smoke, medium otherwise)")
    parser.add_argument("--out", default=None,
                        help="write the JSON record here (default: "
                             "BENCH_store.json at the repo root; "
                             "--smoke writes nothing without --out)")
    args = parser.parse_args()
    size = args.size or ("small" if args.smoke else "medium")

    results = []
    for app in APPS:
        row = measure(app, size)
        results.append(row)
        print(f"{app:12} full={row['full_copy_bytes']:8}B "
              f"cold={row['cold_store_bytes']:7}B "
              f"({row['cold_ratio']:.0%}) "
              f"warm={row['warm_store_bytes']:6}B "
              f"({row['warm_ratio']:.0%}) "
              f"dedup={row['store_dedup_ratio']}x "
              f"page-hashes={row['warm_page_hashes']}"
              f"/{row['warm_page_hash_budget']}")
        for i, epoch in enumerate(row["incremental_epochs"]):
            kind = "delta" if epoch["delta"] else "full "
            print(f"  epoch {i} {kind} pages="
                  f"{epoch['pages_carried']}/{epoch['pages_total']} "
                  f"+{epoch['new_physical_bytes']}B")
        durable = row["durability"]
        print(f"  durability: recover={durable['recover_ms']}ms "
              f"({durable['checkpoints']} ckpts, "
              f"{durable['chunks']} chunks) "
              f"scrub={durable['scrub_mb_per_s']}MB/s "
              f"sweep={durable['crash_sites']} sites "
              f"{'ok' if durable['crash_sweep_ok'] else 'FAILED'}")

    if args.smoke:
        for row in results:
            assert row["warm_store_bytes"] < 0.5 * row["full_copy_bytes"], (
                f"{row['app']}: warm store migration shipped "
                f"{row['warm_store_bytes']}B, not under half of the "
                f"{row['full_copy_bytes']}B full copy")
            assert row["durability"]["crash_sweep_ok"], (
                f"{row['app']}: crash-point sweep failed")
            assert row["warm_page_hashes"] <= row["warm_page_hash_budget"], (
                f"{row['app']}: warm delta migration hashed "
                f"{row['warm_page_hashes']} pages, over the "
                f"{row['warm_page_hash_budget']} of shipped chunks + "
                f"changed pages + the guard's one pass")
        print("smoke OK: warm delta < 50% of full copy on every app, "
              "crash sweep recovered every site, every page hashed at "
              "most once per boundary it crossed")

    record = {
        "benchmark": "store",
        "mode": "smoke" if args.smoke else "full",
        "results": results,
    }
    out_path = args.out or (
        None if args.smoke else os.path.join(REPO_ROOT, "BENCH_store.json"))
    if out_path is None:
        return 0
    with open(out_path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print(f"wrote {os.path.abspath(out_path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
