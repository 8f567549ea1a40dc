"""store — checkpoint-store CLI (put / get / ls / stat / gc / verify,
plus recover / scrub / sweep).

A store directory is the crash-consistent store
(:class:`repro.store.DirBackend` over :class:`repro.store.OsDisk`):
content-addressed chunk files installed via write-tmp/fsync/rename
plus a write-ahead intent log (``wal``). Every mutation is durable
when the command returns, and every command opens the directory with
:meth:`repro.store.CheckpointStore.open_dir`, which recovers it first,
so a store a crash interrupted opens at its committed state.

Checkpoint image directories are ``.img`` files (the format ``crit``
and ``migrate --keep-images`` use).

Examples::

    python -m repro.tools.store put  mystore/ images/
    python -m repro.tools.store ls   mystore/
    python -m repro.tools.store get  mystore/ <checkpoint-id> out-images/
    python -m repro.tools.store recover mystore/
    python -m repro.tools.store scrub   mystore/ --binary app.delf
    python -m repro.tools.store sweep   images/ --ops put,delete,gc
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ..errors import ReproError
from ..store import CheckpointStore
from ._cli import guarded
from .crit import load_image_set, save_image_set


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="store",
        description="Content-addressed checkpoint store tool.")
    sub = parser.add_subparsers(dest="command", required=True)

    put = sub.add_parser("put", help="store an image directory as a "
                                     "checkpoint")
    put.add_argument("store_dir")
    put.add_argument("image_dir")
    put.add_argument("--parent", default=None,
                     help="checkpoint id this dump is a delta against")
    put.add_argument("--codec", default="zlib",
                     help="codec when creating a new store "
                          "(default: zlib)")

    get = sub.add_parser("get", help="materialize a checkpoint into an "
                                     "image directory")
    get.add_argument("store_dir")
    get.add_argument("checkpoint")
    get.add_argument("out_dir")
    get.add_argument("--verify", action="store_true",
                     help="run the restore guard over the materialized "
                          "set against this checkpoint's page manifest")
    get.add_argument("--binary", metavar="DELF",
                     help="DELF binary for --verify's semantic pass")

    ls = sub.add_parser("ls", help="list checkpoints")
    ls.add_argument("store_dir")

    stat = sub.add_parser("stat", help="dedup/compression statistics")
    stat.add_argument("store_dir")

    gc = sub.add_parser("gc", help="delete a checkpoint (optional) and "
                                   "sweep unreferenced chunks")
    gc.add_argument("store_dir")
    gc.add_argument("--delete", default=None, metavar="CHECKPOINT",
                    help="unregister this checkpoint first")

    verify = sub.add_parser("verify", help="fsck: re-hash every chunk "
                                           "and audit the refcounts")
    verify.add_argument("store_dir")

    recover = sub.add_parser(
        "recover", help="crash-recover a store: roll the "
                        "WAL forward/back, quarantine torn chunks, "
                        "sweep orphans, fsck")
    recover.add_argument("store_dir")

    scrub = sub.add_parser(
        "scrub", help="incremental integrity scrub: re-hash chunks "
                      "(memory and disk copies) and rebuild corrupt "
                      "text pages from the binary")
    scrub.add_argument("store_dir")
    scrub.add_argument("--binary", metavar="DELF",
                       help="DELF binary used to rebuild corrupt "
                            "text-page chunks")
    scrub.add_argument("--start", default="",
                       help="resume cursor from a previous window")
    scrub.add_argument("--limit", type=int, default=None, metavar="N",
                       help="scrub at most N chunks this window")

    sweep = sub.add_parser(
        "sweep", help="systematic crash-point sweep: crash a simulated "
                      "store at every durability site of each op and "
                      "prove recovery")
    sweep.add_argument("image_dir",
                       help="checkpoint image directory used as the "
                            "workload")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--ops", default="put,put_group,delete,gc,adopt",
                       help="comma-separated ops to sweep (default: "
                            "put,put_group,delete,gc,adopt)")
    return parser


def _resolve_id(store: CheckpointStore, prefix: str) -> str:
    matches = [cid for cid in store.checkpoint_ids()
               if cid.startswith(prefix)]
    if not matches:
        raise ReproError(f"no checkpoint matching {prefix!r}")
    if len(matches) > 1:
        raise ReproError(f"ambiguous checkpoint prefix {prefix!r} "
                         f"({len(matches)} matches)")
    return matches[0]


def _run(args: argparse.Namespace) -> int:
    if args.command == "sweep":
        return _run_sweep(args)
    if args.command == "put":
        images = load_image_set(args.image_dir)
        store, _report = CheckpointStore.open_dir(
            args.store_dir, create=True, codec=args.codec)
        parent = (_resolve_id(store, args.parent)
                  if args.parent else None)
        result = store.put(images, parent=parent)
        kind = "delta" if result.delta else "full"
        print(f"{result.checkpoint_id} {kind} "
              f"new_chunks={result.new_chunks} "
              f"dup_chunks={result.dup_chunks} "
              f"physical+={result.new_physical_bytes}B "
              f"logical={result.logical_bytes}B")
        return 0
    # Every other command reads an existing store: recovered on open.
    store, report = CheckpointStore.open_dir(args.store_dir)
    if args.command == "get":
        cid = _resolve_id(store, args.checkpoint)
        binary = None
        if args.binary:
            from ..binfmt.delf import DelfBinary
            with open(args.binary, "rb") as fh:
                binary = DelfBinary.from_bytes(fh.read())
        images = store.materialize(cid, verify=args.verify,
                                   binary=binary)
        save_image_set(images, args.out_dir)
        print(f"materialized {cid} -> {args.out_dir} "
              f"({images.total_bytes()}B, "
              f"{len(images.files)} files)")
    elif args.command == "ls":
        for cid in store.checkpoint_ids():
            manifest = store.manifest(cid)
            parent = manifest.get("parent", "") or "-"
            print(f"{cid} arch={manifest.get('arch', '?')} "
                  f"pages={len(manifest['pages'])} "
                  f"parent={parent[:12] if parent != '-' else '-'}")
        if not store.checkpoint_ids():
            print("(no checkpoints)")
    elif args.command == "stat":
        stats = store.stats()
        for key in ("checkpoints", "chunks", "logical_bytes",
                    "unique_bytes", "physical_bytes"):
            print(f"{key:15} {stats[key]}")
        print(f"{'dedup_ratio':15} {stats['dedup_ratio']:.2f}x")
    elif args.command == "gc":
        if args.delete:
            cid = _resolve_id(store, args.delete)
            store.delete(cid)
            print(f"deleted {cid}")
        count, freed = store.gc()
        print(f"gc: reclaimed {count} chunks, {freed}B")
    elif args.command == "verify":
        problems = store.verify()
        for problem in problems:
            print(problem)
        if problems:
            print(f"FAILED: {len(problems)} problem(s)")
            return 1
        print("store is clean")
    elif args.command == "recover":
        print(f"recovered {len(report.checkpoints)} checkpoint(s) "
              f"({'clean' if report.clean else 'with damage handled'})")
        for name in ("quarantined", "damaged", "rolled_back",
                     "aborted_group_members", "orphans_swept",
                     "tmp_swept"):
            value = getattr(report, name)
            count = len(value) if isinstance(value, list) else value
            if count:
                print(f"  {name:22} {count}")
        if report.tail_cut:
            print(f"  {'wal_tail_cut':22} {report.tail_cut}B")
        for problem in report.fsck:
            print(f"  fsck: {problem}")
        if report.fsck:
            print(f"FAILED: {len(report.fsck)} fsck problem(s) after "
                  f"recovery")
            return 1
    elif args.command == "scrub":
        binary = None
        if args.binary:
            from ..binfmt.delf import DelfBinary
            with open(args.binary, "rb") as fh:
                binary = DelfBinary.from_bytes(fh.read())
        report = store.scrub(binary=binary, start=args.start,
                             limit=args.limit)
        print(f"scrubbed {report.scanned} chunk(s) "
              f"({report.logical_bytes}B logical): "
              f"{len(report.corrupt)} corrupt, "
              f"{len(report.repaired)} repaired, "
              f"{len(report.quarantined)} quarantined")
        if report.cursor:
            print(f"  next window: --start {report.cursor}")
        unrepaired = set(report.corrupt) - set(report.repaired)
        if unrepaired:
            for digest in sorted(unrepaired):
                print(f"  UNREPAIRED {digest}")
            return 1
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    from ..chaos import store_sweep_ops, sweep as crash_sweep

    rows = store_sweep_ops(load_image_set(args.image_dir))
    ops = [name.strip() for name in args.ops.split(",") if name.strip()]
    for name in ops:
        if name not in rows:
            raise ReproError(f"unknown sweep op {name!r}; known: "
                             f"{', '.join(sorted(rows))}")
    failures = 0
    total_sites = 0
    for name in ops:
        setup, op, atomic = rows[name]
        trials = crash_sweep(setup, op, seed=args.seed, atomic=atomic)
        total_sites += len(trials)
        bad = [trial for trial in trials if not trial.ok]
        failures += len(bad)
        print(f"{name:10} {len(trials):3} site(s) "
              f"{f'{len(bad)} FAILED' if bad else 'ok'}")
        for trial in bad:
            for problem in trial.problems:
                print(f"  #{trial.seed} {trial.phase}: {problem}")
    verdict = ("all recovered" if not failures
               else f"{failures} FAILURE(S)")
    print(f"sweep: {total_sites} crash site(s) across {len(ops)} "
          f"op(s), {verdict}")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return guarded("store", lambda: _run(args))


if __name__ == "__main__":
    sys.exit(main())
