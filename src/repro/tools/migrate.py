"""migrate — compile, run and live-migrate a DapperC program across ISAs.

Examples::

    python -m repro.tools.migrate app.dc
    python -m repro.tools.migrate app.dc --from aarch64 --to x86_64 --lazy
    python -m repro.tools.migrate app.dc --warmup 20000 --keep-images out/
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from ..compiler import compile_source
from ..core.migration import MigrationPipeline, exe_path_for, \
    install_program
from ..isa import ISAS, get_isa
from ..vm import Machine
from ._cli import guarded
from .crit import save_image_set


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dapper-migrate",
        description="Compile a DapperC program, run it, and live-migrate "
                    "it across ISAs mid-run; verifies the migrated output "
                    "against a native run.")
    parser.add_argument("source", help="DapperC source file")
    parser.add_argument("--from", dest="src_arch", default="x86_64",
                        choices=sorted(ISAS))
    parser.add_argument("--to", dest="dst_arch", default="aarch64",
                        choices=sorted(ISAS))
    parser.add_argument("--warmup", type=int, default=5000,
                        help="instructions to run before migrating")
    parser.add_argument("--lazy", action="store_true",
                        help="post-copy (lazy) migration")
    parser.add_argument("--keep-images", metavar="DIR",
                        help="write the rewritten image files to DIR")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress program output")
    return parser


def _run(args: argparse.Namespace) -> int:
    with open(args.source) as handle:
        source = handle.read()
    name = os.path.splitext(os.path.basename(args.source))[0]
    program = compile_source(source, name)

    reference_machine = Machine(get_isa(args.src_arch))
    install_program(reference_machine, program)
    reference = reference_machine.spawn_process(
        exe_path_for(name, args.src_arch))
    reference_machine.run_process(reference)

    pipeline = MigrationPipeline(
        Machine(get_isa(args.src_arch), name="src"),
        Machine(get_isa(args.dst_arch), name="dst"), program)
    result = pipeline.run_and_migrate(warmup_steps=args.warmup,
                                      lazy=args.lazy)

    if not args.quiet:
        sys.stdout.write(result.combined_output())
    stages = ", ".join(f"{k}={v * 1e3:.2f}ms"
                       for k, v in result.stage_seconds.items())
    print(f"[migration {args.src_arch} → {args.dst_arch}"
          f"{' lazy' if args.lazy else ''}] {stages}", file=sys.stderr)
    print(f"[rewrite] {result.stats}", file=sys.stderr)
    match = result.combined_output() == reference.stdout()
    print(f"[verify] output identical to native run: {match}",
          file=sys.stderr)

    if args.keep_images:
        save_image_set(result.images, args.keep_images)
        print(f"[images] wrote {len(result.images.files)} files to "
              f"{args.keep_images}", file=sys.stderr)
    return 0 if match else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.src_arch == args.dst_arch:
        print("dapper-migrate: --from and --to must differ",
              file=sys.stderr)
        return 2
    return guarded("dapper-migrate", lambda: _run(args))


if __name__ == "__main__":
    raise SystemExit(main())
