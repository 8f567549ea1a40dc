"""One cold invocation, timed from inside: what a ``dapper-run`` /
``dapper-migrate`` user pays each time they start the tool.

``cold_cli`` spawns this file as a fresh Python process per op because
the VM's code caches (``_CODE_CACHE``, ``_FACTORY_CACHE``,
``_CHAIN_FACTORY_CACHE``, the shared trace cache) are process-global
with no public reset: only a new process is cold.

Usage: ``python coldchild.py APP SIZE WARMUP_STEPS``; prints one JSON
line.
"""

import time

T0 = time.perf_counter()

import hashlib                                              # noqa: E402
import json                                                 # noqa: E402
import os                                                   # noqa: E402
import sys                                                  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "..", "src"))

from repro import Machine, MigrationPipeline, compile_source   # noqa: E402
from repro.apps.registry import get_app                     # noqa: E402
from repro.isa import ARM_ISA, X86_ISA                      # noqa: E402


def main() -> None:
    app, size, warmup = sys.argv[1], sys.argv[2], int(sys.argv[3])
    imported = time.perf_counter()
    program = compile_source(get_app(app).source(size), app)
    compiled = time.perf_counter()
    pipeline = MigrationPipeline(Machine(X86_ISA, name="xeon"),
                                 Machine(ARM_ISA, name="rpi"), program)
    process = pipeline.start()
    pipeline.src_machine.step_all(warmup)
    warmed = time.perf_counter()
    result = pipeline.migrate(process)
    migrated = time.perf_counter()
    pipeline.dst_machine.run_process(result.process)
    done = time.perf_counter()
    binary = program.binary("x86_64")
    print(json.dumps({
        "import_s": imported - T0,
        "compile_s": compiled - imported,
        "warmup_s": warmed - compiled,
        "migrate_s": migrated - warmed,
        "finish_s": done - migrated,
        "total_s": done - T0,
        "stdout_blake2b": hashlib.blake2b(
            result.combined_output().encode(), digest_size=16).hexdigest(),
        "exit_code": result.process.exit_code,
        "instr_total": process.instr_total + result.process.instr_total,
        "text_bytes": len(binary.text),
        "eqpoints": len(binary.stackmaps),
    }))


if __name__ == "__main__":
    main()
