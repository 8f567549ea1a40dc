"""Differential fuzzing of the entire stack.

Random DapperC programs (deterministic per seed) are pushed through
every pipeline and must behave identically everywhere:

* native x86_64 vs native aarch64 (compiler + VM),
* native vs migrated-at-a-random-point (runtime + CRIU + cross-ISA
  rewriter),
* native vs shuffled-mid-run (SBI + same-ISA retargeting).

Any divergence — exit code, output bytes, or a crash — is a real bug in
one of the layers.
"""

import random

import pytest

from repro.compiler import compile_source
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.policies.stack_shuffle import StackShufflePolicy
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.errors import MigrationError
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.testing import generate_program
from repro.vm import Machine, chains

SEEDS = list(range(20))
MIGRATION_SEEDS = list(range(10))
SHUFFLE_SEEDS = list(range(8))

pytestmark = pytest.mark.usefixtures("early_chains")


def _native(program, arch, max_steps=3_000_000):
    machine = Machine(get_isa(arch))
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    bound = chains.chain_cache_info()["bound"]
    machine.run_process(process, max_steps=max_steps)
    # every reference ran on tier 3 too, not only on tiers 0 and 2
    assert chains.chain_cache_info()["bound"] > bound
    return process


@pytest.mark.parametrize("seed", SEEDS)
def test_fuzz_dual_isa_equivalence(seed):
    source = generate_program(seed)
    program = compile_source(source, f"fuzz{seed}")
    x86 = _native(program, "x86_64")
    arm = _native(program, "aarch64")
    assert x86.exit_code == arm.exit_code == 0
    assert x86.stdout() == arm.stdout()
    assert x86.stdout().strip(), "generated program must print something"


@pytest.mark.parametrize("seed", MIGRATION_SEEDS)
def test_fuzz_migration_at_random_point(seed):
    source = generate_program(seed)
    program = compile_source(source, f"fuzz{seed}")
    reference = _native(program, "x86_64")
    total = reference.instr_total
    rng = random.Random(seed * 7919 + 13)
    warmup = rng.randrange(max(1, total // 10), max(2, int(total * 0.9)))
    pipeline = MigrationPipeline(Machine(X86_ISA, name="src"),
                                 Machine(ARM_ISA, name="dst"), program)
    try:
        result = pipeline.run_and_migrate(warmup_steps=warmup)
    except MigrationError:
        # The random point landed after program exit — legitimate.
        return
    assert result.combined_output() == reference.stdout()
    assert result.process.exit_code == 0


@pytest.mark.parametrize("seed", MIGRATION_SEEDS)
def test_fuzz_migration_reverse_direction(seed):
    source = generate_program(seed + 1000)
    program = compile_source(source, f"fuzzrev{seed}")
    reference = _native(program, "aarch64")
    warmup = max(1, reference.instr_total // 3)
    pipeline = MigrationPipeline(Machine(ARM_ISA, name="src"),
                                 Machine(X86_ISA, name="dst"), program)
    try:
        result = pipeline.run_and_migrate(warmup_steps=warmup)
    except MigrationError:
        return
    assert result.combined_output() == reference.stdout()


@pytest.mark.parametrize("seed", SHUFFLE_SEEDS)
@pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
def test_fuzz_shuffle_mid_run(seed, arch):
    source = generate_program(seed + 500)
    program = compile_source(source, f"fuzzshuf{seed}")
    reference = _native(program, arch)
    machine = Machine(get_isa(arch), name="host")
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(program.name, arch))
    machine.step_all(max(1, reference.instr_total // 2))
    if process.exited:
        assert process.stdout() == reference.stdout()
        return
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    before = process.stdout()
    images = runtime.checkpoint()
    runtime.kill_source()
    policy = StackShufflePolicy(program.binary(arch), seed=seed * 31 + 7,
                                dst_exe_path=f"/bin/{program.name}.shuf")
    ProcessRewriter().rewrite(images, policy)
    machine.tmpfs.write(policy.dst_exe_path,
                        policy.shuffled_binary.to_bytes())
    restored = restore_process(machine, images)
    machine.run_process(restored, max_steps=3_000_000)
    assert before + restored.stdout() == reference.stdout()


def test_generator_is_deterministic():
    assert generate_program(42) == generate_program(42)
    assert generate_program(42) != generate_program(43)


def test_generator_produces_parseable_programs():
    from repro.compiler.parser import parse
    for seed in range(40):
        parse(generate_program(seed))   # must not raise (prelude-free)
