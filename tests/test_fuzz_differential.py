"""Differential fuzzing of the entire stack.

Random DapperC programs (deterministic per seed, ``fuzz<seed>`` in the
lockstep runner) are pushed through every pipeline and must behave
identically everywhere:

* native x86_64 vs native aarch64 (compiler + VM) — the runner's
  ``cross_isa`` oracle, tests/test_lockstep.py,
* native vs migrated-at-a-random-point (runtime + CRIU + cross-ISA
  rewriter),
* native vs shuffled-mid-run (SBI + same-ISA retargeting).

Every case compares against the runner's cached native runs of the
same 20 programs, so a program runs natively once per ISA however many
cases use it: seeds 0-9 migrate x86_64 -> aarch64, seeds 10-19 the
other way, and seeds 0-7 are shuffled on both ISAs. Any divergence —
exit code, output bytes, or a crash — is a real bug in one of the
layers.
"""

import random

import pytest

from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.policies.stack_shuffle import StackShufflePolicy
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.testing import generate_program, lockstep
from repro.vm import Machine

pytestmark = pytest.mark.usefixtures("early_chains")


@pytest.mark.parametrize("seed", lockstep.FUZZ_SEEDS[:10])
def test_fuzz_migration_at_random_point(seed):
    name = f"fuzz{seed}"
    reference = lockstep.reference(name, "x86_64")
    total = reference.instr_total
    rng = random.Random(seed * 7919 + 13)
    warmup = rng.randrange(max(1, total // 10), max(2, int(total * 0.9)))
    pipeline = MigrationPipeline(Machine(X86_ISA, name="src"),
                                 Machine(ARM_ISA, name="dst"),
                                 lockstep.program(name))
    result = pipeline.run_and_migrate(warmup_steps=warmup)
    assert result.combined_output() == reference.stdout
    assert result.process.exit_code == 0


@pytest.mark.parametrize("seed", lockstep.FUZZ_SEEDS[10:])
def test_fuzz_migration_reverse_direction(seed):
    name = f"fuzz{seed}"
    reference = lockstep.reference(name, "aarch64")
    pipeline = MigrationPipeline(Machine(ARM_ISA, name="src"),
                                 Machine(X86_ISA, name="dst"),
                                 lockstep.program(name))
    result = pipeline.run_and_migrate(
        warmup_steps=max(1, reference.instr_total // 3))
    assert result.combined_output() == reference.stdout


@pytest.mark.parametrize("seed", lockstep.FUZZ_SEEDS[:8])
@pytest.mark.parametrize("arch", lockstep.ARCHES)
def test_fuzz_shuffle_mid_run(seed, arch):
    name = f"fuzz{seed}"
    program = lockstep.program(name)
    reference = lockstep.reference(name, arch)
    machine = Machine(get_isa(arch), name="host")
    install_program(machine, program)
    process = machine.spawn_process(exe_path_for(name, arch))
    machine.step_all(max(1, reference.instr_total // 2))
    assert not process.exited
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    before = process.stdout()
    images = runtime.checkpoint()
    runtime.kill_source()
    policy = StackShufflePolicy(program.binary(arch), seed=seed * 31 + 7,
                                dst_exe_path=f"/bin/{name}.shuf")
    ProcessRewriter().rewrite(images, policy)
    machine.tmpfs.write(policy.dst_exe_path,
                        policy.shuffled_binary.to_bytes())
    restored = restore_process(machine, images)
    machine.run_process(restored, max_steps=3_000_000)
    assert before + restored.stdout() == reference.stdout


def test_generator_is_deterministic():
    assert generate_program(42) == generate_program(42)
    assert generate_program(42) != generate_program(43)


def test_generator_produces_parseable_programs():
    from repro.compiler.parser import parse
    for seed in range(40):
        parse(generate_program(seed))   # must not raise (prelude-free)
