"""Tests over the benchmark application suite."""

from collections import Counter

import pytest

from repro.apps import all_apps, apps_by_category, get_app
from repro.binfmt.delf import TEXT_BASE
from repro.binfmt.stackmaps import (KIND_CALLSITE, KIND_ENTRY, LOC_BOTH,
                                    LOC_STACK)
from repro.core.migration import MigrationPipeline
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.testing import lockstep
from repro.vm import Machine

APP_NAMES = [spec.name for spec in all_apps()]


class TestRegistry:
    def test_expected_apps_present(self):
        assert {"cg", "mg", "ep", "ft", "is", "linpack", "dhrystone",
                "kmeans", "blackscholes", "swaptions", "streamcluster",
                "redis", "nginx"} <= set(APP_NAMES)

    def test_categories(self):
        assert {s.name for s in apps_by_category("npb")} == \
            {"cg", "mg", "ep", "ft", "is"}
        assert {s.name for s in apps_by_category("parsec")} == \
            {"blackscholes", "swaptions", "streamcluster"}
        assert {s.name for s in apps_by_category("server")} == \
            {"redis", "nginx"}

    def test_unknown_app_raises(self):
        with pytest.raises(KeyError):
            get_app("doom")

    def test_unknown_size_raises(self):
        with pytest.raises(KeyError):
            get_app("cg").source("gigantic")

    def test_nominal_instruction_counts(self):
        for spec in all_apps():
            assert spec.class_b_instructions > spec.class_a_instructions > 0

    def test_parsec_apps_are_threaded(self):
        for spec in apps_by_category("parsec"):
            assert spec.threads > 1


def _spills_before_trap(binary, isa, point):
    """``(register index, fp offset)`` of every store to the frame that
    the code from the start of ``point``'s function up to its checker's
    trap makes."""
    fp = isa.reg(isa.abi.frame_pointer)
    addr = binary.symtab.address_of(point.func)
    spills = set()
    while addr < point.trap_addr:
        instr = isa.decode(binary.text, addr - TEXT_BASE, addr)
        if instr.op == "store" and instr.rn == fp:
            spills.add((instr.rd, instr.imm))
        elif instr.op == "stp":            # pairs address off fp
            spills.add((instr.rd, instr.imm))
            spills.add((instr.rm, instr.imm + 8))
        addr += instr.size
    return spills


class TestNoRegisterIsLiveAtAParkPoint:
    """DESIGN.md deviation 2 as the registry's default builds hold it:
    every call-site live value is in a frame slot only, and an entry
    value named in its argument register too (``LOC_BOTH``) has been
    spilled to its slot before the checker can trap, so no register
    carries a live value across a park point."""

    @pytest.mark.parametrize("arch", ["x86_64", "aarch64"])
    def test_live_values_sit_in_frame_slots(self, arch):
        isa = get_isa(arch)
        where = Counter()
        for spec in all_apps():
            binary = spec.compile("small").binary(arch)
            for point in binary.stackmaps.eqpoints:
                where.update((point.kind, value.loc_type)
                             for value in point.live)
                both = [value for value in point.live
                        if value.loc_type == LOC_BOTH]
                if both:
                    spills = _spills_before_trap(binary, isa, point)
                    for value in both:
                        assert (isa.index_of_dwarf(value.dwarf_reg),
                                value.stack_offset) in spills, (
                            spec.name, point.func, value)
        assert set(where) == {(KIND_CALLSITE, LOC_STACK),
                              (KIND_ENTRY, LOC_STACK),
                              (KIND_ENTRY, LOC_BOTH)}


@pytest.mark.parametrize("name", APP_NAMES)
def test_app_migrates_x86_to_arm(name):
    """Every benchmark in the suite survives a mid-run cross-ISA
    migration with byte-identical output — Fig. 5/6's precondition."""
    reference = lockstep.reference(name, "x86_64").stdout
    pipeline = MigrationPipeline(Machine(X86_ISA, name="src"),
                                 Machine(ARM_ISA, name="dst"),
                                 lockstep.program(name))
    result = pipeline.run_and_migrate(warmup_steps=4000)
    assert result.combined_output() == reference
    assert result.process.exit_code == 0


@pytest.mark.parametrize("name", ["cg", "redis", "blackscholes"])
def test_app_migrates_arm_to_x86(name):
    reference = lockstep.reference(name, "aarch64").stdout
    pipeline = MigrationPipeline(Machine(ARM_ISA, name="src"),
                                 Machine(X86_ISA, name="dst"),
                                 lockstep.program(name))
    result = pipeline.run_and_migrate(warmup_steps=4000)
    assert result.combined_output() == reference


class TestServerEntropyOrdering:
    def test_fig10_ordering_nginx_redis_npb(self):
        """Fig. 10: Nginx carries the most shuffle entropy, Redis next,
        the NPB kernels the least — on both ISAs."""
        from repro.core.entropy import binary_entropy_bits
        for arch in ("x86_64", "aarch64"):
            nginx = binary_entropy_bits(
                get_app("nginx").compile("small").binary(arch))
            redis = binary_entropy_bits(
                get_app("redis").compile("small").binary(arch))
            npb = [binary_entropy_bits(
                get_app(n).compile("small").binary(arch))
                for n in ("cg", "mg", "ep", "ft", "is")]
            npb_avg = sum(npb) / len(npb)
            assert nginx > redis > npb_avg

    def test_arm_entropy_below_x86_overall(self):
        from repro.core.entropy import binary_entropy_bits
        x86_vals = []
        arm_vals = []
        for name in ("nginx", "redis", "cg", "mg"):
            program = get_app(name).compile("small")
            x86_vals.append(binary_entropy_bits(program.binary("x86_64")))
            arm_vals.append(binary_entropy_bits(program.binary("aarch64")))
        assert sum(arm_vals) < sum(x86_vals)
