"""Tests over the benchmark application suite."""

import pytest

from repro.apps import all_apps, apps_by_category, get_app
from repro.core.migration import MigrationPipeline
from repro.isa import ARM_ISA, X86_ISA
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
