"""End-to-end cross-ISA migration tests — the paper's headline capability.

A process starts on one ISA, is paused at an equivalence point, its
CRIU images are rewritten, and it resumes on the *other* ISA. The
combined output must be byte-identical to a native run.
"""

import pytest

from repro import wire
from repro.apps import get_app
from repro.binfmt.delf import DelfBinary
from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.policies.cross_isa import CrossIsaPolicy
from repro.core.rerandomize import PeriodicRerandomizer
from repro.core.rewriter import ProcessRewriter
from repro.core.runtime import DapperRuntime
from repro.criu.restore import restore_process
from repro.errors import RewriteError
from repro.isa import ARM_ISA, X86_ISA, get_isa
from repro.store import CheckpointStore
from repro.vm import Machine


def migrate(program, src_arch, dst_arch, warmup, lazy=False):
    src = Machine(get_isa(src_arch), name="src")
    dst = Machine(get_isa(dst_arch), name="dst")
    pipeline = MigrationPipeline(src, dst, program)
    result = pipeline.run_and_migrate(warmup_steps=warmup, lazy=lazy)
    return result


class TestSingleThreaded:
    @pytest.mark.parametrize("src_arch,dst_arch", [
        ("x86_64", "aarch64"), ("aarch64", "x86_64")])
    def test_both_directions(self, counter_program,
                             counter_reference_output, src_arch, dst_arch):
        result = migrate(counter_program, src_arch, dst_arch, warmup=2500)
        assert result.combined_output() == counter_reference_output
        assert result.process.exit_code == 0

    @pytest.mark.parametrize("warmup", [500, 1500, 3000, 4500])
    def test_many_migration_points(self, counter_program,
                                   counter_reference_output, warmup):
        result = migrate(counter_program, "x86_64", "aarch64", warmup)
        assert result.combined_output() == counter_reference_output

    def test_round_trip_migration(self, counter_program,
                                  counter_reference_output):
        """x86 → arm → x86: two migrations of the same process."""
        m1 = Machine(X86_ISA, name="a")
        m2 = Machine(ARM_ISA, name="b")
        m3 = Machine(X86_ISA, name="c")
        pipe1 = MigrationPipeline(m1, m2, counter_program)
        process = pipe1.start()
        m1.step_all(1200)
        assert not process.exited
        result1 = pipe1.migrate(process)
        m2.step_all(1200)
        assert not result1.process.exited
        pipe2 = MigrationPipeline(m2, m3, counter_program)
        result2 = pipe2.migrate(result1.process)
        m3.run_process(result2.process)
        combined = (result1.output_before + result2.combined_output())
        assert combined == counter_reference_output

    def test_stats_reported(self, counter_program):
        result = migrate(counter_program, "x86_64", "aarch64", 2500)
        assert result.stats["threads"] == 1
        assert result.stats["frames"] >= 2
        assert result.stats["code_pages_swapped"] >= 1
        assert set(result.stage_seconds) == \
            {"checkpoint", "recode", "scp", "verify", "restore"}
        assert all(v > 0 for v in result.stage_seconds.values())


class TestMultiThreaded:
    @pytest.mark.parametrize("src_arch,dst_arch", [
        ("x86_64", "aarch64"), ("aarch64", "x86_64")])
    def test_threads_with_locks_and_pointers(
            self, threaded_program, threaded_reference_output,
            src_arch, dst_arch):
        result = migrate(threaded_program, src_arch, dst_arch, warmup=4000)
        assert result.combined_output() == threaded_reference_output
        assert result.stats["threads"] >= 2
        assert result.stats["pointers_remapped"] >= 1

    def test_late_migration_fewer_threads(self, threaded_program,
                                          threaded_reference_output):
        result = migrate(threaded_program, "x86_64", "aarch64",
                         warmup=8000)
        assert result.combined_output() == threaded_reference_output


class TestLazyMigration:
    def test_lazy_output_matches(self, counter_program,
                                 counter_reference_output):
        result = migrate(counter_program, "x86_64", "aarch64", 2500,
                         lazy=True)
        assert result.combined_output() == counter_reference_output
        assert result.page_server is not None
        assert result.page_server.pages_served >= 1

    def test_lazy_smaller_checkpoint_and_scp(self, counter_program):
        vanilla = migrate(counter_program, "x86_64", "aarch64", 2500)
        lazy = migrate(counter_program, "x86_64", "aarch64", 2500,
                       lazy=True)
        assert lazy.images.total_bytes() < vanilla.images.total_bytes()
        assert lazy.stage_seconds["scp"] < vanilla.stage_seconds["scp"]
        assert lazy.stage_seconds["restore"] < \
            vanilla.stage_seconds["restore"]

    def test_lazy_threaded(self, threaded_program,
                           threaded_reference_output):
        result = migrate(threaded_program, "x86_64", "aarch64", 4000,
                         lazy=True)
        assert result.combined_output() == threaded_reference_output


class TestPolicyValidation:
    def test_same_isa_rejected(self, counter_program):
        with pytest.raises(RewriteError):
            CrossIsaPolicy(counter_program.binary("x86_64"),
                           counter_program.binary("x86_64"), "/bin/x")

    def test_different_programs_rejected(self, counter_program,
                                         threaded_program):
        with pytest.raises(RewriteError):
            CrossIsaPolicy(counter_program.binary("x86_64"),
                           threaded_program.binary("aarch64"), "/bin/x")

    def test_wrong_checkpoint_arch_rejected(self, counter_program):
        machine = Machine(ARM_ISA, name="src")
        install_program(machine, counter_program)
        process = machine.spawn_process(exe_path_for("counter", "aarch64"))
        machine.step_all(2500)
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        images = runtime.checkpoint()
        # Policy claims the checkpoint is x86_64 — it is aarch64.
        policy = CrossIsaPolicy(counter_program.binary("x86_64"),
                                counter_program.binary("aarch64"),
                                "/bin/counter.aarch64")
        with pytest.raises(RewriteError):
            ProcessRewriter().rewrite(images, policy)


class TestImagesAfterRewrite:
    def test_cores_and_files_retargeted(self, counter_program):
        result = migrate(counter_program, "x86_64", "aarch64", 2500)
        images = result.images
        assert images.inventory().arch == "aarch64"
        assert images.files_img().exe_arch == "aarch64"
        for core in images.cores():
            assert core.arch == "aarch64"
            # pc must be a valid destination eqpoint
            point = counter_program.binary("aarch64").stackmaps.by_addr[
                core.pc]
            assert point is not None

    def test_dst_code_page_contains_arm_code(self, counter_program):
        result = migrate(counter_program, "x86_64", "aarch64", 2500)
        images = result.images
        core = images.cores()[0]
        from repro.mem.paging import page_align_down
        page = images.page_at(page_align_down(core.pc))
        assert page is not None
        offset = page_align_down(core.pc) - 0x400000
        expected = counter_program.binary("aarch64").text[
            offset:offset + 64]
        assert page[:64] == expected

    def test_restore_and_inspect_tls(self, counter_program):
        result = migrate(counter_program, "x86_64", "aarch64", 2500)
        thread = result.process.threads[1]
        # After TLS adjustment, block address must match the ISA layout.
        from repro.core.tlsmod import tls_block_address
        block = tls_block_address(thread.tp, "aarch64")
        assert block % 8 == 0


class DecodeCounter:
    """Counts what the serialisation layer is asked to do: top-level
    ``Schema.decode`` calls outside a binary parse and outside the
    checkpoint store's own index (= image files decoded; nested
    messages don't count), ``DelfBinary.from_bytes`` calls (= full
    executable parses) and ``CheckpointStore._pagemap`` calls (= the
    store reading a stored pagemap chunk to size or resolve a
    checkpoint)."""

    def __init__(self, monkeypatch):
        self.images = 0
        self.parses = 0
        self.index = 0
        #: schema name of every image file decoded, in order
        self.kinds = []
        self._depth = 0
        schema_decode = wire.Schema.decode
        from_bytes = DelfBinary.from_bytes.__func__
        store_pagemap = CheckpointStore._pagemap

        def decode(schema, data):
            if self._depth == 0:
                self.images += 1
                self.kinds.append(schema.name)
            self._depth += 1
            try:
                return schema_decode(schema, data)
            finally:
                self._depth -= 1

        def parse(cls, blob):
            self.parses += 1
            self._depth += 1            # its decodes are not image files
            try:
                return from_bytes(cls, blob)
            finally:
                self._depth -= 1

        def pagemap(store, checkpoint_id):
            self.index += 1
            self._depth += 1            # nor are the store's index reads
            try:
                return store_pagemap(store, checkpoint_id)
            finally:
                self._depth -= 1

        monkeypatch.setattr(wire.Schema, "decode", decode)
        monkeypatch.setattr(DelfBinary, "from_bytes", classmethod(parse))
        monkeypatch.setattr(CheckpointStore, "_pagemap", pagemap)

    def reset(self):
        self.images = self.parses = self.index = 0
        self.kinds = []


class TestDecodeOnce:
    """The migration path parses each thing it is handed once. These
    are counts, not timings: a regression is a diff."""

    @staticmethod
    def _warm_pingpong(app, use_store=False):
        """A resident that has been there and back once, so both nodes'
        exec caches (and stores, if any) are warm."""
        program = get_app(app).compile("small")
        x86 = Machine(X86_ISA, name="x86")
        arm = Machine(ARM_ISA, name="arm")
        at_x86, at_arm = ((CheckpointStore(), CheckpointStore())
                          if use_store else (None, None))
        there = MigrationPipeline(x86, arm, program, use_store=use_store,
                                  src_store=at_x86, dst_store=at_arm)
        back = MigrationPipeline(arm, x86, program, use_store=use_store,
                                 src_store=at_arm, dst_store=at_x86)
        process = there.start()
        x86.step_all(3000)
        result = there.migrate(process)          # warms arm's exec cache
        arm.step_all(500)
        process = back.migrate(result.process).process
        x86.step_all(500)
        return process, ((there, arm), (back, x86))

    @pytest.mark.parametrize("app", ["redis", "swaptions"])
    def test_warm_pingpong_decode_budget(self, app, monkeypatch):
        """Per plain migration: no image decode and no executable
        parse. The sender decodes nothing it encoded itself, and the
        plain path hands the destination that very set. Measured:
        redis and swaptions 0 (were 9 and 15 when every set decoded
        its own writes back, and 31 and 46, plus one full parse, when
        every accessor and every restore parsed from scratch)."""
        process, legs = self._warm_pingpong(app)
        counter = DecodeCounter(monkeypatch)
        for pipe, machine in legs:
            counter.reset()
            result = pipe.migrate(process)
            process = result.process
            assert counter.parses == 0
            assert counter.images == 0
            machine.step_all(500)
        legs[1][1].run_process(process)
        assert process.exit_code == 0

    @pytest.mark.parametrize("app", ["redis", "swaptions"])
    def test_warm_store_pingpong_decodes_each_arrival_once(
            self, app, monkeypatch):
        """Per store migration: the sender decodes nothing, and the
        destination, which materialises the set from chunks, decodes
        every arrived section except the pages exactly once and parses
        no executable. The stores read their stored pagemap chunk three
        times besides (sizing the checkpoint at put and at adopt,
        resolving its pages at materialize)."""
        process, legs = self._warm_pingpong(app, use_store=True)
        counter = DecodeCounter(monkeypatch)
        for pipe, machine in legs:
            counter.reset()
            result = pipe.migrate(process)
            process = result.process
            assert counter.parses == 0
            arrived = [name.split(".")[0].split("-")[0]
                       for name in result.images.files
                       if name != "pages-1.img"]
            assert sorted(counter.kinds) == sorted(arrived)
            assert counter.index == 3
            machine.step_all(500)
        legs[1][1].run_process(process)
        assert process.exit_code == 0

    def test_second_restore_parses_no_binary(self, counter_program,
                                             monkeypatch):
        src = Machine(X86_ISA, name="src")
        install_program(src, counter_program)
        process = src.spawn_process(exe_path_for("counter", "x86_64"))
        src.step_all(2500)
        runtime = DapperRuntime(src, process)
        runtime.pause_at_equivalence_points()
        images = runtime.checkpoint()
        dst = Machine(X86_ISA, name="dst")
        install_program(dst, counter_program)
        counter = DecodeCounter(monkeypatch)
        first = restore_process(dst, images)
        assert counter.parses == 1
        second = restore_process(dst, images)
        assert counter.parses == 1
        assert second.binary is first.binary
        other = Machine(X86_ISA, name="other")     # caches are per machine
        install_program(other, counter_program)
        assert restore_process(other, images).binary is not first.binary
        assert counter.parses == 2

    def test_restore_sees_an_overwritten_executable(self, counter_program):
        """install_program over a live path (a live update, a shuffle
        epoch) must reach the next restore, equal content or not."""
        src = Machine(X86_ISA, name="src")
        install_program(src, counter_program)
        process = src.spawn_process(exe_path_for("counter", "x86_64"))
        src.step_all(2500)
        runtime = DapperRuntime(src, process)
        runtime.pause_at_equivalence_points()
        images = runtime.checkpoint()
        dst = Machine(X86_ISA, name="dst")
        install_program(dst, counter_program)
        before = restore_process(dst, images).binary
        install_program(dst, counter_program)       # same bytes, new file
        same = restore_process(dst, images).binary
        assert same.to_bytes() == before.to_bytes()
        path = exe_path_for("counter", "x86_64")
        binary = counter_program.binary("x86_64")
        marked = DelfBinary.from_bytes(binary.to_bytes())
        marked.extra_sections[".note"] = b"v2"
        dst.tmpfs.write(path, marked.to_bytes())
        assert restore_process(dst, images).binary.extra_sections == \
            {".note": b"v2"}

    def test_loaded_binaries_are_never_written(self, counter_program,
                                               counter_reference_output):
        """Every process on a node shares one parsed binary per path, so
        nothing may mutate it: a ping-pong and a stack-shuffle epoch
        leave its serialisation unchanged."""
        x86 = Machine(X86_ISA, name="x86")
        arm = Machine(ARM_ISA, name="arm")
        there = MigrationPipeline(x86, arm, counter_program)
        back = MigrationPipeline(arm, x86, counter_program)
        process = there.start()
        loaded = [(machine, exe_path_for("counter", machine.isa.name))
                  for machine in (x86, arm)]
        before = [machine.load_binary(path) for machine, path in loaded]
        assert process.binary is before[0]
        x86.step_all(1200)
        first = there.migrate(process)
        arm.step_all(600)
        second = back.migrate(first.process)
        assert first.process.binary is before[1]
        assert second.process.binary is before[0]
        rerand = PeriodicRerandomizer(x86, second.process,
                                      counter_program.binary("x86_64"),
                                      interval_steps=600, seed=3)
        assert rerand.run_to_completion() == 0
        assert len(rerand.epochs) >= 1
        assert (first.output_before + second.output_before
                + rerand.output()) == counter_reference_output
        for (machine, path), binary in zip(loaded, before):
            assert machine.load_binary(path) is binary
            assert binary.to_bytes() == counter_program.binary(
                machine.isa.name).to_bytes()
