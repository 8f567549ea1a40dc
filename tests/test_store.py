"""Content-addressed checkpoint store: chunks, checkpoints, transfer."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.core.migration import (MigrationPipeline, exe_path_for,
                                  install_program)
from repro.core.runtime import DapperRuntime
from repro.criu.dump import dump_process
from repro.criu.lazy import PageServer
from repro.criu.restore import restore_process
from repro.errors import CheckpointError, StoreError
from repro.isa import ARM_ISA, X86_ISA
from repro.mem.paging import PAGE_SIZE
from repro.store import (CheckpointStore, ChunkStore,
                         IncrementalCheckpointer, StorePageServer,
                         chunk_digest, plan_transfer, ship)
from repro.vm import Machine


@pytest.fixture
def parked(counter_program):
    """A counter process parked at an equivalence point."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    assert not process.exited
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    return machine, process, runtime


def advance(machine, runtime, steps=3000):
    runtime.resume()
    machine.step_all(steps)
    runtime.pause_at_equivalence_points()


class TestChunkStore:
    def test_put_get_roundtrip(self):
        store = ChunkStore()
        data = b"hello content addressing" * 50
        digest = store.put(data)
        assert digest == chunk_digest(data)
        assert store.get(digest) == data
        assert store.has(digest)

    def test_dedup_and_counters(self):
        store = ChunkStore()
        a = store.put(b"x" * PAGE_SIZE)
        b = store.put(b"x" * PAGE_SIZE)
        assert a == b
        assert len(store) == 1
        assert (store.puts, store.dup_puts) == (2, 1)
        assert store.chunk(a).refs == 2

    def test_incompressible_falls_back_to_raw(self):
        store = ChunkStore()
        # three bytes: the zlib header alone is bigger
        digest = store.put(b"\x01\x02\x03")
        assert store.chunk(digest).codec == "raw"
        assert store.get(digest) == b"\x01\x02\x03"

    def test_compressible_uses_zlib(self):
        store = ChunkStore()
        digest = store.put(bytes(PAGE_SIZE))
        assert store.chunk(digest).codec == "zlib"
        assert store.physical_bytes() < PAGE_SIZE

    def test_missing_chunk_raises(self):
        store = ChunkStore()
        with pytest.raises(StoreError):
            store.get("0" * 32)

    def test_unknown_codec_rejected(self):
        with pytest.raises(StoreError):
            ChunkStore(codec="snappy")

    def test_decref_underflow_raises(self):
        store = ChunkStore()
        digest = store.put(b"data")
        store.decref(digest)
        with pytest.raises(StoreError):
            store.decref(digest)

    def test_gc_reclaims_unreferenced(self):
        store = ChunkStore()
        keep = store.put(b"keep" * 100)
        drop = store.put(b"drop" * 100)
        store.decref(drop)
        count, freed = store.gc()
        assert count == 1 and freed > 0
        assert store.has(keep) and not store.has(drop)

    def test_verify_detects_corruption(self):
        store = ChunkStore()
        digest = store.put(b"pristine" * 64)
        assert store.verify() == []
        store.chunk(digest).payload = b"\x00garbage"
        assert any("corrupt" in p or "decompress" in p
                   for p in store.verify())

    def test_adopt_rejects_mismatched_payload(self):
        src, dst = ChunkStore(), ChunkStore()
        digest = src.put(b"shipit" * 100)
        chunk = src.chunk(digest)
        with pytest.raises(StoreError):
            dst.adopt(digest, chunk.codec, b"tampered payload",
                      chunk.logical_size)
        dst.adopt(digest, chunk.codec, chunk.payload, chunk.logical_size)
        assert dst.get(digest) == b"shipit" * 100


class TestCheckpointStore:
    def test_full_checkpoint_materializes_identically(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        store = CheckpointStore()
        result = store.put(images)
        assert not result.delta and result.created
        assert store.materialize(result.checkpoint_id).files == \
            images.files

    def test_identical_put_twice_one_checkpoint(self, parked):
        _machine, _process, runtime = parked
        images = runtime.checkpoint()
        store = CheckpointStore()
        first = store.put(images)
        second = store.put(images)
        assert first.checkpoint_id == second.checkpoint_id
        assert second.created is False and second.new_chunks == 0
        assert len(store.checkpoint_ids()) == 1
        assert store.verify() == []

    def test_incremental_delta_is_small(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        full = ckpt.checkpoint()
        advance(machine, runtime)
        delta = ckpt.checkpoint()
        assert delta.delta
        assert delta.pages_carried < delta.pages_total
        assert delta.new_physical_bytes < full.new_physical_bytes

    def test_delta_materializes_as_canonical_full_dump(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ckpt.checkpoint()
        advance(machine, runtime)
        delta = ckpt.checkpoint()
        materialized = store.materialize(delta.checkpoint_id)
        assert not materialized.is_delta()
        runtime.clear_flag()
        fresh = dump_process(process)
        assert materialized.files == fresh.files

    def test_restore_from_materialized_delta(self, parked, counter_program,
                                             counter_reference_output):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ckpt.checkpoint()
        advance(machine, runtime)
        result = ckpt.checkpoint()
        before = process.stdout()
        materialized = store.materialize(result.checkpoint_id)
        dst = Machine(X86_ISA, name="dst")
        install_program(dst, counter_program)
        restored = restore_process(dst, materialized)
        dst.run_process(restored)
        assert before + restored.stdout() == counter_reference_output
        assert restored.exit_code == 0

    def test_delta_dump_requires_tracking_inputs(self, parked):
        _machine, process, _runtime = parked
        with pytest.raises(CheckpointError):
            dump_process(process, parent="a" * 32)

    def test_delta_put_without_parent_rejected(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ckpt.checkpoint()
        advance(machine, runtime)
        delta = ckpt.checkpoint()
        delta_images = ckpt.last_images
        assert delta_images.is_delta()
        other = CheckpointStore()
        with pytest.raises(StoreError):
            other.put(delta_images)
        with pytest.raises(StoreError):
            other.put(delta_images, parent="f" * 32)

    def test_delete_refuses_while_children_exist(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        root = ckpt.checkpoint().checkpoint_id
        advance(machine, runtime)
        leaf = ckpt.checkpoint().checkpoint_id
        with pytest.raises(StoreError):
            store.delete(root)
        store.delete(leaf)
        store.delete(root)
        count, _freed = store.gc()
        assert count > 0
        assert len(store.chunks) == 0

    def test_verify_flags_underreferenced_chunk(self, parked):
        _machine, _process, runtime = parked
        store = CheckpointStore()
        result = store.put(runtime.checkpoint())
        digest = store.manifest(result.checkpoint_id)["meta"]["mm.img"]
        store.chunks.decref(digest)
        assert any("under-referenced" in p for p in store.verify())

    def test_dedup_across_isas(self, counter_program):
        """The aligning linker gives both ISAs identical data pages, so
        checkpoints of the two architectures share chunks."""
        store = CheckpointStore()
        sizes = {}
        for isa in (X86_ISA, ARM_ISA):
            machine = Machine(isa, name=f"m-{isa.name}")
            install_program(machine, counter_program)
            process = machine.spawn_process(
                exe_path_for("counter", isa.name))
            machine.step_all(2500)
            runtime = DapperRuntime(machine, process)
            runtime.pause_at_equivalence_points()
            result = store.put(runtime.checkpoint())
            sizes[isa.name] = result
        assert sizes["aarch64"].dup_chunks > 0
        assert store.verify() == []

    def test_save_load_dir_roundtrip(self, parked, tmp_path):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ckpt.checkpoint()
        advance(machine, runtime)
        leaf = ckpt.checkpoint().checkpoint_id
        store.save_dir(str(tmp_path))
        loaded = CheckpointStore.load_dir(str(tmp_path))
        assert loaded.checkpoint_ids() == store.checkpoint_ids()
        assert loaded.verify() == []
        assert loaded.materialize(leaf).files == \
            store.materialize(leaf).files

    def test_stats_report_dedup(self, parked):
        _machine, _process, runtime = parked
        store = CheckpointStore()
        store.put(runtime.checkpoint())
        stats = store.stats()
        assert stats["checkpoints"] == 1
        assert stats["physical_bytes"] < stats["logical_bytes"]
        assert stats["dedup_ratio"] > 1.0

    def test_stats_totals_are_kept_not_recomputed(self, parked, tmp_path):
        """stats() reads running totals (it sits on the store-backed
        migrate path); they track put / put_group / delete / gc /
        load_dir exactly, and verify() catches books that drifted."""
        machine, process, runtime = parked
        store = CheckpointStore()

        def fresh(s):
            chunks = list(s.chunks)
            return (sum(s._measure(cid) for cid in s.checkpoint_ids()),
                    sum(len(c.payload) for c in chunks),
                    sum(c.logical_size for c in chunks))

        def kept(s):
            stats = s.stats()
            return (stats["logical_bytes"], stats["physical_bytes"],
                    stats["unique_bytes"])

        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        root = ckpt.checkpoint().checkpoint_id
        advance(machine, runtime)
        leaf = ckpt.checkpoint().checkpoint_id
        gid = store.put_group([root, leaf])
        assert store.logical_bytes(gid) == (store.logical_bytes(root)
                                            + store.logical_bytes(leaf))
        assert kept(store) == fresh(store)
        store.save_dir(str(tmp_path))
        assert kept(CheckpointStore.load_dir(str(tmp_path))) == kept(store)
        store.delete(gid)
        store.delete(leaf)
        store.gc()
        assert kept(store) == fresh(store)
        assert store.stats()["logical_bytes"] == store.logical_bytes(root)
        assert store.verify() == []
        store._logical_total += 1
        store.chunks._physical += 1
        problems = store.verify()
        assert any("running logical total" in p for p in problems)
        assert any("running physical total" in p for p in problems)


class TestGroupManifestChains:
    """A group manifest pins its members like a parent link: deleting
    a mid-chain checkpoint a live group references must be refused —
    never silently GC'd out from under the manifest."""

    def _chain(self, parked, store, epochs=2):
        """Build full A <- delta B (<- delta C ...); returns the ids."""
        machine, process, runtime = parked
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ids = [ckpt.checkpoint().checkpoint_id]
        for _ in range(epochs - 1):
            advance(machine, runtime)
            ids.append(ckpt.checkpoint().checkpoint_id)
        return ids

    def test_mid_chain_member_delete_refused_while_group_lives(
            self, parked):
        store = CheckpointStore()
        root, mid, leaf = self._chain(parked, store, epochs=3)
        gid = store.put_group([mid], label="pins-the-middle")
        assert store.groups_referencing(mid) == [gid]
        store.delete(leaf)              # the chain child goes first...
        with pytest.raises(StoreError):
            store.delete(mid)           # ...but the group still pins mid
        # Nothing was silently reclaimed: the member still materializes
        # and fsck stays clean.
        assert not store.materialize(mid).is_delta()
        assert store.verify() == []
        # Delete in dependency order and the chain drains completely.
        store.delete(gid)
        store.delete(mid)
        store.delete(root)
        store.gc()
        assert len(store.chunks) == 0

    def test_parent_of_group_member_refused_for_children_first(
            self, parked):
        store = CheckpointStore()
        root, leaf = self._chain(parked, store)
        store.put_group([leaf])
        with pytest.raises(StoreError):
            store.delete(root)          # child ordering, group or not

    def test_group_members_must_be_registered_checkpoints(self, parked):
        _machine, _process, runtime = parked
        store = CheckpointStore()
        put = store.put(runtime.checkpoint())
        with pytest.raises(StoreError):
            store.put_group([])
        with pytest.raises(StoreError):
            store.put_group([put.checkpoint_id, "f" * 32])
        gid = store.put_group([put.checkpoint_id])
        with pytest.raises(StoreError):
            store.put_group([gid])      # groups of groups are refused

    def test_put_group_is_idempotent_and_content_derived(self, parked):
        _machine, _process, runtime = parked
        store = CheckpointStore()
        put = store.put(runtime.checkpoint())
        gid = store.put_group([put.checkpoint_id], label="twice")
        again = store.put_group([put.checkpoint_id], label="twice")
        assert gid == again
        assert store.group_ids() == [gid]
        assert store.verify() == []

    def test_group_delete_unpins_members_for_gc(self, parked):
        _machine, _process, runtime = parked
        store = CheckpointStore()
        put = store.put(runtime.checkpoint())
        gid = store.put_group([put.checkpoint_id])
        store.delete(gid)
        assert store.groups_referencing(put.checkpoint_id) == []
        store.delete(put.checkpoint_id)
        store.gc()
        assert len(store.chunks) == 0
        assert store.chunks.orphans() == []


class TestTransfer:
    def _two_epoch_store(self, parked):
        machine, process, runtime = parked
        store = CheckpointStore()
        ckpt = IncrementalCheckpointer(store, process, runtime=runtime)
        ckpt.checkpoint()
        advance(machine, runtime)
        return store, ckpt.checkpoint().checkpoint_id, ckpt

    def test_cold_ship_then_warm_noop(self, parked):
        store, leaf, _ckpt = self._two_epoch_store(parked)
        dst = CheckpointStore()
        plan = plan_transfer(store, dst, leaf)
        assert plan.chunks_needed and plan.bytes_to_ship > 0
        shipped = ship(store, dst, plan)
        assert shipped == plan.bytes_to_ship
        assert dst.materialize(leaf).files == store.materialize(leaf).files
        assert dst.verify() == []
        warm = plan_transfer(store, dst, leaf)
        assert warm.bytes_to_ship == 0
        assert ship(store, dst, warm) == 0

    def test_delta_ships_under_half_of_full_copy(self, parked):
        store, leaf, ckpt = self._two_epoch_store(parked)
        dst = CheckpointStore()
        ship(store, dst, plan_transfer(store, dst, leaf))
        machine, _process, runtime = parked
        advance(machine, runtime)
        epoch3 = ckpt.checkpoint().checkpoint_id
        plan = plan_transfer(store, dst, epoch3)
        assert plan.bytes_to_ship < 0.5 * plan.full_bytes
        assert plan.savings > 0.5

    def test_plan_unknown_checkpoint_raises(self):
        with pytest.raises(StoreError):
            plan_transfer(CheckpointStore(), CheckpointStore(), "a" * 32)

    def test_store_page_server_serves_by_digest(self):
        store = CheckpointStore()
        page = bytes(range(256)) * (PAGE_SIZE // 256)
        digest = store.chunks.put(page)
        server = StorePageServer({0x7000: digest}, store,
                                 node_name="src")
        assert server.remaining_pages() == 1
        assert server.fetch(0x7000) == page
        assert server.fetch(0x7000) is None
        assert (server.requests, server.pages_served) == (2, 1)
        assert server.bytes_served == PAGE_SIZE


class TestPageServerLogCap:
    def test_log_capped_counters_exact(self):
        pages = {i * PAGE_SIZE: bytes(PAGE_SIZE) for i in range(10)}
        server = PageServer(pages, log_limit=4)
        for i in range(10):
            server.fetch(i * PAGE_SIZE)
        assert server.requests == 10
        assert server.pages_served == 10
        assert server.bytes_served == 10 * PAGE_SIZE
        assert len(server.log) == 4
        assert server.log_dropped == 6

    def test_unlimited_log_with_zero(self):
        server = PageServer({}, log_limit=0)
        for i in range(PageServer.DEFAULT_LOG_LIMIT + 10):
            server.fetch(i * PAGE_SIZE)
        assert len(server.log) == PageServer.DEFAULT_LOG_LIMIT + 10
        assert server.log_dropped == 0


class TestStoreMigration:
    def _migrate(self, program, use_store, src_store=None, dst_store=None,
                 lazy=False):
        src = Machine(X86_ISA, name="src")
        dst = Machine(ARM_ISA, name="dst")
        pipeline = MigrationPipeline(src, dst, program,
                                     use_store=use_store,
                                     src_store=src_store,
                                     dst_store=dst_store)
        return pipeline.run_and_migrate(3000, lazy=lazy)

    def test_store_migration_output_matches_plain(self, counter_program,
                                                  counter_reference_output):
        plain = self._migrate(counter_program, use_store=False)
        stored = self._migrate(counter_program, use_store=True)
        assert plain.combined_output() == counter_reference_output
        assert stored.combined_output() == counter_reference_output
        assert "store" in stored.stage_seconds
        assert stored.stats["store"]["bytes_shipped"] > 0

    def test_warm_destination_ships_under_half(self, counter_program):
        src_store, dst_store = CheckpointStore(), CheckpointStore()
        self._migrate(counter_program, True, src_store, dst_store)
        warm = self._migrate(counter_program, True, src_store, dst_store)
        stats = warm.stats["store"]
        assert stats["bytes_shipped"] < 0.5 * stats["bytes_full_copy"]
        assert warm.stage_seconds["scp"] > 0  # link latency still paid
        assert src_store.verify() == [] and dst_store.verify() == []

    def test_store_migration_both_directions(self, counter_program,
                                             counter_reference_output):
        """x86->arm and arm->x86 through the store both restore
        byte-identical output."""
        for src_isa, dst_isa in ((X86_ISA, ARM_ISA), (ARM_ISA, X86_ISA)):
            src = Machine(src_isa, name="src")
            dst = Machine(dst_isa, name="dst")
            pipeline = MigrationPipeline(src, dst, counter_program,
                                         use_store=True)
            result = pipeline.run_and_migrate(3000)
            assert result.combined_output() == counter_reference_output

    def test_lazy_store_migration_uses_store_page_server(
            self, counter_program, counter_reference_output):
        result = self._migrate(counter_program, use_store=True, lazy=True)
        assert isinstance(result.page_server, StorePageServer)
        assert result.combined_output() == counter_reference_output


class TestStoreReplayDeterminism:
    def test_store_migrate_journal_bit_identical(self, counter_program):
        from repro.replay.engine import Replayer, record_migrate
        from repro.replay.journal import EV_STORE
        import tests.conftest as cft
        recorded = record_migrate(cft.COUNTER_SOURCE, "counter",
                                  warmup=3000, store=True)
        events = recorded.journal.of_kind(EV_STORE)
        assert len(events) == 2
        assert events[0]["label"].startswith("put:")
        assert events[1]["label"].startswith("plan:")
        replayed = Replayer(recorded.journal).run()
        assert recorded.journal.to_bytes() == replayed.journal.to_bytes()


class TestNetworkLinks:
    def test_asymmetric_connect(self):
        from repro.cluster.network import Network
        from repro.core.costs import ethernet_link, infiniband_link
        network = Network()
        network.connect("pi", "xeon", ethernet_link(), symmetric=False)
        assert network.link_between("pi", "xeon").name == \
            ethernet_link().name
        assert network.link_between("xeon", "pi") is network.default_link

    def test_conflicting_registration_raises(self):
        from repro.cluster.network import Network
        from repro.core.costs import ethernet_link, infiniband_link
        from repro.errors import ClusterError
        network = Network()
        network.connect("a", "b", infiniband_link())
        network.connect("a", "b", infiniband_link())  # idempotent
        with pytest.raises(ClusterError):
            network.connect("a", "b", ethernet_link())


class TestImportCost:
    def test_import_repro_does_not_load_the_store(self):
        """Only ``use_store`` migrations need ``repro.store``; every cold
        ``dapper-run`` would otherwise pay for importing it."""
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env = dict(os.environ, PYTHONPATH=src)
        code = "import repro, sys; assert 'repro.store' not in sys.modules"
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=60)
        assert result.returncode == 0, result.stderr[-2000:]

    def test_store_names_stay_reachable_through_the_pipeline_module(self):
        from repro.core import migration
        assert migration.CheckpointStore is CheckpointStore
        assert migration.StorePageServer is StorePageServer
        assert migration.plan_transfer is plan_transfer
        assert migration.ship is ship
