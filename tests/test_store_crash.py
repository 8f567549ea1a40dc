"""Crash consistency of the durable checkpoint store: WAL torn-tail
fuzzing, adopt digest-collision rejection, refcount-book audits, the
systematic crash-point sweep matrix, group-coordinator crash recovery,
durable fleet resume, and bit-identical EV_RECOVER journals."""

import json

import pytest

from repro.chaos import (CrashPointInjector, FaultPlan, store_sweep_ops,
                         sweep)
from repro.core.migration import exe_path_for, install_program
from repro.core.runtime import DapperRuntime
from repro.criu.dump import dump_process
from repro.errors import GroupRollback, StoreCrash, StoreError
from repro.fleet import FleetSpec, FleetStorm
from repro.group import GroupCoordinator, GroupSpec
from repro.isa import X86_ISA
from repro.replay import journal as jn
from repro.replay.recorder import FlightRecorder
from repro.store import (CODECS, ChunkStore, CheckpointStore, DirBackend,
                         SimDisk, chunk_digest, decode_wal)
from repro.store.backend import encode_chunk_file
from repro.store.chunks import Chunk
from repro.store.wal import MAGIC, encode_record
from repro.vm import Machine

from test_group import make_group


@pytest.fixture(scope="module")
def images(counter_program):
    """One parked counter process, dumped."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    DapperRuntime(machine, process).pause_at_equivalence_points()
    return dump_process(process)


@pytest.fixture(scope="module")
def image_pair(counter_program):
    """Two dumps of the same process at successive cuts (a put pair
    with real chunk overlap)."""
    machine = Machine(X86_ISA, name="src")
    install_program(machine, counter_program)
    process = machine.spawn_process(exe_path_for("counter", "x86_64"))
    machine.step_all(2500)
    runtime = DapperRuntime(machine, process)
    runtime.pause_at_equivalence_points()
    first = dump_process(process)
    runtime.resume()
    machine.step_all(3000)
    runtime.pause_at_equivalence_points()
    second = dump_process(process)
    return first, second


def durable_store(seed=0):
    disk = SimDisk(seed=seed)
    return disk, CheckpointStore(backend=DirBackend(disk))


# ---------------------------------------------------------------------------
# WAL torn-tail / garbage-suffix fuzzing


class TestWalFuzz:
    def _wal_blob(self, image_pair):
        """A real multi-transaction WAL byte stream."""
        first, second = image_pair
        disk, store = durable_store(seed=1)
        a = store.put(first)
        store.put(second, parent=a.checkpoint_id)
        return store.backend.wal_read()

    def test_truncation_at_every_byte_is_a_valid_prefix(self, image_pair):
        blob = self._wal_blob(image_pair)
        full, tail = decode_wal(blob)
        assert tail is None and full
        for cut in range(len(blob)):
            records, _why = decode_wal(blob[:cut])
            # Never an exception, and always a prefix of the real log.
            assert records == full[:len(records)]

    def test_garbage_suffix_is_cut_not_trusted(self, image_pair):
        blob = self._wal_blob(image_pair)
        full, _ = decode_wal(blob)
        for garbage in (b"\xff" * 40, b"\x03abc", bytes(range(256)),
                        encode_record({"op": "commit", "txn": 999})[:-1]):
            records, why = decode_wal(blob + garbage)
            assert records == full
            assert why is not None

    def test_bad_magic_yields_empty_log(self):
        records, why = decode_wal(b"NOTAWAL!" + encode_record(
            {"op": "snapshot", "codec": "zlib", "checkpoints": []}))
        assert records == [] and why == "bad WAL magic"
        assert decode_wal(b"") == ([], None)

    def test_flipped_bit_cuts_at_the_flip(self):
        blob = MAGIC + b"".join(
            encode_record({"op": "begin", "txn": t, "action": "put",
                           "cid": "c" * 32}) for t in (1, 2, 3))
        victim = len(MAGIC) + 10
        mutated = (blob[:victim] + bytes([blob[victim] ^ 0x40])
                   + blob[victim + 1:])
        records, why = decode_wal(mutated)
        assert records == [] and "checksum" in why

    def test_truncated_wal_on_disk_reopens_longest_prefix(self, image_pair):
        first, second = image_pair
        disk, store = durable_store(seed=2)
        a = store.put(first)
        len_after_first = len(store.backend.wal_read())
        b = store.put(second, parent=a.checkpoint_id)
        blob = store.backend.wal_read()
        # Tear mid-way through the second put's records.
        disk.write("wal", blob[:len_after_first + 7])
        disk.fsync("wal")
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert recovered.checkpoint_ids() == [a.checkpoint_id]
        assert b.checkpoint_id not in recovered
        assert report.fsck == []
        # The second put's now-unreferenced chunks were swept.
        assert recovered.chunks.orphans() == []

    def test_garbage_suffix_on_disk_recovers_and_compacts(self, images):
        disk, store = durable_store(seed=3)
        cid = store.put(images).checkpoint_id
        disk.append("wal", b"\xfe\xfd torn tail from a dying writer")
        disk.fsync("wal")
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert recovered.checkpoint_ids() == [cid]
        assert report.tail_cut
        # Recovery compacted the log, so a second recover is clean.
        again, again_report = CheckpointStore.recover(DirBackend(disk))
        assert again.checkpoint_ids() == [cid]
        assert again_report.tail_cut is None
        assert again_report.clean


# ---------------------------------------------------------------------------
# adopt: digest collisions and self-verification


class TestAdoptCollision:
    def test_adopt_rejects_forged_digest(self):
        store = CheckpointStore()
        data = b"payload" * 100
        with pytest.raises(StoreError):
            store.chunks.adopt("0" * 32, "raw", data, len(data))

    def test_adopt_rejects_wrong_logical_size(self):
        store = CheckpointStore()
        data = b"payload" * 100
        with pytest.raises(StoreError):
            store.chunks.adopt(chunk_digest(data), "raw", data,
                               len(data) + 1)

    def test_adopt_rejects_digest_collision_with_stored_chunk(self):
        store = CheckpointStore()
        data = b"the original bytes" * 50
        digest, _ = store.chunks.ensure(data)
        impostor = b"different bytes entirely" * 50

        class _Colliding:
            name = "raw"

            def compress(self, blob):
                return blob

            def decompress(self, blob):
                return impostor

        real_raw = CODECS["raw"]
        CODECS["raw"] = _Colliding()
        try:
            with pytest.raises(StoreError) as exc:
                store.chunks.adopt(digest, "raw",
                                   impostor, len(impostor))
        finally:
            CODECS["raw"] = real_raw
        # Either verification step may trip first; the store must
        # never silently keep the original under a colliding digest.
        assert store.chunks.get(digest) == data
        assert "adopt" in str(exc.value)

    def test_adopt_same_bytes_is_idempotent(self):
        store = CheckpointStore()
        data = b"stable" * 200
        digest, _ = store.chunks.ensure(data)
        payload = CODECS["zlib"].compress(data)
        assert store.chunks.adopt(digest, "zlib", payload,
                                  len(data)) is False
        assert store.chunks.get(digest) == data

    def test_adopt_rejects_unknown_codec(self):
        store = CheckpointStore()
        data = b"x" * 64
        with pytest.raises(StoreError):
            store.chunks.adopt(chunk_digest(data), "lz-imaginary",
                               data, len(data))


# ---------------------------------------------------------------------------
# each integrity rule has one home, so every caller of it agrees


_DATA = b"one chunk of bytes " * 64

#: (codec, payload, logical size) that break one clause of the chunk
#: rule for a chunk addressed ``chunk_digest(_DATA)``
BAD_CHUNKS = {
    "unknown-codec": ("lz-imaginary", _DATA, len(_DATA)),
    "undecodable": ("zlib", b"\x00 not a zlib stream", len(_DATA)),
    "wrong-hash": ("raw", _DATA[::-1], len(_DATA)),
    "wrong-size": ("raw", _DATA, len(_DATA) + 1),
}


#: damaged manifest -> the words its refusal names
BAD_MANIFESTS = {
    "missing-chunk": "missing chunk",
    "unregistered-parent": "parent",
    "unregistered-member": "member",
    "empty-object": "malformed",
    "not-an-object": "not an object",
    "non-object-meta": "malformed",
}


def bad_manifest(name, store):
    """One damaged manifest over ``store``'s single checkpoint. Its
    pagemap chunk is present but is no checkpoint, so a link to it
    breaks only the registration clause."""
    base = store.manifest(store.checkpoint_ids()[0])
    pagemap = base["meta"]["pagemap.img"]
    return {
        "missing-chunk": {"parent": "", "meta": {"pagemap.img": pagemap,
                                                  "mm.img": "e" * 32},
                          "pages": []},
        "unregistered-parent": {"parent": pagemap,
                                "meta": {"pagemap.img": pagemap},
                                "pages": []},
        "unregistered-member": {"kind": "group", "label": "",
                                "members": [pagemap]},
        "empty-object": {},
        "not-an-object": [],
        "non-object-meta": {"parent": "", "meta": 5, "pages": []},
    }[name]


class TestOneChunkRule:
    """adopt, fsck, recovery and both halves of the scrub judge a
    damaged chunk by the same rule, in the same words."""

    @pytest.mark.parametrize("name", sorted(BAD_CHUNKS))
    def test_every_caller_refuses(self, name):
        digest = chunk_digest(_DATA)
        codec, payload, logical = BAD_CHUNKS[name]

        with pytest.raises(StoreError) as exc:
            ChunkStore().adopt(digest, codec, payload, logical)
        assert str(exc.value).startswith("adopt: ")

        chunks = ChunkStore()
        chunks._install(Chunk(digest, codec, payload, logical))
        assert chunks.verify() == [str(exc.value)[len("adopt: "):]]

        memory = CheckpointStore()
        memory.chunks._install(Chunk(digest, codec, payload, logical))
        assert memory.scrub().corrupt == [digest]

        disk, durable = durable_store(seed=5)
        durable.chunks.ensure(_DATA)
        durable._persist_chunk(digest)
        assert durable.scrub().corrupt == []
        disk.write(durable.backend.chunk_name(digest),
                   encode_chunk_file(digest, codec, logical, payload))
        disk.fsync(durable.backend.chunk_name(digest))
        _store, report = CheckpointStore.recover(DirBackend(disk.clone()))
        assert report.quarantined == [digest]
        assert durable.scrub().corrupt == [digest]


class TestOneAdmissionRule:
    """A damaged manifest is refused by adopt, skipped as damaged by
    recovery and reported by fsck — never a bare KeyError."""

    @pytest.mark.parametrize("name", sorted(BAD_MANIFESTS))
    def test_every_caller_refuses(self, images, name):
        store = CheckpointStore()
        store.put(images)
        manifest = bad_manifest(name, store)
        blob = json.dumps(manifest).encode()
        cid = chunk_digest(blob)

        with pytest.raises(StoreError, match=BAD_MANIFESTS[name]) as exc:
            store.adopt_manifest(blob)
        assert cid not in store

        disk, durable = durable_store(seed=6)
        durable.put(images)
        durable.chunks.ensure(blob)
        durable._persist_chunk(cid)
        durable.wal.commit(durable.wal.begin("adopt", cid=cid))
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert report.damaged == [cid]
        assert cid not in recovered
        assert report.fsck == []

        # A registered manifest that broke: fsck names the problem
        # adopt refused it for.
        store._checkpoints[cid] = manifest
        assert str(exc.value) in store.verify()

    @pytest.mark.parametrize("blob", [b"{}", b"[]", b"not json"])
    def test_refused_adopt_leaves_no_orphan(self, blob):
        """Admission runs before the blob is stored: a refused manifest
        is not a chunk, not a put and not an orphan for gc to find."""
        store = CheckpointStore()
        with pytest.raises(StoreError):
            store.adopt_manifest(blob)
        assert len(store.chunks) == 0
        assert store.chunks.orphans() == []
        assert store.chunks.puts == 0


# ---------------------------------------------------------------------------
# reopening a store that nothing changed writes nothing


class TestReopenWritesNothing:
    def test_second_recover_touches_no_durability_site(self, images):
        disk, store = durable_store(seed=9)
        store.put(images)
        first = DirBackend(disk, injector=CrashPointInjector())
        CheckpointStore.recover(first)
        # The first reopen after a mutation still compacts the log.
        assert first.injector.sites == ["wal.compact-write",
                                        "wal.compact-fsync",
                                        "wal.compact-rename"]
        again = DirBackend(disk, injector=CrashPointInjector())
        reopened, report = CheckpointStore.recover(again)
        assert again.injector.sites == []
        assert reopened.checkpoint_ids() == store.checkpoint_ids()
        assert report.clean


# ---------------------------------------------------------------------------
# verify(): refcount books vs live manifest references


class TestVerifyRefcountAudit:
    def test_clean_store_audits_clean(self, images):
        store = CheckpointStore()
        store.put(images)
        assert store.verify() == []

    def test_over_referenced_digest_reported(self, images):
        store = CheckpointStore()
        store.put(images)
        digest = store.chunks.digests()[0]
        store.chunks.incref(digest)
        problems = store.verify()
        assert any("over-referenced" in p and digest[:12] in p
                   for p in problems)

    def test_under_referenced_digest_reported(self, images):
        store = CheckpointStore()
        store.put(images)
        digest = store.chunks.digests()[0]
        store.chunks.decref(digest)
        problems = store.verify()
        assert any("under-referenced" in p and digest[:12] in p
                   for p in problems)

    def test_raw_pins_do_not_false_positive(self, images):
        store = CheckpointStore()
        store.put(images)
        # A page-server style raw put holds a pin with no manifest ref.
        store.chunks.put(b"served page bytes" * 64)
        assert store.verify() == []

    def test_group_manifest_references_counted(self, images):
        store = CheckpointStore()
        cid = store.put(images).checkpoint_id
        store.put_group([cid], label="audit")
        assert store.verify() == []


# ---------------------------------------------------------------------------
# the systematic crash-point sweep matrix


class TestCrashSweepMatrix:
    @pytest.mark.parametrize("name", ["put", "put_group", "delete",
                                      "gc", "adopt"])
    def test_every_site_recovers(self, image_pair, name):
        first, second = image_pair
        setup, op, atomic = store_sweep_ops(first, second)[name]
        trials = sweep(setup, op, seed=11, atomic=atomic)
        assert trials, f"{name} exposed no durability sites"
        assert all(t.ok for t in trials), "\n".join(
            f"#{t.seed} {t.phase}: {t.detail}"
            for t in trials if not t.ok)
        assert all(t.outcome == "recovered" and t.faults == {"crash": 1}
                   for t in trials)

    def test_put_sites_cover_every_durability_kind(self, images):
        trials = sweep(lambda s: None, lambda s, ctx: s.put(images),
                       seed=0, atomic=True)
        assert [t.seed for t in trials] == list(range(len(trials)))
        kinds = {t.phase.split(":")[0] for t in trials}
        assert {"chunk.write", "chunk.fsync", "chunk.rename",
                "wal.append", "wal.fsync"} <= kinds

    def test_unfired_site_is_reported(self, images):
        # Arm a site index past the end: the op completes, the sweep
        # itself must notice the crash never fired.
        disk = SimDisk(seed=0)
        backend = DirBackend(disk)
        store = CheckpointStore(backend=backend)
        backend.injector = CrashPointInjector(crash_at=10_000)
        store.put(images)       # completes: site 10000 never reached
        assert len(backend.injector.sites) < 10_000


# ---------------------------------------------------------------------------
# group coordinator: durable commit-or-resume


class TestGroupCrashRecovery:
    def _durable_group(self, seed):
        disk = SimDisk(seed=seed)
        backend = DirBackend(disk)
        store = CheckpointStore(backend=backend)
        group, placements = make_group(
            GroupSpec(workers=2, conns=8, drain=4, seed=1))
        return disk, backend, store, GroupCoordinator(group, placements,
                                                      store=store)

    def test_committed_group_survives_node_death(self):
        disk, _backend, store, coordinator = self._durable_group(seed=4)
        result = coordinator.migrate()
        expected = {cid: dict(store.materialize(cid).files)
                    for cid in result.member_ids}
        # Sudden node death after commit: tear unsynced writes, reopen.
        disk.crash()
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert report.clean
        assert recovered.is_group(result.gid)
        assert recovered.members(result.gid) == result.member_ids
        for cid, files in expected.items():
            assert dict(recovered.materialize(cid).files) == files

    def test_crash_before_commit_record_rolls_group_back(self):
        # Counting pass: a full committed run enumerates the sites.
        _disk, backend, _store, coordinator = self._durable_group(seed=4)
        backend.injector = CrashPointInjector()
        coordinator.migrate()
        sites = backend.injector.sites
        assert sites[-1] == "wal.fsync"  # the group commit record

        # Armed pass: die exactly as the commit record is fsynced —
        # the record never becomes durable, so the whole group aborts.
        disk, backend, store, coordinator = self._durable_group(seed=4)
        backend.injector = CrashPointInjector(crash_at=len(sites) - 1)
        with pytest.raises(StoreCrash):
            coordinator.migrate()
        disk.crash()
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert report.clean or report.fsck == []
        assert recovered.checkpoint_ids() == []
        assert report.aborted_group_members  # prepared members undone
        assert any(action == "group" for _t, action, _c
                   in report.rolled_back)
        assert recovered.chunks.orphans() == []

    def test_handled_abort_writes_abort_record(self):
        # A *handled* coordinator fault (not a crash) aborts in-process
        # and seals its WAL intent, so recovery has nothing to undo.
        disk, _backend, store, coordinator = self._durable_group(seed=5)
        coordinator.fault_phase = "commit"
        with pytest.raises(GroupRollback):
            coordinator.migrate()
        disk.crash()
        recovered, report = CheckpointStore.recover(DirBackend(disk))
        assert report.clean
        assert recovered.checkpoint_ids() == []
        assert report.rolled_back == []
        assert report.aborted_group_members == []


# ---------------------------------------------------------------------------
# EV_RECOVER journaling: crash/recover runs replay bit-identically


class TestRecoverJournal:
    def _journaled_sweep(self, images):
        recorders = []

        def factory():
            recorder = FlightRecorder(digest_every=0,
                                      record_syscalls=False)
            recorders.append(recorder)
            return recorder

        trials = sweep(lambda s: None, lambda s, ctx: s.put(images),
                       seed=7, recorder_factory=factory, atomic=True)
        assert all(t.ok for t in trials)
        return [list(r.journal.events) for r in recorders]

    def test_recover_events_are_bit_identical_across_runs(self, images):
        first = self._journaled_sweep(images)
        second = self._journaled_sweep(images)
        assert first == second
        flat = [e for events in first for e in events]
        assert any(e["kind"] == jn.EV_RECOVER for e in flat)
        assert any(e["kind"] == jn.EV_FAULT
                   and e.get("label", "").startswith("crashpoint:")
                   for e in flat)

    def test_recover_event_label_names_the_verdict(self, images):
        disk, store = durable_store(seed=8)
        store.put(images)
        disk.crash()
        recorder = FlightRecorder(digest_every=0, record_syscalls=False)
        _store, report = CheckpointStore.recover(DirBackend(disk),
                                                 recorder=recorder)
        events = [e for e in recorder.journal.events
                  if e["kind"] == jn.EV_RECOVER]
        assert len(events) == 1
        verdict = "clean" if report.clean else "torn"
        assert events[0]["label"] == f"recover:{verdict}"
        assert events[0]["a"] == len(report.checkpoints)


# ---------------------------------------------------------------------------
# fleet: durable nodes resume prepared migrations across node death


class TestFleetDurableResume:
    #: heavy on node loss (pskill), so sources die while checkpoints
    #: are durably stored and the resume path genuinely fires
    CHAOS = "seed=2,pskill=2000"

    def _storm(self, durable):
        spec = FleetSpec(seed=2, nodes=32, shards=4, duration=60.0,
                         max_in_flight=12, update_fraction=0.9,
                         durable=durable)
        return FleetStorm(spec, FaultPlan.from_spec(self.CHAOS)).run()

    def test_durable_field_round_trips(self):
        spec = FleetSpec(durable=1)
        assert FleetSpec.from_spec(spec.to_spec()).durable == 1
        # Old spec strings (no durable field) still parse, defaulting 0.
        legacy = ",".join(p for p in spec.to_spec().split(",")
                          if not p.startswith("durable="))
        assert FleetSpec.from_spec(legacy).durable == 0

    def test_durable_nodes_resume_prepared_migrations(self):
        result = self._storm(durable=1)
        assert result.invariant_ok
        assert result.node_losses > 0
        assert result.resumed_durable > 0

    def test_volatile_nodes_never_resume(self):
        result = self._storm(durable=0)
        assert result.invariant_ok
        assert result.resumed_durable == 0

    def test_durable_storm_is_deterministic(self):
        a, b = self._storm(durable=1), self._storm(durable=1)
        da, db = a.to_dict(), b.to_dict()
        for d in (da, db):    # wall-clock metrics may legally differ
            d.pop("wall_s")
            d.pop("events_per_sec_wall")
        assert da == db
        assert a.resumed_durable == b.resumed_durable > 0
