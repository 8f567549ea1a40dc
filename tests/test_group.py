"""Coordinated group checkpoints: the two-phase coordinator's
commit-or-resume invariant, the transactional connection drain, split
cross-ISA group restore, bit-identical replay of chaotic group
journals, and two-phase groups at fleet scale."""

from collections import Counter

import pytest

from repro.chaos import FaultInjector, FaultPlan
from repro.errors import GroupError, GroupRollback, StoreError
from repro.fleet import FleetSpec, FleetStorm
from repro.group import (FAULT_PHASES, ConnectionBroker,
                         GroupChaosHarness, GroupCoordinator, GroupSpec,
                         ServiceGroup, restore_group, split_placements)
from repro.isa import get_isa
from repro.replay import journal as jn
from repro.replay.engine import Replayer, record_group
from repro.store import CheckpointStore
from repro.vm import Machine


def make_group(spec: GroupSpec):
    """One warmed-up source group plus a split destination placement:
    workers cross to aarch64, the backend stays on x86_64."""
    group = ServiceGroup(spec)
    group.warmup()
    dst_a = Machine(get_isa("aarch64"), name="dst-a")
    dst_b = Machine(get_isa("x86_64"), name="dst-b")
    return group, split_placements(group, dst_a, dst_b)


class TestGroupSpec:
    def test_round_trip(self):
        spec = GroupSpec(workers=3, conns=12, drain=5, seed=7,
                         warmup=5000, fault="commit")
        again = GroupSpec.from_spec(spec.to_spec())
        assert again.to_spec() == spec.to_spec()
        assert again.fault == "commit"

    def test_fault_only_appended_when_set(self):
        assert "fault" not in GroupSpec().to_spec()
        assert GroupSpec(fault="drain").to_spec().endswith("fault=drain")

    @pytest.mark.parametrize("kwargs", [
        dict(workers=0), dict(conns=-1), dict(drain=-1),
        dict(warmup=0), dict(fault="bogus"),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(GroupError):
            GroupSpec(**kwargs)

    def test_bad_spec_strings_rejected(self):
        with pytest.raises(GroupError):
            GroupSpec.from_spec("workers=2,nonsense=1")
        with pytest.raises(GroupError):
            GroupSpec.from_spec("workers=two")


class TestConnectionBroker:
    def _broker(self, count=8):
        return ConnectionBroker(seed=0, count=count,
                                worker_pids=[100, 101], backend_pid=102)

    def test_seeded_connections_are_deterministic(self):
        assert self._broker().in_flight == self._broker().in_flight

    def test_drain_stages_up_to_budget(self):
        broker = self._broker(count=8)
        drained, leftover = broker.begin_drain(5)
        assert (len(drained), len(leftover)) == (5, 3)
        assert broker.in_flight == leftover

    def test_double_begin_rejected(self):
        broker = self._broker()
        broker.begin_drain(2)
        with pytest.raises(GroupError):
            broker.begin_drain(2)

    def test_abort_restores_pre_drain_state_exactly(self):
        broker = self._broker()
        before = broker.digest()
        broker.begin_drain(5)
        broker.abort_drain()
        assert broker.digest() == before
        broker.abort_drain()            # idempotent
        assert broker.digest() == before

    def test_commit_retires_staged_connections(self):
        broker = self._broker(count=8)
        drained, leftover = broker.begin_drain(5)
        broker.commit_drain()
        assert broker.completed == drained
        assert broker.in_flight == leftover
        broker.begin_drain(1)           # a new drain can open

    def test_journaled_for_filters_by_endpoint(self):
        broker = self._broker()
        for conn in broker.journaled_for(102):
            assert 102 in (conn["src_pid"], conn["dst_pid"])
        everything = broker.journaled_for(102)
        assert everything == broker.in_flight   # backend touches all
        assert broker.journaled_for(9999) == []


class TestGroupCommit:
    @pytest.fixture(scope="class")
    def committed(self):
        spec = GroupSpec(workers=2, conns=8, drain=4, seed=1)
        group, placements = make_group(spec)
        store = CheckpointStore()
        coordinator = GroupCoordinator(group, placements, store=store)
        result = coordinator.migrate()
        return group, placements, store, result

    def test_manifest_registered_with_members_in_order(self, committed):
        _group, _placements, store, result = committed
        assert store.is_group(result.gid)
        assert store.members(result.gid) == result.member_ids
        assert len(result.member_ids) == 3      # 2 nginx + 1 redis

    def test_drain_settled_at_the_cut(self, committed):
        group, _placements, _store, result = committed
        assert (result.drained, result.leftover) == (4, 4)
        assert len(group.broker.completed) == 4
        assert len(group.broker.in_flight) == 4

    def test_leftovers_journaled_onto_restored_members(self, committed):
        group, _placements, _store, result = committed
        for member, process in zip(group.members, result.processes):
            journaled = group.broker.journaled_for(member.process.pid)
            restored = getattr(process, "restored_connections", [])
            assert restored == journaled
        redis = result.processes[-1]
        assert len(redis.restored_connections) == result.leftover

    def test_sources_torn_down_destinations_run_to_exit(self, committed):
        group, placements, _store, result = committed
        assert not group.machine.processes
        for machine, process in zip(placements, result.processes):
            assert machine.run_process(process) == 0

    def test_store_fsck_clean_after_commit(self, committed):
        _group, _placements, store, _result = committed
        assert store.verify() == []
        assert store.chunks.orphans() == []


class TestGroupAbort:
    @pytest.mark.parametrize("phase", FAULT_PHASES)
    def test_forced_fault_aborts_cleanly(self, phase):
        spec = GroupSpec(workers=1, conns=6, drain=3, fault=phase)
        group, placements = make_group(spec)
        store = CheckpointStore()
        broker_before = group.broker.digest()
        coordinator = GroupCoordinator(group, placements, store=store,
                                       fault_phase=phase)
        with pytest.raises(GroupRollback) as exc:
            coordinator.migrate()
        assert exc.value.phase == phase
        # An aborted run never leaves a group manifest, a prepared
        # member checkpoint, or an orphan chunk behind...
        assert store.group_ids() == []
        assert store.checkpoint_ids() == []
        assert store.chunks.orphans() == []
        # ...the drain rolled back byte-identically...
        assert group.broker.digest() == broker_before
        # ...and every destination was swept.
        for machine in dict.fromkeys(placements):
            assert not machine.processes
        # Every member resumed at the cut and runs to completion.
        assert group.run_to_exit_on_source() == [0, 0]

    def test_restore_phase_abort_reports_prepared_members(self):
        spec = GroupSpec(workers=1, conns=4, drain=2, fault="restore")
        group, placements = make_group(spec)
        coordinator = GroupCoordinator(group, placements,
                                       fault_phase="restore")
        with pytest.raises(GroupRollback) as exc:
            coordinator.migrate()
        # The forced restore fault fires after the first member held
        # its migration open — the abort had real work to undo.
        assert exc.value.prepared >= 1


class TestGroupChaos:
    @pytest.fixture(scope="class")
    def harness(self):
        return GroupChaosHarness(GroupSpec(workers=1, conns=6, drain=3))

    def test_forced_sweep_holds_commit_or_resume(self, harness):
        trials = harness.sweep_phases()
        assert [t.phase for t in trials] == list(FAULT_PHASES) + [""]
        assert all(t.ok for t in trials), [t.detail for t in trials]
        assert all(t.outcome == "resumed"
                   for t in trials if t.phase)
        assert trials[-1].outcome == "committed"

    def test_seeded_trials_hold_commit_or_resume(self, harness):
        trials = harness.run_trials(3, seed0=11, crash=0.4, corrupt=0.2)
        assert all(t.ok for t in trials), [t.detail for t in trials]
        assert {t.outcome for t in trials} <= {"committed", "resumed"}


class TestGroupJudgedTrialIsRecorded:
    def test_journal_records_the_judged_trial(self):
        from repro.replay.engine import record
        harness = GroupChaosHarness(GroupSpec(workers=1, conns=6, drain=3))
        runs = [(trial, harness.trial_header(fault=trial.phase))
                for trial in harness.sweep_phases()]
        for seed in (11, 12):
            plan = FaultPlan(seed, crash=0.4, corrupt=0.2)
            runs.append((harness.run_trial(plan=plan),
                         harness.trial_header(plan=plan)))
        for trial, header in runs:
            journal = record(header).journal
            faults = Counter(e["label"].split(":", 1)[1].split("@", 1)[0]
                             for e in journal.of_kind(jn.EV_FAULT))
            assert faults == trial.faults, trial
            last = journal.of_kind(jn.EV_GROUP)[-1]["label"]
            want = ("group:committed" if trial.outcome == "committed"
                    else "group:aborted")
            assert last.startswith(want), (trial, last)


class TestRestoreGroup:
    @pytest.fixture(scope="class")
    def committed(self):
        spec = GroupSpec(workers=1, conns=4, drain=2, seed=3)
        group, placements = make_group(spec)
        store = CheckpointStore()
        result = GroupCoordinator(group, placements, store=store).migrate()
        for machine, process in zip(placements, result.processes):
            machine.run_process(process)
        return group, store, result

    def test_split_isa_restore_from_manifest(self, committed):
        group, store, result = committed
        # Flip the split: workers back to x86_64, backend to aarch64 —
        # every member re-crosses an ISA from its stored checkpoint.
        flip_a = Machine(get_isa("x86_64"), name="flip-a")
        flip_b = Machine(get_isa("aarch64"), name="flip-b")
        placements = split_placements(group, flip_a, flip_b)
        processes = restore_group(store, result.gid, placements,
                                  group.programs)
        assert len(processes) == len(result.member_ids)
        for machine, process in zip(placements, processes):
            assert machine.run_process(process) == 0

    def test_placement_count_mismatch_rejected(self, committed):
        group, store, result = committed
        with pytest.raises(GroupError):
            restore_group(store, result.gid,
                          [Machine(get_isa("x86_64"), name="one")],
                          group.programs)

    def test_missing_program_kills_partial_restore(self, committed):
        group, store, result = committed
        flip_a = Machine(get_isa("x86_64"), name="flip-a")
        flip_b = Machine(get_isa("aarch64"), name="flip-b")
        placements = split_placements(group, flip_a, flip_b)
        programs = {"nginx": group.programs["nginx"]}   # no redis
        with pytest.raises(GroupRollback) as exc:
            restore_group(store, result.gid, placements, programs)
        assert exc.value.phase == "restore"
        # The nginx member restored before redis failed — it was killed.
        for machine in dict.fromkeys(placements):
            assert not any(not p.exited
                           for p in machine.processes.values())


def _group_streams(result):
    events = result.journal.events
    return (result.journal.digest_stream(),
            [(e["label"], e["a"]) for e in events
             if e["kind"] == jn.EV_RNG],
            [(e["label"], e["a"], e["b"]) for e in events
             if e["kind"] == jn.EV_FAULT],
            [(e["label"], e["a"], e["b"]) for e in events
             if e["kind"] == jn.EV_GROUP])


class TestGroupReplay:
    SPEC = "workers=1,conns=6,drain=3,seed=2,warmup=4000"

    def _assert_bit_identical(self, recorded):
        replayed = Replayer(recorded.journal).run()
        assert _group_streams(replayed) == _group_streams(recorded)
        assert replayed.exit_code == recorded.exit_code

    def test_committed_group_replays_bit_identically(self):
        recorded = record_group(self.SPEC)
        labels = [e["label"] for e in
                  recorded.journal.of_kind(jn.EV_GROUP)]
        assert labels[-1].startswith("group:committed:")
        self._assert_bit_identical(recorded)

    @pytest.mark.parametrize("phase", ["drain", "commit"])
    def test_forced_abort_replays_bit_identically(self, phase):
        recorded = record_group(f"{self.SPEC},fault={phase}")
        labels = [e["label"] for e in
                  recorded.journal.of_kind(jn.EV_GROUP)]
        assert labels[-1] == f"group:aborted@{phase}"
        self._assert_bit_identical(recorded)

    def test_chaotic_group_replays_bit_identically(self):
        recorded = record_group(self.SPEC, chaos="seed=5,crash=5000")
        self._assert_bit_identical(recorded)

    def test_gid_is_content_derived_across_runs(self):
        a = record_group(self.SPEC)
        b = record_group(self.SPEC)
        commits_a = [e["label"] for e in a.journal.of_kind(jn.EV_GROUP)
                     if e["label"].startswith("group:committed:")]
        commits_b = [e["label"] for e in b.journal.of_kind(jn.EV_GROUP)
                     if e["label"].startswith("group:committed:")]
        assert commits_a and commits_a == commits_b


#: a storm whose rolling update wave is submitted as coordinated
#: groups of 4 — small enough to stay fast, chaotic enough (in the
#: chaos variant) to force at least one group abort
GROUPED = dict(seed=9, nodes=24, shards=3, duration=30.0,
               max_in_flight=6, update_fraction=0.6, update_group=4)
GROUPED_CHAOS = "seed=9,drop=1000,latency=1000,pskill=300,crash=5000"


class TestFleetGroups:
    def test_fault_free_wave_commits_every_group(self):
        result = FleetStorm(FleetSpec(**GROUPED)).run()
        assert result.invariant_ok
        assert result.groups_committed >= 1
        assert result.groups_aborted == 0
        assert result.rolled_back == 0

    def test_chaotic_wave_holds_commit_or_resume(self):
        plan = FaultPlan.from_spec(GROUPED_CHAOS)
        result = FleetStorm(FleetSpec(**GROUPED), plan).run()
        assert result.invariant_ok          # includes the group clause
        assert result.groups_aborted >= 1   # chaos actually bit a group
        assert result.groups_committed + result.groups_aborted >= 1

    def test_grouped_storm_is_deterministic(self):
        plan = FaultPlan.from_spec(GROUPED_CHAOS)
        a = FleetStorm(FleetSpec(**GROUPED), plan).run()
        b = FleetStorm(FleetSpec(**GROUPED),
                       FaultPlan.from_spec(GROUPED_CHAOS)).run()
        assert a.to_dict()["migrations"] == b.to_dict()["migrations"]

    def test_submit_group_admission_is_all_or_nothing(self):
        storm = FleetStorm(FleetSpec(seed=1, nodes=8, duration=5.0))
        scheduler = storm.migrations
        assert scheduler.submit(0, "rebalance")
        assert scheduler.submit_group([0, 1], "update") is None
        assert scheduler.submit_group([], "update") is None
        assert scheduler.submit_group([2, 2], "update") is None
        gid = scheduler.submit_group([2, 3], "update")
        assert gid is not None
        assert scheduler.submit_group([3, 4], "update") is None
        assert scheduler.groups[gid]["sids"] == {2, 3}
