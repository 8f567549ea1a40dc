"""Chaos engine + transactional migration tests.

Covers the fault taxonomy (spec round-trip, injector determinism), the
instrumented layers (network strict mode + fault-before-copy ordering,
page-server death, mid-ship faults + orphan GC), the transactional
pipeline (retry/backoff, integrity verification, pre-copy fallback,
rollback-to-source), the scheduler's supervisor loop, and record/replay
bit-identity of faulted runs.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.apps.registry import get_app
from repro.chaos import BP, KINDS, FaultInjector, FaultPlan
from repro.chaos.harness import ChaosHarness, memory_digest, \
    settle_lazy_pages
from repro.cluster import EnergyMeter, EventQueue, Network, SimNode
from repro.cluster.jobs import JobTemplate
from repro.cluster.scheduler import EvictionScheduler
from repro.core.costs import ethernet_link, rpi_profile, xeon_profile
from repro.core.migration import MigrationPipeline
from repro.criu.lazy import PageServer
from repro.errors import (ClusterError, LazyPageError, LinkDropFault,
                          MigrationRollback, PageServerDead, ReproError,
                          StoreError)
from repro.isa import get_isa
from repro.store import CheckpointStore
from repro.store.transfer import plan_transfer, ship
from repro.vm import Machine
from tests.conftest import OnChunkStore


@pytest.fixture(scope="module")
def kmeans_program():
    return get_app("kmeans").compile("small")


@pytest.fixture(scope="module")
def harness():
    return ChaosHarness("kmeans")


def make_pipeline(program, injector=None, **kw):
    return MigrationPipeline(Machine(get_isa("x86_64"), name="src"),
                             Machine(get_isa("aarch64"), name="dst"),
                             program, injector=injector, **kw)


# -- fault plans ---------------------------------------------------------------


class TestFaultPlan:
    def test_spec_round_trip(self):
        plan = FaultPlan(42, drop=0.3, pskill=0.05, corrupt=1.0)
        spec = plan.to_spec()
        assert spec == "seed=42,drop=3000,corrupt=10000,pskill=500"
        again = FaultPlan.from_spec(spec)
        assert again.seed == 42
        assert again.bp == plan.bp
        assert again.to_spec() == spec

    def test_zero_kinds_omitted(self):
        assert FaultPlan(7).to_spec() == "seed=7"
        assert not FaultPlan(7).any_faults()
        assert FaultPlan(7, latency=0.5).any_faults()

    def test_bad_specs_rejected(self):
        with pytest.raises(ReproError):
            FaultPlan.from_spec("seed=1,bogus=10")
        with pytest.raises(ReproError):
            FaultPlan.from_spec("drop=notanumber")
        with pytest.raises(ReproError):
            FaultPlan.from_spec(f"drop={BP + 1}")
        with pytest.raises(ReproError):
            FaultPlan(0, drop=1.5)

    def test_all_kinds_have_constructor_args(self):
        plan = FaultPlan(0, **{kind: 0.25 for kind in KINDS})
        assert all(plan.bp[kind] == BP // 4 for kind in KINDS)


class TestInjectorDeterminism:
    def drive(self, injector):
        fired = []
        for i in range(20):
            try:
                injector.link_fault("a", "b", site="scp")
            except LinkDropFault:
                pass
            fired.append(injector.ship_faults(16))
        return fired, [repr(f) for f in injector.fired]

    def test_same_seed_same_faults(self):
        plan = FaultPlan(9, drop=0.3, partition=0.2, latency=0.4,
                         corrupt=0.3)
        a = self.drive(FaultInjector(plan))
        b = self.drive(FaultInjector(plan))
        assert a == b

    def test_different_seed_diverges(self):
        kw = dict(drop=0.3, partition=0.2, latency=0.4, corrupt=0.3)
        a = self.drive(FaultInjector(FaultPlan(1, **kw)))
        b = self.drive(FaultInjector(FaultPlan(2, **kw)))
        assert a != b

    def test_zero_probability_draws_nothing(self):
        import random
        injector = FaultInjector(FaultPlan(3))
        assert injector.link_fault("a", "b") == 1.0
        assert injector.ship_faults(100) == (None, None)
        # Zero-probability kinds consume no RNG state at all.
        assert injector.rng._rng.getstate() == random.Random(3).getstate()
        assert injector.fired == []


# -- network satellites --------------------------------------------------------


class TestNetworkStrict:
    def test_strict_mode_raises_for_unregistered_pair(self):
        network = Network(strict=True)
        network.connect("xeon", "rpi", ethernet_link())
        assert network.link_between("xeon", "rpi") is not None
        with pytest.raises(ClusterError, match="no link registered"):
            network.link_between("xeon", "ghost")

    def test_per_call_strict_override(self):
        network = Network()          # lax by default (back-compat)
        assert network.link_between("a", "b") is network.default_link
        with pytest.raises(ClusterError):
            network.link_between("a", "b", strict=True)

    def test_pipeline_uses_strict_lookup(self, kmeans_program):
        network = Network()
        with pytest.raises(ClusterError, match="no link registered"):
            MigrationPipeline(Machine(get_isa("x86_64"), name="src"),
                              Machine(get_isa("aarch64"), name="dst"),
                              kmeans_program, network=network)

    def test_scp_consults_link_before_copying(self):
        # Fault/partition decisions land *before* any bytes move: a
        # failed scp must leave no partial subtree at the destination.
        network = Network(injector=FaultInjector(FaultPlan(0, drop=1.0)))
        src = Machine(get_isa("x86_64"), name="a")
        dst = Machine(get_isa("x86_64"), name="b")
        src.tmpfs.write("/images/1/pages.img", b"x" * 64)
        src.tmpfs.write("/images/1/core.img", b"y" * 32)
        with pytest.raises(LinkDropFault):
            network.scp(src, dst, "/images/1")
        assert dst.tmpfs.listdir("/images/1") == []

    def test_partitioned_scp_raises_until_healed(self):
        network = Network()
        src = Machine(get_isa("x86_64"), name="a")
        dst = Machine(get_isa("x86_64"), name="b")
        src.tmpfs.write("/d/f", b"data")
        network.partition("a", "b")
        with pytest.raises(LinkDropFault):
            network.scp(src, dst, "/d")
        assert dst.tmpfs.listdir("/d") == []
        network.heal("a", "b")
        nbytes, seconds = network.scp(src, dst, "/d")
        assert nbytes == 4 and seconds > 0
        assert dst.tmpfs.read("/d/f") == b"data"


# -- page-server hardening -----------------------------------------------------


class TestPageServerFailure:
    server = staticmethod(PageServer)

    def test_scheduled_death_raises_typed_error(self):
        server = self.server({0x1000: b"\x01" * 4096})
        server.schedule_death(after_requests=1)
        assert server.fetch(0x1000) is not None
        with pytest.raises(PageServerDead):
            server.fetch(0x2000)

    def test_kill_is_immediate(self):
        server = self.server({0x1000: b"\x01" * 4096})
        server.kill()
        with pytest.raises(PageServerDead):
            server.fetch(0x1000)

    def test_strict_fetch_distinguishes_unowned_page(self):
        server = self.server({0x1000: b"\x01" * 4096})
        # Default (lax) keeps the zero-fill contract.
        assert server.fetch(0x9000) is None
        with pytest.raises(LazyPageError) as err:
            server.fetch(0x9000, strict=True)
        assert not isinstance(err.value, PageServerDead)
        # PageServerDead is a LazyPageError subtype: one except clause
        # catches both, isinstance distinguishes them.
        assert issubclass(PageServerDead, LazyPageError)


class TestPageServerFailureOnChunks(OnChunkStore, TestPageServerFailure):
    pass


# -- mid-ship faults + orphan GC (satellite) -----------------------------------


def _stores_with_checkpoint(kmeans_program):
    pipeline = make_pipeline(kmeans_program, use_store=True)
    process = pipeline.start()
    pipeline.src_machine.step_all(5000)
    result = pipeline.migrate(process)
    return pipeline.src_store, result


class TestAbortedShipGc:
    def test_dropped_ship_leaves_only_orphans(self, kmeans_program):
        src_store, _ = _stores_with_checkpoint(kmeans_program)
        cid = src_store.checkpoint_ids()[0]
        dst_store = CheckpointStore()
        injector = FaultInjector(FaultPlan(5, drop=1.0))
        plan = plan_transfer(src_store, dst_store, cid)
        with pytest.raises(LinkDropFault):
            ship(src_store, dst_store, plan, injector=injector)
        # Chunks that landed before the drop carry no references (their
        # manifest never registered) — exactly what gc() reclaims.
        assert cid not in dst_store
        orphans = dst_store.chunks.orphans()
        assert len(orphans) == len(dst_store.chunks)
        assert dst_store.verify() == []
        chunks, _freed = dst_store.gc()
        assert chunks == len(orphans)
        assert dst_store.chunks.orphans() == []
        assert len(dst_store.chunks) == 0

    def test_retry_after_drop_ships_strictly_less(self, kmeans_program):
        src_store, _ = _stores_with_checkpoint(kmeans_program)
        cid = src_store.checkpoint_ids()[0]
        dst_store = CheckpointStore()
        injector = FaultInjector(FaultPlan(5, drop=1.0))
        first = plan_transfer(src_store, dst_store, cid)
        with pytest.raises(LinkDropFault):
            ship(src_store, dst_store, first, injector=injector)
        # Landed chunks survive for the retry: the new plan is smaller,
        # and a fault-free retry completes with zero orphans.
        retry = plan_transfer(src_store, dst_store, cid)
        if len(dst_store.chunks):
            assert len(retry.chunks_needed) < len(first.chunks_needed)
        ship(src_store, dst_store, retry)
        assert cid in dst_store
        assert dst_store.chunks.orphans() == []
        assert dst_store.verify() == []

    def test_corrupted_chunk_rejected_on_arrival(self, kmeans_program):
        src_store, _ = _stores_with_checkpoint(kmeans_program)
        cid = src_store.checkpoint_ids()[0]
        dst_store = CheckpointStore()
        injector = FaultInjector(FaultPlan(2, corrupt=1.0))
        plan = plan_transfer(src_store, dst_store, cid)
        # Either detector is fine: a flipped byte can break the codec
        # framing (decompress error) or survive it (digest mismatch).
        with pytest.raises(StoreError,
                           match="does not (match|decompress)"):
            ship(src_store, dst_store, plan, injector=injector)
        # The poisoned payload never entered the store.
        assert dst_store.verify() == []


class TestCorruptPastDrop:
    """A corrupt drawn at or past the drop chunk never ships, so it is
    not a fault that fired: reporting it would demand catch evidence
    for a byte that never flipped."""

    @staticmethod
    def _ship_faults(seed):
        injector = FaultInjector(FaultPlan(seed, drop=1.0, corrupt=1.0))
        draws = []
        injector.rng.observer = \
            lambda _name, label, _value: draws.append(label)
        return injector.ship_faults(8), injector.counts(), draws

    @pytest.mark.parametrize("seed, drop_at", [(1, 1), (3, 2)])
    def test_corrupt_at_or_past_drop_not_fired(self, seed, drop_at):
        faults, counts, draws = self._ship_faults(seed)
        assert faults == (drop_at, None)
        assert counts == {"drop": 1}
        # Both draws are still made, so no other seed's stream moves.
        assert draws == ["drop@ship", "drop-at@ship", "corrupt@ship",
                         "corrupt-at@ship"]

    def test_corrupt_before_drop_still_fires(self):
        faults, counts, _draws = self._ship_faults(0)
        assert faults == (6, 4)
        assert counts == {"drop": 1, "corrupt": 1}

    def test_store_trial_with_drop_and_corrupt_holds(self):
        harness = ChaosHarness("kmeans", use_store=True)
        trial = harness.run_trial(FaultPlan(1, drop=0.3, corrupt=0.2))
        assert trial.ok, trial.detail


# -- the transactional pipeline ------------------------------------------------


class TestTransactionalMigrate:
    def test_fault_free_stage_keys_unchanged(self, kmeans_program):
        # No injector → no txn bookkeeping, no "retries" key, no
        # "txn" stat. The verify stage (the restore guard) runs on
        # every migration, fault-free or not.
        result = make_pipeline(kmeans_program).run_and_migrate(5000)
        assert set(result.stage_seconds) == {"checkpoint", "recode",
                                             "scp", "verify", "restore"}
        assert "txn" not in result.stats
        assert result.stats["verify"]["repaired_pages"] == 0

    def test_retry_then_success(self, harness, kmeans_program):
        # Seed 1 drops the scp once; the retry lands it.
        injector = FaultInjector(FaultPlan(1, drop=0.4))
        pipeline = make_pipeline(kmeans_program, injector=injector,
                                 retry_budget=4)
        result = pipeline.run_and_migrate(5000)
        txn = result.stats["txn"]
        assert txn["attempts"]["scp"] == 2
        assert not txn["rolled_back"]
        assert result.stage_seconds["retries"] == pytest.approx(
            pipeline.backoff_base_s)
        assert result.combined_output() == harness.expected_output

    def test_backoff_is_exponential(self, kmeans_program):
        # partition=1.0 swallows every attempt: 3 attempts, 2 backoffs
        # (base * 1, base * 2), then rollback.
        injector = FaultInjector(FaultPlan(1, partition=1.0))
        pipeline = make_pipeline(kmeans_program, injector=injector,
                                 retry_budget=3, backoff_base_s=0.1)
        process = pipeline.start()
        pipeline.src_machine.step_all(5000)
        with pytest.raises(MigrationRollback) as err:
            pipeline.migrate(process)
        assert err.value.txn["backoff_seconds"] == pytest.approx(0.3)

    def test_rollback_resumes_source(self, harness):
        trial = harness.run_trial(FaultPlan(1, partition=1.0))
        assert trial.outcome == "rolled-back"
        assert trial.ok, trial.detail

    def test_rollback_exception_carries_stage(self, kmeans_program):
        injector = FaultInjector(FaultPlan(1, partition=1.0))
        pipeline = make_pipeline(kmeans_program, injector=injector)
        process = pipeline.start()
        pipeline.src_machine.step_all(5000)
        with pytest.raises(MigrationRollback) as err:
            pipeline.migrate(process)
        assert err.value.stage == "scp"
        assert err.value.attempts == 3
        assert err.value.txn["rolled_back"]
        # Source is runnable again; destination holds nothing.
        assert not process.stopped and not process.exited
        assert pipeline.dst_machine.tmpfs.listdir(
            f"/images/{process.pid}") == []

    def test_corruption_caught_and_retried(self, harness, kmeans_program):
        injector = FaultInjector(FaultPlan(0, corrupt=1.0))
        pipeline = make_pipeline(kmeans_program, injector=injector,
                                 retry_budget=3)
        process = pipeline.start()
        pipeline.src_machine.step_all(5000)
        # corrupt=1.0 poisons every attempt; the integrity check must
        # catch each one and the budget must end in rollback, never in
        # a restore from corrupt images.
        with pytest.raises(MigrationRollback) as err:
            pipeline.migrate(process)
        assert any("digest" in e or "unreadable" in e
                   for e in err.value.txn["errors"])

    def test_store_retry_leaves_no_orphans(self, harness, kmeans_program):
        injector = FaultInjector(FaultPlan(1, drop=0.4))
        pipeline = make_pipeline(kmeans_program, injector=injector,
                                 use_store=True, retry_budget=4)
        result = pipeline.run_and_migrate(5000)
        txn = result.stats["txn"]
        assert txn["attempts"]["ship"] > 1
        assert pipeline.dst_store.chunks.orphans() == []
        assert pipeline.dst_store.verify() == []
        assert result.combined_output() == harness.expected_output

    def test_store_rollback_sweeps_destination(self, kmeans_program):
        harness = ChaosHarness("kmeans", use_store=True)
        trial = harness.run_trial(FaultPlan(2, partition=1.0))
        assert trial.outcome == "rolled-back"
        assert trial.ok, trial.detail


class TestPrecopyFallback:
    def test_page_server_death_degrades_to_precopy(self, kmeans_program):
        # pskill=1.0 always arms the server to die mid post-copy; the
        # migration must still complete with byte-identical settled
        # memory via the pre-copy fallback.
        harness = ChaosHarness("kmeans", lazy=True)
        trial = harness.run_trial(FaultPlan(1, pskill=1.0))
        assert trial.outcome == "completed"
        assert trial.ok, trial.detail
        assert trial.fallback
        assert trial.faults.get("pskill") == 1
        assert trial.faults.get("fallback") == 1

    def test_fallback_memory_matches_lazy_reference(self, kmeans_program):
        reference = make_pipeline(kmeans_program).run_and_migrate(
            5000, lazy=True)
        settle_lazy_pages(reference.process, reference.page_server)
        injector = FaultInjector(FaultPlan(1, pskill=1.0))
        pipeline = make_pipeline(kmeans_program, injector=injector)
        result = pipeline.run_and_migrate(5000, lazy=True)
        assert result.stats["txn"]["fallback"]
        settle_lazy_pages(result.process, result.page_server)
        assert memory_digest(result.process) \
            == memory_digest(reference.process)
        assert result.combined_output() == reference.combined_output()


# -- scheduler supervisor loop -------------------------------------------------


def _template():
    return JobTemplate(name="t", instructions=2e8,
                       cycles_per_instr={"x86_64": 1.0, "aarch64": 1.6},
                       migration_seconds=0.5)


def _run_schedule(injector, duration=600.0, pis=1):
    queue = EventQueue()
    server = SimNode(xeon_profile(), name="xeon", job_slots=7)
    pi_nodes = [SimNode(rpi_profile(), name=f"rpi{i}", job_slots=3)
                for i in range(pis)]
    meter = EnergyMeter([server] + pi_nodes)
    scheduler = EvictionScheduler(queue, server, pi_nodes, _template(),
                                  meter, injector=injector,
                                  retry_backoff_s=5.0)
    scheduler.start()
    queue.run_until(duration)
    return scheduler


class TestSchedulerSupervisor:
    def test_no_injector_identical_to_baseline(self):
        plain = _run_schedule(None)
        zero = _run_schedule(FaultInjector(FaultPlan(0)))
        assert (plain.completed, plain.evictions) \
            == (zero.completed, zero.evictions)
        assert zero.failed_evictions == 0 and not zero.unhealthy

    def test_certain_failure_marks_node_unhealthy(self):
        scheduler = _run_schedule(FaultInjector(FaultPlan(0, drop=1.0)))
        assert scheduler.evictions == 0
        assert scheduler.failed_evictions >= scheduler.max_node_failures
        assert scheduler.node_failures["rpi0"] \
            >= scheduler.max_node_failures
        # Jobs still complete on the server: failed evictions re-queue,
        # they do not vanish.
        assert scheduler.completed > 0

    def test_flaky_node_requeues_and_recovers(self):
        flaky = _run_schedule(FaultInjector(FaultPlan(3, drop=0.5)))
        healthy = _run_schedule(None)
        assert flaky.failed_evictions > 0
        assert flaky.evictions > 0          # some migrations land
        assert flaky.completed > 0
        # Chaos can only hurt throughput, never help it.
        assert flaky.completed <= healthy.completed

    def test_probe_reopens_unhealthy_node(self):
        # Failures trip the breaker; after the probe delay the node is
        # eligible again (half-open) — with drop=1.0 it re-trips, so it
        # must be unhealthy at *some* point and probed after.
        queue = EventQueue()
        server = SimNode(xeon_profile(), name="xeon", job_slots=7)
        pi = SimNode(rpi_profile(), name="rpi0", job_slots=3)
        meter = EnergyMeter([server, pi])
        scheduler = EvictionScheduler(
            queue, server, [pi], _template(), meter,
            injector=FaultInjector(FaultPlan(0, drop=1.0)),
            max_node_failures=2, retry_backoff_s=10.0)
        scheduler.start()
        assert "rpi0" in scheduler.unhealthy
        failures_before = scheduler.node_failures["rpi0"]
        queue.run_until(30.0)
        # The probe fired, evictions were attempted again and failed
        # again: the failure count grew past the first trip point.
        assert scheduler.node_failures["rpi0"] > failures_before


# -- record/replay bit-identity ------------------------------------------------


class TestChaosReplay:
    def _streams(self, result):
        from repro.replay import journal as jn
        events = result.journal.events
        return (result.journal.digest_stream(),
                [(e["label"], e["a"]) for e in events
                 if e["kind"] == jn.EV_RNG],
                [(e["label"], e["a"], e["b"]) for e in events
                 if e["kind"] == jn.EV_FAULT])

    def _round_trip(self, **kw):
        from repro.replay.engine import Replayer, record_migrate
        source = get_app("kmeans").source("small")
        recorded = record_migrate(source, "kmeans", digest_every=8, **kw)
        replayed = Replayer(recorded.journal).run()
        assert self._streams(recorded) == self._streams(replayed)
        assert recorded.exit_code == replayed.exit_code
        return recorded

    def test_faulted_migration_replays_bit_identically(self):
        recorded = self._round_trip(chaos="seed=1,drop=4000", retries=4)
        assert recorded.journal.header["chaos"] == "seed=1,drop=4000"
        faults = self._streams(recorded)[2]
        assert ("chaos:drop@scp", 0, 0) in faults

    def test_rollback_replays_bit_identically(self):
        recorded = self._round_trip(chaos="seed=1,partition=10000")
        faults = self._streams(recorded)[2]
        assert any(label.startswith("chaos:rollback@")
                   for label, _a, _b in faults)
        from repro.replay import journal as jn
        migs = [e for e in recorded.journal.events
                if e["kind"] == jn.EV_MIGRATE]
        assert migs and migs[0]["label"].startswith("rolled-back@")

    def test_pskill_fallback_replays_bit_identically(self):
        recorded = self._round_trip(chaos="seed=1,pskill=10000",
                                    lazy=True)
        faults = self._streams(recorded)[2]
        labels = [label for label, _a, _b in faults]
        assert "chaos:pskill@page-server" in labels
        assert "chaos:fallback@page-server" in labels

    def test_plain_journal_has_no_chaos_fields(self):
        recorded = self._round_trip()
        assert "chaos" not in recorded.journal.header
        assert self._streams(recorded)[2] == []


# -- the judged trial is the recorded trial ------------------------------------


def _fault_kinds(journal):
    """``{kind: count}`` of a journal's ``chaos:<kind>@<site>`` events."""
    from repro.replay import journal as jn
    return Counter(e["label"].split(":", 1)[1].split("@", 1)[0]
                   for e in journal.of_kind(jn.EV_FAULT))


#: the chaos-smoke / verify-smoke modes: (harness kwargs, probabilities)
CI_CHAOS_MODES = {
    "plain": ({}, dict(drop=0.3, latency=0.3, corrupt=0.2)),
    "lazy": (dict(lazy=True), dict(pskill=0.9)),
    "lazy+store": (dict(lazy=True, use_store=True), dict(pskill=0.9)),
    "store": (dict(use_store=True), dict(drop=0.4, partition=0.2)),
    "verify-gate": (dict(verify_gate=True), dict(corrupt=0.5)),
}


class TestJudgedTrialIsRecorded:
    @pytest.mark.parametrize("mode", sorted(CI_CHAOS_MODES))
    def test_journal_records_the_judged_trial(self, mode):
        from repro.replay import journal as jn
        from repro.replay.engine import record
        kwargs, probabilities = CI_CHAOS_MODES[mode]
        harness = ChaosHarness("kmeans", **kwargs)
        for seed in range(4):
            plan = FaultPlan(seed, **probabilities)
            trial = harness.run_trial(plan)
            assert trial.ok, trial.detail
            journal = record(harness.trial_header(plan)).journal
            assert _fault_kinds(journal) == trial.faults, seed
            rolled = [e for e in journal.of_kind(jn.EV_MIGRATE)
                      if e["label"].startswith("rolled-back@")]
            assert len(rolled) == (trial.outcome == "rolled-back"), seed
