"""Tests for the fleet orchestration subsystem: the sharded event
core, the storm spec, bucketed placement, concurrent staged migrations
under chaos, and the determinism contracts — shard-count invariance
and bit-identical journal replay."""

import hashlib
import json

import pytest

from repro.chaos import FaultPlan
from repro.errors import FleetError
from repro.fleet import (FleetScheduler, FleetSpec, FleetStorm,
                         LatencyHistogram, Objective, ShardedEventCore,
                         build_fleet, fleet_templates,
                         run_shared_store_migrations)
from repro.replay.engine import Replayer, record_fleet

#: a storm chaotic enough to exercise every code path — node loss,
#: stage retries, and genuine rollbacks — while staying deterministic
STORMY = dict(seed=9, nodes=24, shards=3, duration=30.0,
              max_in_flight=6, update_fraction=0.6)
STORMY_CHAOS = "seed=9,drop=1000,latency=1000,pskill=300,crash=5000"

#: the golden storm: 64 nodes (some hosting nothing), node loss, stage
#: drops, latency and crashes, run solo, as 4-member groups and with
#: durable stores — between them they move services, roll back, abort
#: groups, resume a migration past its dead source and revive nodes
GOLDEN = dict(seed=11, nodes=64, shards=4, duration=30.0, max_in_flight=8,
              update_fraction=0.5)
GOLDEN_CHAOS = "seed=11,drop=500,latency=500,pskill=300,crash=1500"
GOLDEN_VARIANTS = {"solo": {}, "group": dict(update_group=4),
                   "durable": dict(durable=1)}


def _blake(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class TestFleetSpec:
    def test_round_trip(self):
        spec = FleetSpec(seed=7, nodes=128, shards=8, duration=45.5,
                         max_in_flight=32, warm_bp=8500)
        again = FleetSpec.from_spec(spec.to_spec())
        assert again == spec
        assert again.to_spec() == spec.to_spec()

    def test_defaults_round_trip(self):
        spec = FleetSpec()
        assert FleetSpec.from_spec(spec.to_spec()) == spec

    def test_services_default_to_one_per_node(self):
        assert FleetSpec(nodes=10).n_services == 10
        assert FleetSpec(nodes=10, services=3).n_services == 3

    @pytest.mark.parametrize("kwargs", [
        dict(nodes=0),
        dict(nodes=4, shards=5),
        dict(shards=0),
        dict(duration=0.0),
        dict(barrier_dt=-1.0),
        dict(max_in_flight=0),
        dict(warm_bp=10001),
        dict(update_fraction=1.5),
    ])
    def test_validation_rejects(self, kwargs):
        with pytest.raises(FleetError):
            FleetSpec(**kwargs)

    def test_unknown_field_rejected(self):
        with pytest.raises(FleetError):
            FleetSpec(bogus=1)
        with pytest.raises(FleetError):
            FleetSpec.from_spec("nodes=4,bogus=1")

    def test_bad_value_rejected(self):
        with pytest.raises(FleetError):
            FleetSpec.from_spec("nodes=many")


class TestShardedEventCore:
    def test_node_local_and_window_ordering(self):
        """Within a window shards drain independently — the contract
        only promises per-node time order and that earlier windows
        complete before later ones."""
        core = ShardedEventCore(shards=4, barrier_dt=1.0)
        seen = []
        for node in range(8):
            for window in range(2):
                core.schedule_node(window + 0.1 * node + 0.05, node,
                                   lambda n=node, w=window:
                                   seen.append((n, w)))
        fired = core.run_until(2.0)
        assert fired == 16
        assert sorted(seen) == sorted(
            (n, w) for n in range(8) for w in range(2))
        for node in range(8):
            assert [w for n, w in seen if n == node] == [0, 1]
        # both window-0 firings of every node precede every window-1 one
        assert [w for _n, w in seen] == [0] * 8 + [1] * 8

    def test_mail_delivered_in_key_order_not_post_order(self):
        core = ShardedEventCore(shards=2, barrier_dt=1.0)
        seen = []
        # Posted in reverse key order; delivery must sort by key.
        core.post(0.5, (2, "b"), lambda: seen.append("b"))
        core.post(0.5, (1, "a"), lambda: seen.append("a"))
        core.post(0.2, (9, "z"), lambda: seen.append("z"))
        core.run_until(1.0)
        assert seen == ["z", "a", "b"]

    def test_mail_waits_for_its_barrier(self):
        core = ShardedEventCore(shards=1, barrier_dt=0.5)
        seen = []
        core.post(1.2, (1,), lambda: seen.append("late"))
        core.run_until(1.0)
        assert not seen
        core.run_until(2.0)
        assert seen == ["late"]

    def test_post_before_now_rejected(self):
        core = ShardedEventCore(shards=1, barrier_dt=0.5)
        core.run_until(1.0)
        with pytest.raises(FleetError):
            core.post(0.25, (1,), lambda: None)

    def test_barrier_observer_sees_every_window(self):
        core = ShardedEventCore(shards=2, barrier_dt=0.25)
        barriers = []
        core.on_barrier = lambda i, when, fired: barriers.append(
            (i, when, fired))
        core.schedule_node(0.1, 0, lambda: None)
        core.schedule_node(0.6, 1, lambda: None)
        core.run_until(1.0)
        assert [b[0] for b in barriers] == [0, 1, 2, 3]
        assert barriers[-1][1] == pytest.approx(1.0)
        assert sum(b[2] for b in barriers) == 2

    def test_bad_construction_rejected(self):
        with pytest.raises(FleetError):
            ShardedEventCore(shards=0, barrier_dt=1.0)
        with pytest.raises(FleetError):
            ShardedEventCore(shards=1, barrier_dt=0.0)

    def test_merged_trace_keys_are_shard_stable(self):
        core = ShardedEventCore(shards=3, barrier_dt=1.0)
        for node in range(6):
            core.schedule_node(1.5, node, lambda: None)
        keys = core.merged_trace_keys()
        assert keys == sorted(keys)
        assert [shard for _w, shard, _s in keys] == [0, 0, 1, 1, 2, 2]


class TestLatencyHistogram:
    def test_percentiles_track_recorded_mass(self):
        hist = LatencyHistogram()
        hist.record(0.001, count=99)
        hist.record(1.0, count=1)
        # bucket upper bounds: 1000us -> 1.024ms, 1s -> ~1.05s
        assert hist.percentile(0.50) == pytest.approx(0.001024)
        assert hist.percentile(0.98) == pytest.approx(0.001024)
        assert hist.percentile(0.999) == pytest.approx(1.048576)

    def test_empty_percentile_is_zero(self):
        assert LatencyHistogram().percentile(0.99) == 0.0

    def test_merge_adds_counts(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(0.002, count=10)
        b.record(0.002, count=5)
        a.merge(b)
        assert a.total == 15


class TestFleetScheduler:
    def _scheduler(self, nodes=8):
        fleet = build_fleet(FleetSpec(nodes=nodes, shards=1, services=0))
        by_id = {node.id: node for node in fleet}
        return fleet, by_id, FleetScheduler(fleet, Objective())

    def test_place_prefers_empty_nodes(self):
        fleet, by_id, sched = self._scheduler()
        node_id = sched.place()
        assert node_id is not None
        assert by_id[node_id].occupancy() == 0

    def test_place_excludes(self):
        fleet, by_id, sched = self._scheduler(nodes=2)
        excluded = {fleet[0].id}
        assert sched.place(exclude=excluded) not in excluded

    def test_place_all_respects_capacity(self):
        fleet, by_id, sched = self._scheduler(nodes=4)
        placed = sched.place_all(4)
        assert len(placed) == 4
        assert sum(node.reserved for node in fleet) == 4
        for node in fleet:
            assert node.reserved <= node.slots

    def test_dead_nodes_never_placed(self):
        fleet, by_id, sched = self._scheduler(nodes=2)
        for node in fleet[1:]:
            node.kill(until=100.0)
            sched.reindex(node)
        picks = sched.place_all(3)
        assert picks and set(picks) == {fleet[0].id}


class TestStormUnderChaos:
    @pytest.fixture(scope="class")
    def stormy(self):
        spec = FleetSpec(**STORMY)
        plan = FaultPlan.from_spec(STORMY_CHAOS)
        return FleetStorm(spec, plan).run()

    def test_complete_or_rollback_invariant(self, stormy):
        assert stormy.invariant_ok
        assert stormy.started == stormy.completed + stormy.rolled_back

    def test_chaos_actually_bites(self, stormy):
        # The point of this seed: rollbacks and node losses both occur,
        # so the transactional paths are exercised, not just skipped.
        assert stormy.rolled_back > 0
        assert stormy.node_losses > 0
        assert stormy.completed > 0

    def test_in_flight_stays_bounded(self, stormy):
        assert 0 < stormy.peak_in_flight <= STORMY["max_in_flight"]

    def test_storm_tail_latency_dominates_calm_median(self, stormy):
        d = stormy.to_dict()
        assert d["latency_ms"]["p99_storm"] > d["latency_ms"]["p50"]

    def test_traffic_conserved(self, stormy):
        d = stormy.to_dict()["traffic"]
        assert 0 < d["served"] <= d["arrived"]


class TestFleetDeterminism:
    def test_shard_count_invariance(self):
        """Same seed + fault plan => identical journal event streams,
        digests, and RNG draws whether the core runs 1 shard or 3."""
        spec = FleetSpec(**STORMY)
        journals = []
        for shards in (1, STORMY["shards"]):
            variant = FleetSpec.from_spec(spec.to_spec())
            variant.shards = shards
            result = record_fleet(variant.to_spec(), chaos=STORMY_CHAOS)
            journals.append(result.journal)
        one, many = journals
        # Headers legitimately differ (the spec strings embed the shard
        # count); every *recorded* event and digest must not.
        assert one.events == many.events
        assert one.digest_stream() == many.digest_stream()

    def test_recorded_storm_replays_bit_identically(self):
        spec = FleetSpec(seed=3, nodes=16, shards=4, duration=20.0,
                         max_in_flight=4)
        chaos = "seed=3,drop=500,latency=500,pskill=200,crash=2000"
        recorded = record_fleet(spec.to_spec(), chaos=chaos)
        blob = recorded.journal.to_bytes()
        replayed = Replayer(recorded.journal).run()
        assert replayed.journal.to_bytes() == blob

    def test_same_spec_same_journal(self):
        spec = FleetSpec(seed=5, nodes=12, shards=2, duration=15.0)
        a = record_fleet(spec.to_spec()).journal
        b = record_fleet(spec.to_spec()).journal
        assert a.to_bytes() == b.to_bytes()


class TestStormGolden:
    """Exact outcomes of the golden storm. The determinism tests above
    compare runs with each other, so a change to how the storm computes
    would pass them even if it moved an outcome; these values are
    pinned. ``result`` is the blake2b of the canonical JSON of
    ``StormResult.to_dict()`` minus its two wall-clock fields, so it
    also pins the spec string; ``journal`` is the blake2b of the
    recorded journal's bytes, header included. A moved value means the
    storm now simulates something else: find the change, do not re-pin.
    """

    PINS = {
        "solo": dict(
            events=4179,
            result="5a09d26a7301511481996cc8afa44d9b",
            energy="80952.24999999859",
            cost="0.15859722222223646",
            digest="e4aa42d57668ff2a4ea9f00ec21a2bd5",
            journal="a5dedfb5d1a9bf4e6751c27a3e69f2f7"),
        "group": dict(
            events=4189,
            result="20d6f35a99c3c991320b5017f275f08d",
            energy="81601.09999999905",
            cost="0.16004722222223597",
            digest="c28d3f6cb53fe31c1c8881dc4505cc52",
            journal="d81cf4510640080b89672b2d920660b4"),
        "durable": dict(
            events=4182,
            result="61fe2c853f4209f52b6bd7e77d391132",
            energy="83690.39999999834",
            cost="0.1637152777777909",
            digest="dc635d6ab142c35fb71fb5a4f4ab6b1c",
            journal="2b0c831665b8271a5a483dadfcc42840"),
    }

    @pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
    def test_outcome_is_pinned(self, variant):
        spec = FleetSpec(**GOLDEN, **GOLDEN_VARIANTS[variant])
        storm = FleetStorm(spec, FaultPlan.from_spec(GOLDEN_CHAOS))
        outcome = storm.run().to_dict()
        del outcome["wall_s"], outcome["events_per_sec_wall"]
        journal = record_fleet(spec.to_spec(), chaos=GOLDEN_CHAOS).journal
        got = dict(
            events=outcome["events_total"],
            result=_blake(json.dumps(outcome, sort_keys=True).encode()),
            energy=repr(storm.energy_j),
            cost=repr(storm.cost_usd),
            digest=storm.state_digest().hex(),
            journal=_blake(journal.to_bytes()))
        assert got == self.PINS[variant]


class TestPowerCache:
    """A node's cached ``watts`` against the power formula, checked on
    every node on both sides of every barrier of the golden storms. A
    missed refresh moves ``energy_j`` but not ``state_digest()``, which
    leaves energy out, so only a direct check catches it."""

    @staticmethod
    def _expected_watts(node) -> float:
        if not node.alive:
            return 0.0
        profile = node.profile
        return profile.power_watts(min(len(node.services), profile.cores))

    @pytest.mark.parametrize("variant", sorted(GOLDEN_VARIANTS))
    def test_cached_watts_match_the_formula(self, variant):
        spec = FleetSpec(**GOLDEN, **GOLDEN_VARIANTS[variant])
        storm = FleetStorm(spec, FaultPlan.from_spec(GOLDEN_CHAOS))
        controller = storm.core.on_barrier
        seen = {"checks": 0, "revived": 0, "moved": 0}
        last = {node.id: (node.alive, frozenset(node.services))
                for node in storm.nodes_list}

        def check(index):
            for node in storm.nodes_list:
                assert node.watts == self._expected_watts(node), (
                    f"barrier {index}: {node!r} caches {node.watts} W")
                alive, services = last[node.id]
                seen["revived"] += node.alive and not alive
                seen["moved"] += services != node.services
                last[node.id] = (node.alive, frozenset(node.services))
            seen["checks"] += 1

        def on_barrier(index, when, fired):
            check(index)            # after mail: completions, revivals
            controller(index, when, fired)
            check(index)            # after node loss and admissions

        storm.core.on_barrier = on_barrier
        result = storm.run()
        assert seen["checks"] == 2 * result.barriers
        # every refresh site was reached: kill, revive, add and remove
        assert result.node_losses > 0 and seen["revived"] > 0
        assert result.completed > 0 and seen["moved"] > 0


class TestCalibration:
    def test_warm_migrations_ship_fewer_bytes(self):
        calibration = run_shared_store_migrations("nginx",
                                                  destinations=2,
                                                  warmup_steps=2000)
        assert calibration.warm_bp() > 0
        shipped = [t[0] for t in calibration.transfers]
        assert shipped[1] < shipped[0]
        d = calibration.to_dict()
        assert d["app"] == "nginx"
        assert len(d["transfers"]) == 2


class TestTemplates:
    def test_fleet_templates_come_from_app_registry(self):
        templates = fleet_templates()
        names = [t.name for t in templates]
        assert names == ["nginx", "redis"]
        for template in templates:
            assert template.image_bytes > 0
            assert template.arrival_rps > 0
