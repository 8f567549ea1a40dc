"""Tests for the cluster/energy simulation substrate."""

import pytest

from repro.apps import get_app
from repro.cluster import (BatchExperiment, EnergyMeter, EventQueue,
                           Network, SimNode, measure_job_template)
from repro.cluster.jobs import Job, JobTemplate
from repro.core.costs import (ethernet_link, infiniband_link, rpi_profile,
                              xeon_profile)
from repro.errors import ClusterError
from repro.isa import X86_ISA, ARM_ISA
from repro.vm import Machine


class TestEventQueue:
    def test_ordering(self):
        queue = EventQueue()
        seen = []
        queue.schedule(2.0, lambda: seen.append("b"))
        queue.schedule(1.0, lambda: seen.append("a"))
        queue.schedule(3.0, lambda: seen.append("c"))
        queue.run_until(10.0)
        assert seen == ["a", "b", "c"]
        assert queue.now == 10.0

    def test_fifo_tie_break(self):
        queue = EventQueue()
        seen = []
        queue.schedule(1.0, lambda: seen.append(1))
        queue.schedule(1.0, lambda: seen.append(2))
        queue.run_until(2.0)
        assert seen == [1, 2]

    def test_past_scheduling_rejected(self):
        queue = EventQueue()
        queue.schedule(1.0, lambda: None)
        queue.step()
        with pytest.raises(ClusterError):
            queue.schedule(0.5, lambda: None)

    @staticmethod
    def _traced_queue():
        """A queue whose events reschedule themselves, with an observer
        logging ``on_fire`` and each action logging the ``now`` it sees."""
        queue = EventQueue()
        trace = []
        queue.on_fire = lambda when, label: trace.append(
            ("fire", when, label, queue.now))

        def action(name, left):
            def run():
                trace.append(("run", name, queue.now))
                if left:
                    queue.schedule_in(0.5, action(name, left - 1), name)
            return run
        for name, when in (("b", 1.0), ("a", 1.0), ("c", 0.25)):
            queue.schedule(when, action(name, 3), name)
        return queue, trace

    def test_run_until_fires_like_step(self):
        stepped, expected = self._traced_queue()
        while not stepped.empty() and stepped.peek_key()[0] <= 2.0:
            stepped.step()
        queue, trace = self._traced_queue()
        assert queue.run_until(2.0, max_events=5) == 5
        assert queue.run_until(2.0) == len(expected) // 2 - 5
        assert trace == expected
        assert queue.now == 2.0

    def test_horizon_respected(self):
        queue = EventQueue()
        seen = []
        queue.schedule(5.0, lambda: seen.append("late"))
        queue.run_until(2.0)
        assert not seen
        queue.run_until(6.0)
        assert seen == ["late"]

    def test_events_can_schedule_events(self):
        queue = EventQueue()
        seen = []

        def first():
            seen.append("first")
            queue.schedule_in(1.0, lambda: seen.append("second"))

        queue.schedule(1.0, first)
        queue.run_until(5.0)
        assert seen == ["first", "second"]

    def test_max_events_stop_does_not_strand_the_clock(self):
        """When ``max_events`` stops the loop early, ``now`` must stay
        at the last fired event — advancing it to the horizon would
        make the still-queued events un-runnable (their neighbors
        would raise "cannot schedule before now")."""
        queue = EventQueue()
        seen = []
        for i in range(4):
            queue.schedule(1.0 + i, lambda i=i: seen.append(i))
        assert queue.run_until(10.0, max_events=2) == 2
        assert seen == [0, 1]
        assert queue.now == 2.0                  # not 10.0
        queue.schedule(2.5, lambda: seen.append("mid"))  # must not raise
        assert queue.run_until(10.0) == 3
        assert seen == [0, 1, "mid", 2, 3]
        assert queue.now == 10.0

    def test_shard_id_sits_in_the_merge_key(self):
        """Two shard queues firing at the same timestamp merge in
        (when, shard, seq) order — stable regardless of iteration
        order, which is what the sharded fleet core's canonical trace
        merge relies on."""
        low, high = EventQueue(shard=0), EventQueue(shard=3)
        high.schedule(1.0, lambda: None)
        low.schedule(1.0, lambda: None)
        assert low.peek_key() < high.peek_key()
        keys = sorted([high.peek_key(), low.peek_key()])
        assert [shard for _w, shard, _s in keys] == [0, 3]


class TestNodeAndEnergy:
    def test_power_calibration_xeon(self):
        # Paper: the Xeon draws 108 W running seven job threads.
        node = SimNode(xeon_profile(), job_slots=7)
        for _ in range(7):
            node.place(object())
        assert node.power_watts() == pytest.approx(108.0)

    def test_power_calibration_rpi(self):
        # Paper: a Pi running three job threads draws 5.1 W.
        node = SimNode(rpi_profile(), job_slots=3)
        for _ in range(3):
            node.place(object())
        assert node.power_watts() == pytest.approx(5.1)

    def test_slots(self):
        node = SimNode(rpi_profile(), job_slots=3)
        slots = [node.place(object()) for _ in range(3)]
        assert node.free_slots() == 0
        with pytest.raises(ClusterError):
            node.place(object())
        node.release(slots[0])
        assert node.free_slots() == 1
        with pytest.raises(ClusterError):
            node.release(slots[0])

    def test_energy_integration(self):
        node = SimNode(xeon_profile(), job_slots=7)
        meter = EnergyMeter([node])
        meter.advance_to(10.0)                       # idle for 10 s
        idle_j = meter.total_joules()
        assert idle_j == pytest.approx(45.0 * 10)
        for _ in range(7):
            node.place(object())
        meter.advance_to(20.0)                       # busy for 10 s
        assert meter.total_joules() == pytest.approx(idle_j + 108.0 * 10)

    def test_energy_backwards_rejected(self):
        meter = EnergyMeter([SimNode(xeon_profile())])
        meter.advance_to(5.0)
        with pytest.raises(ValueError):
            meter.advance_to(4.0)


class TestNetwork:
    def test_scp_copies_and_costs(self):
        network = Network(default_link=infiniband_link())
        a = Machine(X86_ISA, name="a")
        b = Machine(ARM_ISA, name="b")
        a.tmpfs.write("/img/x", b"\x00" * 1000)
        nbytes, seconds = network.scp(a, b, "/img")
        assert nbytes == 1000
        assert b.tmpfs.read("/img/x") == b"\x00" * 1000
        assert seconds > 0

    def test_scp_self_rejected(self):
        network = Network()
        a = Machine(X86_ISA, name="a")
        with pytest.raises(ClusterError):
            network.scp(a, a, "/img")

    def test_link_selection(self):
        network = Network(default_link=ethernet_link())
        network.connect("a", "b", infiniband_link())
        assert network.link_between("a", "b").name == "infiniband"
        assert network.link_between("b", "a").name == "infiniband"
        assert network.link_between("a", "c").name == "ethernet-1g"

    def test_infiniband_faster_than_ethernet(self):
        size = 5_000_000
        assert (infiniband_link().transfer_seconds(size)
                < ethernet_link().transfer_seconds(size))


@pytest.fixture(scope="module")
def cg_template():
    return measure_job_template(get_app("cg"), "B")


class TestJobTemplates:
    def test_measured_quantities(self, cg_template):
        assert cg_template.instructions > 1e10
        assert cg_template.migration_seconds > 0
        assert set(cg_template.cycles_per_instr) == {"x86_64", "aarch64"}

    def test_pi_slower_than_xeon(self, cg_template):
        ratio = cg_template.speed_ratio(xeon_profile(), rpi_profile())
        assert 1.5 < ratio < 6.0

    def test_job_remaining_accounting(self, cg_template):
        job = Job(cg_template)
        full = job.remaining_seconds_on(xeon_profile())
        job.remaining_fraction = 0.5
        assert job.remaining_seconds_on(xeon_profile()) == \
            pytest.approx(full / 2)


class TestBatchExperiment:
    def test_paper_shapes(self, cg_template):
        experiment = BatchExperiment(cg_template, duration_s=1800)
        results = experiment.sweep([0, 1, 3])
        base, one, three = results[0], results[1], results[3]
        # More Pis → strictly more completed jobs and better efficiency.
        assert base.completed < one.completed < three.completed
        assert base.jobs_per_kj < one.jobs_per_kj < three.jobs_per_kj
        # Paper's bands: +37–52 % throughput, +15–39 % efficiency at 3 Pis
        # (allow slack around the bands — this is a simulation).
        assert 20.0 < three.throughput_gain_over(base) < 60.0
        assert 8.0 < three.efficiency_gain_over(base) < 45.0

    def test_evictions_happen(self, cg_template):
        experiment = BatchExperiment(cg_template, duration_s=1800)
        result = experiment.run(pis=3)
        assert result.evictions > 0

    def test_no_pis_means_no_evictions(self, cg_template):
        experiment = BatchExperiment(cg_template, duration_s=1800)
        result = experiment.run(pis=0)
        assert result.evictions == 0

    def test_throughput_metric(self, cg_template):
        experiment = BatchExperiment(cg_template, duration_s=900)
        result = experiment.run(pis=0)
        assert result.throughput_per_hour == pytest.approx(
            result.completed * 4.0)
