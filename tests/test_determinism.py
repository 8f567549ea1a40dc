"""Determinism regressions: the invariants record/replay depends on.

The flight recorder assumes the simulated platform is deterministic:
the event queue fires equal-time events in FIFO order, the kernel
schedules threads in stable round-robin order, all policy randomness
flows through the seeded RNG service, and the rewriter's wall clock is
injectable. Each test here pins one of those invariants.
"""

from __future__ import annotations

import random

from repro.cluster.events import EventQueue
from repro.compiler import compile_source
from repro.core.rewriter import ProcessRewriter
from repro.core.rng import RngService
from repro.isa import X86_ISA
from repro.testing.lockstep import Track
from repro.vm import Machine

THREE_THREADS = """
global int mtx;
global int trace[64];
global int cursor;

func note(int who) {
    lock(&mtx);
    trace[cursor] = who;
    cursor = cursor + 1;
    unlock(&mtx);
}

func worker(int who) {
    int i;
    i = 0;
    while (i < 5) { note(who); i = i + 1; }
}

func main() -> int {
    int a; int b;
    a = spawn(worker, 1);
    b = spawn(worker, 2);
    worker(0);
    join(a);
    join(b);
    print(cursor);
    return 0;
}
"""


class TestEventQueueFifo:
    def test_equal_time_events_fire_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for i in range(50):
            queue.schedule(1.0, lambda i=i: fired.append(i), label=f"e{i}")
        while not queue.empty():
            queue.step()
        assert fired == list(range(50))

    def test_interleaved_times_stay_stable(self):
        queue = EventQueue()
        fired = []
        # Schedule in a scrambled order with many ties; replaying the
        # same schedule must fire identically.
        entries = [(t, i) for i in range(10) for t in (2.0, 1.0, 2.0)]
        for seq, (t, i) in enumerate(entries):
            queue.schedule(t, lambda s=seq: fired.append(s),
                           label=f"s{seq}")
        queue.run_until(10.0)
        by_time = sorted(range(len(entries)),
                         key=lambda s: (entries[s][0], s))
        assert fired == by_time

    def test_on_fire_observer_sees_exact_order(self):
        queue = EventQueue()
        seen = []
        queue.on_fire = lambda when, label: seen.append((when, label))
        queue.schedule(1.0, lambda: None, label="a")
        queue.schedule(1.0, lambda: None, label="b")
        queue.schedule(0.5, lambda: None, label="c")
        queue.run_until(2.0)
        assert seen == [(0.5, "c"), (1.0, "a"), (1.0, "b")]


class TestSchedulerDeterminism:
    def _trace(self, engine):
        """Every slice the scheduler ran, in order, and the output."""
        track = Track(compile_source(THREE_THREADS, "threads"), "x86_64",
                      engine)
        track.run()
        return track.calls, track.process.stdout()

    def test_round_robin_order_is_reproducible(self):
        first, out_first = self._trace("blocks")
        second, out_second = self._trace("blocks")
        assert first == second
        assert out_first == out_second

    def test_round_robin_order_matches_across_engines(self):
        blocks_order, blocks_out = self._trace("blocks")
        interp_order, interp_out = self._trace("interp")
        assert blocks_order == interp_order
        assert blocks_out == interp_out

    def test_round_robin_order_matches_under_chains(self):
        """Tier-3 chains retire whole multi-block stretches per call;
        the slice stream handed to the scheduler must not change."""
        chains_order, chains_out = self._trace("chains")
        interp_order, interp_out = self._trace("interp")
        assert chains_order == interp_order
        assert chains_out == interp_out


class TestRngService:
    def test_matches_ad_hoc_random(self):
        service = RngService(42)
        reference = random.Random(42)
        assert [service.randrange(1000, label="x") for _ in range(20)] \
            == [reference.randrange(1000) for _ in range(20)]

    def test_shuffle_matches_ad_hoc_random(self):
        service = RngService(7)
        reference = random.Random(7)
        a = list(range(32))
        b = list(range(32))
        service.shuffle(a, label="perm")
        reference.shuffle(b)
        assert a == b

    def test_observer_sees_every_draw(self):
        draws = []
        service = RngService(1, observer=lambda *d: draws.append(d))
        service.randrange(100, label="r")
        service.randint(0, 9, label="i")
        service.choice("abcd", label="c")
        service.shuffle(list(range(4)), label="s")
        assert [d[:2] for d in draws] == [
            ("rng", "r"), ("rng", "i"), ("rng", "c"), ("rng", "s")]

    def test_child_inherits_observer(self):
        draws = []
        parent = RngService(1, observer=lambda *d: draws.append(d),
                            name="parent")
        child = parent.child(2, "child")
        child.randrange(10, label="x")
        assert draws == [("child", "x", draws[0][2])]

    def test_same_seed_same_sequence(self):
        a = RngService(5)
        b = RngService(5)
        assert [a.randrange(1 << 30) for _ in range(10)] \
            == [b.randrange(1 << 30) for _ in range(10)]


class TestInjectableClock:
    def test_rewriter_uses_injected_clock(self):
        ticks = iter([10.0, 12.5])
        rewriter = ProcessRewriter(clock=lambda: next(ticks))
        assert rewriter.clock() == 10.0
        assert rewriter.clock() == 12.5

    def test_rewrite_report_timing_is_deterministic(self, tmp_path):
        from repro.compiler import compile_source
        from repro.core.policies.stack_shuffle import StackShufflePolicy
        from repro.core.runtime import DapperRuntime

        source = """
        global int acc;
        func bump(int i) -> int { acc = acc + i; return acc; }
        func main() -> int {
            int i;
            i = 0;
            while (i < 2000) { bump(i); i = i + 1; }
            print(acc);
            return 0;
        }
        """
        program = compile_source(source, "clocked")
        machine = Machine(X86_ISA)
        machine.tmpfs.write("/bin/t", program.binary("x86_64").to_bytes())
        process = machine.spawn_process("/bin/t")
        machine.step_all(2000)
        assert not process.exited
        runtime = DapperRuntime(machine, process)
        runtime.pause_at_equivalence_points()
        images = runtime.checkpoint()

        clock_values = iter([100.0, 100.25])
        rewriter = ProcessRewriter(clock=lambda: next(clock_values))
        policy = StackShufflePolicy(program.binary("x86_64"), seed=3,
                                    dst_exe_path="/bin/t.s")
        report = rewriter.rewrite(images, policy)[0]
        assert report.wall_seconds == 0.25
