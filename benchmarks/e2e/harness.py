"""The load generator every workload shares: one process, one client, a
closed loop (the next op is issued only after the previous one
completes and was checked), no threads.

A workload is a function of a :class:`Run`. It does its set-up, then
hands :meth:`Run.loop` a ``do_round(index)`` callable that performs one
*round* -- a fixed, seed-determined group of ops -- checks each op's
output through :meth:`Run.check`, and returns ``(ops, work)``: the
``(member, seconds)`` wall time of each op itself, keyed by which member
of the round's op mix it was, and the work units the round completed.

* ``--trace 0``: rounds repeat until ``--seconds`` have passed (and at
  least ``counted`` rounds ran). ``op_ms_p10`` is the sum over the
  round's members of each member's fastest-decile wall time, and
  ``work_per_s`` the fastest-decile round rate. Interference on a
  shared sandbox only ever adds time: across identical runs here the
  decile repeats within 5 % where the median of the same samples moves
  by 15 %.
* ``--trace 1``: ``untraced`` rounds run as above, then the wrappers of
  :mod:`tracing` are installed and exactly ``counted`` rounds are
  recorded; counts read during them repeat exactly for one seed, and
  ``bench.trace_overhead_x`` compares the two groups of rounds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import resource
import statistics
import time
from typing import Callable, Dict, List, Optional, Tuple

import metrics
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(HERE, "out")
EXPECTED_PATH = os.path.join(HERE, "expected.json")


def blake(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=16).hexdigest()


def geomean(values) -> float:
    values = list(values)
    return statistics.geometric_mean(values) if values else 0.0


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile: the value at index floor(q * n)."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def load_expected() -> dict:
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


class Run:
    """One workload run: its seed, its clock, its verdicts, its numbers."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, smoke: bool, t0: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.smoke = smoke
        self.t0 = t0
        #: every seed-dependent choice of a workload draws from here
        self.rng = random.Random(f"{workload}/{seed}")
        self.expected = load_expected()
        self.tracer: Optional[tracing.Tracer] = \
            tracing.Tracer() if trace else None
        self.tracing_on = False
        self._self_by_root = None
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.setup_s = 0.0
        #: member of the round's op mix -> wall seconds of each such op
        self.op_s: Dict[str, List[float]] = {}
        self.untraced_op_s: Dict[str, List[float]] = {}
        #: work units per host second of each whole round
        self.rates: List[float] = []
        #: per-layer metrics the workload fills in (trace runs only)
        self.layer: Dict[str, float] = {}
        #: exact counts summed over the counted rounds (trace runs only)
        self.counts: Dict[str, float] = {}
        self.counting = False
        #: every self-pinned value seen, for --rebless
        self.pins: Dict[str, dict] = {}
        self.loadavg = os.getloadavg()[0]

    # -- verdicts ------------------------------------------------------------

    def check(self, ok: bool, what: str) -> bool:
        """One checked output: counts as attempted, and as failed when
        it does not match its reference."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok

    def check_app(self, key: str, stdout: str, exit_code,
                  instr: Optional[Dict[str, int]] = None) -> bool:
        """Compare one finished program against expected.json (pinned
        from a per-step-interpreter native run)."""
        ref = self.expected["apps"].get(key)
        if ref is None:
            return self.check(False, f"{key}: no pinned reference")
        problems = []
        if blake(stdout) != ref["stdout_blake2b"]:
            problems.append("stdout differs")
        if exit_code != ref["exit_code"]:
            problems.append(f"exit {exit_code} != {ref['exit_code']}")
        for arch, total in (instr or {}).items():
            if total != ref["instr_total"][arch]:
                problems.append(f"instr_total[{arch}] {total} != "
                                f"{ref['instr_total'][arch]}")
        return self.check(not problems, f"{key}: {', '.join(problems)}")

    def check_pin(self, section: str, key: str, value) -> bool:
        """Compare a self-pinned exact value (drift detector). Values
        for seeds expected.json does not cover are not checked, and
        --smoke, whose constants differ, checks none."""
        self.pins.setdefault(section, {})[key] = value
        ref = self.expected.get(section, {}).get(key)
        if ref is None or self.smoke:
            return True
        return self.check(value == ref,
                          f"{section}.{key}: {value} != pinned {ref}")

    # -- tracing -------------------------------------------------------------

    def span(self, name: str):
        """Explicit span around a call the benchmark itself makes into a
        layer; free when tracing is off."""
        if not self.tracing_on:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name: str):
        span = self.tracer.begin(name)
        try:
            yield span
        finally:
            self.tracer.end(span)

    def count(self, name: str, amount) -> None:
        if self.counting:
            self.counts[name] = self.counts.get(name, 0) + amount

    # -- the loop ------------------------------------------------------------

    def loop(self, do_round: Callable[[int], Tuple[list, float]],
             counted: int, untraced: int) -> None:
        self.setup_s = time.perf_counter() - self.t0
        deadline = self.t0 + self.setup_s + self.seconds
        index = 0
        while True:
            if self.tracer is None:
                if index >= counted and time.perf_counter() >= deadline:
                    break
            elif index == untraced:
                tracing.install(self.tracer)
                self.tracing_on = self.counting = True
            elif index == untraced + counted:
                break
            start = time.perf_counter()
            with self.span("round"):
                ops, work = do_round(index)
            wall = time.perf_counter() - start
            plain = self.tracer is not None and not self.tracing_on
            samples = self.untraced_op_s if plain else self.op_s
            for member, seconds in ops:
                samples.setdefault(member, []).append(seconds)
            if not plain:
                self.rates.append(work / wall)
            index += 1
        self.counting = False
        # Peak memory of set-up + loop: the tear-down's run-to-exit of the
        # residents compiles code the loop never needed.
        self.peak_rss_kb = max(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        # Wrappers stay installed for the workload's tear-down and
        # extras: recover, scrub, fsck and replay want spans too.

    # -- results -------------------------------------------------------------

    def span_ms(self, name: str) -> float:
        """Median over the counted rounds of the self time spans called
        ``name`` took in one round, in ms (0 when the layer is absent)."""
        if self._self_by_root is None:      # rounds are over: compute once
            self._self_by_root = self.tracer.self_by_root()
        by_root = self._self_by_root
        rounds = by_root.get("round", {})
        mine = by_root.get(name, {})
        per_round = [mine.get(root, 0.0) for root in rounds]
        if not per_round or not any(per_round):
            return 0.0
        return statistics.median(per_round) * 1e3

    def round_count(self, name: str, key: str) -> int:
        """Sum of one count over the spans recorded inside rounds."""
        spans = self.tracer.spans
        return sum(span[tracing.COUNTS].get(key, 0) for span in spans
                   if span[tracing.NAME] == name
                   and spans[span[tracing.ROOT]][tracing.NAME] == "round")

    def end_to_end(self) -> Dict[str, float]:
        return {
            "op_ms_p10": sum(percentile(samples, 0.10)
                             for samples in self.op_s.values()) * 1e3,
            "work_per_s": percentile(self.rates, 0.90),
            "peak_rss_mb": self.peak_rss_kb / 1024.0,
            "setup_s": self.setup_s,
        }

    def per_layer(self) -> Dict[str, float]:
        tracer = self.tracer
        layer = dict(self.layer)
        layer["bench.trace_overhead_x"] = (
            sum(statistics.median(v) for v in self.op_s.values())
            / sum(statistics.median(v)
                  for v in self.untraced_op_s.values()))
        layer["bench.self_time_coverage"] = tracer.coverage()
        layer["bench.spans"] = len(tracer.spans)
        layer["bench.loadavg_start"] = self.loadavg
        layer["bench.noisy"] = int(self.loadavg > (os.cpu_count() or 1))
        for name in ("vm.step_all", "runtime.pause", "criu.dump",
                     "criu.restore", "criu.content_digest", "criu.save",
                     "rewriter.rewrite", "verify.verify",
                     "verify.page_digests", "store.put",
                     "store.materialize", "store.plan", "store.ship",
                     "replay.on_slice"):
            layer.setdefault(name + "_ms", self.span_ms(name))
        known = {name for name, *_ in metrics.PER_LAYER}
        unknown = sorted(set(layer) - known)
        if unknown:
            raise KeyError(f"per-layer metrics not in metrics.py: {unknown}")
        return {name: layer.get(name, 0) for name, *_ in metrics.PER_LAYER}

    def result(self) -> dict:
        """The object the driver reads from the last line of stdout."""
        values = self.per_layer() if self.tracer else self.end_to_end()
        units = metrics.units()
        if self.tracer:
            os.makedirs(OUT_DIR, exist_ok=True)
            self.tracer.write_chrome(
                os.path.join(OUT_DIR, f"trace_{self.workload}.json"),
                f"{self.workload} seed={self.seed}")
            self.tracer.unpatch()
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()},
        }
