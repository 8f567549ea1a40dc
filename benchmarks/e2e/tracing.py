"""Span recording from outside the program.

No file under ``src/`` knows about tracing (in-program spans are
ROADMAP item 1). Under ``--trace 1`` the benchmark wraps the layers'
public functions *from here* -- attribute patches on the classes and on
the importing module's globals -- and records one span per call: name,
start, end, the span that caused it, and the root span of the round it
belongs to. Spans stay in memory and are written out once, as a
Chrome-trace JSON (open in ``chrome://tracing`` or ui.perfetto.dev).

A layer's self time is its span's duration minus the part its child
spans cover; the self times of one round therefore sum to the round's
root span exactly.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

NAME, START, END, PARENT, ROOT, COUNTS = range(6)


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or -1, root index, counts]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._patched: List[tuple] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str) -> list:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        root = self.spans[parent][ROOT] if parent >= 0 else index
        span = [name, time.perf_counter(), 0.0, parent, root, {}]
        self.spans.append(span)
        self._stack.append(index)
        return span

    def end(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()

    def add(self, name: str, start: float, end: float) -> None:
        """Record a span timed elsewhere (a child process times its own
        phases) under the currently open span."""
        span = self.begin(name)
        span[START] = start
        self._stack.pop()
        span[END] = end

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str,
             note: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper; ``note``
        turns the call's result into counts stored on the span."""
        original = owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)
        begin, end = self.begin, self.end

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span = begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                end(span)
            if note is not None:
                span[COUNTS].update(note(result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------------

    def self_seconds(self) -> List[float]:
        """Self time per span, aligned with ``spans``."""
        own = [span[END] - span[START] for span in self.spans]
        for span in self.spans:
            if span[PARENT] >= 0:
                own[span[PARENT]] -= span[END] - span[START]
        return own

    def self_by_root(self) -> Dict[str, Dict[int, float]]:
        """name -> {root index -> summed self seconds}."""
        out: Dict[str, Dict[int, float]] = defaultdict(
            lambda: defaultdict(float))
        for span, own in zip(self.spans, self.self_seconds()):
            out[span[NAME]][span[ROOT]] += own
        return out

    def coverage(self) -> float:
        """Sum of self times over sum of root spans; 1.0 unless a span
        was left open or timed outside its parent."""
        roots = sum(span[END] - span[START] for span in self.spans
                    if span[PARENT] < 0)
        return sum(self.self_seconds()) / roots if roots else 1.0

    # -- export --------------------------------------------------------------

    def write_chrome(self, path: str, process_name: str) -> None:
        if not self.spans:
            events = []
        else:
            t0 = min(span[START] for span in self.spans)
            events = [{
                "name": span[NAME], "cat": span[NAME].split(".")[0],
                "ph": "X", "pid": 1, "tid": 1,
                "ts": (span[START] - t0) * 1e6,
                "dur": (span[END] - span[START]) * 1e6,
                "args": dict(span[COUNTS], id=index, parent=span[PARENT],
                             root=span[ROOT]),
            } for index, span in enumerate(self.spans)]
        events.append({"name": "process_name", "ph": "M", "pid": 1,
                       "args": {"name": process_name}})
        with open(path, "w") as handle:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, handle)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer a workload crosses.

    Functions another module imported by name (``from x import f``) are
    patched in the *importing* module's globals, which is where the call
    site looks them up.
    """
    from repro.core import migration, runtime
    from repro.core.rewriter import ProcessRewriter
    from repro.core.runtime import DapperRuntime
    from repro.criu.images import ImageSet
    from repro.replay.recorder import FlightRecorder
    from repro.store import CheckpointStore
    from repro import verify
    from repro.verify import ImageVerifier
    from repro.vm.kernel import Machine

    def rewrite_counts(reports):
        return {"frames": sum(r.stats.get("frames", 0) for r in reports),
                "bytes_before": sum(r.bytes_before for r in reports)}

    def repair_counts(result):
        _fixed, verdict = result
        return {"checks": verdict.checks,
                "findings": len(verdict.findings) + len(verdict.repaired)}

    wrap = tracer.wrap
    wrap(Machine, "step_all", "vm.step_all")
    wrap(DapperRuntime, "pause_at_equivalence_points", "runtime.pause")
    wrap(runtime, "dump_process", "criu.dump")
    wrap(migration, "restore_process", "criu.restore")
    wrap(ImageSet, "content_digest", "criu.content_digest")
    wrap(ImageSet, "save", "criu.save")
    wrap(ProcessRewriter, "rewrite", "rewriter.rewrite", rewrite_counts)
    wrap(migration, "image_page_digests", "verify.page_digests")
    wrap(ImageVerifier, "repair", "verify.verify", repair_counts)
    # materialize(verify=True) imports verify_images from the package at
    # call time, so the package attribute is the call site's lookup.
    wrap(verify, "verify_images", "verify.verify",
         lambda report: {"checks": report.checks,
                         "findings": len(report.findings)})
    wrap(CheckpointStore, "put", "store.put",
         lambda put: {"new_chunks": put.new_chunks,
                      "dup_chunks": put.dup_chunks,
                      "logical_bytes": put.logical_bytes})
    wrap(CheckpointStore, "materialize", "store.materialize")
    wrap(CheckpointStore, "gc", "store.gc")
    wrap(migration, "plan_transfer", "store.plan")
    wrap(migration, "ship", "store.ship",
         lambda shipped: {"bytes_shipped": shipped})
    wrap(FlightRecorder, "on_slice", "replay.on_slice")
