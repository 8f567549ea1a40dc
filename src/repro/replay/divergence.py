"""Divergence pinpointing over recorded digest streams.

Two journals of the same scenario should carry bit-identical digest
streams. When they do not — a nondeterminism bug, a broken execution
engine, or an injected fault — this module locates the *first* quantum
whose digest differs, then reconstructs the machine state on both sides
at that quantum (by re-executing each journal under a
:class:`~repro.replay.recorder.StateAt` observer, the final digest
included) and byte-diffs the snapshots down to individual registers and
memory addresses.

The digest stream is searched with a binary search (the streams of a
deterministic run agree on a prefix and disagree on a suffix), then the
boundary is walked left so the reported index is always the minimal
diverging one even if the streams transiently re-converge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .digest import page_diff
from .engine import Replayer
from .journal import EV_DIGEST, Journal
from .recorder import StateAt


def bisect_digest_streams(a: Sequence[bytes],
                          b: Sequence[bytes]) -> Optional[int]:
    """Index of the first differing digest, or None if one stream is a
    prefix of the other (length mismatch alone is not a divergence —
    the shorter run simply stopped earlier)."""
    n = min(len(a), len(b))
    if n == 0 or a[:n] == b[:n]:
        return None
    lo, hi = 0, n - 1          # invariant: some index in [lo, hi] differs
    while lo < hi:
        mid = (lo + hi) // 2
        if a[lo:mid + 1] == b[lo:mid + 1]:
            lo = mid + 1
        else:
            hi = mid
            while hi > lo and a[hi - 1] != b[hi - 1]:
                hi -= 1        # walk left: guarantee minimality
    return lo


def bisect_last_transition(probe, lo: int, hi: int) -> Optional[int]:
    """Locate the last value transition over an indexed probe.

    ``probe(i)`` samples some observable (a digest, a watched memory
    word) at monotone checkpoint index ``i``. Assuming the samples form
    two blocks — an old-value prefix and a block equal to ``probe(hi)``
    — returns the smallest ``k`` in ``(lo, hi]`` with
    ``probe(k) == probe(hi)``, i.e. the checkpoint interval
    ``(k-1, k]`` containing the transition. Returns ``None`` when
    ``probe(lo) == probe(hi)`` (no transition visible at this
    granularity).

    This is the search the time-travel debugger's watchpoints ride on:
    each probe is one snapshot restore (O(1) re-execution), so locating
    the transition interval costs O(log snapshots) restores, and only
    the single interval is then micro-scanned. Like digest bisection,
    a value that changes and changes *back* entirely between two
    adjacent checkpoints is invisible — the caller's cadence bounds
    the blind spot.
    """
    if lo >= hi:
        return None
    target = probe(hi)
    if probe(lo) == target:
        return None
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if probe(mid) == target:
            hi = mid
        else:
            lo = mid
    return hi


class DivergenceReport:
    """First diverging quantum plus the state-level diff behind it."""

    def __init__(self, digest_index: int, instr: int,
                 digest_a: bytes, digest_b: bytes,
                 reg_diffs: List[Tuple], mem_diffs: List[Tuple[int, int, int]],
                 meta_diffs: List[Tuple]):
        #: index into the digest stream (== the diverging quantum when
        #: recording with digest_every=1)
        self.digest_index = digest_index
        #: instructions retired when the diverging digest was taken
        self.instr = instr
        self.digest_a = digest_a
        self.digest_b = digest_b
        #: [(pid, tid, reg_name, value_a, value_b), ...]
        self.reg_diffs = reg_diffs
        #: [(address, byte_a, byte_b), ...]
        self.mem_diffs = mem_diffs
        #: non-register, non-memory mismatches [(pid, field, a, b), ...]
        self.meta_diffs = meta_diffs

    @property
    def first_addr(self) -> Optional[int]:
        """Lowest diverging memory address (the offending byte)."""
        return self.mem_diffs[0][0] if self.mem_diffs else None

    def format(self) -> str:
        lines = [f"first divergence at digest #{self.digest_index} "
                 f"(instr {self.instr})",
                 f"  digest A: {self.digest_a.hex()}",
                 f"  digest B: {self.digest_b.hex()}"]
        for pid, tid, name, va, vb in self.reg_diffs:
            lines.append(f"  reg  pid={pid} tid={tid} {name}: "
                         f"{va:#x} != {vb:#x}")
        for addr, ba, bb in self.mem_diffs:
            lines.append(f"  mem  {addr:#x}: {ba:#04x} != {bb:#04x}")
        for pid, field, va, vb in self.meta_diffs:
            lines.append(f"  meta pid={pid} {field}: {va!r} != {vb!r}")
        if not (self.reg_diffs or self.mem_diffs or self.meta_diffs):
            lines.append("  (digests differ but snapshots compare equal "
                         "- output streams diverged)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (f"<DivergenceReport digest={self.digest_index} "
                f"instr={self.instr} regs={len(self.reg_diffs)} "
                f"mem={len(self.mem_diffs)}>")


def diff_states(snap_a: Dict, snap_b: Dict, mem_limit: int = 64
                ) -> Tuple[List, List, List]:
    """Byte-diff two :func:`~repro.replay.digest.capture_state` snapshots.

    Returns ``(reg_diffs, mem_diffs, meta_diffs)`` as stored on
    :class:`DivergenceReport`.
    """
    reg_diffs: List[Tuple] = []
    mem_diffs: List[Tuple[int, int, int]] = []
    meta_diffs: List[Tuple] = []
    for key in sorted(set(snap_a) | set(snap_b)):
        pa, pb = snap_a.get(key), snap_b.get(key)
        pid = key[1]
        if pa is None or pb is None:
            meta_diffs.append((pid, "process",
                               "present" if pa else "absent",
                               "present" if pb else "absent"))
            continue
        for tid in sorted(set(pa["threads"]) | set(pb["threads"])):
            ta, tb = pa["threads"].get(tid), pb["threads"].get(tid)
            if ta is None or tb is None:
                meta_diffs.append((pid, f"thread {tid}",
                                   "present" if ta else "absent",
                                   "present" if tb else "absent"))
                continue
            for field in ("pc", "flags", "tp"):
                if ta[field] != tb[field]:
                    reg_diffs.append((pid, tid, field,
                                      ta[field], tb[field]))
            for i, (ra, rb) in enumerate(zip(ta["regs"], tb["regs"])):
                if ra != rb:
                    reg_diffs.append((pid, tid, f"r{i}", ra, rb))
            if ta["status"] != tb["status"]:
                meta_diffs.append((pid, f"thread {tid} status",
                                   ta["status"], tb["status"]))
        for base in sorted(set(pa["pages"]) | set(pb["pages"])):
            if len(mem_diffs) >= mem_limit:
                break
            page_a, page_b = pa["pages"].get(base), pb["pages"].get(base)
            if page_a == page_b:
                continue
            mem_diffs.extend(page_diff(page_a, page_b, base,
                                       limit=mem_limit - len(mem_diffs)))
        for field in ("heap_end", "exited", "exit_code", "output"):
            if pa[field] != pb[field]:
                meta_diffs.append((pid, field, pa[field], pb[field]))
    return reg_diffs, mem_diffs, meta_diffs


def _digest_event(journal: Journal, index: int) -> Optional[Dict]:
    for event in journal.of_kind(EV_DIGEST):
        if event.get("a") == index:
            return event
    return None


def _state_at_digest(journal: Journal, index: int,
                     engine: Optional[str] = None) -> Dict:
    """Re-execute ``journal`` to digest ``index`` and copy its state."""
    at = StateAt(digests=[index])
    result = Replayer(journal, engine=engine).run(observer=at)
    if not result.stopped:
        at.capture_end(result.recorder)
    taken = at.states.get(("digest", index))
    return taken[2] if taken else {}


def pinpoint_divergence(journal_a: Journal, journal_b: Journal,
                        engine_b: Optional[str] = None,
                        mem_limit: int = 64) -> Optional[DivergenceReport]:
    """Locate and explain the first divergence between two journals.

    Returns ``None`` when the digest streams agree (one may be a prefix
    of the other). Otherwise re-executes *both* journals' scenarios up
    to the diverging digest — each from its own self-contained header,
    ``journal_b`` optionally on an overridden engine — captures
    byte-exact snapshots, and diffs them down to registers and memory
    addresses. A journal recorded with an injected fault re-injects it
    (the fault parameters live in the header), so the divergent side
    reproduces exactly.
    """
    stream_a = journal_a.digest_stream()
    stream_b = journal_b.digest_stream()
    index = bisect_digest_streams(stream_a, stream_b)
    if index is None:
        return None
    event = (_digest_event(journal_a, index)
             or _digest_event(journal_b, index) or {})
    reg_diffs, mem_diffs, meta_diffs = diff_states(
        _state_at_digest(journal_a, index),
        _state_at_digest(journal_b, index, engine_b),
        mem_limit=mem_limit)
    return DivergenceReport(index, event.get("instr", 0),
                            stream_a[index], stream_b[index],
                            reg_diffs, mem_diffs, meta_diffs)


def pinpoint_by_reexecution(journal: Journal,
                            engine: Optional[str] = None,
                            mem_limit: int = 64
                            ) -> Optional[DivergenceReport]:
    """Replay ``journal`` (optionally on the other engine) and pinpoint
    any divergence between the recording and the fresh re-execution.

    Returns ``None`` for a faithful replay — the normal case, and what
    the CI replay-smoke job asserts.
    """
    replayed = Replayer(journal, engine=engine).run()
    return pinpoint_divergence(journal, replayed.journal,
                               engine_b=engine, mem_limit=mem_limit)
