"""Whole-machine state digests for the flight recorder.

A digest folds every piece of architecturally-visible state the
simulated kernel owns into 16 bytes: for each process (in deterministic
order) the kernel-visible fields (exit state, heap break, lock table,
instruction/cycle totals, accumulated stdout), every thread's registers
+ pc + flags + TLS pointer + status, the VMA layout, and a content hash
of every *populated, non-zero* page of the address space. Zero pages
are skipped so that a page lazily materialized as zeros digests the
same as an untouched one — vanilla and post-copy restores, and both
execution engines, therefore produce identical streams for identical
executions.

Digests are engine-independent by construction (the superblock engine
retires instruction-for-instruction identical state to the per-step
interpreter at every scheduling-slice boundary) and are compared
per-segment across a cross-ISA migration (the pre-migration segment of
record and replay runs on the source ISA, the post-migration segment on
the destination ISA, so like is always compared with like).

**One fold, memoised leaves.** There is a single implementation,
:meth:`DigestState.digest`: the byte string fed to the top-level hash
is the concatenation of per-process *leaves*, and a long-lived
:class:`DigestState` (one per :class:`~repro.replay.recorder.
FlightRecorder`) reuses a leaf from the previous digest only after an
**exact** validity test — a memo entry is never consulted without it:

* *page leaf* ``pack("<Q", base) + blake2b(page)`` (empty for a zero
  page): valid while the live ``bytearray`` compares equal to the
  immutable ``bytes`` snapshot it was hashed from. A 4 KB compare is
  ~40x cheaper than the hash and needs no dirty bit — the tier-2/3
  site caches write page stores directly, so none could be trusted —
  which is why bit flips, ptrace pokes, ``install_page`` and lazy
  page-ins are all seen. Dropped pages leave the memo when the page
  count says so.
* *layout leaf* (sorted VMAs, packed): valid while it was built from
  this very ``AddressSpace`` at its current ``layout_version``.
* *output leaf* (16-byte hash of accumulated stdout): valid while the
  process's chunk list is the same object with no new chunk.

Registers, pc, flags, counters, locks and exit state are never
memoised. :func:`machine_digest` runs the same fold on a fresh state,
so "long-lived state == fresh state" is the whole correctness claim
(pinned after every slice by the ``memo_fresh`` oracle of
:mod:`repro.testing.lockstep`). The memo costs one
4 KB snapshot per populated non-zero page of each live process;
:meth:`DigestState.forget` / :meth:`DigestState.clear` free it.
"""

from __future__ import annotations

import hashlib
import struct
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Tuple

from ..mem.paging import PAGE_SIZE

if TYPE_CHECKING:
    from ..mem.address_space import AddressSpace
    from ..vm.kernel import Machine, Process

DIGEST_SIZE = 16

_ZERO_PAGE = bytes(PAGE_SIZE)
_U64 = 0xFFFFFFFFFFFFFFFF
_STATUS_CODES = {"running": 0, "trapped": 1, "stopped": 2, "dead": 3}
_PROCESS = struct.Struct("<QqqQQ").pack
_LOCK = struct.Struct("<QQ").pack
_VMA = struct.Struct("<QQB").pack
_BASE = struct.Struct("<Q").pack

#: memo value of every all-zero page: shared snapshot, empty leaf
_ZERO_LEAF = (_ZERO_PAGE, b"")


def _blake(data: bytes = b""):
    return hashlib.blake2b(data, digest_size=DIGEST_SIZE)


@lru_cache(maxsize=None)
def _thread_packer(registers: int):
    """Packs tid, status, pc, flags, tp, instr_count and the registers
    of a thread of an ISA with ``registers`` registers."""
    return struct.Struct(f"<QBQqQQ{registers}q").pack


class _Leaves:
    """The memoised digest leaves of one process (see module docs)."""

    __slots__ = ("pages", "aspace", "layout_version", "layout",
                 "chunks", "consumed", "out_hash", "output")

    def __init__(self):
        #: page base -> (snapshot the leaf was hashed from, leaf)
        self.pages: Dict[int, Tuple[bytes, bytes]] = {}
        self.aspace: Optional["AddressSpace"] = None
        self.layout_version = -1
        self.layout = b""
        self.chunks: Optional[List[str]] = None
        self.consumed = 0
        self.out_hash = _blake()
        self.output = b""

    def page_leaves(self, aspace: "AddressSpace") -> List[bytes]:
        """The leaf of every populated page, in address order. Brings
        ``pages`` up to date with the live address space, re-hashing
        exactly the pages whose bytes changed."""
        pages = aspace._pages
        memo = self.pages
        out = []
        for base in sorted(pages):
            store = pages[base]
            hit = memo.get(base)
            if hit is None or store != hit[0]:
                if store == _ZERO_PAGE:
                    hit = _ZERO_LEAF
                else:
                    snapshot = bytes(store)
                    hit = (snapshot, _BASE(base) + _blake(snapshot).digest())
                memo[base] = hit
            out.append(hit[1])
        if len(memo) > len(pages):      # a page was dropped or unmapped
            for base in [b for b in memo if b not in pages]:
                del memo[base]
        return out

    def current_layout(self, aspace: "AddressSpace") -> bytes:
        if (aspace is not self.aspace
                or aspace.layout_version != self.layout_version):
            self.layout = b"".join(
                _VMA(vma.start, vma.end, int(vma.prot)) + vma.name.encode()
                for vma in sorted(aspace.vmas, key=lambda v: v.start))
            self.aspace = aspace
            self.layout_version = aspace.layout_version
        return self.layout

    def current_output(self, chunks: List[str]) -> bytes:
        restart = chunks is not self.chunks or len(chunks) < self.consumed
        if restart:
            self.chunks = chunks
            self.consumed = 0
            self.out_hash = _blake()
        if restart or len(chunks) > self.consumed:
            for chunk in chunks[self.consumed:]:
                self.out_hash.update(chunk.encode("utf-8", "surrogatepass"))
            self.consumed = len(chunks)
            self.output = self.out_hash.copy().digest()
        return self.output


class DigestState:
    """The digest fold plus its per-process leaf memo.

    Long-lived (one per recorder, replay or debug world) it makes a
    digest cost what changed since the previous one; fresh, it is the
    from-scratch digest. Both give the same bytes: every memoised leaf
    is re-validated against live state before use (module docs).
    """

    def __init__(self):
        self._leaves: Dict["Process", _Leaves] = {}

    def _leaves_of(self, process: "Process") -> _Leaves:
        leaves = self._leaves.get(process)
        if leaves is None:
            leaves = self._leaves[process] = _Leaves()
        return leaves

    def forget(self, process: "Process") -> None:
        """Drop a (killed) process's leaves and the reference to it."""
        self._leaves.pop(process, None)

    def clear(self) -> None:
        self._leaves.clear()

    def digest(self, machines: Iterable["Machine"]) -> bytes:
        """Digest the full state of ``machines`` (in the given order)."""
        parts: List[bytes] = []
        for machine in machines:
            parts.append(machine.isa.name.encode())
            parts.append(b"|")
            for pid in sorted(machine.processes):
                self._fold_process(parts, machine.processes[pid])
        return _blake(b"".join(parts)).digest()

    def _fold_process(self, parts: List[bytes], process: "Process") -> None:
        leaves = self._leaves_of(process)
        parts.append(_PROCESS(
            process.pid, process.heap_end,
            -1 if process.exit_code is None else process.exit_code,
            process.instr_total, process.cycle_total))
        parts.append(b"X" if process.exited else b"r")
        parts.append(process.isa.name.encode())
        parts.append(leaves.current_output(process.output))
        locks = process.locks
        for addr in sorted(locks):
            parts.append(_LOCK(addr & _U64, locks[addr] & _U64))
        threads = process.threads
        for tid in sorted(threads):
            thread = threads[tid]
            regs = thread.regs
            parts.append(_thread_packer(len(regs))(
                thread.tid, _STATUS_CODES[thread.status], thread.pc & _U64,
                thread.flags, thread.tp & _U64, thread.instr_count, *regs))
        aspace = process.aspace
        parts.append(leaves.current_layout(aspace))
        parts += leaves.page_leaves(aspace)

    def capture(self, machines: Iterable["Machine"]) -> Dict:
        """Deep-copy the architecturally-visible state of ``machines``.

        The returned structure is what :func:`repro.replay.divergence.
        diff_states` consumes: per (machine-index, pid) — registers and
        pc per thread, and the populated non-zero pages as immutable
        bytes (the memo's own snapshots where they are still current,
        so an unchanged page is not copied again).
        """
        snapshot: Dict = {}
        for index, machine in enumerate(machines):
            for pid in sorted(machine.processes):
                process = machine.processes[pid]
                threads = {}
                for tid in sorted(process.threads):
                    t = process.threads[tid]
                    threads[tid] = {
                        "regs": list(t.regs), "pc": t.pc, "flags": t.flags,
                        "tp": t.tp, "status": t.status,
                        "instr_count": t.instr_count,
                    }
                leaves = self._leaves_of(process)
                leaves.page_leaves(process.aspace)
                pages = {base: leaves.pages[base][0]
                         for base in process.aspace._pages
                         if leaves.pages[base][1]}
                snapshot[(index, pid)] = {
                    "isa": process.isa.name,
                    "threads": threads,
                    "pages": pages,
                    "heap_end": process.heap_end,
                    "exited": process.exited,
                    "exit_code": process.exit_code,
                    "output": process.stdout(),
                    "instr_total": process.instr_total,
                    "cycle_total": process.cycle_total,
                }
        return snapshot


def machine_digest(machines: Iterable["Machine"]) -> bytes:
    """The from-scratch digest: the one fold, run on a fresh state."""
    return DigestState().digest(machines)


def capture_state(machines: Iterable["Machine"]) -> Dict:
    """A byte-exact state snapshot taken with no memo to draw on (see
    :meth:`DigestState.capture`)."""
    return DigestState().capture(machines)


def page_diff(a: bytes, b: bytes, base: int,
              limit: int = 32) -> List[Tuple[int, int, int]]:
    """Byte-level differences between two page images.

    Returns up to ``limit`` ``(address, byte_a, byte_b)`` tuples.
    """
    out: List[Tuple[int, int, int]] = []
    for offset, (ba, bb) in enumerate(zip(a, b)):
        if ba != bb:
            out.append((base + offset, ba, bb))
            if len(out) >= limit:
                break
    return out
