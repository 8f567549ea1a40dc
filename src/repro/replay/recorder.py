"""The flight recorder: journaling hooks, fault injection, state capture.

A :class:`FlightRecorder` is attached to one or more
:class:`~repro.vm.kernel.Machine` instances. The kernel notifies it —
only when one is attached; the disabled path is a single ``is None``
test per scheduling slice — after every scheduling slice, syscall,
trap, spawn, restore and kill. The recorder appends events to its
:class:`~repro.replay.journal.Journal` and, every ``digest_every``
slices, folds the full machine state into a digest event.

Two extra facilities make the recorder the replay/divergence engine's
workhorse:

* **Deterministic fault injection** — a :class:`BitFlip` flips one bit
  of guest memory at an exact scheduling-slice boundary. Slice indices
  are engine-independent, so an injected fault reproduces exactly on
  either engine, which is what lets the divergence detector re-execute
  a faulty run to any digest point.
* **State capture** — :class:`StateAt`, a :class:`ReplayObserver`,
  copies a byte-exact state snapshot at instruction targets or digest
  indices and raises :class:`ReplayStop` after the last one. Replays
  use it to reconstruct the machine state at an arbitrary quantum (the
  ``seek`` operation and the byte-level divergence diff).
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Dict, Iterable, List, Optional, Set,
                    Tuple)

from ..errors import ReproError
from ..mem.paging import page_align_down
from . import journal as jn
from .digest import DigestState

if TYPE_CHECKING:
    from ..vm.cpu import ThreadContext
    from ..vm.kernel import Machine, Process


class ReplayObserver:
    """Callbacks fired by a :class:`FlightRecorder` as a run progresses.

    This is the replay engine's extension point: :class:`StateAt`
    copies machine state from :meth:`after_slice`, and the time-travel
    debugger's snapshot capturer dumps machine state from
    :meth:`after_event` / :meth:`on_mutation`. Every callback runs at a
    *safe point* — no machine is mid-slice — and receives the recorder,
    through which the attached machines, the journal so far, and the
    slice/instruction counters are all reachable. An observer may raise
    :class:`ReplayStop` to end a replay there. The default
    implementations do nothing.
    """

    def on_recorder(self, recorder: "FlightRecorder") -> None:
        """The recorder this observer was handed to, at construction."""

    def after_slice(self, recorder: "FlightRecorder") -> None:
        """One scheduling slice (and its digest, if due) was journaled."""

    def after_event(self, recorder: "FlightRecorder", event: Dict) -> None:
        """A non-slice event (spawn/restore/migrate/...) was journaled."""

    def on_mutation(self, recorder: "FlightRecorder", label: str) -> None:
        """Guest state was written *outside* any journaled event (e.g.
        the runtime poking ``__dapper_flag`` over ptrace). Journal-driven
        re-execution cannot reproduce these writes, so seekers must
        anchor a snapshot here."""


class ReplayStop(ReproError):
    """Raised by an observer to end a replay at a slice boundary; the
    replay engine returns the partial run as a stopped result."""

    def __init__(self, slice_index: int, digest_index: int):
        super().__init__(f"replay stopped at slice {slice_index} "
                         f"(digest {digest_index})")
        self.slice_index = slice_index
        self.digest_index = digest_index


class BitFlip:
    """Flip bit ``bit`` of the byte at ``addr`` after slice ``at_slice``.

    The flip bypasses VMA protection checks (like a cosmic ray would)
    but not the address space: an untouched page is materialized the
    way any first write does it (so a lazy post-copy page is paged in
    first) and the page is marked dirty. It lands at the
    scheduling-slice boundary, a deterministic, engine-independent
    point.
    """

    def __init__(self, at_slice: int, addr: int, bit: int = 0):
        if not 0 <= bit <= 7:
            raise ValueError(f"bit must be 0..7, got {bit}")
        self.at_slice = at_slice
        self.addr = addr
        self.bit = bit
        self.fired = False

    def fire(self, machines: List["Machine"]) -> bool:
        base = page_align_down(self.addr)
        for machine in machines:
            for pid in sorted(machine.processes):
                aspace = machine.processes[pid].aspace
                if aspace.page(base) is None \
                        and aspace.find_vma(self.addr) is None:
                    continue
                # A mapped-but-untouched page is materialized by the
                # write, so the flip lands even on lazily-backed pages.
                byte = aspace.read(self.addr, 1, check=False)[0]
                aspace.write(self.addr, bytes([byte ^ (1 << self.bit)]),
                             check=False)
                self.fired = True
                return True
        return False

    def header_fields(self) -> Dict[str, int]:
        return {"fault_slice": self.at_slice, "fault_addr": self.addr,
                "fault_bit": self.bit}

    @classmethod
    def from_header(cls, header: Dict) -> Optional["BitFlip"]:
        if "fault_slice" not in header:
            return None
        return cls(header["fault_slice"], header.get("fault_addr", 0),
                   header.get("fault_bit", 0))


class FlightRecorder:
    """Journals one run of one or more machines.

    ``digest_every`` is the digest cadence in scheduling slices (0
    disables periodic digests; a final digest is always emitted by
    :meth:`finalize`). ``record_syscalls`` journals every syscall's
    number, arguments and result — cheap, and it turns a divergence in
    kernel interaction into an immediately visible journal diff.

    Digests go through one long-lived :class:`~repro.replay.digest.
    DigestState` (``digest_state``), so a digest re-hashes only the
    pages whose bytes changed since the previous one; every memoised
    leaf is re-validated exactly, so the stream is bit-identical to
    from-scratch digests. A process's leaves (and the only reference
    the recorder holds to it) are dropped when it is killed, the rest
    at :meth:`finalize`.
    """

    def __init__(self, journal: Optional[jn.Journal] = None,
                 digest_every: int = 1, record_syscalls: bool = True,
                 fault: Optional[BitFlip] = None,
                 observer: Optional[ReplayObserver] = None):
        self.journal = journal if journal is not None else jn.Journal()
        self.digest_every = digest_every
        self.record_syscalls = record_syscalls
        self.fault = fault
        self.observer = observer
        if observer is not None:
            observer.on_recorder(self)
        self.machines: List["Machine"] = []
        self.slices = 0
        self.instructions = 0
        self.digest_count = 0
        self.finalized = False
        self.digest_state = DigestState()

    # -- wiring -----------------------------------------------------------

    def attach(self, machine: "Machine") -> "FlightRecorder":
        if machine.recorder is not None and machine.recorder is not self:
            raise ReproError(f"machine {machine.name} already has a recorder")
        machine.recorder = self
        self.machines.append(machine)
        return self

    def detach_all(self) -> None:
        for machine in self.machines:
            if machine.recorder is self:
                machine.recorder = None

    # -- kernel hooks -----------------------------------------------------

    def on_slice(self, machine: "Machine", process: "Process",
                 thread: "ThreadContext", budget: int,
                 executed: int) -> None:
        """One scheduling slice retired ``executed`` instructions."""
        self.slices += 1
        self.instructions += executed
        # Built in place: Journal.append's per-field None filter is
        # measurable at one event per slice.
        self.journal.events.append(
            {"kind": jn.EV_SCHED, "pid": process.pid, "tid": thread.tid,
             "instr": self.instructions, "a": budget, "b": executed})
        fault = self.fault
        if fault is not None and not fault.fired \
                and self.slices >= fault.at_slice:
            if fault.fire(self.machines):
                event = self.journal.append(jn.EV_FAULT,
                                            instr=self.instructions,
                                            a=fault.addr, b=fault.bit)
                if self.observer is not None:
                    self.observer.after_event(self, event)
        if self.digest_every and self.slices % self.digest_every == 0:
            self._emit_digest()
        if self.observer is not None:
            self.observer.after_slice(self)

    def on_syscall(self, machine: "Machine", process: "Process",
                   thread: "ThreadContext", number: int, args: List[int],
                   result: Optional[int]) -> None:
        if self.record_syscalls:
            self.journal.append(
                jn.EV_SYSCALL, pid=process.pid, tid=thread.tid, a=number,
                payload=jn.pack_args(args),
                b=result if result is not None else 0)

    def on_trap(self, machine: "Machine", process: "Process",
                thread: "ThreadContext") -> None:
        self.journal.append(jn.EV_TRAP, pid=process.pid, tid=thread.tid,
                            instr=self.instructions)

    def on_spawn(self, machine: "Machine", process: "Process") -> None:
        event = self.journal.append(jn.EV_SPAWN, pid=process.pid,
                                    label=process.exe_path)
        if self.observer is not None:
            self.observer.after_event(self, event)

    def on_restore(self, machine: "Machine", process: "Process") -> None:
        event = self.journal.append(jn.EV_RESTORE, pid=process.pid,
                                    label=machine.isa.name,
                                    instr=self.instructions)
        if self.observer is not None:
            self.observer.after_event(self, event)

    def on_kill(self, machine: "Machine", process: "Process") -> None:
        self.digest_state.forget(process)
        event = self.journal.append(jn.EV_EXIT, pid=process.pid,
                                    a=process.exit_code
                                    if process.exit_code is not None else -9)
        if self.observer is not None:
            self.observer.after_event(self, event)

    def on_poke(self, machine: "Machine", process: "Process",
                addr: int) -> None:
        """A ptrace POKEDATA wrote guest memory outside any journaled
        event. Replay reproduces it (the same runtime code runs), but a
        journal-driven *seeker* cannot — observers snapshot here."""
        if self.observer is not None:
            self.observer.on_mutation(self, f"poke@{addr:#x}")

    # -- non-kernel event sources -----------------------------------------

    def on_rng(self, service: str, label: str, value: int) -> None:
        self.journal.append(jn.EV_RNG, label=f"{service}/{label}", a=value)

    def on_event(self, kind: int, **fields) -> None:
        """Journal a scenario-level event (checkpoint/rewrite/migrate)."""
        fields.setdefault("instr", self.instructions)
        event = self.journal.append(kind, **fields)
        if self.observer is not None:
            self.observer.after_event(self, event)

    # -- digests ----------------------------------------------------------

    def current_digest(self) -> bytes:
        return self.digest_state.digest(self.machines)

    def capture_state(self) -> Dict:
        """Byte-exact snapshot of the attached machines (see
        :meth:`~repro.replay.digest.DigestState.capture`)."""
        return self.digest_state.capture(self.machines)

    def _emit_digest(self) -> None:
        digest = self.current_digest()
        index = self.digest_count
        self.digest_count += 1
        self.journal.events.append(
            {"kind": jn.EV_DIGEST, "a": index, "instr": self.instructions,
             "payload": digest})

    def finalize(self, exit_code: Optional[int] = None) -> jn.Journal:
        """Emit the final digest + end marker; returns the journal."""
        if not self.finalized:
            self.finalized = True
            self._emit_digest()
            self.journal.append(jn.EV_END, instr=self.instructions,
                                a=exit_code if exit_code is not None else 0)
            self.digest_state.clear()
        return self.journal


#: A :class:`StateAt` point: ``("instr", n)`` or ``("digest", n)``.
Point = Tuple[str, int]


class StateAt(ReplayObserver):
    """Copies the replayed machines' state at requested points.

    A point is the first slice boundary at or past an instruction target
    (``instrs``), or the boundary right after digest ``n`` is journaled
    (``digests``). ``states`` maps each point reached to
    ``(instructions, slices, state)``, ``state`` being a
    :meth:`FlightRecorder.capture_state` copy; points reached at one
    boundary share it. :class:`ReplayStop` ends the replay after the
    last point. The final digest is emitted after the last slice, so no
    boundary follows it: :meth:`capture_end` gives the digest targets a
    completed run covers the end state.
    """

    def __init__(self, instrs: Iterable[int] = (),
                 digests: Iterable[int] = ()):
        self.pending: Set[Point] = ({("instr", n) for n in instrs}
                                    | {("digest", n) for n in digests})
        self.states: Dict[Point, Tuple[int, int, Dict]] = {}

    def after_slice(self, recorder: FlightRecorder) -> None:
        reached = [(kind, n) for kind, n in self.pending
                   if (recorder.instructions >= n if kind == "instr"
                       else recorder.digest_count > n)]
        if reached:
            self._capture(recorder, reached)
            if not self.pending:
                raise ReplayStop(recorder.slices, recorder.digest_count - 1)

    def capture_end(self, recorder: FlightRecorder) -> None:
        """After a completed run: capture the end state for the digest
        targets up to the final digest."""
        covered = [(kind, n) for kind, n in self.pending
                   if kind == "digest" and n < recorder.digest_count]
        if covered:
            self._capture(recorder, covered)

    def _capture(self, recorder: FlightRecorder,
                 points: List[Point]) -> None:
        taken = (recorder.instructions, recorder.slices,
                 recorder.capture_state())
        self.pending.difference_update(points)
        self.states.update(dict.fromkeys(points, taken))
