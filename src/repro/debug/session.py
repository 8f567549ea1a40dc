"""The time-travel debug session: seek, step, reverse, inspect.

``repro-debug`` is an rr-style time-travel debugger over the flight
recorder. A :class:`DebugSession` turns one recorded journal into a
freely navigable timeline in two phases:

**Phase 1 — capture.** The journal's scenario is re-executed once,
end to end, by the ordinary :class:`~repro.replay.engine.Replayer`
with a :class:`~repro.replay.recorder.ReplayObserver` attached. The
observer dumps store-backed :class:`~repro.debug.snapshots.
WorldSnapshot`\\ s every ``snapshot_every`` scheduling slices, *and* —
crucially — at every journal event that mutates guest state outside
the slice stream (spawn, restore, kill, injected fault, migration
bookkeeping) and at every un-journaled ptrace poke the runtime
performs. The re-execution also produces a *complete* timeline
journal, which is validated digest-for-digest against the loaded one;
for a truncated journal (a crashed recorder) the recording must be a
prefix of the re-derived timeline, so crashed runs debug like whole
ones.

**Phase 2 — navigation.** Positions on the timeline are
``(events_applied, micro)`` pairs — instruction counts alone are
ambiguous at migration boundaries, where pre- and post-migration
states coexist at the same count. Seeking restores the latest
snapshot at or before the target into a *fresh* world of
per-instruction interpreter machines (no recorder attached) and then
re-executes the journaled scheduling slices — the journal is the
schedule; each slice must retire exactly the recorded instruction
count or the session raises :class:`~repro.errors.DebugError`. The
snapshot guarantee above means a seek never needs to re-apply a
mutation event, so every re-executed segment is pure slice replay,
and reverse operations cost O(snapshot gap), not O(run).

On top of seek the session offers breakpoints by pc (per-ISA), by
source line (via the embedded DapperC source and each function's
entry equivalence point), and by scheduling quantum; forward and
reverse step/continue; watchpoints located by value-probe bisection
over the snapshot index (:func:`~repro.replay.divergence.
bisect_last_transition`) plus a micro-scan of the one transition
segment; and inspection — stack unwinding over the ``.frames``
convention, live variables from ``.stackmaps`` records, registers and
raw memory — always decoded against the binary of the machine
currently hosting the process, so a session crossing a cross-ISA
migration re-decodes frames against the destination ISA
automatically.
"""

from __future__ import annotations

import bisect as _bisect
from typing import Dict, List, Optional, Set, Tuple

from ..core.migration import install_program
from ..core.stack_rewrite import UnwoundFrame, read_live, unwind
from ..errors import (CheckpointError, DebugError, MemoryError_,
                      ReproError)
from ..isa import get_isa
from ..replay import journal as jn
from ..replay.digest import DigestState
from ..replay.divergence import bisect_last_transition
from ..replay.engine import Replayer, _compile
from ..replay.journal import Journal
from ..replay.recorder import FlightRecorder, ReplayObserver
from ..store import CheckpointStore
from ..vm.kernel import ENGINES, Machine, Process
from .snapshots import Position, SnapshotIndex, WorldSnapshot
from .source import SourceMap

#: journal events whose application mutates guest state outside the
#: scheduling-slice stream — a seeker cannot re-execute these, so the
#: capture phase anchors a snapshot immediately after each one. The
#: remaining kinds are benign for state: digests, syscalls and traps
#: are (re)produced by slice execution itself; store/verify/cluster/
#: rng/barrier/end events are bookkeeping.
MUTATION_KINDS = frozenset({
    jn.EV_SPAWN, jn.EV_RESTORE, jn.EV_EXIT, jn.EV_FAULT,
    jn.EV_CHECKPOINT, jn.EV_REWRITE, jn.EV_MIGRATE,
})

_UNSUPPORTED_SCENARIOS = {
    "rerandomize": "re-randomization rewrites code in place between "
                   "slices; snapshots cannot anchor it yet",
    "fleet": "fleet storms have no per-instruction machine state",
}


class StopInfo:
    """Why navigation stopped, and where."""

    __slots__ = ("reason", "position", "detail")

    def __init__(self, reason: str, position: Position, detail: str = ""):
        self.reason = reason      # breakpoint|quantum|watchpoint|step|
        self.position = position  # entry|end
        self.detail = detail

    def __repr__(self) -> str:
        extra = f" {self.detail}" if self.detail else ""
        return f"<Stop {self.reason}@{self.position}{extra}>"


class ThreadRef:
    """Stable handle for one thread of the debugged world."""

    __slots__ = ("machine_index", "pid", "tid", "isa", "status")

    def __init__(self, machine_index: int, pid: int, tid: int,
                 isa: str, status: str):
        self.machine_index = machine_index
        self.pid = pid
        self.tid = tid
        self.isa = isa
        self.status = status

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.machine_index, self.pid, self.tid)


class Variable:
    """One decoded value (live variable, slot, or register)."""

    __slots__ = ("name", "value", "location", "address", "size")

    def __init__(self, name: str, value: Optional[int], location: str,
                 address: Optional[int] = None, size: int = 8):
        self.name = name
        self.value = value
        self.location = location   # e.g. "reg r3", "fp-16", "reg+stack"
        self.address = address
        self.size = size

    @property
    def display(self) -> str:
        return "<unreadable>" if self.value is None else str(self.value)


class _Capturer(ReplayObserver):
    """Phase-1 observer: snapshots on cadence + at every mutation."""

    def __init__(self, store: CheckpointStore, snapshot_every: int):
        self.store = store
        self.snapshot_every = snapshot_every
        self.index = SnapshotIndex()
        self.recorder: Optional[FlightRecorder] = None
        self.skipped = 0
        self._since = 0

    def on_recorder(self, recorder: FlightRecorder) -> None:
        self.recorder = recorder

    def after_slice(self, recorder: FlightRecorder) -> None:
        self._since += 1
        if self._since >= self.snapshot_every and self._capture():
            self._since = 0

    def after_event(self, recorder: FlightRecorder, event: Dict) -> None:
        if event["kind"] in MUTATION_KINDS:
            self._capture()
            self._since = 0

    def on_mutation(self, recorder: FlightRecorder, label: str) -> None:
        # e.g. the runtime poking __dapper_flag over ptrace: invisible
        # to the journal, so the snapshot *is* the record of it
        self._capture()
        self._since = 0

    def _capture(self) -> bool:
        position = (len(self.recorder.journal.events), 0)
        try:
            snap = WorldSnapshot.capture(position, self.recorder.machines,
                                         self.store)
        except CheckpointError:
            # a process is mid-exit or all-dead: undumpable, and also
            # never the source of further slices — an earlier snapshot
            # plus forward replay reaches every later position
            self.skipped += 1
            return False
        self.index.add(snap)
        return True


class DebugSession:
    """One journal, navigable in both directions. See module docs."""

    def __init__(self, journal: Journal, snapshot_every: int = 32,
                 engine: Optional[str] = None):
        self.header = dict(journal.header)
        scenario = self.header.get("scenario", "run")
        if scenario in _UNSUPPORTED_SCENARIOS:
            raise DebugError(f"cannot debug a {scenario!r} journal: "
                             f"{_UNSUPPORTED_SCENARIOS[scenario]}")
        if scenario not in ("run", "migrate"):
            raise DebugError(f"cannot debug unknown scenario {scenario!r}")
        if self.header.get("lazy"):
            raise DebugError(
                "cannot debug a lazy (post-copy) migration journal: the "
                "restored world has no page server to fault against — "
                "re-record with lazy=False")
        if not self.header.get("source"):
            raise DebugError("journal header embeds no program source")
        self.snapshot_every = max(1, snapshot_every)
        self.store = CheckpointStore()
        self.source_map = SourceMap(self.header["source"])
        self.program = _compile(self.header["source"],
                                self.header["program"])

        # -- phase 1: capture ------------------------------------------
        capturer = _Capturer(self.store, self.snapshot_every)
        result = Replayer(journal, engine=engine).run(observer=capturer)
        self.timeline: Journal = result.journal
        self.exit_code = result.exit_code
        self.snapshots: SnapshotIndex = capturer.index
        self._validate_against(journal)

        self.events = self.timeline.events
        # cumulative instructions before each event boundary
        self._cum = [0] * (len(self.events) + 1)
        # slice index (count of sched events) before each event
        self._slice_index = [0] * (len(self.events) + 1)
        for k, event in enumerate(self.events):
            sched = event["kind"] == jn.EV_SCHED
            self._cum[k + 1] = self._cum[k] + (event.get("b", 0)
                                               if sched else 0)
            self._slice_index[k + 1] = self._slice_index[k] + int(sched)
        self.total_instructions = self._cum[-1]
        self.total_slices = self._slice_index[-1]

        # -- breakpoints ----------------------------------------------
        #: (address, isa-name-or-None-for-any)
        self.pc_breakpoints: Set[Tuple[int, Optional[str]]] = set()
        self.quantum_breakpoints: Set[int] = set()
        #: id -> (pid, address, size)
        self.watchpoints: Dict[str, Tuple[int, int, int]] = {}

        #: scheduling slices re-executed by phase-2 seeks (the metric
        #: the reverse-seek benchmark asserts O(gap) on)
        self.slices_reexecuted = 0

        # -- phase 2 world --------------------------------------------
        self.machines: List[Machine] = []
        #: digest leaves of the current world (a seek builds a new
        #: world, so it clears them)
        self._digest_state = DigestState()
        self._pos: Position = (0, 0)
        self.seek(self.start_position())

    # -- timeline validation ------------------------------------------

    def _validate_against(self, recorded: Journal) -> None:
        """The re-derived timeline must reproduce the recording: the
        recorded digest stream is a prefix of the timeline's (a proper
        prefix only for truncated journals)."""
        recorded_digests = recorded.digest_stream()
        timeline_digests = self.timeline.digest_stream()
        n = len(recorded_digests)
        if timeline_digests[:n] != recorded_digests:
            raise DebugError(
                "re-execution diverged from the recording — the journal "
                "is not deterministic on this build; run "
                "`repro-replay replay` to pinpoint the quantum")
        if recorded.sched_stream() != \
                self.timeline.sched_stream()[:len(recorded.of_kind(
                    jn.EV_SCHED))]:
            raise DebugError("re-execution produced a different "
                             "scheduling-slice stream than the recording")

    # -- positions ----------------------------------------------------

    @property
    def position(self) -> Position:
        return self._pos

    def instructions_at(self, position: Position) -> int:
        return self._cum[position[0]] + position[1]

    @property
    def instructions(self) -> int:
        return self.instructions_at(self._pos)

    @property
    def slice_index(self) -> int:
        return self._slice_index[self._pos[0]]

    def start_position(self) -> Position:
        """Just before the first instruction (initial spawns applied)."""
        for k, event in enumerate(self.events):
            if event["kind"] == jn.EV_SCHED:
                return (k, 0)
        return (len(self.events), 0)

    def end_position(self) -> Position:
        return self._canonical((len(self.events), 0))

    def at_end(self) -> bool:
        return self._pos[0] >= len(self.events)

    def _is_benign(self, k: int) -> bool:
        kind = self.events[k]["kind"]
        return kind != jn.EV_SCHED and kind not in MUTATION_KINDS

    def _canonical(self, position: Position) -> Position:
        """Skip benign events (no state change) so every canonical
        position has a sched or mutation event — or the end — next."""
        ei, micro = position
        if micro == 0:
            while ei < len(self.events) and self._is_benign(ei):
                ei += 1
        return (ei, micro)

    def position_of_instr(self, instr: int) -> Position:
        """Canonical position after ``instr`` retired instructions (the
        *post-mutation* side when a boundary is ambiguous)."""
        instr = max(0, min(instr, self.total_instructions))
        k = _bisect.bisect_left(self._cum, instr, 1)
        if self._cum[k] == instr:
            return self._canonical((k, 0))
        return (k - 1, instr - self._cum[k - 1])

    def position_of_slice(self, slice_index: int) -> Position:
        """Canonical position just before the given scheduling slice."""
        k = _bisect.bisect_left(self._slice_index, slice_index + 1) - 1
        return self._canonical((k, 0))

    # -- phase-2 world ------------------------------------------------

    def _world_shape(self) -> List[Tuple[str, str]]:
        if self.header.get("scenario", "run") == "migrate":
            return [(self.header["src_arch"], "src"),
                    (self.header["dst_arch"], "dst")]
        return [(self.header["src_arch"], "node")]

    def _fresh_machines(self) -> List[Machine]:
        machines = []
        for arch, name in self._world_shape():
            machine = Machine(get_isa(arch), name=name,
                              quantum=self.header.get("quantum", 64),
                              **ENGINES["interp"])
            install_program(machine, self.program)
            machines.append(machine)
        return machines

    def _locate(self, pid: int, tid: int
                ) -> Tuple[Machine, Process, "object"]:
        for machine in self.machines:
            process = machine.processes.get(pid)
            if (process is not None and not process.exited
                    and tid in process.threads):
                return machine, process, process.threads[tid]
        raise DebugError(f"re-execution diverged: journaled slice names "
                         f"pid {pid} tid {tid}, absent from the world")

    def _run_slice(self, event: Dict, budget: int) -> int:
        machine, process, thread = self._locate(event.get("pid", 0),
                                                event.get("tid", 0))
        self.slices_reexecuted += 1
        return machine._run_thread(process, thread, budget)

    def _apply_event(self, k: int) -> None:
        event = self.events[k]
        kind = event["kind"]
        if kind == jn.EV_SCHED:
            executed = self._run_slice(event, event.get("a", 0))
            if executed != event.get("b", 0):
                raise DebugError(
                    f"re-execution diverged at slice "
                    f"#{self._slice_index[k]}: retired {executed} "
                    f"instruction(s), journal says {event.get('b', 0)}")
        elif kind in MUTATION_KINDS:
            raise DebugError(
                f"position unreachable: no snapshot covers the "
                f"{jn.KIND_NAMES.get(kind, kind)} event at timeline "
                f"index {k}")

    # -- seek ----------------------------------------------------------

    def seek(self, position: Position) -> Position:
        """Reconstruct the world at ``position`` (canonicalized)."""
        ei, micro = self._canonical(position)
        ei = min(ei, len(self.events))
        if micro:
            if ei >= len(self.events) \
                    or self.events[ei]["kind"] != jn.EV_SCHED:
                raise DebugError(f"position ({ei}, {micro}) is not "
                                 f"inside a scheduling slice")
            micro = min(micro, self.events[ei].get("b", 0))
        machines = self._fresh_machines()
        snap = self.snapshots.at_or_before((ei, micro))
        start = 0
        if snap is not None:
            # swap the world in only after the restore fully succeeds
            snap.restore(machines, self.store)
            start = snap.position[0]
        self.machines = machines
        self._digest_state.clear()
        for k in range(start, ei):
            self._apply_event(k)
        if micro:
            event = self.events[ei]
            self.slices_reexecuted += 1
            machine, process, thread = self._locate(event.get("pid", 0),
                                                    event.get("tid", 0))
            executed = machine._run_thread(process, thread, micro)
            if executed != micro:
                raise DebugError(
                    f"re-execution diverged mid-slice: retired "
                    f"{executed} of {micro} instruction(s)")
        self._pos = (ei, micro)
        return self._pos

    def seek_instr(self, instr: int) -> Position:
        return self.seek(self.position_of_instr(instr))

    # -- stepping -------------------------------------------------------

    def step(self) -> Optional[StopInfo]:
        """One instruction forward (or one mutation event, at a
        boundary). Returns None at the end of the timeline."""
        ei, micro = self._pos
        if ei >= len(self.events):
            return None
        event = self.events[ei]
        if event["kind"] == jn.EV_SCHED:
            # advance in place on the live world — no restore needed
            machine, process, thread = self._locate(event.get("pid", 0),
                                                    event.get("tid", 0))
            if machine._run_thread(process, thread, 1) != 1:
                raise DebugError("re-execution diverged: thread refused "
                                 "to retire an instruction mid-slice")
            micro += 1
            if micro >= event.get("b", 0):
                self._pos = self._canonical((ei + 1, 0))
            else:
                self._pos = (ei, micro)
        else:
            # mutation boundary: cross it via its snapshot
            self.seek((ei + 1, 0))
        return StopInfo("step", self._pos)

    def step_back(self) -> Optional[StopInfo]:
        """One instruction (or mutation event) backward; None at the
        start. Cost: one snapshot restore + O(gap) slice replay."""
        ei, micro = self._pos
        if micro > 0:
            self.seek((ei, micro - 1))
            return StopInfo("step", self._pos)
        if self._pos <= self.start_position():
            return None  # the pre-spawn world is not a useful stop
        k = ei - 1
        while k >= 0:
            kind = self.events[k]["kind"]
            if kind == jn.EV_SCHED:
                self.seek((k, self.events[k].get("b", 0) - 1))
                return StopInfo("step", self._pos)
            if kind in MUTATION_KINDS:
                self.seek((k, 0))
                return StopInfo("step", self._pos)
            k -= 1
        return None

    # -- breakpoints ----------------------------------------------------

    def resolve_function(self, name: str
                         ) -> List[Tuple[int, str, Optional[int]]]:
        """``(address, isa, line)`` of ``name``'s entry eqpoint in every
        binary of the program (addresses are per-ISA)."""
        out = []
        line = self.source_map.line_of(name)
        for arch in sorted(self.program.binaries):
            binary = self.program.binaries[arch]
            point = binary.stackmaps.entry_for(name)
            if point is not None:
                out.append((point.addr, arch, line))
        return out

    def resolve_line(self, line: int
                     ) -> Tuple[Optional[str], List[Tuple[int, str,
                                                          Optional[int]]]]:
        """Map a source line to its enclosing function's entry eqpoint
        (no statement-level line table exists). Returns
        ``(function, [(address, isa, bound_line)])``."""
        func = self.source_map.function_at_line(line)
        if func is None:
            return None, []
        return func, self.resolve_function(func)

    def _pc_hit(self, machine: Machine, pc: int) -> bool:
        if not self.pc_breakpoints:
            return False
        name = machine.isa.name
        return ((pc, None) in self.pc_breakpoints
                or (pc, name) in self.pc_breakpoints)

    # -- watchpoints ----------------------------------------------------

    def add_watchpoint(self, pid: int, addr: int, size: int = 8) -> str:
        wp_id = f"{pid}:{addr:#x}:{size}"
        self.watchpoints[wp_id] = (pid, addr, size)
        return wp_id

    def clear_watchpoints(self) -> None:
        self.watchpoints.clear()

    def _probe_watchpoints(self) -> Dict[str, Optional[bytes]]:
        values: Dict[str, Optional[bytes]] = {}
        for wp_id, (pid, addr, size) in self.watchpoints.items():
            values[wp_id] = self._read_raw(pid, addr, size)
        return values

    def _read_raw(self, pid: int, addr: int,
                  size: int) -> Optional[bytes]:
        for machine in self.machines:
            process = machine.processes.get(pid)
            if process is None:
                continue
            try:
                return process.aspace.read(addr, size, check=False)
            except (MemoryError_, ReproError):
                return None
        return None

    # -- continue (forward) ---------------------------------------------

    def _quantum_positions(self) -> List[Position]:
        return sorted(self.position_of_slice(q)
                      for q in self.quantum_breakpoints
                      if 0 <= q < self.total_slices)

    def continue_forward(self) -> StopInfo:
        """Run forward to the next breakpoint/watchpoint/quantum hit
        (or the timeline end). Quantum stops are computed directly from
        the timeline; pc and watch stops require scanning execution."""
        origin = self._pos
        end = self.end_position()
        qpos = next((p for p in self._quantum_positions() if p > origin),
                    None)
        stop = qpos if qpos is not None else end
        if self.pc_breakpoints or self.watchpoints:
            hit = self._scan_forward(origin, stop, first_stop=True)
            if hit is not None:
                if self._pos != hit.position:
                    self.seek(hit.position)
                return hit
        if qpos is not None:
            self.seek(qpos)
            return StopInfo("quantum", self._pos,
                            f"slice {self.slice_index}")
        if self._pos != end:
            self.seek(end)
        return StopInfo("end", self._pos)

    def _scan_forward(self, start: Position, stop: Position,
                      first_stop: bool,
                      collect: Optional[List[StopInfo]] = None
                      ) -> Optional[StopInfo]:
        """Walk execution from ``start`` to ``stop``, evaluating pc
        breakpoints (pre-execution, skipping a hit exactly at
        ``start``) and watchpoint value changes (post-execution). With
        ``first_stop`` returns on the first hit; with ``collect`` it
        appends every hit and runs through ``stop`` (the
        reverse-continue primitive). The world is left wherever the
        scan ended — callers re-seek when they need a different spot."""
        if self._pos != start:
            self.seek(start)
        watch_last = self._probe_watchpoints() if self.watchpoints \
            else None
        micro_mode = bool(self.pc_breakpoints) or bool(self.watchpoints)
        moved = False

        def emit(info: StopInfo) -> bool:
            if collect is not None:
                collect.append(info)
            return first_stop

        while self._pos < stop:
            ei, micro = self._pos
            if ei >= len(self.events):
                break
            event = self.events[ei]
            if event["kind"] != jn.EV_SCHED:
                # mutation boundary — cross via its snapshot
                self.seek(self._canonical((ei + 1, 0)))
                moved = True
                if watch_last is not None:
                    delta = self._watch_delta(watch_last)
                    if delta is not None and self._pos <= stop:
                        info = StopInfo("watchpoint", self._pos, delta)
                        if emit(info):
                            return info
                continue
            machine, process, thread = self._locate(event.get("pid", 0),
                                                    event.get("tid", 0))
            budget = event.get("b", 0) - micro
            if not micro_mode:
                if budget > 0:
                    self.slices_reexecuted += 1
                    if machine._run_thread(process, thread,
                                           budget) != budget:
                        raise DebugError("re-execution diverged during "
                                         "a forward scan")
                self._pos = self._canonical((ei + 1, 0))
                moved = True
                continue
            while micro < event.get("b", 0):
                if moved and self._pc_hit(machine, thread.pc):
                    info = StopInfo("breakpoint", (ei, micro),
                                    f"pc={thread.pc:#x}")
                    self._pos = (ei, micro)
                    if emit(info):
                        return info
                if (ei, micro) >= stop:
                    self._pos = (ei, micro)
                    return None
                if machine._run_thread(process, thread, 1) != 1:
                    raise DebugError("re-execution diverged: thread "
                                     "refused to retire an instruction")
                micro += 1
                moved = True
                self._pos = (ei, micro) if micro < event.get("b", 0) \
                    else self._canonical((ei + 1, 0))
                if watch_last is not None:
                    delta = self._watch_delta(watch_last)
                    if delta is not None:
                        info = StopInfo("watchpoint", self._pos, delta)
                        if emit(info):
                            return info
        return None

    def _watch_delta(self,
                     last: Dict[str, Optional[bytes]]) -> Optional[str]:
        """Re-probe; returns a description if any watched value moved
        (and folds the new values into ``last``)."""
        current = self._probe_watchpoints()
        changed = None
        for wp_id, value in current.items():
            old = last.get(wp_id)
            if value != old:
                def _fmt(raw: Optional[bytes]) -> str:
                    return ("?" if raw is None
                            else hex(int.from_bytes(raw, "little")))
                changed = (f"{wp_id} {_fmt(old)} -> "
                           f"{_fmt(value)}")
                last[wp_id] = value
        return changed

    # -- reverse continue -----------------------------------------------

    def reverse_continue(self) -> StopInfo:
        """Run *backward* to the most recent breakpoint or watchpoint
        hit before the current position; lands on the program entry if
        nothing hits. Breakpoint hits are found by scanning snapshot
        segments newest-first (O(gap) when the hit is recent);
        watchpoint writes by value-probe bisection over the snapshot
        index plus a micro-scan of the single transition segment."""
        origin = self._pos
        candidates: List[StopInfo] = []
        qpos = None
        for pos in self._quantum_positions():
            if pos < origin:
                qpos = pos
        if qpos is not None:
            candidates.append(StopInfo("quantum", qpos))
        if self.watchpoints:
            hit = self._last_watch_change(origin)
            if hit is not None:
                candidates.append(hit)
        if self.pc_breakpoints:
            hit = self._last_bp_hit(origin)
            if hit is not None:
                candidates.append(hit)
        if candidates:
            best = max(candidates, key=lambda info: info.position)
            self.seek(best.position)
            return best
        self.seek(self.start_position())
        return StopInfo("entry", self._pos)

    def _segment_starts(self, before: Position) -> List[Position]:
        """Snapshot positions (plus the timeline start) below
        ``before``, ascending."""
        starts = [(0, 0)]
        for pos in self.snapshots.positions():
            if pos < before:
                starts.append(pos)
        return sorted(set(starts))

    def _last_bp_hit(self, origin: Position) -> Optional[StopInfo]:
        starts = self._segment_starts(origin)
        for i in range(len(starts) - 1, -1, -1):
            lo = starts[i]
            hi = starts[i + 1] if i + 1 < len(starts) else origin
            hits: List[StopInfo] = []
            self._scan_forward(lo, min(hi, origin), first_stop=False,
                               collect=hits)
            hits = [h for h in hits if h.reason == "breakpoint"
                    and h.position < origin]
            if hits:
                return hits[-1]
        return None

    def _last_watch_change(self, origin: Position) -> Optional[StopInfo]:
        starts = self._segment_starts(origin)
        last = len(starts) - 1
        # the final (partial) segment first: a change newer than the
        # newest snapshot is invisible to snapshot-granularity bisection
        hit = self._scan_watch_segment(starts[last], origin,
                                       strict_before=origin)
        if hit is not None:
            return hit

        probes: Dict[int, Tuple] = {}

        def probe(i: int) -> Tuple:
            if i not in probes:
                self.seek(starts[i])
                probes[i] = tuple(sorted(self._probe_watchpoints()
                                         .items()))
            return probes[i]

        k = bisect_last_transition(probe, 0, last)
        if k is None:
            return None
        return self._scan_watch_segment(starts[k - 1], starts[k])

    def _scan_watch_segment(self, lo: Position, hi: Position,
                            strict_before: Optional[Position] = None
                            ) -> Optional[StopInfo]:
        """Micro-scan one segment; last watch change in it, if any."""
        hits: List[StopInfo] = []
        self._scan_forward(lo, hi, first_stop=False, collect=hits)
        watch_hits = [h for h in hits if h.reason == "watchpoint"]
        if strict_before is not None:
            watch_hits = [h for h in watch_hits
                          if h.position < strict_before]
        return watch_hits[-1] if watch_hits else None

    # -- inspection -----------------------------------------------------

    def threads(self) -> List[ThreadRef]:
        out = []
        for index, machine in enumerate(self.machines):
            for pid in sorted(machine.processes):
                process = machine.processes[pid]
                for tid in sorted(process.threads):
                    thread = process.threads[tid]
                    out.append(ThreadRef(index, pid, tid,
                                         machine.isa.name,
                                         thread.status))
        return out

    def focused_thread(self) -> Optional[ThreadRef]:
        """The thread about to execute (or the last one that did)."""
        ei = self._pos[0]
        # prefer the next sched event's thread — but only within the
        # current world (stop at a mutation boundary: a later slice may
        # name a process that does not exist yet)
        for k in range(ei, len(self.events)):
            kind = self.events[k]["kind"]
            if kind == jn.EV_SCHED:
                ref = self._thread_ref(self.events[k].get("pid", 0),
                                       self.events[k].get("tid", 0))
                if ref is not None:
                    return ref
                break
            if kind in MUTATION_KINDS:
                break
        for k in range(min(ei, len(self.events)) - 1, -1, -1):
            event = self.events[k]
            if event["kind"] == jn.EV_SCHED:
                ref = self._thread_ref(event.get("pid", 0),
                                       event.get("tid", 0))
                if ref is not None:
                    return ref
        threads = self.threads()
        return threads[0] if threads else None

    def _thread_ref(self, pid: int, tid: int) -> Optional[ThreadRef]:
        for ref in self.threads():
            if ref.pid == pid and ref.tid == tid:
                return ref
        return None

    def _deref(self, ref: ThreadRef):
        machine = self.machines[ref.machine_index]
        process = machine.processes.get(ref.pid)
        if process is None or ref.tid not in process.threads:
            raise DebugError(f"stale thread reference {ref.key}")
        return machine, process, process.threads[ref.tid]

    def stack_frames(self, ref: ThreadRef) -> List[UnwoundFrame]:
        """The tolerant :func:`~repro.core.stack_rewrite.unwind` of one
        thread, against the binary of the machine hosting the process
        (after a cross-ISA migration, the destination binary)."""
        _machine, process, thread = self._deref(ref)
        return unwind(process.aspace, process.binary, thread.pc, thread.fp,
                      strict=False)

    def frame_variables(self, ref: ThreadRef,
                        frame_index: int = 0) -> List[Variable]:
        """Live values of one frame. Frame 0 at an equivalence point
        uses the ``.stackmaps`` record (registers and/or spill slots);
        anywhere else — and for every suspended outer frame — only the
        ``.frames`` stack slots are recoverable (registers are
        clobbered by the callee)."""
        machine, process, thread = self._deref(ref)
        frames = self.stack_frames(ref)
        if frame_index >= len(frames):
            return []
        frame = frames[frame_index]
        isa = machine.isa
        out: List[Variable] = []
        if frame_index == 0 and frame.eqpoint is not None:
            regs = {reg.dwarf: thread.regs[reg.index]
                    for reg in isa.registers}
            for live in frame.eqpoint.live:
                try:
                    value = int.from_bytes(
                        read_live(process.aspace, regs, frame.fp, live),
                        "little", signed=True)
                except ReproError:
                    value = None
                where, addr = [], None
                if live.in_register():
                    reg = isa.registers.by_dwarf.get(live.dwarf_reg)
                    where.append(f"reg {reg.name}" if reg is not None
                                 else f"reg dwarf{live.dwarf_reg}")
                if live.on_stack():
                    where.append(f"fp{live.stack_offset:+d}")
                    addr = frame.fp + live.stack_offset
                out.append(Variable(live.name, value, "+".join(where),
                                    addr, live.size))
            return out
        if frame.func is None:
            return []
        record = process.binary.frames.get(frame.func)
        for slot in record.slots:
            addr = frame.fp + slot.offset
            # arrays/aggregates: first word as the scalar preview
            raw = self._read_raw(process.pid, addr, min(slot.size, 8))
            value = (int.from_bytes(raw, "little", signed=True)
                     if raw is not None else None)
            out.append(Variable(slot.name, value,
                                f"fp{slot.offset:+d} ({slot.kind})",
                                addr, slot.size))
        return out

    def registers(self, ref: ThreadRef) -> List[Variable]:
        machine, _process, thread = self._deref(ref)
        isa = machine.isa
        out = [Variable("pc", thread.pc, "pc"),
               Variable("flags", thread.flags, "flags"),
               Variable("tp", thread.tp, "tp")]
        for i, value in enumerate(thread.regs):
            out.append(Variable(isa.reg_name(i), value, f"r{i}"))
        return out

    def read_memory(self, addr: int, count: int,
                    pid: Optional[int] = None) -> Optional[bytes]:
        if pid is None:
            ref = self.focused_thread()
            if ref is None:
                return None
            pid = ref.pid
        return self._read_raw(pid, addr, count)

    def global_variable(self, name: str,
                        ref: Optional[ThreadRef] = None
                        ) -> Optional[Variable]:
        """A global object decoded via the binary's symbol table."""
        if ref is None:
            ref = self.focused_thread()
        if ref is None:
            return None
        _machine, process, _thread = self._deref(ref)
        symbol = process.binary.symtab.lookup(name)
        if symbol is None or symbol.kind != "object":
            return None
        size = min(symbol.size or 8, 8)
        raw = self._read_raw(process.pid, symbol.addr, size)
        value = (int.from_bytes(raw, "little", signed=True)
                 if raw is not None else None)
        return Variable(name, value, f"global {symbol.addr:#x}",
                        symbol.addr, size)

    def evaluate(self, expression: str,
                 ref: Optional[ThreadRef] = None,
                 frame_index: int = 0) -> Variable:
        """Tiny expression language: ``$reg`` / register name, ``pc``,
        ``*0xADDR`` (u64 load), a frame variable, or a global."""
        expr = expression.strip()
        if ref is None:
            ref = self.focused_thread()
        if ref is None:
            raise DebugError("no thread to evaluate against")
        if expr.startswith("*"):
            addr = int(expr[1:], 0)
            raw = self._read_raw(ref.pid, addr, 8)
            value = (int.from_bytes(raw, "little") if raw is not None
                     else None)
            return Variable(expr, value, f"mem {addr:#x}", addr)
        name = expr[1:] if expr.startswith("$") else expr
        for reg in self.registers(ref):
            if reg.name == name:
                return reg
        for var in self.frame_variables(ref, frame_index):
            if var.name == name:
                return var
        var = self.global_variable(name, ref)
        if var is not None:
            return var
        raise DebugError(f"cannot evaluate {expression!r}: no such "
                         f"register, frame variable, or global")

    # -- recorded-state verification -------------------------------------

    def digest_positions(self) -> List[Tuple[int, Position]]:
        """``(digest_index, canonical position)`` of every digest event
        on the timeline."""
        out = []
        for k, event in enumerate(self.events):
            if event["kind"] == jn.EV_DIGEST:
                out.append((event.get("a", 0), self._canonical((k, 0))))
        return out

    def current_digest(self) -> bytes:
        return self._digest_state.digest(self.machines)

    def verify_digest(self, digest_index: int) -> bool:
        """Seek to a recorded digest point and check the reconstructed
        world folds to the *exact* recorded digest — every register and
        byte equal to the original run."""
        for index, position in self.digest_positions():
            if index == digest_index:
                self.seek(position)
                recorded = [e for e in self.timeline.digests()
                            if e.get("a") == digest_index][0]
                return self.current_digest() == recorded["payload"]
        raise DebugError(f"no digest #{digest_index} on the timeline")
