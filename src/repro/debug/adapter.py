"""DAP request dispatch over a :class:`~repro.debug.session.DebugSession`.

The adapter is the protocol brain and owns no I/O: the server feeds it
one decoded request dict at a time and transmits whatever messages it
returns (the response, plus any events — ``initialized``, ``stopped``,
``terminated``). It is deliberately synchronous: the timeline is a
fixed recording, so every "run" request (continue, step, reverse)
completes before its response is written, and the matching ``stopped``
event simply follows the response on the wire — a scripted client can
treat the protocol as request/reply.

Identifier scheme (stateless, recomputed per stop):

* ``threadId``  = (machine_index + 1) * 1000000 + pid * 1000 + tid
* ``frameId``   = threadId * 100 + frame_index
* ``variablesReference`` = frameId * 10 + scope (1 locals, 2 registers)

Beyond the standard surface (breakpoints by source line, function,
instruction and data address; step/continue in both directions;
threads/stackTrace/scopes/variables; readMemory; evaluate) the adapter
speaks two custom requests: ``setQuantumBreakpoints`` (break at a
scheduling-slice index — the flight recorder's native coordinate) and
``timeTravel`` (report/seek the timeline position, used by the smoke
client and the benchmark).
"""

from __future__ import annotations

import base64
from typing import Dict, List, Optional, Tuple

from ..errors import DebugError, ReproError
from .session import DebugSession, StopInfo, ThreadRef

_SCOPE_LOCALS = 1
_SCOPE_REGISTERS = 2

#: DAP's closed ``stopped.reason`` vocabulary; the session's richer
#: reason survives in ``description``
_REASON_MAP = {
    "breakpoint": "breakpoint",
    "quantum": "breakpoint",
    "watchpoint": "data breakpoint",
    "step": "step",
    "entry": "entry",
    "end": "step",
}


def _thread_id(ref: ThreadRef) -> int:
    return (ref.machine_index + 1) * 1000000 + ref.pid * 1000 + ref.tid


class DebugAdapter:
    """One DAP conversation over one debug session."""

    def __init__(self, session: DebugSession):
        self.session = session
        self._seq = 0
        self._line_bps: set = set()
        self._func_bps: set = set()
        self._instr_bps: set = set()
        self.terminated = False

    # -- message plumbing ---------------------------------------------

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _response(self, request: Dict, body: Optional[Dict] = None,
                  success: bool = True,
                  message: Optional[str] = None) -> Dict:
        response = {
            "seq": self._next_seq(),
            "type": "response",
            "request_seq": request.get("seq", 0),
            "command": request.get("command", ""),
            "success": success,
        }
        if body is not None:
            response["body"] = body
        if message is not None:
            response["message"] = message
        return response

    def _event(self, event: str, body: Optional[Dict] = None) -> Dict:
        message = {"seq": self._next_seq(), "type": "event",
                   "event": event}
        if body is not None:
            message["body"] = body
        return message

    def _stopped(self, stop: StopInfo) -> Dict:
        ref = self.session.focused_thread()
        body = {
            "reason": _REASON_MAP.get(stop.reason, "step"),
            "description": stop.reason,
            "allThreadsStopped": True,
            "text": stop.detail,
        }
        if ref is not None:
            body["threadId"] = _thread_id(ref)
        return self._event("stopped", body)

    # -- dispatch ------------------------------------------------------

    def handle(self, request: Dict) -> List[Dict]:
        """Process one request; return the messages to transmit."""
        command = request.get("command", "")
        handler = getattr(self, "_cmd_" + command, None)
        if handler is None:
            return [self._response(request, success=False,
                                   message=f"unsupported command "
                                           f"{command!r}")]
        try:
            return handler(request)
        except ReproError as exc:
            return [self._response(request, success=False,
                                   message=str(exc))]

    def _args(self, request: Dict) -> Dict:
        arguments = request.get("arguments")
        return arguments if isinstance(arguments, dict) else {}

    # -- lifecycle -----------------------------------------------------

    def _cmd_initialize(self, request: Dict) -> List[Dict]:
        capabilities = {
            "supportsConfigurationDoneRequest": True,
            "supportsStepBack": True,
            "supportsFunctionBreakpoints": True,
            "supportsInstructionBreakpoints": True,
            "supportsDataBreakpoints": True,
            "supportsReadMemoryRequest": True,
            "supportsEvaluateForHovers": True,
            "supportsRestartRequest": True,
        }
        return [self._response(request, capabilities),
                self._event("initialized")]

    def _cmd_launch(self, request: Dict) -> List[Dict]:
        return [self._response(request)]

    _cmd_attach = _cmd_launch

    def _cmd_configurationDone(self, request: Dict) -> List[Dict]:
        return [self._response(request),
                self._stopped(StopInfo("entry", self.session.position))]

    def _cmd_restart(self, request: Dict) -> List[Dict]:
        self.session.seek(self.session.start_position())
        return [self._response(request),
                self._stopped(StopInfo("entry", self.session.position))]

    def _cmd_disconnect(self, request: Dict) -> List[Dict]:
        self.terminated = True
        return [self._response(request), self._event("terminated")]

    _cmd_terminate = _cmd_disconnect

    def _cmd_pause(self, request: Dict) -> List[Dict]:
        # the recording is never actually running — always stopped
        return [self._response(request)]

    # -- breakpoints ---------------------------------------------------

    def _sync_pc_bps(self) -> None:
        self.session.pc_breakpoints = (self._line_bps | self._func_bps
                                       | self._instr_bps)

    def _cmd_setBreakpoints(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        self._line_bps = set()
        out = []
        for bp in args.get("breakpoints", []):
            line = bp.get("line", 0)
            func, sites = self.session.resolve_line(line)
            for addr, arch, bound in sites:
                self._line_bps.add((addr, arch))
            verified = bool(sites)
            entry = {"verified": verified}
            if verified:
                entry["line"] = sites[0][2] if sites[0][2] else line
                entry["message"] = f"bound to entry of {func}()"
            else:
                entry["message"] = f"no function encloses line {line}"
            out.append(entry)
        self._sync_pc_bps()
        return [self._response(request, {"breakpoints": out})]

    def _cmd_setFunctionBreakpoints(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        self._func_bps = set()
        out = []
        for bp in args.get("breakpoints", []):
            name = bp.get("name", "")
            sites = self.session.resolve_function(name)
            for addr, arch, bound in sites:
                self._func_bps.add((addr, arch))
            entry = {"verified": bool(sites)}
            if sites and sites[0][2]:
                entry["line"] = sites[0][2]
            if not sites:
                entry["message"] = f"no function {name!r}"
            out.append(entry)
        self._sync_pc_bps()
        return [self._response(request, {"breakpoints": out})]

    def _cmd_setInstructionBreakpoints(self,
                                       request: Dict) -> List[Dict]:
        args = self._args(request)
        self._instr_bps = set()
        out = []
        for bp in args.get("breakpoints", []):
            reference = str(bp.get("instructionReference", "0"))
            try:
                addr = int(reference, 0) + bp.get("offset", 0)
            except ValueError:
                out.append({"verified": False,
                            "message": f"bad address {reference!r}"})
                continue
            # no arch restriction: a raw address means "this pc
            # anywhere" — pass "addr@arch" to pin one ISA
            arch: Optional[str] = None
            if "@" in reference:
                base, _, arch_name = reference.partition("@")
                addr = int(base, 0) + bp.get("offset", 0)
                arch = arch_name
            self._instr_bps.add((addr, arch))
            out.append({"verified": True,
                        "instructionReference": hex(addr)})
        self._sync_pc_bps()
        return [self._response(request, {"breakpoints": out})]

    def _cmd_dataBreakpointInfo(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        name = args.get("name", "")
        frame_id = args.get("frameId")
        ref, frame_index = self._frame_of(frame_id)
        if ref is None:
            return [self._response(request, {
                "dataId": None, "description": "no thread in focus"})]
        candidates = list(self.session.frame_variables(ref,
                                                       frame_index))
        global_var = self.session.global_variable(name, ref)
        if global_var is not None:
            candidates.append(global_var)
        for var in candidates:
            if var.name == name and var.address is not None:
                data_id = f"{ref.pid}:{var.address:#x}:{var.size}"
                return [self._response(request, {
                    "dataId": data_id,
                    "description": f"{name} @ {var.address:#x} "
                                   f"({var.size} bytes)",
                    "accessTypes": ["write"],
                })]
        return [self._response(request, {
            "dataId": None,
            "description": f"{name!r} has no stable address here"})]

    def _cmd_setDataBreakpoints(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        self.session.clear_watchpoints()
        out = []
        for bp in args.get("dataBreakpoints", []):
            data_id = str(bp.get("dataId", ""))
            try:
                pid_s, addr_s, size_s = data_id.split(":")
                self.session.add_watchpoint(int(pid_s, 0),
                                            int(addr_s, 0),
                                            int(size_s, 0))
                out.append({"verified": True})
            except (ValueError, TypeError):
                out.append({"verified": False,
                            "message": f"bad dataId {data_id!r} "
                                       f"(want pid:addr:size)"})
        return [self._response(request, {"breakpoints": out})]

    def _cmd_setQuantumBreakpoints(self, request: Dict) -> List[Dict]:
        """Custom request: break at scheduling-slice indexes."""
        args = self._args(request)
        quanta = args.get("quanta", [])
        if not isinstance(quanta, list) or \
                not all(isinstance(q, int) for q in quanta):
            raise DebugError("setQuantumBreakpoints wants "
                             "{quanta: [int, ...]}")
        self.session.quantum_breakpoints = set(quanta)
        out = [{"verified": 0 <= q < self.session.total_slices,
                "quantum": q} for q in quanta]
        return [self._response(request, {"breakpoints": out})]

    # -- execution -----------------------------------------------------

    def _cmd_continue(self, request: Dict) -> List[Dict]:
        stop = self.session.continue_forward()
        return [self._response(request,
                               {"allThreadsContinued": True}),
                self._stopped(stop)]

    def _cmd_reverseContinue(self, request: Dict) -> List[Dict]:
        stop = self.session.reverse_continue()
        return [self._response(request), self._stopped(stop)]

    def _cmd_next(self, request: Dict) -> List[Dict]:
        stop = self.session.step()
        if stop is None:
            stop = StopInfo("end", self.session.position,
                            "at the end of the recording")
        return [self._response(request), self._stopped(stop)]

    _cmd_stepIn = _cmd_next
    _cmd_stepOut = _cmd_next

    def _cmd_stepBack(self, request: Dict) -> List[Dict]:
        stop = self.session.step_back()
        if stop is None:
            stop = StopInfo("entry", self.session.position,
                            "at the start of the recording")
        return [self._response(request), self._stopped(stop)]

    def _cmd_timeTravel(self, request: Dict) -> List[Dict]:
        """Custom request: report the timeline position, optionally
        seeking first (``{"instruction": N}`` or
        ``{"position": [ei, micro]}``)."""
        args = self._args(request)
        if "instruction" in args:
            self.session.seek_instr(int(args["instruction"]))
        elif "position" in args:
            ei, micro = args["position"]
            self.session.seek((int(ei), int(micro)))
        body = {
            "position": list(self.session.position),
            "instruction": self.session.instructions,
            "totalInstructions": self.session.total_instructions,
            "slice": self.session.slice_index,
            "totalSlices": self.session.total_slices,
            "snapshots": len(self.session.snapshots),
            "slicesReexecuted": self.session.slices_reexecuted,
            "exitCode": self.session.exit_code,
        }
        return [self._response(request, body)]

    # -- inspection ----------------------------------------------------

    def _cmd_threads(self, request: Dict) -> List[Dict]:
        threads = []
        for ref in self.session.threads():
            machine = self.session.machines[ref.machine_index]
            threads.append({
                "id": _thread_id(ref),
                "name": f"{machine.name}/{ref.isa} pid {ref.pid} "
                        f"tid {ref.tid} ({ref.status})",
            })
        return [self._response(request, {"threads": threads})]

    def _resolve_thread(self, thread_id: int) -> ThreadRef:
        for ref in self.session.threads():
            if _thread_id(ref) == thread_id:
                return ref
        raise DebugError(f"no thread {thread_id}")

    def _frame_of(self, frame_id: Optional[int]
                  ) -> Tuple[Optional[ThreadRef], int]:
        if frame_id is None:
            return self.session.focused_thread(), 0
        return self._resolve_thread(frame_id // 100), frame_id % 100

    def _cmd_stackTrace(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        ref = self._resolve_thread(args.get("threadId", 0))
        frames = self.session.stack_frames(ref)
        start = args.get("startFrame", 0)
        levels = args.get("levels", 0) or len(frames)
        out = []
        for index, frame in enumerate(frames[start:start + levels], start):
            out.append({
                "id": _thread_id(ref) * 100 + index,
                "name": frame.func or f"{frame.pc:#x}",
                "line": self.session.source_map.line_of(frame.func) or 0,
                "column": 0,
                "instructionPointerReference": hex(frame.pc),
                "source": {"name": self.session.header.get(
                    "program", "program"), "sourceReference": 1},
            })
        return [self._response(request, {"stackFrames": out,
                                         "totalFrames": len(frames)})]

    def _cmd_source(self, request: Dict) -> List[Dict]:
        return [self._response(request, {
            "content": self.session.header.get("source", "")})]

    def _cmd_scopes(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        frame_id = args.get("frameId", 0)
        scopes = [
            {"name": "Locals", "presentationHint": "locals",
             "variablesReference": frame_id * 10 + _SCOPE_LOCALS,
             "expensive": False},
            {"name": "Registers", "presentationHint": "registers",
             "variablesReference": frame_id * 10 + _SCOPE_REGISTERS,
             "expensive": False},
        ]
        return [self._response(request, {"scopes": scopes})]

    def _cmd_variables(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        reference = args.get("variablesReference", 0)
        scope, frame_id = reference % 10, reference // 10
        ref, frame_index = self._frame_of(frame_id)
        if ref is None:
            return [self._response(request, {"variables": []})]
        if scope == _SCOPE_REGISTERS:
            values = self.session.registers(ref)
        else:
            values = self.session.frame_variables(ref, frame_index)
        out = []
        for var in values:
            entry = {"name": var.name, "value": var.display,
                     "variablesReference": 0,
                     "evaluateName": var.name}
            if var.location:
                entry["presentationHint"] = \
                    {"attributes": [var.location]}
            if var.address is not None:
                entry["memoryReference"] = hex(var.address)
            out.append(entry)
        return [self._response(request, {"variables": out})]

    def _cmd_evaluate(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        ref, frame_index = self._frame_of(args.get("frameId"))
        var = self.session.evaluate(args.get("expression", ""),
                                    ref=ref, frame_index=frame_index)
        body = {"result": var.display, "variablesReference": 0}
        if var.address is not None:
            body["memoryReference"] = hex(var.address)
        return [self._response(request, body)]

    def _cmd_readMemory(self, request: Dict) -> List[Dict]:
        args = self._args(request)
        try:
            addr = int(str(args.get("memoryReference", "0")), 0)
        except ValueError:
            raise DebugError(f"bad memoryReference "
                             f"{args.get('memoryReference')!r}")
        addr += args.get("offset", 0)
        count = int(args.get("count", 0))
        data = self.session.read_memory(addr, count) if count else b""
        if data is None:
            return [self._response(request, {
                "address": hex(addr), "unreadableBytes": count,
                "data": ""})]
        return [self._response(request, {
            "address": hex(addr),
            "data": base64.b64encode(data).decode("ascii")})]
