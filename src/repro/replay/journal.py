"""The flight-recorder journal: file format and in-memory event log.

A journal is one header message plus a stream of event records, all
encoded with the same protobuf-style wire format the CRIU image files
use (:mod:`repro.wire`) — varints for integers, length-delimited
payloads for strings and digests:

    +----------+---------+--------------+--------------+-----
    | "DAPRJRN"| version | len | header | len | event-0 | ...
    +----------+---------+--------------+--------------+-----
       magic     varint    varint-framed  varint-framed

The **header** is the replayable scenario description: which program
(the DapperC source text itself is embedded, so a journal is
self-contained), which ISA(s), which execution engine, the scheduler
quantum, the digest cadence, and — for migration / re-randomization
scenarios — warmup, destination architecture, laziness, RNG seed and
shuffle interval. Deterministic fault-injection parameters (a single
bit flip at a given scheduling slice) are also header fields, so even
an intentionally-divergent run reproduces from its own journal.

**Events** journal everything that happened: every scheduling slice
(pid, tid, budget, instructions retired), every syscall with its
arguments and result, every RNG draw, every trap / spawn / restore /
checkpoint / rewrite / migration, every cluster event-queue firing, and
the periodic whole-machine state digests the divergence detector
bisects. Events are plain dicts in memory; encoding happens on save.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional

from .. import wire
from ..errors import JournalError, JournalTruncated, WireError, WireTruncated

MAGIC = b"DAPRJRN1"
VERSION = 1

# -- event kinds ---------------------------------------------------------------

EV_SCHED = 1        #: one scheduling slice: pid/tid ran `b` of budget `a`
EV_DIGEST = 2       #: whole-machine state digest (payload), a = digest index
EV_SYSCALL = 3      #: a = number, payload = packed args, b = result
EV_RNG = 4          #: label = "<service>/<draw label>", a = drawn value
EV_SPAWN = 5        #: process spawned: pid, label = exe path
EV_EXIT = 6         #: process killed/exited: pid, a = exit code
EV_TRAP = 7         #: thread parked at an equivalence point (SIGTRAP)
EV_CHECKPOINT = 8   #: CRIU-style dump taken: pid, a = image bytes
EV_REWRITE = 9      #: a transformation policy ran: label = policy name
EV_RESTORE = 10     #: process restored/adopted: pid, label = arch
EV_MIGRATE = 11     #: cross-ISA migration completed: label = "src->dst"
EV_CLUSTER = 12     #: reserved (cluster EventQueue firing; not emitted)
EV_FAULT = 13       #: injected fault fired: a = address, b = bit for a
                    #: BitFlip; label = "chaos:<kind>@<site>" for chaos
                    #: faults (fault spec lives in the "chaos" header)
EV_END = 14         #: run finished: a = exit code of the last process
EV_STORE = 15       #: checkpoint-store op: label = "put:<id>"/"plan:...",
                    #: a = chunks, b = bytes (content-derived, so
                    #: deterministic across record/replay)
EV_VERIFY = 16      #: pre-restore image verification: label =
                    #: "verify:<verdict>@<stage>", a = findings,
                    #: b = pages repaired (content-derived — verified
                    #: and repaired migrations replay bit-identically)
EV_BARRIER = 17     #: fleet shard barrier: a = barrier time (µs),
                    #: b = events fired in the window, instr = barrier
                    #: index — the journaled barrier schedule is the
                    #: replay contract for sharded fleet runs
EV_GROUP = 18       #: coordinated group checkpoint protocol phase:
                    #: label = "group:<phase>" ("group:prepared",
                    #: "group:aborted@commit", ...), a = member count,
                    #: b = content-derived detail (drained connections,
                    #: prepared members, ...)
EV_RECOVER = 19     #: durable-store crash recovery: label =
                    #: "recover:<clean|torn>", a = checkpoints
                    #: registered after recovery, b = damage handled
                    #: (quarantined chunks + rolled-back txns + orphans
                    #: swept). Purely content-derived from the
                    #: surviving disk, so crash/recover runs replay
                    #: bit-identically

KIND_NAMES = {
    EV_SCHED: "sched", EV_DIGEST: "digest", EV_SYSCALL: "syscall",
    EV_RNG: "rng", EV_SPAWN: "spawn", EV_EXIT: "exit", EV_TRAP: "trap",
    EV_CHECKPOINT: "checkpoint", EV_REWRITE: "rewrite",
    EV_RESTORE: "restore", EV_MIGRATE: "migrate", EV_CLUSTER: "cluster",
    EV_FAULT: "fault", EV_END: "end", EV_STORE: "store",
    EV_VERIFY: "verify", EV_BARRIER: "barrier", EV_GROUP: "group",
    EV_RECOVER: "recover",
}

HEADER_SCHEMA = wire.Schema("JournalHeader", [
    wire.field(1, "version", "int"),
    wire.field(2, "program", "str"),
    wire.field(3, "source", "str"),
    wire.field(4, "scenario", "str"),
    wire.field(5, "engine", "str"),
    wire.field(6, "quantum", "int"),
    wire.field(7, "digest_every", "int"),
    wire.field(8, "src_arch", "str"),
    wire.field(9, "dst_arch", "str"),
    wire.field(10, "warmup", "int"),
    wire.field(11, "lazy", "int"),
    wire.field(12, "seed", "int"),
    wire.field(13, "max_steps", "int"),
    wire.field(14, "interval", "int"),
    wire.field(15, "record_syscalls", "int"),
    wire.field(16, "fault_slice", "int"),
    wire.field(17, "fault_addr", "int"),
    wire.field(18, "fault_bit", "int"),
    wire.field(19, "store", "int"),
    wire.field(20, "chaos", "str"),
    wire.field(21, "retries", "int"),
    wire.field(22, "fleet", "str"),
    wire.field(23, "group", "str"),
    wire.field(24, "verify_gate", "int"),
])

EVENT_SCHEMA = wire.Schema("JournalEvent", [
    wire.field(1, "kind", "int"),
    wire.field(2, "pid", "int"),
    wire.field(3, "tid", "int"),
    wire.field(4, "instr", "int"),
    wire.field(5, "a", "int"),
    wire.field(6, "b", "int"),
    wire.field(7, "label", "str"),
    wire.field(8, "payload", "bytes"),
])


def pack_args(args: List[int]) -> bytes:
    """Pack syscall arguments as concatenated signed varints."""
    return b"".join(wire.encode_signed_varint(a) for a in args)


def unpack_args(blob: bytes) -> List[int]:
    out: List[int] = []
    pos = 0
    while pos < len(blob):
        value, pos = wire.decode_signed_varint(blob, pos)
        out.append(value)
    return out


class Journal:
    """One recorded run: a scenario header plus its event stream."""

    def __init__(self, header: Optional[Dict] = None):
        self.header: Dict = dict(header or {})
        self.header.setdefault("version", VERSION)
        self.events: List[Dict] = []

    # -- recording --------------------------------------------------------

    def append(self, kind: int, **fields) -> Dict:
        event = {"kind": kind}
        for name, value in fields.items():
            if value is not None:
                event[name] = value
        self.events.append(event)
        return event

    # -- queries ----------------------------------------------------------

    def of_kind(self, kind: int) -> List[Dict]:
        return [e for e in self.events if e["kind"] == kind]

    def digests(self) -> List[Dict]:
        """The digest stream, in order (``a`` is the digest index)."""
        return self.of_kind(EV_DIGEST)

    def digest_stream(self) -> List[bytes]:
        return [e["payload"] for e in self.digests()]

    def sched_stream(self) -> List[tuple]:
        return [(e.get("pid", 0), e.get("tid", 0), e.get("a", 0),
                 e.get("b", 0)) for e in self.of_kind(EV_SCHED)]

    def rng_stream(self) -> List[tuple]:
        return [(e.get("label", ""), e.get("a", 0))
                for e in self.of_kind(EV_RNG)]

    def syscall_stream(self) -> List[tuple]:
        return [(e.get("pid", 0), e.get("tid", 0), e.get("a", 0),
                 tuple(unpack_args(e.get("payload", b""))), e.get("b", 0))
                for e in self.of_kind(EV_SYSCALL)]

    def exit_code(self) -> Optional[int]:
        ends = self.of_kind(EV_END)
        return ends[-1].get("a") if ends else None

    def instructions(self) -> int:
        """Total instructions retired across every journaled slice."""
        return sum(e.get("b", 0) for e in self.of_kind(EV_SCHED))

    def summary(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for event in self.events:
            name = KIND_NAMES.get(event["kind"], f"kind{event['kind']}")
            counts[name] = counts.get(name, 0) + 1
        return counts

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        out = bytearray(MAGIC)
        out += wire.encode_varint(self.header.get("version", VERSION))
        header = HEADER_SCHEMA.encode(self.header)
        out += wire.encode_varint(len(header))
        out += header
        for event in self.events:
            blob = EVENT_SCHEMA.encode(event)
            out += wire.encode_varint(len(blob))
            out += blob
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Journal":
        """Decode a journal.

        A blob whose *tail* was cut mid-record (a killed recorder, a
        partial copy) raises :class:`~repro.errors.JournalTruncated`
        carrying every complete record as a partial journal — callers
        like ``repro-debug`` catch it and debug the prefix. Corruption
        anywhere else stays a plain :class:`JournalError`.
        """
        if not blob.startswith(MAGIC):
            raise JournalError("not a flight-recorder journal (bad magic)")
        pos = len(MAGIC)
        try:
            version, pos = wire.decode_varint(blob, pos)
        except WireError as exc:
            raise JournalError(f"corrupt journal: {exc}") from exc
        if version != VERSION:
            raise JournalError(f"unsupported journal version {version}")
        frames: List[bytes] = []
        cut: Optional[WireTruncated] = None
        try:
            for frame in _iter_frames(blob, pos):
                frames.append(frame)
        except WireTruncated as exc:
            cut = exc
        except WireError as exc:
            raise JournalError(f"corrupt journal: {exc}") from exc
        if not frames:
            raise JournalError("journal has no header"
                               if cut is None else
                               "journal truncated before the header")
        # Complete frames that fail schema decode are corruption, not
        # truncation — the frame length said the bytes were all there.
        try:
            journal = cls(HEADER_SCHEMA.decode(frames[0]))
            for frame in frames[1:]:
                journal.events.append(EVENT_SCHEMA.decode(frame))
        except WireError as exc:
            raise JournalError(f"corrupt journal record: {exc}") from exc
        if cut is not None:
            scheds = journal.of_kind(EV_SCHED)
            digests = journal.digests()
            raise JournalTruncated(
                f"journal truncated after {len(journal.events)} complete "
                f"event(s): {cut}",
                journal=journal,
                last_instr=scheds[-1].get("instr", 0) if scheds else 0,
                last_digest=digests[-1].get("a") if digests else None)
        return journal

    def save(self, path: str) -> None:
        with open(path, "wb") as handle:
            handle.write(self.to_bytes())

    @classmethod
    def load(cls, path: str) -> "Journal":
        with open(path, "rb") as handle:
            return cls.from_bytes(handle.read())

    def __repr__(self) -> str:
        return (f"<Journal {self.header.get('scenario', '?')} "
                f"{self.header.get('program', '?')} "
                f"events={len(self.events)}>")


def _iter_frames(blob: bytes, pos: int) -> Iterator[bytes]:
    while pos < len(blob):
        length, pos = wire.decode_varint(blob, pos)
        if pos + length > len(blob):
            raise WireTruncated("truncated journal frame")
        yield blob[pos:pos + length]
        pos += length
