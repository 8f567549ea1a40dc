"""The store's write-ahead intent log.

Every multi-step durable mutation of a backend-backed
:class:`~repro.store.CheckpointStore` — ``put``, ``put_group``,
``adopt`` during a transfer, ``delete``, ``gc``, and a coordinator's
two-phase group checkpoint — is bracketed by WAL records:

* ``begin`` declares the *intent* (action + the ids it will touch)
  before any durable apply,
* ``member`` amends an open group intent with one prepared member
  (the coordinator learns its members one prepare at a time),
* ``commit`` seals the transaction — a mutation is real iff its
  commit record landed,
* ``abort`` closes a transaction whose *in-process* rollback already
  undid its effects (a coordinator abort), so recovery does not undo
  it twice,
* ``snapshot`` is the compaction record: recovery rewrites the WAL as
  one snapshot naming every registered checkpoint, which both bounds
  the log and makes recovery idempotent.

Records are framed ``varint length | canonical-JSON body | blake2b-16
checksum``; the file opens with an 8-byte magic. A torn tail — a
crashed writer, exactly like a truncated flight-recorder journal —
reopens as its **longest valid prefix**: decoding stops at the first
frame that is short or fails its checksum, and reports why, mirroring
the :class:`~repro.errors.JournalTruncated` semantics of
:mod:`repro.replay.journal`.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from .. import wire
from ..errors import StoreError

MAGIC = b"DWAL1\x00\x00\n"

#: checksum width (blake2b-128, same as the chunk digests)
CHECKSUM_SIZE = 16

#: transactional actions an intent may declare
ACTIONS = ("put", "put_group", "adopt", "delete", "gc", "group")


def _canon(obj) -> bytes:
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def encode_record(record: Dict) -> bytes:
    """One framed WAL record: varint length + body + checksum."""
    body = _canon(record)
    digest = hashlib.blake2b(body, digest_size=CHECKSUM_SIZE).digest()
    return wire.encode_varint(len(body)) + body + digest


def decode_wal(blob: bytes) -> Tuple[List[Dict], Optional[str]]:
    """Decode a WAL byte stream to its longest valid prefix.

    Returns ``(records, tail_cut)``; ``tail_cut`` is ``None`` for a
    clean log, otherwise a human-readable reason the tail was cut
    (truncated frame, checksum mismatch, bad magic remainder). Bytes
    past the cut are *ignored*, never trusted — the crashed writer's
    torn append simply never happened.
    """
    if not blob:
        return [], None
    if not blob.startswith(MAGIC):
        return [], "bad WAL magic"
    pos = len(MAGIC)
    records: List[Dict] = []
    while pos < len(blob):
        try:
            length, body_pos = wire.decode_varint(blob, pos)
        except Exception:
            return records, f"torn frame header at byte {pos}"
        end = body_pos + length + CHECKSUM_SIZE
        if end > len(blob):
            return records, (f"torn frame at byte {pos} "
                             f"(needs {end - len(blob)} more byte(s))")
        body = blob[body_pos:body_pos + length]
        checksum = blob[body_pos + length:end]
        if hashlib.blake2b(body,
                           digest_size=CHECKSUM_SIZE).digest() != checksum:
            return records, f"checksum mismatch at byte {pos}"
        try:
            record = json.loads(body)
        except ValueError:
            return records, f"non-JSON record body at byte {pos}"
        if not isinstance(record, dict) or "op" not in record:
            return records, f"malformed record at byte {pos}"
        records.append(record)
        pos = end
    return records, None


class WriteAheadLog:
    """Intent-log writer over one :class:`~repro.store.backend.DirBackend`.

    The log itself is append-only; durability sites (the backend's
    ``wal.append`` / ``wal.fsync``) are consulted on every record, so
    the crash-point sweep exercises the torn-append window between the
    two. Transaction ids are monotonically increasing integers, assigned
    in memory — recovery derives the next id from the surviving log.
    """

    def __init__(self, backend, next_txn: int = 1):
        self.backend = backend
        self.next_txn = next_txn

    # -- record append -----------------------------------------------------

    def _append(self, record: Dict) -> None:
        self.backend.wal_append(encode_record(record))

    def init(self, codec: str) -> None:
        """Write the opening snapshot of a fresh (empty) log."""
        self.backend.wal_create(MAGIC)
        self._append({"op": "snapshot", "codec": codec,
                      "checkpoints": []})

    def begin(self, action: str, cid: str = "",
              members: Optional[List[str]] = None,
              digests: Optional[List[str]] = None,
              label: str = "") -> int:
        if action not in ACTIONS:
            raise StoreError(f"unknown WAL action {action!r}")
        txn = self.next_txn
        self.next_txn += 1
        record = {"op": "begin", "txn": txn, "action": action}
        if cid:
            record["cid"] = cid
        if members is not None:
            record["members"] = list(members)
        if digests is not None:
            record["digests"] = list(digests)
        if label:
            record["label"] = label
        self._append(record)
        return txn

    def member(self, txn: int, cid: str) -> None:
        """Amend an open group intent with one prepared member."""
        self._append({"op": "member", "txn": txn, "cid": cid})

    def commit(self, txn: int, cid: str = "") -> None:
        record = {"op": "commit", "txn": txn}
        if cid:
            record["cid"] = cid
        self._append(record)

    def abort(self, txn: int) -> None:
        self._append({"op": "abort", "txn": txn})

    # -- compaction --------------------------------------------------------

    def compact(self, codec: str, checkpoints: List[str]) -> None:
        """Atomically rewrite the log as one snapshot record — unless it
        already is exactly that record, so reopening a store that
        nothing changed since its last recovery writes nothing."""
        blob = MAGIC + encode_record({"op": "snapshot", "codec": codec,
                                      "checkpoints": list(checkpoints)})
        if self.backend.wal_read() != blob:
            self.backend.wal_replace(blob)
        self.next_txn = 1


class WalState:
    """The durable truth a WAL stream folds to.

    * ``codec`` — the store codec from the latest snapshot,
    * ``registered`` — checkpoint ids in registration order after every
      committed transaction is applied (puts/adopts/groups add, deletes
      remove),
    * ``gc_unlinked`` — chunk digests a *committed* gc intent promised
      to remove (roll-forward set),
    * ``open_txns`` — txn id -> begin record (with accumulated
      ``members``) for every transaction left open at the cut: the
      roll-back set,
    * ``max_txn`` — highest txn id seen (the next writer starts past
      it).
    """

    def __init__(self):
        self.codec = "zlib"
        self.registered: List[str] = []
        self.gc_unlinked: List[str] = []
        self.open_txns: Dict[int, Dict] = {}
        self.max_txn = 0

    def _add(self, cid: str) -> None:
        if cid and cid not in self.registered:
            self.registered.append(cid)

    def apply(self, record: Dict) -> None:
        op = record.get("op")
        if op == "snapshot":
            self.codec = record.get("codec", "zlib")
            self.registered = list(record.get("checkpoints", []))
            return
        txn = int(record.get("txn", 0))
        if txn > self.max_txn:
            self.max_txn = txn
        if op == "begin":
            self.open_txns[txn] = dict(record)
            self.open_txns[txn].setdefault("members", [])
            return
        if op == "member":
            intent = self.open_txns.get(txn)
            if intent is not None:
                intent["members"].append(record.get("cid", ""))
            return
        if op == "abort":
            self.open_txns.pop(txn, None)
            return
        if op == "commit":
            intent = self.open_txns.pop(txn, None)
            if intent is None:
                return
            action = intent.get("action", "")
            if action in ("put", "adopt", "put_group"):
                self._add(intent.get("cid", ""))
            elif action == "group":
                # The group id is only known at commit time (it is the
                # manifest chunk's content digest).
                self._add(record.get("cid", ""))
            elif action == "delete":
                cid = intent.get("cid", "")
                if cid in self.registered:
                    self.registered.remove(cid)
            elif action == "gc":
                self.gc_unlinked.extend(intent.get("digests", []))


def fold_wal(records: List[Dict]) -> WalState:
    """Fold a decoded record stream into its end state."""
    state = WalState()
    for record in records:
        state.apply(record)
    return state
