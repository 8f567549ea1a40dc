"""Checkpoints as manifests of content-addressed chunks.

A checkpoint is stored as a *manifest*: canonical JSON naming the
chunk digest of every meta image (inventory, cores, mm, files,
pagemap) plus ``[vaddr, digest]`` pairs for each memory page whose
data this checkpoint carries. The manifest blob is itself a chunk, and
its digest is the **checkpoint id** — identical checkpoints collapse
to one entry automatically.

Incremental dumps store only dirty pages; unchanged pages are
:data:`~repro.criu.images.PE_PARENT` runs in the pagemap and resolve
through the ``parent`` chain at :meth:`CheckpointStore.materialize`
time. Reference counts on the chunk layer mirror manifest references
exactly, so :meth:`CheckpointStore.verify` can audit the books and
:meth:`ChunkStore.gc` reclaims whatever :meth:`delete` unpins.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..criu.dump import dump_process
from ..criu.images import ImageSet, PagemapEntry, PagemapImage
from ..errors import ReproError, StoreError
from ..mem.paging import PAGE_SIZE
from .backend import DirBackend, OsDisk
from .chunks import ChunkStore, check_chunk, chunk_digest
from .wal import WriteAheadLog, decode_wal, fold_wal

#: every image file except the page data itself
_PAGES_FILE = "pages-1.img"


def _canon(obj) -> bytes:
    """Canonical JSON — byte-stable across runs, so manifest digests
    (and therefore checkpoint ids and replay journals) are too."""
    return json.dumps(obj, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class PutResult:
    """What one :meth:`CheckpointStore.put` did."""

    __slots__ = ("checkpoint_id", "created", "delta", "new_chunks",
                 "dup_chunks", "new_physical_bytes", "logical_bytes",
                 "pages_total", "pages_carried")

    def __init__(self, checkpoint_id: str, created: bool, delta: bool,
                 new_chunks: int, dup_chunks: int,
                 new_physical_bytes: int, logical_bytes: int,
                 pages_total: int, pages_carried: int):
        self.checkpoint_id = checkpoint_id
        self.created = created
        self.delta = delta
        self.new_chunks = new_chunks
        self.dup_chunks = dup_chunks
        self.new_physical_bytes = new_physical_bytes
        self.logical_bytes = logical_bytes
        self.pages_total = pages_total
        self.pages_carried = pages_carried

    @property
    def dedup_ratio(self) -> float:
        """logical : physical for this put (>= 1 means savings)."""
        if self.new_physical_bytes <= 0:
            return float("inf") if self.logical_bytes else 1.0
        return self.logical_bytes / self.new_physical_bytes

    def __repr__(self) -> str:
        kind = "delta" if self.delta else "full"
        return (f"<PutResult {self.checkpoint_id[:12]} {kind} "
                f"+{self.new_chunks}/{self.dup_chunks}dup chunks "
                f"+{self.new_physical_bytes}B phys "
                f"({self.logical_bytes}B logical)>")


class RecoveryReport:
    """What :meth:`CheckpointStore.recover` found and did."""

    def __init__(self):
        #: checkpoint ids registered after recovery, in WAL order
        self.checkpoints: List[str] = []
        #: chunk digests whose files were torn/corrupt → quarantined
        self.quarantined: List[str] = []
        #: committed checkpoints skipped because a chunk they need was
        #: damaged (cascades through children and groups)
        self.damaged: List[str] = []
        #: open (uncommitted) transactions rolled back, as
        #: ``(txn, action, cid-or-"")``
        self.rolled_back: List[Tuple[int, str, str]] = []
        #: member checkpoint ids of aborted coordinator group intents —
        #: the caller (coordinator / fleet) resumes these processes
        self.aborted_group_members: List[str] = []
        #: unreferenced chunk files swept from disk
        self.orphans_swept: int = 0
        #: in-flight tmp files discarded
        self.tmp_swept: int = 0
        #: why the WAL tail was cut, or None for a clean log
        self.tail_cut: Optional[str] = None
        #: post-recovery fsck findings (empty on a healthy recovery)
        self.fsck: List[str] = []

    @property
    def clean(self) -> bool:
        return not self.fsck

    @property
    def damage_handled(self) -> int:
        return (len(self.quarantined) + len(self.rolled_back)
                + len(self.damaged) + self.orphans_swept)

    def __repr__(self) -> str:
        return (f"<RecoveryReport {len(self.checkpoints)} ckpts "
                f"quarantined={len(self.quarantined)} "
                f"rolled_back={len(self.rolled_back)} "
                f"orphans={self.orphans_swept} "
                f"{'clean' if self.clean else 'DIRTY'}>")


class ScrubReport:
    """One :meth:`CheckpointStore.scrub` pass over a digest window."""

    def __init__(self):
        self.scanned = 0
        self.logical_bytes = 0
        self.corrupt: List[str] = []
        self.repaired: List[str] = []
        self.quarantined: List[str] = []
        #: digest to resume the next incremental window from ("" = done)
        self.cursor: str = ""

    def __repr__(self) -> str:
        return (f"<ScrubReport scanned={self.scanned} "
                f"corrupt={len(self.corrupt)} "
                f"repaired={len(self.repaired)} "
                f"quarantined={len(self.quarantined)}>")


class CheckpointStore:
    """Checkpoint manifests over a :class:`ChunkStore`.

    With no ``backend`` the store is purely in-memory (the seed
    behaviour, unchanged). With a :class:`~repro.store.backend.DirBackend`
    every mutation is made *crash-consistent*: chunk files land
    content-addressed via write-tmp/fsync/rename, and every multi-step
    mutation (put / put_group / adopt / delete / gc / coordinator
    group) is bracketed by write-ahead intents, so
    :meth:`recover` can reopen whatever a crash left behind.
    """

    def __init__(self, codec: str = "zlib", backend=None):
        self.chunks = ChunkStore(codec=codec)
        # checkpoint id -> manifest dict, in registration order
        self._checkpoints: Dict[str, dict] = {}
        # checkpoint id -> logical_bytes() (a registered manifest never
        # changes), and their running sum: stats() is read on every
        # store-backed migration and must not decode a pagemap per
        # live checkpoint. verify() audits both.
        self._logical: Dict[str, int] = {}
        self._logical_total = 0
        self.backend = backend
        self.wal: Optional[WriteAheadLog] = None
        if backend is not None:
            if backend.has_wal():
                raise StoreError(
                    "backend already holds a durable store — open it "
                    "with CheckpointStore.recover()")
            self.wal = WriteAheadLog(backend)
            self.wal.init(codec)

    # -- durable plumbing --------------------------------------------------

    @property
    def durable(self) -> bool:
        return self.backend is not None

    def _persist_chunk(self, digest: str) -> None:
        """Publish one in-memory chunk as a durable file (idempotent)."""
        chunk = self.chunks.chunk(digest)
        self.backend.put_chunk(digest, chunk.codec, chunk.logical_size,
                               chunk.payload)

    def _persist_refs(self, checkpoint_id: str, manifest: dict) -> None:
        for ref in sorted(set(self._manifest_refs(checkpoint_id,
                                                  manifest))):
            self._persist_chunk(ref)

    # -- ingest -----------------------------------------------------------

    def put(self, images: ImageSet, parent: Optional[str] = None
            ) -> PutResult:
        """Store an image set; returns the checkpoint id + metrics.

        ``parent`` must be given iff ``images`` is a delta dump, and
        every PE_PARENT page in it must resolve through the parent
        chain.
        """
        delta = images.is_delta()
        if delta and parent is None:
            raise StoreError("delta image set needs a parent checkpoint")
        if parent is not None and parent not in self._checkpoints:
            raise StoreError(f"unknown parent checkpoint {parent[:12]}")

        pagemap = images.pagemap()
        if parent is not None:
            unresolved = self.unresolved_pages(parent, pagemap)
            if unresolved:
                raise StoreError(
                    f"delta references page {unresolved[0]:#x} that "
                    f"parent chain {parent[:12]} cannot resolve")

        new_chunks = 0
        dup_chunks = 0
        new_physical = 0

        def _ensure(data: bytes, digest: Optional[str] = None) -> str:
            nonlocal new_chunks, dup_chunks, new_physical
            digest, created = self.chunks.ensure(data, digest)
            if created:
                new_chunks += 1
                new_physical += self.chunks.stored_size(digest)
            else:
                dup_chunks += 1
            return digest

        # Every chunk is addressed by a digest the image set holds for
        # this very blob (hashed at most once by anyone): meta files by
        # their memoised chunk addresses — the terms of the set's
        # content digest — and pages by the image's leaves.
        meta = {name: _ensure(blob, images.file_digest(name))
                for name, blob in sorted(images.files.items())
                if name != _PAGES_FILE}

        leaves = images.page_leaves()
        blob, digests = leaves.blob, leaves.manifest()
        pages: List[List] = [
            [vaddr, _ensure(blob[offset:offset + PAGE_SIZE], digests[vaddr])]
            for vaddr, offset in leaves.offsets.items()]
        pages.sort(key=lambda item: item[0])

        manifest = {
            "parent": parent or "",
            "arch": images.inventory().arch,
            "pid": images.inventory().pid,
            "meta": meta,
            "pages": pages,
        }
        manifest_blob = _canon(manifest)
        checkpoint_id = _ensure(manifest_blob)

        logical = (sum(len(b) for n, b in images.files.items()
                       if n != _PAGES_FILE)
                   + pagemap.total_pages() * PAGE_SIZE)

        if checkpoint_id in self._checkpoints:
            # Identical content put twice: one checkpoint, no extra refs.
            return PutResult(checkpoint_id, False, delta, new_chunks,
                             dup_chunks, new_physical, logical,
                             pagemap.total_pages(), len(pages))

        if self.durable:
            # Intent first, chunk files second, commit third: a crash
            # anywhere in between recovers as "this put never
            # happened" (orphan files swept), while a durable commit
            # record guarantees every referenced chunk file already
            # landed — committed checkpoints reopen byte-identically.
            txn = self.wal.begin("put", cid=checkpoint_id)
            self._persist_refs(checkpoint_id, manifest)
            self.wal.commit(txn)
        self._register(checkpoint_id, manifest)
        return PutResult(checkpoint_id, True, delta, new_chunks,
                         dup_chunks, new_physical, logical,
                         pagemap.total_pages(), len(pages))

    def put_group(self, member_ids: List[str], label: str = "",
                  txn: Optional[int] = None) -> str:
        """Atomically register a *group manifest* covering already-put
        member checkpoints — the commit point of a coordinated group
        checkpoint (:mod:`repro.group`): one chunk either registers or
        it does not, so a coordinator crash can never leave a partial
        group visible.

        The group manifest pins every member (like a parent link), so
        :meth:`delete` refuses to drop a member while a live group
        still references it. The returned group id is the manifest
        chunk's digest — content-derived, replay-stable.

        ``txn`` is an open coordinator intent from :meth:`group_begin`;
        when given, the group's WAL commit record seals that
        transaction (carrying the group id, which is only known here),
        making this call the durable commit point of the whole
        two-phase protocol.
        """
        if not member_ids:
            raise StoreError("group manifest needs at least one member")
        for member in member_ids:
            if member not in self._checkpoints:
                raise StoreError(f"group member {member[:12]} is not a "
                                 f"registered checkpoint")
            if self.is_group(member):
                raise StoreError(f"group member {member[:12]} is itself "
                                 f"a group manifest")
        manifest = {"kind": "group", "label": label,
                    "members": list(member_ids)}
        group_id, _created = self.chunks.ensure(_canon(manifest))
        if group_id in self._checkpoints:
            if self.durable and txn is not None:
                self.wal.commit(txn, cid=group_id)
            return group_id
        if self.durable:
            if txn is None:
                txn = self.wal.begin("put_group", cid=group_id,
                                     members=list(member_ids),
                                     label=label)
            self._persist_refs(group_id, manifest)
            self.wal.commit(txn, cid=group_id)
        self._register(group_id, manifest)
        return group_id

    # -- coordinator group intents ----------------------------------------

    def group_begin(self, label: str = "") -> Optional[int]:
        """Open a coordinated-group intent *before* any member is
        prepared. Returns the WAL transaction id (None on an in-memory
        store). Amend it with :meth:`group_member` as members prepare;
        :meth:`put_group` (with ``txn=``) commits it, and
        :meth:`group_abort` closes it after an in-process rollback."""
        if not self.durable:
            return None
        return self.wal.begin("group", label=label)

    def group_member(self, txn: Optional[int], member_id: str) -> None:
        """Record one prepared member on an open group intent, so a
        coordinator crash before commit knows exactly which member
        checkpoints to roll back and which processes to resume."""
        if self.durable and txn is not None:
            self.wal.member(txn, member_id)

    def group_abort(self, txn: Optional[int]) -> None:
        """Seal an aborted group intent whose in-process rollback
        already deleted the prepared members — recovery must not undo
        it a second time."""
        if self.durable and txn is not None:
            self.wal.abort(txn)

    def adopt_chunk(self, digest: str, codec: str, payload: bytes,
                    logical_size: int) -> bool:
        """Install an already-compressed chunk (the receive side of a
        transfer), persisting it durably when backed. No WAL record:
        chunk files are content-addressed and self-verifying, so an
        unreferenced one left by a crashed transfer is simply swept as
        an orphan at :meth:`recover` time."""
        created = self.chunks.adopt(digest, codec, payload, logical_size)
        if self.durable:
            self._persist_chunk(digest)
        return created

    def adopt_manifest(self, manifest_blob: bytes) -> str:
        """Register a manifest whose chunks are already present (the
        receive side of a delta transfer). Idempotent. The blob is
        stored only once the manifest is admitted, so a refused one
        leaves no orphan chunk behind."""
        digest = chunk_digest(manifest_blob)
        known = digest in self._checkpoints
        if not known:
            try:
                manifest = json.loads(manifest_blob)
            except ValueError as exc:
                raise StoreError(f"manifest {digest[:12]} is not JSON: "
                                 f"{exc}") from exc
            _refs, problems = self._admit(digest, manifest)
            if problems:
                raise StoreError(problems[0])
        self.chunks.ensure(manifest_blob, digest)
        if known:
            return digest
        if self.durable:
            txn = self.wal.begin("adopt", cid=digest)
            self._persist_refs(digest, manifest)
            self.wal.commit(txn)
        self._register(digest, manifest)
        return digest

    def _admit(self, checkpoint_id: str, manifest
               ) -> Tuple[List[str], List[str]]:
        """The manifest-admission rule: ``manifest`` is an object, its
        parent and members are registered checkpoints, its references
        are well-formed digests, and every one of them is a present
        chunk. Returns ``(references, problems)``; no problems means
        the manifest may register. :meth:`adopt_manifest` raises the
        first problem, :meth:`recover` skips the manifest as damaged,
        and :meth:`verify` reports every one."""
        where = f"manifest {checkpoint_id[:12]}"
        if not isinstance(manifest, dict):
            return [], [f"{where} is not an object"]
        group = manifest.get("kind") == "group"
        try:
            refs = self._manifest_refs(checkpoint_id, manifest)
            linked = list(manifest["members"]) if group \
                else [manifest.get("parent") or ""]
            # a checkpoint is measured by its pagemap when it registers
            wellformed = (group or "pagemap.img" in manifest["meta"]) \
                and all(isinstance(ref, str) for ref in refs + linked)
        except (AttributeError, KeyError, TypeError, ValueError):
            wellformed = False
        if not wellformed:
            return [], [f"{where} is malformed"]
        link = "member" if group else "parent"
        problems = [f"{where}: {link} {cid[:12]} not registered"
                    for cid in linked
                    if cid and cid not in self._checkpoints]
        problems.extend(f"{where}: missing chunk {ref[:12]}"
                        for ref in refs if not self.chunks.has(ref))
        return refs, problems

    def _manifest_refs(self, checkpoint_id: str, manifest: dict
                       ) -> List[str]:
        """Every chunk reference a registered manifest pins (with
        multiplicity): its own blob, metas, pages, parent manifest —
        or, for a group manifest, its own blob plus every member."""
        refs = [checkpoint_id]
        if manifest.get("kind") == "group":
            refs.extend(manifest["members"])
            return refs
        refs.extend(manifest["meta"].values())
        refs.extend(digest for _vaddr, digest in manifest["pages"])
        if manifest.get("parent"):
            refs.append(manifest["parent"])
        return refs

    def _register(self, checkpoint_id: str, manifest: dict) -> None:
        for ref in self._manifest_refs(checkpoint_id, manifest):
            self.chunks.incref(ref)
        self._index(checkpoint_id, manifest)

    def _index(self, checkpoint_id: str, manifest: dict) -> None:
        """Enter a manifest whose references are already counted."""
        self._checkpoints[checkpoint_id] = manifest
        size = self._logical[checkpoint_id] = self._measure(checkpoint_id)
        self._logical_total += size

    # -- lookup -----------------------------------------------------------

    def __contains__(self, checkpoint_id: str) -> bool:
        return checkpoint_id in self._checkpoints

    def checkpoint_ids(self) -> List[str]:
        return list(self._checkpoints)

    def manifest(self, checkpoint_id: str) -> dict:
        try:
            return self._checkpoints[checkpoint_id]
        except KeyError:
            raise StoreError(
                f"unknown checkpoint {checkpoint_id[:12]}") from None

    def parent_of(self, checkpoint_id: str) -> Optional[str]:
        parent = self.manifest(checkpoint_id).get("parent", "")
        return parent or None

    def chain(self, checkpoint_id: str) -> List[str]:
        """Ancestry, root first, ``checkpoint_id`` last."""
        out = []
        cursor: Optional[str] = checkpoint_id
        while cursor is not None:
            if cursor in out:
                raise StoreError(f"parent cycle at {cursor[:12]}")
            out.append(cursor)
            cursor = self.parent_of(cursor)
        out.reverse()
        return out

    def children(self, checkpoint_id: str) -> List[str]:
        return [cid for cid, man in self._checkpoints.items()
                if man.get("parent", "") == checkpoint_id]

    # -- group manifests ----------------------------------------------------

    def is_group(self, checkpoint_id: str) -> bool:
        return self.manifest(checkpoint_id).get("kind") == "group"

    def group_ids(self) -> List[str]:
        return [cid for cid, man in self._checkpoints.items()
                if man.get("kind") == "group"]

    def members(self, group_id: str) -> List[str]:
        manifest = self.manifest(group_id)
        if manifest.get("kind") != "group":
            raise StoreError(
                f"checkpoint {group_id[:12]} is not a group manifest")
        return list(manifest["members"])

    def groups_referencing(self, checkpoint_id: str) -> List[str]:
        """Group manifests that pin ``checkpoint_id`` as a member."""
        return [gid for gid, man in self._checkpoints.items()
                if man.get("kind") == "group"
                and checkpoint_id in man["members"]]

    def resolve_pages(self, checkpoint_id: str) -> Dict[int, str]:
        """vaddr -> chunk digest for every page of the checkpoint,
        resolved through the parent chain (child wins), restricted to
        the pages the leaf's pagemap actually maps (a page unmapped
        since an ancestor does not resurface)."""
        resolved: Dict[int, str] = {}
        for cid in self.chain(checkpoint_id):
            resolved.update({vaddr: digest for vaddr, digest
                             in self.manifest(cid)["pages"]})
        live = set(self._pagemap(checkpoint_id).page_addresses())
        return {vaddr: digest for vaddr, digest in resolved.items()
                if vaddr in live}

    def unresolved_pages(self, parent: str, pagemap: PagemapImage
                         ) -> List[int]:
        """The delta-resolvability rule: every ``PE_PARENT`` page of
        ``pagemap`` resolves through ``parent``'s chain. Returns the
        page addresses that do not, in pagemap order; raises
        :class:`StoreError` for an unknown parent or a broken chain."""
        resolvable = self.resolve_pages(parent)
        return [base for entry in pagemap.entries if entry.in_parent
                for base in range(entry.vaddr,
                                  entry.vaddr + entry.nr_pages * PAGE_SIZE,
                                  PAGE_SIZE)
                if base not in resolvable]

    def _pagemap(self, checkpoint_id: str) -> PagemapImage:
        digest = self.manifest(checkpoint_id)["meta"]["pagemap.img"]
        return PagemapImage.from_bytes(self.chunks.get(digest))

    def logical_bytes(self, checkpoint_id: str) -> int:
        """Size of the checkpoint as a *full* (non-delta) image set —
        what a plain scp copy of it would ship. For a group manifest:
        the sum over its members."""
        self.manifest(checkpoint_id)       # unknown id: typed error
        return self._logical[checkpoint_id]

    def _measure(self, checkpoint_id: str) -> int:
        """:meth:`logical_bytes` computed from the stored chunks."""
        manifest = self.manifest(checkpoint_id)
        if manifest.get("kind") == "group":
            return sum(self._measure(member)
                       for member in manifest["members"])
        meta_bytes = sum(self.chunks.chunk(d).logical_size
                         for d in manifest["meta"].values())
        return (meta_bytes
                + self._pagemap(checkpoint_id).total_pages() * PAGE_SIZE)

    # -- materialize ------------------------------------------------------

    def materialize(self, checkpoint_id: str, verify: bool = False,
                    binary=None) -> ImageSet:
        """Rebuild a full :class:`ImageSet` (no PE_PARENT runs left).

        For a full checkpoint this reproduces the stored image set
        byte-for-byte; for a delta it folds the parent chain in.

        ``verify=True`` runs the rebuilt set through the restore guard
        (:func:`repro.verify.verify_images`) against this checkpoint's
        own page manifest — a second line of defense past the chunks'
        read-time re-hashing, catching a manifest that resolves to the
        wrong (but individually intact) chunks. Raises
        :class:`~repro.errors.VerifyError` on failure; pass ``binary``
        to extend the check to the semantic pass.
        """
        manifest = self.manifest(checkpoint_id)
        if manifest.get("kind") == "group":
            raise StoreError(
                f"checkpoint {checkpoint_id[:12]} is a group manifest — "
                f"materialize its members individually")
        files = {name: self.chunks.get(digest)
                 for name, digest in manifest["meta"].items()}
        pagemap = PagemapImage.from_bytes(files["pagemap.img"])
        pages = self.resolve_pages(checkpoint_id)

        blob = bytearray()
        entries: List[PagemapEntry] = []
        for entry in pagemap.entries:
            # Canonical full form: flags cleared, and runs that were
            # only split at a PE_PARENT boundary merged back — a
            # materialized delta is byte-identical to the full dump a
            # plain dump_process would have produced.
            if (entries and entry.vaddr == entries[-1].vaddr
                    + entries[-1].nr_pages * PAGE_SIZE):
                entries[-1].nr_pages += entry.nr_pages
            else:
                entries.append(PagemapEntry(entry.vaddr,
                                            entry.nr_pages, 0))
            for i in range(entry.nr_pages):
                base = entry.vaddr + i * PAGE_SIZE
                digest = pages.get(base)
                if digest is None:
                    raise StoreError(
                        f"checkpoint {checkpoint_id[:12]}: page "
                        f"{base:#x} unresolvable (broken chain?)")
                blob += self.chunks.get(digest)
        images = ImageSet(files)
        inventory = images.inventory()
        if inventory.parent:
            inventory.parent = ""
            images.set_inventory(inventory)
        images.set_pagemap(PagemapImage(entries))
        images.set_pages(bytes(blob))
        if verify:
            from ..verify import verify_images
            verify_images(images, binary=binary, store=self,
                          page_digests=pages)
        return images

    # -- lifecycle --------------------------------------------------------

    def delete(self, checkpoint_id: str) -> None:
        """Unregister a checkpoint (children must go first, and a member
        of a live group manifest is refused — delete the group first);
        chunk data is reclaimed by the next :meth:`ChunkStore.gc`."""
        manifest = self.manifest(checkpoint_id)
        kids = self.children(checkpoint_id)
        if kids:
            raise StoreError(
                f"checkpoint {checkpoint_id[:12]} has "
                f"{len(kids)} dependent child(ren); delete those first")
        groups = self.groups_referencing(checkpoint_id)
        if groups:
            raise StoreError(
                f"checkpoint {checkpoint_id[:12]} is a member of "
                f"{len(groups)} group manifest(s) "
                f"({', '.join(g[:12] for g in groups)}); delete those "
                f"first")
        if self.durable:
            # Intent + commit with no durable apply in between: the
            # unregistration is real iff the commit record landed;
            # chunk files linger until the next gc either way.
            txn = self.wal.begin("delete", cid=checkpoint_id)
            self.wal.commit(txn)
        self._delete_mem(checkpoint_id, manifest)

    def _delete_mem(self, checkpoint_id: str, manifest: dict) -> None:
        for ref in self._manifest_refs(checkpoint_id, manifest):
            self.chunks.decref(ref)
        del self._checkpoints[checkpoint_id]
        self._logical_total -= self._logical.pop(checkpoint_id)

    def gc(self) -> Tuple[int, int]:
        if not self.durable:
            return self.chunks.gc()
        dead = self.chunks.orphans()
        txn = self.wal.begin("gc", digests=dead)
        reclaimed = self.chunks.gc()
        for digest in dead:
            self.backend.unlink_chunk(digest)
        self.wal.commit(txn)
        return reclaimed

    # -- fsck -------------------------------------------------------------

    def verify(self) -> List[str]:
        """Chunk-level fsck plus referential audit of the manifests.

        The refcount books are cross-checked in *both* directions
        against what the live manifests + group manifests actually
        reference (plus the raw pins the page server holds): an
        under-referenced chunk could be freed while still needed, an
        over-referenced one is a leak gc can never reclaim.
        """
        problems = self.chunks.verify()
        expected: Counter = Counter()
        admitted = True
        for cid, manifest in self._checkpoints.items():
            refs, found = self._admit(cid, manifest)
            problems.extend(found)
            expected.update(refs)
            admitted = admitted and not found
        pins = self.chunks.raw_pins
        for digest in self.chunks.digests():
            refs = self.chunks.chunk(digest).refs
            want = expected.get(digest, 0) + pins.get(digest, 0)
            if refs < want:
                problems.append(f"chunk {digest[:12]}: under-referenced "
                                f"({refs} < {want})")
            elif refs > want:
                problems.append(f"chunk {digest[:12]}: over-referenced "
                                f"({refs} > {want}; {refs - want} "
                                f"reference(s) unaccounted for)")
        if not admitted:
            return problems                # unmeasurable: reported above
        try:
            logical = sum(map(self._measure, self._checkpoints))
        except ReproError:
            pass                           # unreadable: reported above
        else:
            if logical != self._logical_total:
                problems.append(f"running logical total "
                                f"{self._logical_total} != {logical} "
                                f"measured")
        return problems

    # -- crash recovery ----------------------------------------------------

    @classmethod
    def recover(cls, backend, recorder=None
                ) -> Tuple["CheckpointStore", RecoveryReport]:
        """Reopen whatever a crash left on ``backend``.

        The recovery state machine, in order:

        1. decode the WAL to its longest valid prefix and fold it;
        2. load every surviving chunk file, quarantining any that is
           torn or corrupt (bad framing, wrong hash, wrong size);
        3. register committed manifests in WAL order, rebuilding the
           refcount books purely from manifest references; a manifest
           whose chunks were quarantined is skipped as *damaged*, and
           the skip cascades through its children and groups;
        4. roll back open (uncommitted) transactions — in particular a
           coordinator group intent whose commit record never landed
           has its prepared member checkpoints unregistered, and they
           are reported so the caller can resume the member processes;
        5. sweep in-flight tmp files and unreferenced (orphan) chunk
           files — the debris of rolled-back puts and crashed
           transfers;
        6. fsck the result (:meth:`verify`);
        7. compact the WAL to one snapshot record, making recovery
           idempotent: recovering again reopens the identical store
           (and, the log being compact already, rewrites nothing).

        Every step is content-derived from the surviving disk, so a
        crash/recover run journals (``EV_RECOVER`` via ``recorder``)
        and replays bit-identically.
        """
        report = RecoveryReport()
        records, tail_cut = decode_wal(backend.wal_read())
        report.tail_cut = tail_cut
        state = fold_wal(records)

        store = cls(codec=state.codec)
        store.backend = backend
        store.wal = WriteAheadLog(backend, next_txn=state.max_txn + 1)

        # 2. chunk files: load-or-quarantine
        for digest in backend.list_chunks():
            try:
                info = backend.read_chunk(digest)
                store.chunks.adopt(digest, info["codec"],
                                   info["payload"], info["logical"])
            except StoreError:
                backend.quarantine_chunk(digest)
                report.quarantined.append(digest)

        # 3. committed manifests, in WAL order (parents land before
        # children and members before groups because their commits did)
        for cid in state.registered:
            if cid in store._checkpoints:
                continue
            if not store._recover_manifest(cid):
                report.damaged.append(cid)

        # 4. roll back open transactions
        for txn in sorted(state.open_txns):
            intent = state.open_txns[txn]
            action = intent.get("action", "?")
            report.rolled_back.append((txn, action,
                                       intent.get("cid", "")))
            if action != "group":
                # An uncommitted put/adopt never registered (no commit
                # record), an uncommitted delete never unregistered,
                # and a half-done gc is finished by the orphan sweep.
                continue
            for member in reversed(intent.get("members", [])):
                if (member in store._checkpoints
                        and not store.children(member)
                        and not store.groups_referencing(member)):
                    store._delete_mem(member, store._checkpoints[member])
                    report.aborted_group_members.append(member)

        # 5. sweep debris
        report.tmp_swept = backend.sweep_tmp()
        dead = set(store.chunks.orphans())
        store.chunks.gc()
        for digest in backend.list_chunks():
            if digest in dead or not store.chunks.has(digest):
                backend.unlink_chunk(digest)
                report.orphans_swept += 1

        # 6. fsck + 7. compact
        report.checkpoints = list(store._checkpoints)
        report.fsck = store.verify()
        store.wal.compact(state.codec, list(store._checkpoints))

        if recorder is not None:
            from ..replay.journal import EV_RECOVER
            verdict = "torn" if tail_cut else "clean"
            recorder.on_event(EV_RECOVER, label=f"recover:{verdict}",
                              a=len(store._checkpoints),
                              b=report.damage_handled)
        return store, report

    def _recover_manifest(self, cid: str) -> bool:
        """Register one committed checkpoint during recovery; False
        (and nothing registered) when its manifest chunk is missing or
        unreadable or the manifest is not admissible."""
        try:
            manifest = json.loads(self.chunks.get(cid))
        except (StoreError, ValueError):
            return False
        if self._admit(cid, manifest)[1]:
            return False
        self._register(cid, manifest)
        return True

    # -- scrubbing ---------------------------------------------------------

    def scrub(self, binary=None, start: str = "",
              limit: Optional[int] = None) -> ScrubReport:
        """Incremental integrity scrub over the chunk population.

        Re-hashes every chunk in ``(start, …]`` digest order (at most
        ``limit`` of them — run repeatedly with ``start=report.cursor``
        to cover the store in windows). A chunk whose in-memory copy
        *or* durable file no longer matches its digest is **corrupt**;
        when ``binary`` (the linked :class:`~repro.isa.DelfBinary`) is
        given, clean text pages are rebuilt from the binary by digest
        exactly like the restore guard's repair pass (PR 5) and
        re-persisted; anything unrepairable is quarantined on disk and
        reported.
        """
        report = ScrubReport()
        digests = [d for d in self.chunks.digests() if d > start]
        if limit is not None:
            report.cursor = digests[limit - 1] \
                if len(digests) > limit else ""
            digests = digests[:limit]
        for digest in digests:
            report.scanned += 1
            chunk = self.chunks.chunk(digest)
            report.logical_bytes += chunk.logical_size
            if self._chunk_intact(digest):
                continue
            report.corrupt.append(digest)
            page = self._rebuild_page(digest, binary)
            if page is None:
                report.quarantined.append(digest)
                if self.durable:
                    self.backend.quarantine_chunk(digest)
                continue
            self._reinstall(digest, page)
            report.repaired.append(digest)
        return report

    def _chunk_intact(self, digest: str) -> bool:
        """Both copies of one chunk (memory and, when durable, disk)
        pass :func:`~repro.store.chunks.check_chunk`."""
        chunk = self.chunks.chunk(digest)
        try:
            check_chunk(digest, chunk.codec, chunk.payload,
                        chunk.logical_size)
            if self.durable:
                info = self.backend.read_chunk(digest)
                check_chunk(digest, info["codec"], info["payload"],
                            info["logical"])
        except StoreError:
            return False
        return True

    def _rebuild_page(self, digest: str, binary) -> Optional[bytes]:
        """Rebuild a corrupt *text page* chunk from the linked binary:
        find a manifest that maps the digest at some vaddr, ask the
        binary for that page, and accept it only if it re-hashes to the
        address (the same digest-directed repair the restore guard
        uses)."""
        if binary is None:
            return None
        from ..verify.verifier import _binary_page
        for manifest in self._checkpoints.values():
            if manifest.get("kind") == "group":
                continue
            for vaddr, page_digest in manifest["pages"]:
                if page_digest != digest:
                    continue
                page = _binary_page(binary, vaddr)
                if chunk_digest(page) == digest:
                    return page
        return None

    def _reinstall(self, digest: str, data: bytes) -> None:
        """Overwrite a corrupt chunk (memory + disk) with clean bytes,
        re-deriving the codec choice exactly like the original insert
        so repaired stores stay byte-identical to never-damaged ones."""
        self.chunks.reinstall(digest, data)
        if self.durable:
            self.backend.quarantine_chunk(digest)
            self._persist_chunk(digest)

    # -- metrics ----------------------------------------------------------

    def stats(self) -> dict:
        logical = self._logical_total
        physical = self.chunks.physical_bytes()
        return {
            "checkpoints": len(self._checkpoints),
            "chunks": len(self.chunks),
            "logical_bytes": logical,
            "unique_bytes": self.chunks.unique_bytes(),
            "physical_bytes": physical,
            "dedup_ratio": (logical / physical) if physical else 1.0,
            "puts": self.chunks.puts,
            "dup_puts": self.chunks.dup_puts,
        }

    # -- the on-disk form every tool opens ----------------------------------

    @classmethod
    def open_dir(cls, path: str, create: bool = False, codec: str = "zlib"
                 ) -> Tuple["CheckpointStore", RecoveryReport]:
        """Open the durable store in directory ``path``.

        A directory holding a ``wal`` is reopened with :meth:`recover`,
        so a store a crash interrupted is rolled to its committed state
        first and the report says what that took. With ``create``, a
        directory that holds no store becomes a new durable store
        (codec ``codec``, empty report). Anything else raises
        :class:`StoreError`, and nothing is created on disk: the
        ``wal`` test runs before :class:`OsDisk` makes the directory.
        """
        if os.path.isfile(os.path.join(path, "wal")):
            return cls.recover(DirBackend(OsDisk(path)))
        if os.path.exists(os.path.join(path, "index.json")):
            # Recovery would quarantine its raw chunk files: refuse.
            raise StoreError(f"{path!r} holds the retired chunks/ + "
                             f"index.json layout; put its image sets "
                             f"into a new store")
        if not create:
            raise StoreError(f"no store at {path!r} (missing wal)")
        return (cls(codec=codec, backend=DirBackend(OsDisk(path))),
                RecoveryReport())


class IncrementalCheckpointer:
    """Drives incremental dumps of one process into a store.

    The first :meth:`checkpoint` is a full dump and switches the
    process's dirty-page tracking on; every later call harvests the
    dirty set and emits a delta against the previous checkpoint.
    Tracking costs nothing until the first checkpoint is taken.
    """

    def __init__(self, store: CheckpointStore, process, runtime=None):
        self.store = store
        self.process = process
        #: optional :class:`~repro.core.runtime.DapperRuntime` — when
        #: given, ``__dapper_flag`` is zeroed before each dump exactly
        #: like ``DapperRuntime.checkpoint`` does, so restored images
        #: do not re-trap at the next equivalence point.
        self.runtime = runtime
        self.last_id: Optional[str] = None
        self.last_images: Optional[ImageSet] = None

    def checkpoint(self) -> PutResult:
        if self.runtime is not None:
            self.runtime.clear_flag()
        if self.last_id is None:
            images = dump_process(self.process)
            result = self.store.put(images)
            self.process.start_dirty_tracking()
        else:
            dirty = self.process.harvest_dirty_pages()
            parent_pages = set(self.store.resolve_pages(self.last_id))
            images = dump_process(self.process, parent=self.last_id,
                                  parent_pages=parent_pages,
                                  dirty_pages=dirty)
            result = self.store.put(images, parent=self.last_id)
        self.last_id = result.checkpoint_id
        self.last_images = images
        return result
