"""Content-addressed chunk store: the byte layer of the checkpoint store.

Chunks are keyed by the blake2b-128 digest of their *uncompressed*
contents, so identical pages — across checkpoints, across processes,
across nodes, even across ISAs (the aligning linker gives both
architectures' images the same read-only data pages) — occupy storage
exactly once. Each chunk carries a reference count maintained by the
checkpoint layer; ``gc()`` sweeps unreferenced chunks, and ``verify()``
is the fsck: it re-hashes every chunk and reports any whose stored
payload no longer decompresses to its digest. That rule is
:func:`check_chunk`, and every reader that re-hashes a chunk — adopt,
fsck, recovery, the scrubber — calls it.

Compression codecs are pluggable (``register_codec``); ``raw`` and
``zlib`` ship built in. A chunk that does not shrink under the store's
codec is kept raw, deterministically, so journals of store-backed runs
stay bit-identical.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterator, List, Optional, Tuple

from ..errors import StoreError
from ..mem.leaves import page_digest

#: Content address of a chunk (hex, 32 chars): the one page-hash
#: function, so a page's digest *is* its chunk address.
chunk_digest = page_digest


class Codec:
    """One compression codec; subclass and ``register_codec`` to extend."""

    name = "?"

    def compress(self, data: bytes) -> bytes:
        raise NotImplementedError

    def decompress(self, blob: bytes) -> bytes:
        raise NotImplementedError


class RawCodec(Codec):
    name = "raw"

    def compress(self, data: bytes) -> bytes:
        return bytes(data)

    def decompress(self, blob: bytes) -> bytes:
        return bytes(blob)


class ZlibCodec(Codec):
    name = "zlib"

    def __init__(self, level: int = 6):
        self.level = level

    def compress(self, data: bytes) -> bytes:
        return zlib.compress(data, self.level)

    def decompress(self, blob: bytes) -> bytes:
        try:
            return zlib.decompress(blob)
        except zlib.error as exc:
            raise StoreError(f"zlib chunk does not decompress: {exc}") \
                from exc


CODECS: Dict[str, Codec] = {"raw": RawCodec(), "zlib": ZlibCodec()}


def register_codec(codec: Codec) -> None:
    CODECS[codec.name] = codec


def check_chunk(digest: str, codec: str, payload: bytes,
                logical_size: int) -> bytes:
    """The chunk-integrity rule: ``payload`` names a known codec,
    decodes under it, and decodes to ``logical_size`` bytes that hash
    to ``digest``. Returns those bytes; raises :class:`StoreError`
    naming the first broken clause."""
    impl = CODECS.get(codec)
    if impl is None:
        raise StoreError(f"chunk {digest[:12]}: unknown codec {codec!r}")
    try:
        data = impl.decompress(payload)
    except StoreError as exc:
        raise StoreError(f"chunk {digest[:12]}: {exc}") from exc
    if chunk_digest(data) != digest:
        raise StoreError(f"chunk {digest[:12]}: payload does not match "
                         f"its digest (corrupt)")
    if len(data) != logical_size:
        raise StoreError(f"chunk {digest[:12]}: logical size mismatch "
                         f"({len(data)} != {logical_size})")
    return data


class Chunk:
    """One stored blob: compressed payload + bookkeeping."""

    __slots__ = ("digest", "codec", "payload", "logical_size", "refs")

    def __init__(self, digest: str, codec: str, payload: bytes,
                 logical_size: int, refs: int = 0):
        self.digest = digest
        self.codec = codec
        self.payload = payload
        self.logical_size = logical_size
        self.refs = refs

    def __repr__(self) -> str:
        return (f"<Chunk {self.digest[:12]} {self.codec} "
                f"{len(self.payload)}B refs={self.refs}>")


class ChunkStore:
    """Digest-keyed chunk storage with refcounts and GC."""

    def __init__(self, codec: str = "zlib"):
        if codec not in CODECS:
            raise StoreError(f"unknown codec {codec!r}; "
                             f"known: {sorted(CODECS)}")
        self.codec_name = codec
        self._chunks: Dict[str, Chunk] = {}
        # Running totals over ``_chunks`` (stored and uncompressed
        # bytes), kept so the metrics below — read on every
        # store-backed migration — never walk the chunk set;
        # ``verify()`` audits them against a fresh sum.
        self._physical = 0
        self._unique = 0
        self.puts = 0       # ensure/put calls
        self.dup_puts = 0   # calls that hit an existing chunk
        # References taken by put() rather than by a manifest (the
        # page server pinning left-behind pages). Tracked so the
        # refcount audit can account for every reference: for each
        # digest, refs == manifest references + raw_pins.
        self.raw_pins: Dict[str, int] = {}

    # -- insertion --------------------------------------------------------

    def ensure(self, data: bytes,
               digest: Optional[str] = None) -> Tuple[str, bool]:
        """Insert ``data`` if absent (refcount untouched).

        Returns ``(digest, created)``. The checkpoint layer uses this,
        then increfs once per manifest *reference*, so refcounts always
        equal the number of live references and ``verify()`` can check
        the books.

        ``digest`` is ``chunk_digest(data)`` when the caller already
        holds it — a page digest from the image's
        :class:`~repro.mem.leaves.PageLeaves`, hashed from these very
        bytes — and saves hashing them again; left out, it is computed
        here.
        """
        self.puts += 1
        if digest is None:
            digest = chunk_digest(data)
        if digest in self._chunks:
            self.dup_puts += 1
            return digest, False
        self._install(Chunk(digest, *self._encode(data), len(data)))
        return digest, True

    def _encode(self, data: bytes) -> Tuple[str, bytes]:
        """``(codec name, payload)`` this store keeps ``data`` as."""
        payload = CODECS[self.codec_name].compress(data)
        if len(payload) >= len(data):
            # Incompressible: keep raw. Deterministic, so store-backed
            # replay journals stay bit-identical.
            return "raw", bytes(data)
        return self.codec_name, payload

    def _install(self, chunk: Chunk) -> None:
        self._chunks[chunk.digest] = chunk
        self._physical += len(chunk.payload)
        self._unique += chunk.logical_size

    def reinstall(self, digest: str, data: bytes) -> None:
        """Overwrite a corrupt chunk's payload with clean ``data``
        (the scrubber's repair), re-deriving the codec choice exactly
        like the original insert so a repaired store stays
        byte-identical to a never-damaged one."""
        chunk = self.chunk(digest)
        self._physical -= len(chunk.payload)
        self._unique -= chunk.logical_size
        chunk.codec, chunk.payload = self._encode(data)
        chunk.logical_size = len(data)
        self._physical += len(chunk.payload)
        self._unique += chunk.logical_size

    def put(self, data: bytes) -> str:
        """Insert ``data`` and take one reference (raw-blob use)."""
        digest, _created = self.ensure(data)
        self.pin(digest)
        return digest

    def pin(self, digest: str) -> None:
        """Take one raw (non-manifest) reference on a stored chunk."""
        self.incref(digest)
        self.raw_pins[digest] = self.raw_pins.get(digest, 0) + 1

    def unpin(self, digest: str) -> None:
        """Release one raw reference taken by :meth:`pin` or :meth:`put`."""
        pins = self.raw_pins.get(digest, 0)
        if pins <= 0:
            raise StoreError(f"unpin of unpinned chunk {digest[:12]}")
        if pins == 1:
            del self.raw_pins[digest]
        else:
            self.raw_pins[digest] = pins - 1
        self.decref(digest)

    def adopt(self, digest: str, codec: str, payload: bytes,
              logical_size: int) -> bool:
        """Install an already-compressed chunk (the transfer path).

        The payload is decompressed and re-hashed before acceptance —
        a corrupted wire transfer must not poison the store. When the
        digest is already present the incoming payload must decompress
        to the *same* bytes as the stored chunk: a mismatch is either a
        hash collision or (far more likely) a corrupted sender, and
        silently keeping the local copy would mask it. Returns True if
        a new chunk was installed.
        """
        try:
            data = check_chunk(digest, codec, payload, logical_size)
        except StoreError as exc:
            raise StoreError(f"adopt: {exc}") from exc
        if digest in self._chunks:
            if self.get(digest) != data:
                raise StoreError(
                    f"adopt: digest collision on {digest[:12]} — incoming "
                    f"payload differs from the stored chunk")
            return False
        self._install(Chunk(digest, codec, bytes(payload), logical_size))
        return True

    # -- retrieval --------------------------------------------------------

    def get(self, digest: str) -> bytes:
        chunk = self._chunks.get(digest)
        if chunk is None:
            raise StoreError(f"no chunk {digest[:12]} in store")
        return CODECS[chunk.codec].decompress(chunk.payload)

    def has(self, digest: str) -> bool:
        return digest in self._chunks

    def chunk(self, digest: str) -> Chunk:
        chunk = self._chunks.get(digest)
        if chunk is None:
            raise StoreError(f"no chunk {digest[:12]} in store")
        return chunk

    def stored_size(self, digest: str) -> int:
        """On-the-wire (compressed) size of one chunk."""
        return len(self.chunk(digest).payload)

    def digests(self) -> List[str]:
        return sorted(self._chunks)

    def __len__(self) -> int:
        return len(self._chunks)

    def __iter__(self) -> Iterator[Chunk]:
        for digest in sorted(self._chunks):
            yield self._chunks[digest]

    # -- refcounting + GC -------------------------------------------------

    def incref(self, digest: str, count: int = 1) -> None:
        self.chunk(digest).refs += count

    def decref(self, digest: str, count: int = 1) -> None:
        chunk = self.chunk(digest)
        if chunk.refs < count:
            raise StoreError(f"refcount underflow on {digest[:12]} "
                             f"({chunk.refs} - {count})")
        chunk.refs -= count

    def orphans(self) -> List[str]:
        """Digests with no live references — e.g. chunks adopted by an
        aborted transfer whose manifest never registered. These are
        exactly what the next :meth:`gc` reclaims; a clean store after
        a migration rollback has none."""
        return sorted(d for d, c in self._chunks.items() if c.refs <= 0)

    def gc(self) -> Tuple[int, int]:
        """Drop unreferenced chunks; returns (chunks, bytes) reclaimed."""
        dead = [d for d, c in self._chunks.items() if c.refs <= 0]
        freed = 0
        for digest in dead:
            chunk = self._chunks.pop(digest)
            freed += len(chunk.payload)
            self._unique -= chunk.logical_size
        self._physical -= freed
        return len(dead), freed

    # -- fsck -------------------------------------------------------------

    def verify(self) -> List[str]:
        """Re-hash every chunk; returns human-readable problem list."""
        problems: List[str] = []
        for chunk in self:
            try:
                check_chunk(chunk.digest, chunk.codec, chunk.payload,
                            chunk.logical_size)
            except StoreError as exc:
                problems.append(str(exc))
        for name, kept, fresh in (
                ("physical", self._physical,
                 sum(len(c.payload) for c in self._chunks.values())),
                ("unique", self._unique,
                 sum(c.logical_size for c in self._chunks.values()))):
            if kept != fresh:
                problems.append(f"chunk store: running {name} total "
                                f"{kept} != {fresh} stored")
        return problems

    # -- metrics ----------------------------------------------------------

    def physical_bytes(self) -> int:
        """Bytes actually stored (compressed, deduplicated)."""
        return self._physical

    def unique_bytes(self) -> int:
        """Uncompressed bytes of the unique chunk set."""
        return self._unique

    def __repr__(self) -> str:
        return (f"<ChunkStore {len(self._chunks)} chunks "
                f"{self.physical_bytes()}B [{self.codec_name}]>")
