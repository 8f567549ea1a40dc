"""Content-addressed checkpoint store (dedup, incremental, delta transfer).

Three layers:

* :mod:`repro.store.chunks` — a blake2b-keyed chunk store with
  refcounted garbage collection, pluggable compression codecs and an
  fsck-style ``verify()``.
* :mod:`repro.store.checkpoints` — checkpoints as manifests of chunk
  digests, with parent chains for incremental dumps and
  ``materialize()`` back into a full :class:`~repro.criu.images.ImageSet`.
* :mod:`repro.store.transfer` — the delta-transfer planner: ship only
  the chunks the destination store is missing, measured against a
  :class:`~repro.core.costs.LinkProfile`.
* :mod:`repro.store.backend` — pluggable durable persistence: a
  simulated disk with crash-tearing semantics (:class:`SimDisk`), real
  files (:class:`OsDisk`), and the write-tmp/fsync/rename chunk-file
  discipline (:class:`DirBackend`).
* :mod:`repro.store.wal` — the write-ahead intent log every multi-step
  durable mutation is bracketed by, reopened as its longest valid
  prefix after a crash; :meth:`CheckpointStore.recover` rolls
  committed intents forward, uncommitted ones back, rebuilds the
  refcount books from the surviving manifests, quarantines torn
  chunks, and sweeps orphans.
"""

from .backend import DirBackend, OsDisk, SimDisk
from .chunks import CODECS, ChunkStore, chunk_digest, register_codec
from .checkpoints import (CheckpointStore, IncrementalCheckpointer,
                          PutResult, RecoveryReport, ScrubReport)
from .transfer import TransferPlan, plan_transfer, ship
from .wal import WriteAheadLog, decode_wal, fold_wal

__all__ = [
    "CODECS", "ChunkStore", "chunk_digest", "register_codec",
    "CheckpointStore", "IncrementalCheckpointer", "PutResult",
    "RecoveryReport", "ScrubReport",
    "DirBackend", "OsDisk", "SimDisk",
    "WriteAheadLog", "decode_wal", "fold_wal",
    "TransferPlan", "plan_transfer", "ship",
]
