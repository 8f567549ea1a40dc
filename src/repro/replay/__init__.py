"""Flight recorder: deterministic record/replay + divergence pinpointing.

Dapper's correctness claim is bit-equivalence of the rewritten process
at the next equivalence point — but when a migration or live update
produces a wrong result, the final output diff is the only evidence.
This package closes that observability gap the way user-space
record-and-replay systems (rr and friends) do: journal every source of
nondeterminism and every state-mutation event of a run into a compact
wire-format file, alongside periodic whole-machine state digests, so
any execution can be re-run deterministically — on either execution
engine (per-step ``vm/interp`` or superblock ``vm/blocks``) and, for
the post-migration segment of a cross-ISA run, on either ISA — and any
divergence can be binary-searched down to the exact scheduling quantum
and the exact register or memory byte.

* :mod:`repro.replay.journal` — the journal file format (built on
  :mod:`repro.wire`), event kinds, and the in-memory :class:`Journal`.
* :mod:`repro.replay.digest` — whole-machine state digests (registers
  + populated-page hashes + kernel-visible process state).
* :mod:`repro.replay.recorder` — :class:`FlightRecorder`, the hook
  object a :class:`~repro.vm.kernel.Machine` notifies per scheduling
  slice, syscall, trap, spawn and restore; also deterministic fault
  injection (:class:`BitFlip`) and :class:`StateAt`, the observer that
  copies the machine state at instruction targets or digest indices
  and stops the replay after the last one.
* :mod:`repro.replay.engine` — scenarios (plain run, cross-ISA
  migration, periodic re-randomization) reconstructed from a journal
  header, and the :class:`Replayer` that re-executes them.
* :mod:`repro.replay.divergence` — digest-stream bisection and
  byte-exact state diffing between a journal and a replay.
"""

from ..errors import JournalTruncated
from .journal import Journal, JournalError
from .recorder import (BitFlip, FlightRecorder, ReplayObserver, ReplayStop,
                       StateAt)
from .engine import Replayer, record_migrate, record_rerandomize, record_run
from .divergence import (DivergenceReport, bisect_digest_streams,
                         bisect_last_transition, diff_states,
                         pinpoint_by_reexecution, pinpoint_divergence)

__all__ = [
    "Journal", "JournalError", "JournalTruncated", "FlightRecorder",
    "BitFlip", "ReplayObserver", "ReplayStop", "StateAt",
    "Replayer", "record_run", "record_migrate", "record_rerandomize",
    "DivergenceReport", "bisect_digest_streams", "bisect_last_transition",
    "diff_states", "pinpoint_divergence", "pinpoint_by_reexecution",
]
