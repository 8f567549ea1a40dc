"""The Dapper runtime monitor (paper §III-B, §III-D2a).

Workflow, mirroring the paper exactly:

1. gather thread ids from the (simulated) /proc,
2. ``PTRACE_ATTACH`` to the target, ``PTRACE_POKEDATA`` the global
   transformation flag,
3. one helper monitor per thread waits for its tracee's SIGTRAP — the
   inline checker raises it at the next equivalence point; threads inside
   lock-protected critical sections have their checker disabled and park
   at the first equivalence point after release,
4. verify each parked pc against the stackmap (the paper's defence
   against maliciously induced SIGTRAPs),
5. ``PTRACE_DETACH`` and ``SIGSTOP`` the whole process,
6. invoke CRIU to dump, then hand the images to the rewriter.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from .. import sysabi
from ..criu.dump import dump_process
from ..criu.images import ImageSet
from ..criu.lazy import PageServer, dump_process_lazy
from ..errors import NotAtEquivalencePoint
from ..vm.cpu import ThreadStatus
from ..vm.kernel import Machine, Process
from ..vm.ptrace import Tracer


class DapperRuntime:
    """Controls when and how a target process is transformed."""

    def __init__(self, machine: Machine, process: Process):
        self.machine = machine
        self.process = process
        self._flag_addr = process.binary.symtab.address_of(
            sysabi.DAPPER_FLAG_SYMBOL)

    # -- pausing ------------------------------------------------------------

    def pause_at_equivalence_points(self,
                                    max_steps: int = 20_000_000) -> List[int]:
        """Drive the process until every thread is parked; SIGSTOP it.

        Returns the parked thread ids.
        """
        process = self.process
        tracer = Tracer(self.machine)
        tracer.attach_all(process)                       # PTRACE_ATTACH
        tracer.poke_data(self._flag_addr, 1)             # PTRACE_POKEDATA
        tids = tracer.wait_all_trapped(max_steps)        # helper monitors
        self._verify_at_equivalence_points(tids)
        tracer.detach_all()                              # PTRACE_DETACH
        self.machine.sigstop(process)                    # SIGSTOP
        return tids

    def _verify_at_equivalence_points(self, tids: List[int]) -> None:
        """The paper's check: a SIGTRAP only counts if the thread really
        sits at a stackmap-recorded equivalence point."""
        stackmaps = self.process.binary.stackmaps
        for tid in tids:
            thread = self.process.threads[tid]
            if stackmaps.park_point(thread.pc) is None:
                raise NotAtEquivalencePoint(
                    f"thread {tid} parked at {thread.pc:#x}, which is not "
                    f"an equivalence point")

    # -- checkpointing --------------------------------------------------------

    def checkpoint(self, extra: Optional[dict] = None) -> ImageSet:
        """CRIU-dump the SIGSTOPped process (into tmpfs-resident images).

        ``extra`` is forwarded to the checkpoint plugins (journaled
        ``connections`` for the sockets plugin, ``tmpfs_paths`` for the
        tmpfs plugin)."""
        self._clear_flag()
        return dump_process(self.process, extra=extra)

    def checkpoint_lazy(self, extra: Optional[dict] = None
                        ) -> Tuple[ImageSet, PageServer]:
        self._clear_flag()
        return dump_process_lazy(self.process, extra=extra)

    def clear_flag(self) -> None:
        """Zero ``__dapper_flag`` in the paused process before dumping so
        neither the dump nor the lazy page server carries a set flag —
        otherwise the restored process would immediately re-trap at its
        next equivalence point. Public because external dumpers (the
        checkpoint store's :class:`~repro.store.IncrementalCheckpointer`)
        must do the same before calling ``dump_process`` directly."""
        self.process.aspace.write_u64(self._flag_addr, 0)

    _clear_flag = clear_flag

    # -- resuming the (source) process -----------------------------------------

    def resume(self) -> None:
        """Clear the flag and let the source process continue (used when
        the policy transforms in place, e.g. periodic re-randomization)."""
        self.process.aspace.write_u64(self._flag_addr, 0)
        for thread in self.process.threads.values():
            if thread.status == ThreadStatus.TRAPPED:
                thread.status = ThreadStatus.RUNNING
                thread.trap_pc = None
        self.machine.sigcont(self.process)

    def kill_source(self) -> None:
        """Tear the source process down after a successful migration."""
        self.machine.kill(self.process)
