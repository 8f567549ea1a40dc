"""The simulated kernel: processes, threads, scheduler, syscalls, signals.

One :class:`Machine` is one node with one ISA. Scheduling is round-robin
over runnable threads with a fixed instruction quantum, which makes every
execution deterministic — the cross-ISA migration tests rely on that.

The scheduler is *tickless where a tick is unobservable*: the quantum is
the grain at which runnable threads interleave, so while one process
owns the machine with one thread — nobody to switch to — and no flight
recorder is journaling slices, that thread is not cut into quanta at
all (see :meth:`Machine.step_all`). The schedule produced is the one
the ticking scheduler produces; only the number of wake-ups differs.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .. import sysabi
from ..binfmt.delf import (DelfBinary, HEAP_BASE, STACK_TOP,
                           THREAD_STACK_GAP, THREAD_STACK_SIZE)
from ..errors import KernelError
from ..mem import AddressSpace, Prot, Vma
from ..mem.paging import PAGE_SIZE, page_align_up
from .cpu import ThreadContext, ThreadStatus, to_u64
from . import blocks, interp
from .loader import load_binary, setup_tls
from .tmpfs import TmpFs


class Process:
    """One simulated process."""

    def __init__(self, pid: int, binary: DelfBinary, exe_path: str,
                 machine: "Machine", aspace: Optional[AddressSpace] = None):
        self.pid = pid
        self.binary = binary
        self.exe_path = exe_path
        self.machine = machine
        self.isa = machine.isa
        self.aspace = aspace if aspace is not None else load_binary(
            binary, exe_path)
        self.threads: Dict[int, ThreadContext] = {}
        self.next_tid = 1
        self.exited = False
        self.exit_code: Optional[int] = None
        self.output: List[str] = []
        self.heap_end = HEAP_BASE
        self.locks: Dict[int, int] = {}        # lock addr -> holder tid
        self.stopped = False                   # SIGSTOP state
        self.instr_total = 0
        self.cycle_total = 0
        self.decode_cache: Dict[int, tuple] = {}
        self.block_cache: Dict[int, "blocks.Block"] = {}
        # Mid-trace resume points: pc -> (block, op index K), where a
        # slice may re-enter that block's trace — through its tier-3
        # chain's metered arm, its tier-2 metered variant or tier 0
        # (see blocks.run_thread). Cleared together with block_cache —
        # a stale entry could skip dirty-tracking's first-touch writes
        # or execute pre-rewrite code.
        self.resume_points: Dict[int, tuple] = {}
        self.code_version = 0
        # Bumped whenever a block tiers up to a compiled trace; a
        # tier-3 chain stamped with an older epoch is stale (still
        # correct, possibly incomplete) and chains.link_chain decides
        # when growing its web is worth a compile.
        self.hot_epoch = 0
        # Content hash of the executable pages, computed lazily by the
        # superblock engine to share decoded traces across processes
        # running identical code (see blocks._content_key).
        self.trace_content_key: Optional[bytes] = None
        # Any privileged code write (failure injection, in-place live
        # patches) must discard predecoded instructions and superblocks.
        self.aspace.code_write_hook = self.invalidate_code

    # -- thread management -------------------------------------------------

    def alloc_tid(self) -> int:
        tid = self.next_tid
        self.next_tid += 1
        return tid

    def live_threads(self) -> List[ThreadContext]:
        return [t for t in self.threads.values()
                if t.status != ThreadStatus.DEAD]

    def runnable_threads(self) -> List[ThreadContext]:
        if self.stopped or self.exited:
            return []
        return [t for t in self.threads.values() if t.runnable()]

    def stdout(self) -> str:
        return "".join(self.output)

    def invalidate_code(self) -> None:
        self.code_version += 1
        self.drop_code_caches()

    def drop_code_caches(self) -> None:
        """Forget every predecoded instruction, superblock and resume
        point. Also how a finished process lets go of its
        generated code: block and chain closures hold the process and
        the process holds them through these maps, so without this a
        dead process (closures, chain locals, page views and all) is
        cyclic garbage only a generation-2 collection reclaims."""
        self.decode_cache.clear()
        self.block_cache.clear()
        self.resume_points.clear()

    def release(self) -> None:
        """The process is dead (killed or exited): besides the code
        caches, unhook it from its address space. The hook is a bound
        method, i.e. the other half of a Process <-> AddressSpace cycle
        that would keep the whole address space — pages and the page
        blob of its ``origin`` — alive until a collector pass; without
        it a dead process is freed the moment its last user lets go."""
        self.drop_code_caches()
        self.aspace.code_write_hook = None

    # -- dirty-page tracking (incremental checkpoints) ----------------------

    def start_dirty_tracking(self) -> None:
        """Record pages written from now on (see repro.store).

        The superblock engine's generated memory sites cache a (page
        base, page store) pair and bypass the address-space slow path on
        a hit, so the block cache is reset here: every site's first
        access after this point re-enters the slow path, which marks the
        page, and later in-place hits cannot dirty a page the slow path
        has not already marked. Decoded traces are untouched
        (``code_version`` does not move), so re-binding is cheap.
        """
        self.aspace.start_dirty_tracking()
        self.block_cache.clear()
        self.resume_points.clear()

    def stop_dirty_tracking(self) -> None:
        self.aspace.stop_dirty_tracking()

    def harvest_dirty_pages(self) -> set:
        """Dirty pages since tracking started; begins a fresh epoch."""
        dirty = self.aspace.harvest_dirty()
        self.block_cache.clear()
        self.resume_points.clear()
        return dirty

    def tls_disable_addr(self, thread: ThreadContext) -> int:
        return (thread.tp + self.isa.abi.tls_block_offset
                + sysabi.TLS_DISABLE_OFFSET)

    def __repr__(self) -> str:
        return (f"<Process {self.pid} {self.binary.source_name} "
                f"[{self.isa.name}] threads={len(self.live_threads())}>")


#: The execution tiers by name, as :class:`Machine` flags: per-step
#: interpretation, tier-2 superblocks, tier-3 chains. Every tier retires
#: identical state, so the name never changes a result.
ENGINES = {"interp": dict(block_engine=False, chain_engine=False),
           "blocks": dict(block_engine=True, chain_engine=False),
           "chains": dict(block_engine=True, chain_engine=True)}


class Machine:
    """One simulated node: an ISA, a kernel, a tmpfs, and processes.

    ``quantum`` is the interleaving grain: whenever two schedulable
    entities exist (threads or processes), each runs at most that many
    instructions before the next gets the CPU, and every slice starts
    on the quantum grid. It is *not* a wake-up period — a sole thread
    with no recorder attached runs undivided (:meth:`step_all`).
    """

    def __init__(self, isa, name: str = "node", quantum: int = 64,
                 block_engine: bool = True, chain_engine: bool = True):
        self.isa = isa
        self.name = name
        self.quantum = quantum
        #: execute via predecoded superblocks (repro.vm.blocks); False
        #: falls back to per-instruction interp.step — semantics are
        #: identical, this exists for the speed benchmark and debugging.
        self.block_engine = block_engine
        #: additionally link hot compiled traces into chains
        #: (repro.vm.chains, tier 3); False caps execution at tier 2.
        #: Only consulted when block_engine is on; semantics identical.
        self.chain_engine = chain_engine
        self.tmpfs = TmpFs()
        self.processes: Dict[int, Process] = {}
        self.next_pid = 100
        #: called on every SIGTRAP: (process, thread) -> None
        self.trap_hooks: List[Callable] = []
        #: attached flight recorder (repro.replay.recorder) or None.
        #: Zero-overhead when off: the kernel tests ``is None`` once per
        #: scheduling slice / syscall, never per instruction.
        self.recorder = None

    # -- process lifecycle ---------------------------------------------------

    def install_binary(self, binary: DelfBinary, path: str) -> str:
        if binary.arch != self.isa.name:
            raise KernelError(
                f"binary is {binary.arch}, machine is {self.isa.name}")
        self.tmpfs.write(path, binary.to_bytes())
        return path

    def load_binary(self, path: str) -> DelfBinary:
        """The parsed executable at ``path``, checked against this ISA.

        Every exec on this node — :meth:`spawn_process` and the CRIU
        restore path — comes through here, and the parse (stackmaps,
        frames, symbol table) is served from the tmpfs page cache
        (:meth:`TmpFs.parsed`): it happens once per installed file, not
        once per process. The returned binary is shared by every process
        running it and is read-only.
        """
        binary = self.tmpfs.parsed(path, DelfBinary.from_bytes)
        if binary.arch != self.isa.name:
            raise KernelError(
                f"binary is {binary.arch}, machine is {self.isa.name}")
        return binary

    def spawn_process(self, path: str) -> Process:
        """Load a DELF from tmpfs and start it (main thread at entry)."""
        binary = self.load_binary(path)
        pid = self.next_pid
        self.next_pid += 1
        process = Process(pid, binary, path, self)
        self.processes[pid] = process
        self._create_thread(process, pc=binary.entry, arg=None,
                            return_to=0)
        if self.recorder is not None:
            self.recorder.on_spawn(self, process)
        return process

    def adopt_process(self, process: Process) -> None:
        """Register a process built externally (the CRIU restore path)."""
        self.processes[process.pid] = process
        if self.recorder is not None:
            self.recorder.on_restore(self, process)

    def alloc_pid(self) -> int:
        pid = self.next_pid
        self.next_pid += 1
        return pid

    def _create_thread(self, process: Process, pc: int, arg: Optional[int],
                       return_to: int) -> ThreadContext:
        tid = process.alloc_tid()
        thread = ThreadContext(tid, self.isa)
        stack_top = thread_stack_top(tid)
        stack_base = stack_top - THREAD_STACK_SIZE
        process.aspace.map(Vma(stack_base, stack_top, Prot.RW,
                               name=f"stack:{tid}"))
        thread.sp = stack_top - 16
        thread.fp = 0
        thread.pc = pc
        thread.tp = setup_tls(process, tid)
        if self.isa.abi.link_register is None:
            # x86-style: the return address sits on the stack at entry.
            process.aspace.write_u64(to_u64(thread.sp), return_to)
        else:
            thread.set(self.isa.abi.link_register, return_to)
        if arg is not None:
            thread.set(self.isa.abi.arg_regs[0], arg)
        process.threads[tid] = thread
        return thread

    # -- scheduling ---------------------------------------------------------------

    def step_all(self, budget: int) -> int:
        """Round-robin all runnable threads; returns instructions executed.

        Every thread runs ``quantum`` instructions per turn, in pid
        then tid order. A slice boundary is observable in exactly two
        ways: another entity gets the CPU there, or an attached
        recorder journals it (``EV_SCHED`` + digest). With one process
        owning one thread and no recorder neither applies, so that
        thread is handed the whole remaining budget as one slice.

        Should a second entity appear inside such a long slice (a
        thread-create syscall, a hook spawning a process — both only
        ever execute on tier-0 ``interp.step``), the engines end the
        slice at the quantum-grid boundary the ticking scheduler would
        have reached (:meth:`slice_boundary`), and the general pass
        takes over from the same point it always did. Exits, traps,
        stops and faults end a slice at the instruction they happen
        on, sliced or not. Per-thread instruction counts, digests and
        interleavings are therefore identical to slicing every quantum.
        """
        executed = 0
        processes = self.processes
        quantum = self.quantum
        run = self._run_thread
        while executed < budget:
            # Sole-thread fast loop: with one process owning one
            # thread, a scheduling pass degenerates to "run that
            # thread again", so skip the per-pass snapshot lists. Every
            # condition that could add a schedulable entity (spawn,
            # fork) or retire this one is re-checked between slices.
            if len(processes) == 1:
                process = next(iter(processes.values()))
                if len(process.threads) == 1:
                    thread = next(iter(process.threads.values()))
                    while (executed < budget
                           and len(process.threads) == 1
                           and len(processes) == 1
                           and not process.stopped and not process.exited
                           and thread.runnable()):
                        q = budget - executed
                        if q > quantum and self.recorder is not None:
                            q = quantum    # journaled: stay on the grid
                        done = run(process, thread, q)
                        executed += done
                        if not done:
                            return executed
                    if executed >= budget:
                        return executed
            ran = False
            for process in list(processes.values()):
                threads = process.runnable_threads()
                if len(threads) > 1:       # deterministic round-robin order
                    threads.sort(key=_BY_TID)
                for thread in threads:
                    q = budget - executed
                    if q > quantum:
                        q = quantum
                    if q <= 0:
                        return executed
                    done = run(process, thread, q)
                    executed += done
                    if done:
                        ran = True
            if not ran:
                break
        return executed

    def slice_boundary(self, count: int, quantum: int) -> int:
        """Where a slice of up to ``quantum`` instructions that has
        retired ``count`` must end now that its thread has company:
        the next multiple of the scheduling quantum (the boundary the
        ticking scheduler would have reached), never past ``quantum``.
        A no-op for ordinary slices, which are at most one quantum."""
        grain = self.quantum
        return min(quantum, -(-count // grain) * grain)

    def _run_thread(self, process: Process, thread: ThreadContext,
                    quantum: int) -> int:
        if self.block_engine:
            count = blocks.run_thread(self, process, thread, quantum)
        else:
            count = 0
            running = ThreadStatus.RUNNING
            undivided = quantum > self.quantum
            threads, processes = process.threads, self.processes
            while (count < quantum and thread.status == running
                   and not process.stopped and not process.exited):
                interp.step(self, process, thread)
                count += 1
                if undivided and (len(threads) > 1 or len(processes) > 1):
                    quantum = self.slice_boundary(count, quantum)
                    undivided = False
        # The recorder sees identical slice streams from both engines:
        # the superblock engine retires instruction-for-instruction
        # identical counts to the per-step loop at every slice boundary.
        if self.recorder is not None and count:
            self.recorder.on_slice(self, process, thread, quantum, count)
        return count

    def run_process(self, process: Process, max_steps: int = 50_000_000) -> int:
        """Run until the process exits. Returns its exit code."""
        remaining = max_steps
        while not process.exited and remaining > 0:
            done = self.step_all(min(remaining, 100_000))
            if done == 0:
                raise KernelError(
                    f"process {process.pid} wedged: no runnable threads "
                    f"but not exited")
            remaining -= done
        if not process.exited:
            raise KernelError(f"process {process.pid} exceeded {max_steps} steps")
        return process.exit_code

    def has_runnable(self) -> bool:
        return any(p.runnable_threads() for p in self.processes.values())

    # -- signals ----------------------------------------------------------------

    def sigstop(self, process: Process) -> None:
        process.stopped = True

    def sigcont(self, process: Process) -> None:
        process.stopped = False

    def kill(self, process: Process) -> None:
        for thread in process.threads.values():
            thread.status = ThreadStatus.DEAD
        process.exited = True
        if process.exit_code is None:
            process.exit_code = -9
        process.release()
        self.processes.pop(process.pid, None)
        if self.recorder is not None:
            self.recorder.on_kill(self, process)

    def on_trap(self, process: Process, thread: ThreadContext) -> None:
        if self.recorder is not None:
            self.recorder.on_trap(self, process, thread)
        for hook in self.trap_hooks:
            hook(process, thread)

    # -- syscalls -----------------------------------------------------------------

    def dispatch_syscall(self, process: Process, thread: ThreadContext,
                         number: int, args: List[int]) -> Optional[int]:
        handler = _SYSCALLS.get(number)
        if handler is None:
            raise KernelError(f"unknown syscall {number}")
        result = handler(self, process, thread, args)
        if self.recorder is not None:
            self.recorder.on_syscall(self, process, thread, number, args,
                                     result)
        return result


def _BY_TID(thread: ThreadContext) -> int:
    return thread.tid


def thread_stack_top(tid: int) -> int:
    return STACK_TOP - (tid - 1) * (THREAD_STACK_SIZE + THREAD_STACK_GAP)


# -- syscall handlers ----------------------------------------------------------

def _sys_print_int(machine, process, thread, args):
    process.output.append(f"{args[0]}\n")
    return 0


def _sys_print_char(machine, process, thread, args):
    process.output.append(chr(args[0] & 0x10FFFF))
    return 0


def _sys_exit(machine, process, thread, args):
    process.exited = True
    process.exit_code = args[0]
    for t in process.threads.values():
        t.status = ThreadStatus.DEAD
    process.release()
    return 0


def _sys_sbrk(machine, process, thread, args):
    size = args[0]
    if size < 0:
        raise KernelError("sbrk: negative size")
    old = process.heap_end
    new_end = old + size
    mapped_end = page_align_up(process.heap_end)
    need_end = page_align_up(new_end)
    if need_end > mapped_end:
        heap_vma = process.aspace.vma_by_name("heap")
        if heap_vma is None:
            process.aspace.map(Vma(HEAP_BASE, need_end, Prot.RW, name="heap"))
        else:
            process.aspace.grow_vma(heap_vma, need_end)
    process.heap_end = new_end
    return old


def _sys_spawn(machine, process, thread, args):
    fn_addr, arg = args[0], args[1]
    exit_stub = process.binary.symtab.address_of(sysabi.RT_THREAD_EXIT)
    new = machine._create_thread(process, pc=fn_addr, arg=arg,
                                 return_to=exit_stub)
    return new.tid


def _sys_try_join(machine, process, thread, args):
    tid = args[0]
    target = process.threads.get(tid)
    if target is None or target.status == ThreadStatus.DEAD:
        return 1
    return 0


def _sys_try_lock(machine, process, thread, args):
    addr = to_u64(args[0])
    holder = process.locks.get(addr)
    if holder is not None:
        return 0
    process.locks[addr] = thread.tid
    process.aspace.write_u64(addr, thread.tid)
    # Disable the checker while inside the critical section (paper §III-B):
    # the holder of a lock must never be parked at an equivalence point.
    disable_addr = process.tls_disable_addr(thread)
    count = process.aspace.read_u64(disable_addr)
    process.aspace.write_u64(disable_addr, count + 1)
    return 1


def _sys_unlock(machine, process, thread, args):
    addr = to_u64(args[0])
    holder = process.locks.get(addr)
    if holder != thread.tid:
        raise KernelError(
            f"thread {thread.tid} unlocking lock {addr:#x} held by {holder}")
    del process.locks[addr]
    process.aspace.write_u64(addr, 0)
    disable_addr = process.tls_disable_addr(thread)
    count = process.aspace.read_u64(disable_addr)
    if count == 0:
        raise KernelError("unlock: disable counter underflow")
    process.aspace.write_u64(disable_addr, count - 1)
    return 0


def _sys_yield(machine, process, thread, args):
    return 0


def _sys_thread_exit(machine, process, thread, args):
    thread.status = ThreadStatus.DEAD
    return 0


def _sys_gettid(machine, process, thread, args):
    return thread.tid


def _sys_now(machine, process, thread, args):
    return process.instr_total


_SYSCALLS = {
    sysabi.SYS_PRINT_INT: _sys_print_int,
    sysabi.SYS_PRINT_CHAR: _sys_print_char,
    sysabi.SYS_EXIT: _sys_exit,
    sysabi.SYS_SBRK: _sys_sbrk,
    sysabi.SYS_SPAWN: _sys_spawn,
    sysabi.SYS_TRY_JOIN: _sys_try_join,
    sysabi.SYS_TRY_LOCK: _sys_try_lock,
    sysabi.SYS_UNLOCK: _sys_unlock,
    sysabi.SYS_YIELD: _sys_yield,
    sysabi.SYS_THREAD_EXIT: _sys_thread_exit,
    sysabi.SYS_GETTID: _sys_gettid,
    sysabi.SYS_NOW: _sys_now,
}
