"""The superblock execution engine: predecoded trace dispatch.

The per-instruction ``interp.step`` path pays, on every instruction, for
a decode-cache probe, a ~30-arm mnemonic dispatch chain, named-register
ABI lookups, and allocating word-sized memory accesses. This module
removes all of that from the hot path: a *superblock* (a straight-line
trace that extends through unconditional branches, calls, and the
fall-through edge of conditional branches) is decoded **once** into a
cached :class:`Block`, and a block that proves hot is *specialized* —
:func:`codegen` emits one Python function whose body is the
concatenation of every op with operand indices, immediates, and the u64
memory fast path (a per-site last-page cache indexing straight into the
page store) baked in. A ``bcc`` inside the trace becomes a *side exit*: taken, the
generated function sets ``pc``, accounts the executed prefix, and
returns; not taken, execution falls through with zero dispatch. Every
generated function returns the number of instructions it executed.
Cold blocks execute on ``interp.step`` (tier 0), which keeps the
semantics reference in exactly one place and keeps run-once startup
code off the specializer.

Correctness invariants (each one is load-bearing):

* **Identical architectural semantics.** Generated code reproduces the
  corresponding ``interp._execute`` arm bit-for-bit, including signed
  64-bit wrapping and fault behaviour; instruction/cycle accounting is
  batched but arithmetically identical (side exits account their exact
  prefix), and a faulting instruction is never counted, just as in
  ``interp.step``. Tier 0 *is* the per-step engine, so it is correct by
  construction.
* **Block boundaries.** A trace never contains ``syscall``, ``trap``,
  or undecodable bytes — those always fall back to ``interp.step`` so
  kernel entry and parking semantics live in exactly one place.
  Because ``trap`` always terminates a trace, a thread parking at an
  equivalence point stops with ``pc`` exactly at the eqpoint — the
  Dapper runtime's stackmap verification is unchanged.
* **Scheduling determinism.** A block never executes past the caller's
  remaining quantum: each generated block also has a *partial* variant
  that executes at most the first ``m`` ops, leaving ``pc`` mid-trace
  (the next quantum compiles a block from there). Round-robin
  interleaving is therefore instruction-for-instruction identical to
  the per-step engine — the cross-ISA migration tests rely on that.
  The tickless scheduler's undivided sole-thread slice keeps this: a
  second schedulable entity can only be created by a kernel entry,
  kernel entries only execute on tier 0, and tier 0 re-checks after
  every step and ends the slice on the quantum grid exactly as the
  per-step loop does (``Machine.slice_boundary``).
* **Invalidation.** The cache is keyed by pc and versioned by
  ``Process.code_version``; ``Process.invalidate_code`` (hooked to every
  privileged ``write_code``) bumps the version and drops all blocks, so
  stack-shuffle and live-update code rewrites can never execute stale
  superblocks.

Generated closures capture ``aspace``/``aspace._pages`` — safe because
``Process.aspace`` is never rebound, and because the live kernel only
ever *adds* VMAs during a process lifetime (there is no munmap or
mprotect syscall), a page a memory site has cached can never become
unmapped or change protection behind it. Rewrites (stack shuffle, live
update) go through restore-into-a-new-Process, which starts with empty
caches.
"""

from __future__ import annotations

import hashlib
import struct
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, List, Optional

from ..errors import SegmentationFault
from ..isa.isa import Instruction
from ..mem.paging import LAST_U64_SLOT, PAGE_MASK
from .cpu import ThreadContext, ThreadStatus, to_i64
from . import interp
from .interp import CpuFault

if TYPE_CHECKING:
    from .kernel import Machine, Process

#: Upper bound on predecoded ops per trace. Long traces are split; the
#: tail compiles as its own block on first execution. Kept at half the
#: scheduler quantum (64) so a typical trace executes whole on the
#: one-call specialized path rather than the partial variant.
MAX_BLOCK_INSTRS = 32

#: Full executions of a block before it is specialized by
#: :func:`codegen`. Low enough that every loop tiers up almost
#: immediately; high enough that cold startup/exit code never pays the
#: ``compile()`` cost. Tests may set this to 0 to force every block
#: through the generated tier.
HOT_THRESHOLD = 4

_U64M = 0xFFFFFFFFFFFFFFFF
_TWO64 = 1 << 64
_U64S = struct.Struct("<Q")
_PAGE_MASK = PAGE_MASK
_LAST_SLOT = LAST_U64_SLOT

#: Handler signature: ``handler(thread, regs) -> instructions executed``.
Handler = Callable[[ThreadContext, List[int]], int]

#: Body mnemonics :func:`codegen` has a template for. Everything the
#: decoders can produce except the kernel-entry terminators — an op
#: outside this set ends the trace and executes via ``interp.step``.
CODEGEN_OPS = frozenset((
    "nop", "mov", "movi", "movi_full", "movz", "movk1", "movk2", "movk3",
    "load", "store", "ldp", "stp", "lea", "addi", "push", "pop",
    "cmp", "cmpi", "tlsload", "tlsstore",
    "add", "sub", "mul", "sdiv", "srem", "and", "orr", "eor",
    "lsl", "lsr",
))


class Block:
    """One predecoded superblock (trace) starting at ``pc``.

    ``instrs`` holds the decoded ops along the trace — including the
    ``b``/``call`` ops it was extended through and the ``bcc`` side
    exits it falls through; ``pcs[i]`` is the address of op ``i``
    (``pcs[len]`` is the successor address of the whole trace);
    ``cost_prefix[i]`` is the summed cycle cost of the first ``i``
    ops. ``term_instr`` is a trailing ``ret`` or backward ``b``/``bcc``
    when the trace ends in one (the loop-closing and dynamic-successor
    terminators codegen specializes), else None and whatever follows
    the trace executes
    via ``interp.step``. ``full`` is the maximum number of
    instructions one execution of the trace can retire.
    """

    __slots__ = ("pc", "version", "pcs", "cost_prefix", "body_len",
                 "full", "instrs", "term_instr", "term_cost",
                 "fn", "pfn", "heat", "chain", "chain_m", "chain_heat",
                 "chain_epoch", "plan_epoch", "relink_at", "chain_key",
                 "chain_web", "succ_pcs", "demoted")

    def __init__(self, pc: int, version: int, instrs: List[Instruction],
                 pcs: List[int], cost_prefix: List[int],
                 term_instr: Optional[Instruction], term_cost: int):
        self.pc = pc
        self.version = version
        self.instrs = instrs
        self.pcs = pcs
        self.cost_prefix = cost_prefix
        self.body_len = len(instrs)
        self.full = self.body_len + (1 if term_instr is not None else 0)
        self.term_instr = term_instr
        self.term_cost = term_cost
        self.fn: Optional[Handler] = None  # specialized: whole trace
        self.pfn = None                    # specialized: first <= m ops
        self.heat = 0                      # tier-0 executions so far
        self.chain = None                  # tier-3 chain (or NO_CHAIN)
        self.chain_m = None                # (run, metered label) pair
        self.chain_heat = 0                # dispatches while not current
        self.chain_epoch = -1              # hot_epoch the chain is current at
        self.plan_epoch = -1               # hot_epoch of the last web plan
        self.relink_at = 0                 # chain_heat that pays for a compile
        self.chain_key = None              # memoized factory-cache key
        self.chain_web = None              # pcs the chain was built over
        self.succ_pcs = None               # memoized static successors
        self.demoted = False               # codegen refused: tier 0 only

    def __repr__(self) -> str:
        return (f"<Block @{self.pc:#x} v{self.version} "
                f"body={self.body_len} term={self.term_instr is not None}>")


# -- driving a thread ----------------------------------------------------------


def run_thread(machine: "Machine", process: "Process",
               thread: ThreadContext, quantum: int) -> int:
    """Execute up to ``quantum`` instructions on ``thread`` via cached
    superblocks; returns the number executed. Drop-in replacement for
    the per-instruction loop in ``Machine._run_thread``.

    Specialized traces contain no kernel entry (no syscall/trap), so
    they cannot change thread status, stop or exit the process, or
    invalidate code — status and version are re-checked only around
    tier-0 stepping, which is where those transitions can happen. The
    scheduler-visible behaviour is identical to checking before every
    instruction, as the per-step engine does.
    """
    running = ThreadStatus.RUNNING
    if (thread.status != running or process.stopped or process.exited):
        return 0
    count = 0
    cache = process.block_cache
    step = interp.step
    regs = thread.regs
    version = process.code_version
    chains_on = machine.chain_engine
    no_chain = chains.NO_CHAIN
    eget = process.chain_entries.get
    cget = cache.get
    # A slice longer than the scheduling quantum is the tickless
    # scheduler's sole-thread slice (Machine.step_all): it must end on
    # the quantum grid once a second thread or process exists.
    undivided = quantum > machine.quantum
    while count < quantum:
        pc = thread.pc
        if chains_on:
            # A pc inside a chained trace (a quantum boundary parked
            # there last slice) resumes through the chain's metered
            # arm — never by decoding a duplicate trace one phase
            # over. Entries are cleared with the block cache, so a
            # hit is always current.
            ce = eget(pc)
            if ce is not None:
                run, lab, k = ce
                count += run(thread, regs, quantum - count, lab, k)
                continue
        block = cget(pc)
        if block is None or block.version != version:
            block = compile_block(process, pc)
            cache[pc] = block
        fn = block.fn
        if fn is None and not block.demoted:
            heat = block.heat
            if heat >= HOT_THRESHOLD:
                fn = block.fn = codegen(process, block)
                if fn is None:             # shape codegen can't express:
                    block.demoted = True   # stay on tier 0 for good
                else:
                    process.hot_epoch += 1
            elif heat == 0:
                # First dispatch: if this trace shape was already
                # specialized anywhere (another process, an earlier
                # run), binding the cached factory is nearly free —
                # tier up immediately instead of re-warming.
                block.heat = 1
                fn = codegen(process, block, bind_only=True)
                if fn is not None:
                    block.fn = fn
                    process.hot_epoch += 1
            else:
                block.heat = heat + 1
        remaining = quantum - count
        if fn is not None:
            if block.full <= remaining:
                # Tier 3: a block that keeps coming back hot gets linked
                # with its hot compiled successors into one chain
                # function that transfers control internally (including
                # loop back-edges) and only returns at a quantum
                # boundary, an unlinked exit, or a fault. A chain (or a
                # no-linkable-successor verdict) is stamped with the
                # hot epoch it was formed at; tier-up of any block
                # bumps the epoch, and a chain stamped with an older
                # one goes through link_chain, which decides whether
                # growing the web is worth a compile yet — until then
                # the stale chain keeps serving (it only exits at the
                # once-cold edges).
                if chains_on:
                    chain = block.chain
                    if block.chain_epoch != process.hot_epoch:
                        chain = chains.link_chain(process, block, cache)
                    if chain is not None and chain is not no_chain:
                        count += chain(thread, regs, remaining)
                        continue
                # One call runs the trace — side exits and accounting
                # included — and returns how many instructions retired;
                # faults arrive as CpuFault with pc and counters
                # already positioned at the faulting op.
                count += fn(thread, regs)
                continue
            # The quantum may end inside this trace. A chained block
            # finishes the quantum through its metered arm (which
            # parks pc mid-trace at exactly `remaining` retired);
            # otherwise the tier-2 partial variant does the same.
            if chains_on:
                chain = block.chain
                if chain is not None and chain is not no_chain:
                    run, lab = block.chain_m
                    count += run(thread, regs, remaining, lab)
                    continue
            pfn = block.pfn
            if pfn is None:
                pfn = block.pfn = codegen(process, block, partial=True)
            count += pfn(thread, regs, remaining)
            continue
        # Tier 0 is literally the per-step engine, per-instruction
        # status checks included — a side exit taken mid-trace may land
        # on a syscall or trap, so every transition must be observed.
        k = block.full or 1
        if k > remaining:
            k = remaining
        while k > 0:
            step(machine, process, thread)
            count += 1
            k -= 1
            if (thread.status != running or process.stopped
                    or process.exited):
                return count
            if undivided and (len(process.threads) > 1
                              or len(machine.processes) > 1):
                # Only a kernel entry can create either, and only this
                # loop executes kernel entries.
                quantum = machine.slice_boundary(count, quantum)
                undivided = False
                if k > quantum - count:
                    k = quantum - count
        version = process.code_version
    return count


# -- block compilation ---------------------------------------------------------

#: Upper bound on each process-global code cache (decoded traces,
#: tier-2 code objects and factories, tier-3 chain factories). They
#: span every process and binary the interpreter ever runs, so without
#: a cap a long-lived cluster simulation (many re-spawns, many
#: rewritten binaries) grows them without limit; LRU keeps the working
#: set of live binaries and ages out entries of dead code versions.
GLOBAL_TRACES_CAP = 4096


class LruCache(OrderedDict):
    """A content-keyed cache evicted least-recently-used past
    ``GLOBAL_TRACES_CAP``. Eviction is only ever a perf event: every
    entry can be regenerated from its key's content."""

    evictions = 0

    def lookup(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
        return value

    def insert(self, key, value) -> None:
        self[key] = value
        if len(self) > GLOBAL_TRACES_CAP:
            self.popitem(last=False)
            self.evictions += 1


#: (exec-page content hash, pc) -> decoded trace metadata, shared by
#: every process running byte-identical code. Decoded traces are
#: treated as immutable, so re-spawns of the same binary skip the
#: whole decode pass.
_GLOBAL_TRACES = LruCache()

_trace_stats = {"hits": 0, "misses": 0}


def trace_cache_info() -> dict:
    """Statistics of the shared trace cache (``hits``, ``misses``,
    ``evictions``, ``size``) and of the tier-2 code caches, exposed for
    benchmarks and tests."""
    info = dict(_trace_stats)
    info["evictions"] = _GLOBAL_TRACES.evictions
    info["size"] = len(_GLOBAL_TRACES)
    info["cap"] = GLOBAL_TRACES_CAP
    for name, cache in (("code", _CODE_CACHE), ("factory", _FACTORY_CACHE)):
        info[f"{name}_size"] = len(cache)
        info[f"{name}_evictions"] = cache.evictions
    return info


def _content_key(process: "Process") -> Optional[bytes]:
    """Content hash of the process's executable pages, or None when
    sharing decoded traces would be unsafe: after any code rewrite
    (``code_version`` moved) or under lazy post-copy restore (exec
    pages may not all be resident yet, so their hash is not a complete
    description of the code).
    """
    if (process.code_version != 0
            or process.aspace.missing_page_hook is not None):
        return None
    key = process.trace_content_key
    if key is None:
        digest = hashlib.blake2b(process.isa.name.encode(), digest_size=16)
        aspace = process.aspace
        for vma in aspace.vmas:
            if not vma.executable:
                continue
            digest.update(b"%x:%x" % (vma.start, vma.end))
            for base in range(vma.start, vma.end, _PAGE_MASK + 1):
                store = aspace._pages.get(base)
                if store is not None:
                    digest.update(b"%x" % base)
                    digest.update(store)
        key = process.trace_content_key = digest.digest()
    return key


def compile_block(process: "Process", pc: int) -> Block:
    """Decode the superblock trace starting at ``pc`` (no
    specialization yet).

    Beyond the straight-line run, the trace is extended through every
    control transfer with a static successor: an unconditional ``b``
    adds no work at all (the successor pc is baked into ``pcs``), a
    ``call`` contributes just its return-address write with decoding
    continuing at the callee's entry, and a *forward* ``bcc`` becomes
    a side exit with decoding continuing on the fall-through edge.
    ``ret`` and *backward* ``bcc`` (predicted-taken loop back-edges)
    have dynamic successors and end the trace (specialized as its
    terminator); ``trap``/``syscall``/undecodable bytes end it and
    stay on the ``interp.step`` path.
    """
    ck = _content_key(process)
    if ck is None:
        return Block(pc, process.code_version, *_decode_trace(process, pc))
    meta = _GLOBAL_TRACES.lookup((ck, pc))
    if meta is None:
        _trace_stats["misses"] += 1
        meta = _decode_trace(process, pc)
        _GLOBAL_TRACES.insert((ck, pc), meta)
    else:
        _trace_stats["hits"] += 1
    return Block(pc, process.code_version, *meta)


def _decode_trace(process: "Process", pc: int) -> tuple:
    """The decode pass behind :func:`compile_block`; returns
    ``(instrs, pcs, cost_prefix, term_instr, term_cost)``.
    """
    isa = process.isa

    def fetch(addr: int) -> Instruction:
        return interp.fetch_decode(process, addr)

    instrs: List[Instruction] = []
    pcs = [pc]
    cost_prefix = [0]
    cursor = pc
    total_cost = 0
    term_instr = None
    term_cost = 0
    complete = True
    while complete and len(instrs) < MAX_BLOCK_INSTRS:
        run = isa.decode_straight_line(fetch, cursor,
                                       MAX_BLOCK_INSTRS - len(instrs))
        for instr in run:
            if instr.op not in CODEGEN_OPS:
                # Unknown non-terminator op: end the trace here and let
                # interp.step raise its "unimplemented op" fault.
                complete = False
                break
            instrs.append(instr)
            cursor += instr.size
            total_cost += isa.cost(instr)
            pcs.append(cursor)
            cost_prefix.append(total_cost)
        if not complete or len(instrs) >= MAX_BLOCK_INSTRS:
            break
        try:
            term = fetch(cursor)
        except Exception:
            break                          # step() reports the real fault
        op = term.op
        if op == "ret":
            term_instr = term
            term_cost = isa.cost(term)
            break
        if op not in ("b", "call", "bcc"):
            break                          # trap / syscall / .byte
        if op == "b" and term.target <= cursor:
            # Backward unconditional branch: a loop back-edge. Inlining
            # it would wrap the trace around the loop, so consecutive
            # traces tile the loop at stride MAX_BLOCK_INSTRS and spiral
            # through every offset of the body — no canonical tiling,
            # one near-duplicate trace per offset. Ending the trace here
            # instead makes the loop tile exactly once from its head,
            # which is what lets the chain layer treat the back-edge as
            # a loop-closing jump.
            term_instr = term
            term_cost = isa.cost(term)
            break
        if op == "bcc":
            if term.cond not in _COND_SYMS:
                break                      # bad condition: fault via step
            if term.target <= cursor:
                # Backward branch: statically predicted taken (a loop
                # back-edge). Extending past it would inflate the trace
                # with code that rarely runs, so it ends the trace as a
                # specialized two-way terminator instead — the hot loop
                # body becomes exactly one trace, re-dispatched at the
                # loop head every iteration.
                term_instr = term
                term_cost = isa.cost(term)
                break
        # Extend the trace: b/call continue at the static target; a
        # forward bcc (statically predicted not taken) continues on the
        # fall-through edge, with taken becoming a side exit.
        instrs.append(term)
        total_cost += isa.cost(term)
        cursor = cursor + term.size if op == "bcc" else term.target
        pcs.append(cursor)
        cost_prefix.append(total_cost)

    return instrs, pcs, cost_prefix, term_instr, term_cost


# -- specialization: whole-trace code generation -------------------------------
#
# A hot block is specialized into ONE Python function whose body is the
# straight-line concatenation of every op, with operand indices and
# immediates baked in as literals and the u64 memory fast path (a
# per-site last-page cache, direct page-store indexing) expanded
# inline — the generated code makes zero Python calls on the
# all-fast-path execution of an ALU-only trace, and one ``unpack_from``
# per memory access that hits its site's cached page (a miss is one
# call to ``_load_miss``/``_store_miss``, which refill the site's
# cache). Fault behaviour is identical to interp.step: ``i``
# tracks the op index at every potentially-faulting call site, the
# ``except SegmentationFault`` epilogue accounts the completed prefix
# and positions ``thread.pc`` at the faulting op before wrapping into
# CpuFault; division by zero accounts and raises inline.

_BINOP_SYMS = {"add": "+", "sub": "-", "mul": "*",
               "and": "&", "orr": "|", "eor": "^"}
_COND_SYMS = {"eq": "==", "ne": "!=", "lt": "<",
              "le": "<=", "gt": ">", "ge": ">="}
_MOVK_SHIFTS = {"movk1": 16, "movk2": 32, "movk3": 48}

#: Generated source -> compiled code object. ``compile()`` dominates
#: specialization cost (~1ms per block); identical trace shapes recur
#: across processes running the same binary (every re-spawn, every
#: benchmark iteration, every restore-after-rewrite), and the source
#: string is a complete description of the specialization, so it is
#: the cache key.
_CODE_CACHE = LruCache()

#: Trace shape -> the exec'd ``_make`` factory, so a recurring shape
#: skips source generation *and* exec and only pays the per-process
#: closure binding. Keyed by content (never object identity).
_FACTORY_CACHE = LruCache()

_NO_FACTORY = object()                     # cached "shape unsupported"


def _load_miss(aspace, addr: int, base, store) -> tuple:
    """Slow path of a tier-2 load site: read through the address space
    (faulting exactly as ``interp.step`` would) and return ``(value,
    page base, page store)`` — the site's refilled last-page cache, or
    the old one when the page has no store yet."""
    value = aspace.read_u64(addr)
    page = aspace._pages.get(addr - (addr & _PAGE_MASK))
    if page is None:
        return value, base, store
    return value, addr - (addr & _PAGE_MASK), page


def _store_miss(aspace, addr: int, value: int, base, store) -> tuple:
    """Slow path of a tier-2 store site; ``write_u64`` marks the page
    for dirty tracking. Returns the refilled ``(page base, page
    store)``."""
    aspace.write_u64(addr, value)
    page = aspace._pages.get(addr - (addr & _PAGE_MASK))
    if page is None:
        return base, store
    return addr - (addr & _PAGE_MASK), page


def _factory_key(isa_name: str, block: Block, partial: bool) -> tuple:
    term = block.term_instr
    return (isa_name, partial, tuple(block.pcs),
            tuple((i.op, i.rd, i.rn, i.rm, i.imm, i.cond, i.target)
                  for i in block.instrs),
            None if term is None else
            (term.op, term.cond, term.target, term.size),
            block.term_cost)


def codegen(process: "Process", block: Block, partial: bool = False,
            bind_only: bool = False) -> Optional[Handler]:
    """Emit the specialized function for ``block``; None if some op has
    no template (the block then stays on tier 0 forever).

    With ``partial=True`` the generated function takes an extra ``m``
    and executes at most the first ``m`` ops — an inline ``if m == k:
    account; return k`` is threaded between ops, which is what lets a
    quantum boundary land mid-trace without falling off the generated
    tier. The ``ret`` terminator is never part of a partial run.

    With ``bind_only=True``, only bind an already-cached factory (a
    cheap closure call); return None rather than generate anything new.
    """
    key = _factory_key(process.isa.name, block, partial)
    factory = _FACTORY_CACHE.lookup(key)
    if factory is not None:
        if factory is _NO_FACTORY:
            return None
        return _bind(factory, process, block)
    if bind_only:
        return None
    isa = process.isa
    abi = isa.abi
    sp = isa.reg(abi.stack_pointer)
    fp = isa.reg(abi.frame_pointer)
    lr = (isa.reg(abi.link_register)
          if abi.link_register is not None else None)
    pcs = block.pcs
    cp = block.cost_prefix
    n = block.body_len
    body: List[str] = []
    hots: List[str] = []

    def site() -> tuple:
        # Each memory site caches the last page it touched as a
        # (page base, page store) pair in two closure cells. The page
        # store for a base is only ever mutated in place once it
        # exists (install_page/drop_page only run while building a
        # restore aspace, before any code executes, and there is no
        # mprotect or munmap), so a hit needs no VMA or protection
        # re-check: the slow path performed the full check the first
        # time this site touched the page, and the same site always
        # performs the same kind of access.
        pair = (f"p{len(hots) // 2}", f"s{len(hots) // 2}")
        hots.extend(pair)
        return pair

    def read(k: int, addr: str, dest: str) -> None:
        p, s = site()
        body.extend([
            f"a = {addr}",
            f"o = a & {_PAGE_MASK}",
            f"if a - o == {p} and o <= {_LAST_SLOT}:",
            f"    v = UPK({s}, o)[0]",
            "else:",
            f"    i = {k}",
            f"    v, {p}, {s} = LM(AS, a, {p}, {s})",
            f"{dest} = v - {_TWO64} if v >> 63 else v",
        ])

    def write(k: int, addr: str, value: str) -> None:
        p, s = site()
        body.extend([
            f"a = {addr}",
            f"o = a & {_PAGE_MASK}",
            f"if a - o == {p} and o <= {_LAST_SLOT}:",
            f"    PK({s}, o, ({value}) & {_U64M})",
            "else:",
            f"    i = {k}",
            f"    {p}, {s} = SM(AS, a, {value}, {p}, {s})",
        ])

    def account(indent: str, instrs_done: int, cycles_done: int) -> None:
        body.extend([
            f"{indent}thread.instr_count += {instrs_done}",
            f"{indent}process.instr_total += {instrs_done}",
            f"{indent}process.cycle_total += {cycles_done}",
        ])

    def wrap_assign(dest: str, expr: str) -> None:
        body.append(f"v = {expr}")
        body.append(f"{dest} = v - {_TWO64} if v >> 63 else v")

    def emit_call(k: int, instr: Instruction) -> None:
        return_to = pcs[k] + instr.size
        if lr is None:                     # x86: push the return address
            body.append(f"a2 = (regs[{sp}] - 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            write(k, "a2", str(return_to))
        else:                              # arm: link register
            body.append(f"regs[{lr}] = {to_i64(return_to)}")

    def fail() -> None:
        _FACTORY_CACHE.insert(key, _NO_FACTORY)
        return None

    for k, instr in enumerate(block.instrs):
        if partial and k:
            # The quantum boundary may land here: account the executed
            # prefix and stop with pc at the next op (never past m).
            body.append(f"if m == {k}: return PX(thread, {k})")
        op = instr.op
        rd, rn, rm = instr.rd, instr.rn, instr.rm
        imm = instr.imm if instr.imm is not None else 0
        if op in ("nop", "b"):             # extension b: pc baked in pcs
            continue
        elif op == "bcc":
            # Side exit: taken, the trace ends here — account the exact
            # prefix (this bcc included) and return its pc and count.
            sym = _COND_SYMS[instr.cond]
            body.append(f"if thread.flags {sym} 0:")
            body.append(f"    thread.pc = {instr.target}")
            account("    ", k + 1, cp[k + 1])
            body.append(f"    return {k + 1}")
        elif op == "mov":
            body.append(f"regs[{rd}] = regs[{rn}]")
        elif op in ("movi", "movi_full"):
            body.append(f"regs[{rd}] = {to_i64(imm)}")
        elif op == "movz":
            body.append(f"regs[{rd}] = {to_i64(imm & 0xFFFF)}")
        elif op in _MOVK_SHIFTS:
            shift = _MOVK_SHIFTS[op]
            keep = _U64M & ~(0xFFFF << shift)
            part = (imm & 0xFFFF) << shift
            wrap_assign(f"regs[{rd}]", f"(regs[{rd}] & {keep}) | {part}")
        elif op == "load":
            read(k, f"(regs[{rn}] + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "store":
            write(k, f"(regs[{rn}] + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "ldp":
            body.append(f"t = regs[{fp}]")
            read(k, f"(t + {imm}) & {_U64M}", f"regs[{rd}]")
            read(k, f"(t + {imm + 8}) & {_U64M}", f"regs[{rm}]")
        elif op == "stp":
            body.append(f"t = regs[{fp}]")
            write(k, f"(t + {imm}) & {_U64M}", f"regs[{rd}]")
            write(k, f"(t + {imm + 8}) & {_U64M}", f"regs[{rm}]")
        elif op in ("lea", "addi"):
            wrap_assign(f"regs[{rd}]", f"(regs[{rn}] + {imm}) & {_U64M}")
        elif op == "push":
            body.append(f"a2 = (regs[{sp}] - 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            write(k, "a2", f"regs[{rd}]")
        elif op == "pop":
            read(k, f"regs[{sp}] & {_U64M}", f"regs[{rd}]")
            if rd != sp:                   # pop sp: no post-increment
                body.append(f"a2 = (regs[{sp}] + 8) & {_U64M}")
                body.append(
                    f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
        elif op == "cmp":
            body.append(f"v = regs[{rn}] - regs[{rm}]")
            body.append("thread.flags = (v > 0) - (v < 0)")
        elif op == "cmpi":
            body.append(f"v = regs[{rn}] - {imm}")
            body.append("thread.flags = (v > 0) - (v < 0)")
        elif op == "tlsload":
            read(k, f"(thread.tp + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op == "tlsstore":
            write(k, f"(thread.tp + {imm}) & {_U64M}", f"regs[{rd}]")
        elif op in _BINOP_SYMS:
            wrap_assign(f"regs[{rd}]",
                        f"(regs[{rn}] {_BINOP_SYMS[op]} regs[{rm}])"
                        f" & {_U64M}")
        elif op == "lsl":
            wrap_assign(f"regs[{rd}]",
                        f"((regs[{rn}] & {_U64M}) << (regs[{rm}] & 63))"
                        f" & {_U64M}")
        elif op == "lsr":
            wrap_assign(f"regs[{rd}]",
                        f"(regs[{rn}] & {_U64M}) >> (regs[{rm}] & 63)")
        elif op in ("sdiv", "srem"):
            msg = ("integer division by zero" if op == "sdiv"
                   else "integer remainder by zero")
            body.append(f"x = regs[{rn}]")
            body.append(f"y = regs[{rm}]")
            body.append("if y == 0:")
            if k:
                account("    ", k, cp[k])
            body.append(f"    thread.pc = {pcs[k]}")
            body.append(f"    raise CpuFault(thread, {msg!r})")
            if op == "sdiv":
                body.append("v = abs(x) // abs(y)")
                body.append(f"v = (-v if (x < 0) != (y < 0) else v)"
                            f" & {_U64M}")
            else:
                body.append("v = abs(x) % abs(y)")
                body.append(f"v = (-v if x < 0 else v) & {_U64M}")
            body.append(f"regs[{rd}] = v - {_TWO64} if v >> 63 else v")
        elif op == "call":                 # extension call: pc baked in
            emit_call(k, instr)
        else:
            return fail()

    total = n
    cycles = cp[n]
    term = block.term_instr
    tail_pc: Optional[int] = pcs[n]
    if not partial and term is not None:   # ret or backward b/bcc
        tail_pc = None
        if term.op == "b":
            body.append(f"thread.pc = {term.target}")
        elif term.op == "bcc":
            sym = _COND_SYMS[term.cond]
            body.append(f"thread.pc = {term.target} if thread.flags"
                        f" {sym} 0 else {pcs[n] + term.size}")
        elif lr is None:                   # x86 ret: pop the return pc
            read(n, f"regs[{sp}] & {_U64M}", "rv")
            body.append(f"a2 = (regs[{sp}] + 8) & {_U64M}")
            body.append(f"regs[{sp}] = a2 - {_TWO64} if a2 >> 63 else a2")
            body.append(f"thread.pc = rv & {_U64M}")
        else:                              # arm ret: link register
            body.append(f"thread.pc = regs[{lr}] & {_U64M}")
        total += 1
        cycles += block.term_cost
    elif total == 0:
        return fail()                      # empty trace: nothing to gain

    src = ["def _make(process, AS, LM, SM, PK, UPK, PCS, CP,"
           " CpuFault, SegmentationFault):"]
    if hots:
        src.append("    " + " = ".join(hots) + " = None")
    if partial:
        src.extend([
            "    def PX(thread, k):",
            "        thread.instr_count += k",
            "        process.instr_total += k",
            "        process.cycle_total += CP[k]",
            "        thread.pc = PCS[k]",
            "        return k",
        ])
    src.append("    def run(thread, regs"
               + (", m):" if partial else "):"))
    if hots:
        src.append("        nonlocal " + ", ".join(hots))
    src.append("        i = 0")
    src.append("        try:")
    if body:
        src.extend("            " + line for line in body)
    else:
        src.append("            pass")
    src.extend([
        "        except SegmentationFault as exc:",
        "            if i:",
        "                thread.instr_count += i",
        "                process.instr_total += i",
        "                process.cycle_total += CP[i]",
        "            thread.pc = PCS[i]",
        "            raise CpuFault(thread, str(exc)) from exc",
    ])
    if tail_pc is not None:
        src.append(f"        thread.pc = {tail_pc}")
    src.extend([
        f"        thread.instr_count += {total}",
        f"        process.instr_total += {total}",
        f"        process.cycle_total += {cycles}",
        f"        return {total}",
        "    return run",
    ])
    text = "\n".join(src)
    code = _CODE_CACHE.lookup(text)
    if code is None:
        code = compile(text, f"<block@{block.pc:#x}>", "exec")
        _CODE_CACHE.insert(text, code)
    ns: dict = {}
    exec(code, ns)
    factory = ns["_make"]
    _FACTORY_CACHE.insert(key, factory)
    return _bind(factory, process, block)


def _bind(factory, process: "Process", block: Block) -> Handler:
    """The per-process closure binding of a cached ``_make`` factory."""
    return factory(process, process.aspace, _load_miss, _store_miss,
                   _U64S.pack_into, _U64S.unpack_from, tuple(block.pcs),
                   tuple(block.cost_prefix), CpuFault, SegmentationFault)


# Imported last: chains.py refers back to this module's codegen tables
# and caches, so the circular import must resolve after they exist.
from . import chains  # noqa: E402
