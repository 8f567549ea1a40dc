"""Tier-3 execution: trace linking and compiled superblock chains.

The tier-2 engine (:mod:`repro.vm.blocks`) compiles each hot superblock
into one generated function, but every trace still returns to the
Python dispatch loop in ``run_thread``, and every generated line pays
the signed-i64 canonicalization idiom (``& U64M`` plus the ``v >> 63``
sign fix) that keeping register state in the architectural ``regs``
list forces on it. This module removes both costs: when a compiled
trace has stayed hot, its side-exit and terminator targets that are
themselves hot compiled traces are *linked* — their bodies are patched
into one generated **chain** function, so whole webs of traces execute
in a single Python call, over register state held in function locals
in a cheaper representation.

Four mechanisms carry the speedup:

* **Trace linking.** A chain is built over a *web*: the hot compiled
  blocks reachable along static successor edges (side-exit targets,
  both arms of a two-way ``bcc`` terminator, the fall-through tail of
  a length-split trace, and call return addresses) from a canonical
  root, up to ``MAX_CHAIN_BLOCKS`` of them. Each becomes a labelled
  *segment* of one generated trampoline function; an in-chain transfer
  is a label assignment + ``continue`` instead of a return to
  ``run_thread``. ``ret`` terminators link dynamically: the computed
  return pc is compared against the chain's known call-return heads,
  so a call+return inside a hot loop never leaves the chain. Every
  segment block shares the one compiled chain — each gets an entry
  handler that starts the trampoline at its own label, so a web of N
  hot traces costs one ``compile()``, not N.
* **Loop-closing jumps.** A backward-``bcc`` terminator whose target
  is in the chain compiles into a native Python loop edge: the
  generated ``while 1:`` re-enters the target segment directly.
  Register state lives in *function locals* for the whole chain
  (``r5`` instead of ``regs[5]``), and is spilled to the
  ``ThreadContext`` only at chain exits — quantum boundaries, unlinked
  side exits, and faults.
* **Metered arms: exact entry and exit at any op.** Each segment is
  emitted twice: a *fast* arm (no per-op checks, entered only when the
  whole trace fits the remaining budget) and a *metered* arm that can
  start at any op index ``K`` and retires exactly up to the budget,
  leaving ``pc`` mid-trace. Chains therefore consume the quantum
  **exactly**: a boundary that lands mid-trace is taken inside the
  chain (metered exit), and the next quantum re-enters the chain at
  that op (metered entry) via ``Process.resume_points`` — the
  per-process map from every interior trace pc to its ``(block, K)``
  resume point, which a chained block resumes through ``chain_m``.
  Without this, every quantum boundary would seed a fresh overlapping
  trace one phase over (the quantum *drifts* through the loop), and
  the block cache fills with near-duplicate traces that fragment the
  webs and churn the chain caches. Tier 2 resumes its unchained traces
  through the same map (:func:`~.blocks.run_thread`).
* **Cheap value representation + inline-cached memory.** Chain locals
  hold registers as *canonical u64* (the architectural ``regs`` list
  holds signed i64). That kills the per-op sign-fix: ``add`` is one
  masked addition, bitwise ops and ``lsr`` need no mask at all, loads
  use the ``unpack_from`` result as-is, and addresses need no
  canonicalization. Signed compares use the sign-flip identity
  ``(a ^ 2**63) - (b ^ 2**63)`` — one line — and the flags local holds
  that raw difference (only its sign is architectural; it is
  normalized to {-1, 0, 1} when spilled). Every load/store site keeps
  a folded last-page hit test (``addr - cached_base`` in range)
  inline; a miss is one call into the binding's ``load_miss`` /
  ``store_miss`` closure (:func:`_miss_paths`), which performs the
  access and hands back the site's refilled cache. The binding also
  remembers every page its misses have refilled a site with, so a site
  shared by several threads' stacks (threads take turns every slice)
  refills from a dict instead of walking the address space on every
  switch. Loads additionally share a *hot VMA* there, so a load walking
  a multi-page array skips the full page-table walk on every page of
  the hot mapping. Stores deliberately do **not**: a store's first
  touch of each page per binding must go through ``write_u64`` so
  dirty-page tracking observes it (the per-site page cache and the
  binding's page memo preserve exactly that property; see
  ``Process.start_dirty_tracking``).

Formation is *amortised* (:func:`link_chain`). ``compile()`` costs
6–9 µs per generated line at ~210 lines per segment — about 1.5 ms a
segment, which *executes* in microseconds — and a hot region grows a
few blocks at a time while it warms up: rebuilding the web at every
tier-up compiled one 2 → 37-segment redis region 34 times (573
segments emitted for a final chain of 37). Four rules keep the
compiler off that path:

* **Heat belongs to the code.** A head's chain heat and relink debt
  (``Block.formation``) live in the trace record the shared trace cache
  keeps per (exec-page content hash, pc), so dispatches from every
  process, and from every restored incarnation of a binary, add up.
  Only code without a content key — rewritten in place, or lazily
  restored — keeps a count of its own.
* **What pays for a first build.** A web is compiled for the first
  time once its head has served ``CHAIN_THRESHOLD`` dispatches
  node-wide: a cold run of a short program compiles at most its hottest
  loop, and a node that keeps running a binary compiles every web that
  repays it.
* **Stale is not invalid.** A chain bound at an older ``hot_epoch`` is
  still correct — block contents are immutable per code version — it
  merely returns to ``run_thread`` at edges that have since become
  hot. It keeps serving until a rebuild pays.
* **What pays for a rebuild.** Every bind stamps each member with
  ``relink_at``: the member may trigger the next *compile* of its web
  only after ``RELINK_DISPATCHES_PER_SEGMENT`` further stale
  dispatches per segment of the web just bound, so the compile work a
  region attracts is proportional to the dispatches it serves.

And one exemption, **bind before build**: a bind compiles nothing, so
neither heat nor debt gates it. Every bind records the web it bound as
each member's *known web* (``_KNOWN_WEBS``, keyed like the trace
records), and a fresh or restored process of the same code binds that
web whole — each member's cached tier-2 code, then the cached chain
factory — the first time any member is dispatched
(:func:`bind_known_web`): no plan, no compile, and no ``hot_epoch``
bump, so the chains it already holds are not re-planned either. Code
without a content key, and a head whose known web cannot bind, plan
instead; a planned web whose factory is already cached is bound at
once, whatever the member owes, exactly as tier-2's ``bind_only`` path
does.

Correctness invariants, each inherited from tier-2 and preserved:

* **Exact quantum boundaries.** The chain retires exactly
  ``min(budget, instructions to the first unlinked exit or fault)``:
  fast arms are only entered when their whole trace fits, and the
  metered arm stops op-for-op at the budget with ``pc`` mid-trace.
  Retired counts per scheduling slice are therefore instruction-for-
  instruction identical to the per-step engine, which keeps the flight
  recorder's per-quantum digests bit-identical across all three tiers.
* **OSR-style deopt on faults.** A fault mid-chain reconstructs exact
  per-instruction state: the handler normalizes and spills the
  register locals (everything retired so far is architecturally
  visible), positions ``pc`` at the faulting op via the flat fault
  table, and accounts the retired prefix — bit-for-bit what
  ``interp.step`` would have left behind.
* **No kernel entries.** Chains are built from blocks, and blocks
  never contain ``syscall``/``trap``; thread status, process exit, and
  code versions cannot change inside a chain, so the eqpoint-park and
  scheduling invariants of tier-2 carry over unchanged.
* **Invalidation.** A chain hangs off its :class:`~.blocks.Block` in
  ``process.block_cache``, and its resume points live in
  ``process.resume_points``; every invalidation that drops blocks
  (``invalidate_code`` version bumps, dirty-tracking epochs) clears
  both, and the shared chain *factory* cache is keyed by full segment
  content (absolute pcs, decoded ops, terminators), so a rewritten
  process can never bind or resume a stale chain.
"""

from __future__ import annotations

import struct
import sys
from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..errors import SegmentationFault
from ..mem.paging import LAST_U64_SLOT, PAGE_MASK
from .interp import CpuFault
from . import blocks as _b

if TYPE_CHECKING:
    from .blocks import Block
    from .kernel import Process

#: Upper bound on linked blocks per chain. Large enough that the hot
#: region of a call-heavy loop body (Dhrystone's main loop spans some
#: forty blocks across its ``Proc_*`` calls) closes into a single
#: chain rather than ping-ponging between several, each switch paying
#: a register spill/reload; small enough that one generated function
#: stays tractable for the bytecode compiler.
MAX_CHAIN_BLOCKS = 64

#: Dispatches of a head's compiled (tier-2) function, counted over the
#: whole node (``Block.formation`` is shared by every process running
#: the same code), before its web is compiled for the first time — the
#: rule ``RELINK_DISPATCHES_PER_SEGMENT`` applies to rebuilds, applied
#: to the first build: compile once the node has served enough
#: dispatches to repay it. Binding a cached web needs no heat (see
#: :func:`link_chain`). Measured with shared heat on a 2-vCPU Xeon
#: (CPython 3.11): the cold child
#: (redis/small and kmeans/small, 20 k steps on x86, migrated to arm,
#: run to exit in a fresh interpreter; chains / generated lines and
#: post-import seconds, best of five), seven passes of the four
#: ``steady_compute`` apps on both ISAs in one interpreter (best pass,
#: chains compiled over all seven), and one e2e run each of
#: ``steady_compute`` (``setup_s``) and ``store_epochs`` (peak RSS):
#:
#: ========= ================= ================ ====== ===== ====== ====
#: threshold cold redis        cold kmeans      steady setup chains RSS
#:           (chains/lines, s) (chains/lines,s) ms     s     7 pass MB
#: ========= ================= ================ ====== ===== ====== ====
#: 8 *       15 / 26 250  0.33 13 / 21 509 0.28 205    4.5   129    44.1
#: 128       2 / 11 670   0.26 3 / 4 864   0.23 205    3.5   37     44.3
#: 256       1 / 936      0.16 2 / 2 428   0.14 192    2.4   34     52.3
#: 512       1 / 936      0.15 1 / 1 085   0.13 194    2.0   32     42.1
#: 1024      0 / 0        0.14 0 / 0       0.13 248    1.7   28     41.6
#: ========= ================= ================ ====== ===== ====== ====
#:
#: (* the previous rule: heat per process, first build at 8.) At 256
#: one 17-segment ``store_epochs`` web compiles inside the timed loop
#: and lifts ``ru_maxrss`` by ~10 MB; at 1024 seven passes are not
#: enough for the node to form its webs. Sharing is what makes a high
#: threshold affordable: with heat per process the best steady pass
#: reads 282 ms at 256 (20 chains over seven passes) and 250 ms at 512
#: (8 chains), because a web no single run repays is never compiled.
#: Tests lower it to force chains (``early_chains``, ``_force_chains``).
CHAIN_THRESHOLD = 512

#: Stale dispatches a member must serve, per segment of the web it was
#: last bound into, before it may trigger another *compile* of that
#: web (cached factories bind regardless; see :func:`link_chain`).
#: The unit is a real chain exit: the scheduler does not slice a sole
#: thread (``Machine.step_all``), so a stale chain is re-dispatched
#: only when it returns at an edge it has not linked, not once per
#: quantum as when this was first calibrated (at 8). Measured, while a
#: first build still took 8 dispatches of one process, on the
#: cold redis/small x86→arm child (143 k instructions, 20 k on x86;
#: ``compile()`` at 6–9 µs/line, ~210 lines/segment), chains /
#: segments / generated lines, VM phases, child total, peak RSS:
#:
#: ====== ================== ====== ======= =======
#: debt   compiled           VM s   total s RSS MB
#: ====== ================== ====== ======= =======
#: 0      26 / 501 / 120 852 1.05   1.20    67.4
#: 4      14 / 140 / 30 240  0.36   0.51    54.9
#: 8      14 / 143 / 31 095  0.38   0.53    56.3
#: 12     16 / 168 / 36 304  0.42   0.56    58.1
#: 16     15 / 129 / 26 250  0.33   0.48    33.4
#: 32, 64 15 / 129 / 26 250  0.32   0.47    33.4
#: 10**9  15 / 129 / 26 250  0.32   0.47    33.4
#: ====== ================== ====== ======= =======
#:
#: Below 16 the aarch64 side, 120 k instructions from exit, compiles
#: one 9 600-line web (83 ms, +23 MB) it cannot amortise; from 16 up
#: it never does. The kmeans/small child compiles 13 / 91 / 21 509
#: in 0.27–0.28 s at 34.9 MB at every value. A steady pass of the
#: four apps on both ISAs on a warm node is flat across 0, 8, 16, 32,
#: 64 and 10**9 (fastest of eight 0.204–0.207 s), so this is the
#: smallest value at which a cold run stops paying for rebuilds it is
#: too short to amortise.
RELINK_DISPATCHES_PER_SEGMENT = 16

#: Cached "this block heads no chain" decision (no linkable successor,
#: or the block is a drifted duplicate outside the canonical web),
#: stored on ``Block.chain``.
NO_CHAIN = object()

#: ``Block.plan_epoch`` of a head that has made both of its tries to
#: bind below ``CHAIN_THRESHOLD`` (see :func:`link_chain`); hot epochs
#: are >= 0.
_PLANNED_TWICE = -2

_U64M = 0xFFFFFFFFFFFFFFFF
_TWO64 = 1 << 64
_SIGN = 1 << 63
_U64S = struct.Struct("<Q")

if sys.byteorder == "little":
    def _cast_page(page):
        """Word view of one page: ``view[slot]`` is the u64 at byte
        offset ``slot * 8``. On little-endian hosts a zero-copy
        ``'Q'``-cast memoryview — the chain fast path's subscripts
        compile to plain ``BINARY_SUBSCR``/``STORE_SUBSCR`` instead of
        struct calls."""
        return memoryview(page).cast("Q")
else:                                      # pragma: no cover
    class _WordView:
        """Big-endian fallback: same subscript protocol, guest order
        (little-endian) preserved via the explicit ``<Q`` struct."""
        __slots__ = ("raw",)

        def __init__(self, page):
            self.raw = page

        def __getitem__(self, slot):
            return _U64S.unpack_from(self.raw, slot * 8)[0]

        def __setitem__(self, slot, value):
            _U64S.pack_into(self.raw, slot * 8, value)

    def _cast_page(page):
        return _WordView(page)
_PM = PAGE_MASK
_LS = LAST_U64_SLOT

#: chain shape -> (exec'd ``_make`` factory, fault tables). Keyed by
#: segment *content* (absolute pcs, ops, immediates, terminators), so
#: every process running byte-identical code shares one compiled chain
#: and only pays the per-process closure binding. The generated source
#: is not kept anywhere: the key is already a complete description.
_CHAIN_FACTORY_CACHE = _b.LruCache()

#: (trace content key, pc) -> (web pcs, chain factory key): the web the
#: chain through ``pc`` was last bound over on this node, for every
#: member of every web :func:`_bind_chain` binds in a process whose
#: code has a content key. A new process of the same code binds that
#: web the first time one of its members is dispatched
#: (:func:`bind_known_web`) instead of re-planning it after every
#: tier-up. Bytes, ints, strings and tuples only: an entry keeps no
#: process, block or factory alive.
_KNOWN_WEBS = _b.LruCache()

#: Counters for the bench harness (see ``chain_cache_info``).
chain_stats = {"built": 0, "bound": 0, "planned": 0, "unlinked": 0,
               "segments_emitted": 0, "lines_emitted": 0,
               "relinks_deferred": 0}


def chain_cache_info() -> dict:
    """Chain-compiler statistics, exposed for benchmarks and tests:
    chains compiled (``built``, with the ``segments_emitted`` and
    generated ``lines_emitted`` they cost), factory bindings
    (``bound``), web plans (``planned``), refused heads (``unlinked``),
    rebuilds put off by the relink rule (``relinks_deferred``), and the
    factory cache's size and LRU ``evictions``."""
    info = dict(chain_stats)
    info["factories"] = len(_CHAIN_FACTORY_CACHE)
    info["evictions"] = _CHAIN_FACTORY_CACHE.evictions
    return info


# -- chain graph collection ----------------------------------------------------


def _static_successors(block: "Block") -> List[int]:
    """Every statically-known pc execution can reach right after (or
    from inside) ``block``: side-exit targets, call return addresses
    (the dynamic ``ret`` link-back candidates), both arms of a two-way
    ``bcc`` terminator, and the fall-through tail of a length-split
    trace. ``ret`` contributes nothing — its successor is dynamic.
    Memoized on the block: relink checks walk webs often.
    """
    out = block.succ_pcs
    if out is not None:
        return out
    out = []
    for k, instr in enumerate(block.instrs):
        if instr.op == "bcc":
            out.append(instr.target)
        elif instr.op == "call":
            out.append(block.pcs[k] + instr.size)
    term = block.term_instr
    n = block.body_len
    if term is None:
        out.append(block.pcs[n])
    elif term.op == "b":
        out.append(term.target)
    elif term.op == "bcc":
        out.append(term.target)
        out.append(block.pcs[n] + term.size)
    block.succ_pcs = out
    return out


def _seg_key(isa_name: str, blk: "Block"):
    """Memoized per-block factory key: epoch-driven relinking rebuilds
    chain keys often enough that recomputing the per-instruction tuple
    each time would dominate the (cheap) rebind."""
    k = blk.chain_key
    if k is None:
        k = blk.chain_key = _b._factory_key(isa_name, blk, False)
    return k


def _hot_block(cache: dict, version: int, pc: int):
    """The block at ``pc`` iff it is link-eligible: present, current,
    compiled by tier-2, not demoted, and non-empty. Cold or demoted
    targets stay chain exits — linking them would compile code that
    never proved hot (or that tier-2 already refused)."""
    blk = cache.get(pc)
    if (blk is None or blk.version != version or blk.fn is None
            or blk.demoted or blk.full <= 0):
        return None
    return blk


def _collect_web(cache: dict, version: int, root: "Block",
                 cap: int) -> List["Block"]:
    """Hot compiled blocks reachable from ``root`` along static
    successor edges, breadth-first, at most ``cap`` of them."""
    seen = {root.pc}
    segs: List["Block"] = [root]
    cursor = 0
    while cursor < len(segs):
        blk = segs[cursor]
        cursor += 1
        for target in _static_successors(blk):
            if target in seen or len(segs) >= cap:
                continue
            cand = _hot_block(cache, version, target)
            if cand is None:
                continue
            seen.add(target)
            segs.append(cand)
    return segs


def link_chain(process: "Process", head: "Block", cache: dict):
    """``run_thread``'s hook for a compiled block whose chain is not
    current — never attempted, or stamped with an older hot epoch.
    Counts the dispatch and returns what should serve it: a chain
    entry handler ``chain(thread, regs, budget) -> retired`` (fresh,
    or the stale one while its rebuild is deferred), :data:`NO_CHAIN`,
    or None (still warming towards ``CHAIN_THRESHOLD``).

    A stale chain is *incomplete*, not wrong: block contents are
    immutable per code version, so it merely exits at edges that have
    since become hot. Rebuilding it is therefore an investment, not an
    obligation, and is made in the cheapest way that offers itself:

    * the head has no chain yet and the node knows its web — bind that
      web whole (:func:`bind_known_web`), no plan, no compile;
    * the web did not grow — restamp the epoch, keep the chain;
    * the planned web's factory is already cached (a web that grows
      as this process warms, code without a content key) — bind it at
      once, no compile;
    * otherwise compile it, but only once ``head`` has served
      ``RELINK_DISPATCHES_PER_SEGMENT`` stale dispatches for every
      segment of the web it was last bound into (``relink_at``). Until
      then the stale chain keeps serving and the web is re-planned
      only when the hot epoch moves again.

    A bind from the cache restarts the count like a compile does.
    Without that, every process on a warming node grows its webs in a
    slightly different order and each order mints its own intermediate
    factories: the four-app, two-ISA mix still compiled 2 chains a
    pass after eight passes, against none from the fourth pass on.

    Both counts are the code's, not the process's (``Block.formation``
    is shared through the trace record). A head with no chain yet and
    still below ``CHAIN_THRESHOLD`` never compiles, but a bind costs no
    compile whatever the heat. On its first dispatch in this process,
    and once more after the hot epoch has moved, such a head binds its
    known web; only code without a content key, which has no known
    webs, plans instead, and binds a cached factory if either plan
    finds one. Its second plan is for webs of several traces: at the
    head's first dispatch the rest of its loop has not run in this
    process yet, and one trip round it brings every trace of a cached
    web to tier 2 (each binds its cached tier-2 code on first dispatch,
    ``codegen(bind_only=True)``). A known web needs no such trip: it
    brings its members to tier 2 itself.
    """
    formation = head.formation
    heat = formation[0] = formation[0] + 1
    chain = head.chain
    epoch = process.hot_epoch
    if chain is None and heat < CHAIN_THRESHOLD:
        planned = head.plan_epoch
        if planned == epoch or planned == _PLANNED_TWICE:
            return None
        head.plan_epoch = epoch if planned == -1 else _PLANNED_TWICE
        if _b._content_key(process) is not None:
            return bind_known_web(process, head, cache)
        plan = _plan_chain(process, head, cache)
        entry = plan and _CHAIN_FACTORY_CACHE.lookup(plan[1])
        return _bind_chain(process, head, *plan, entry) if entry else None
    owing = heat < formation[1]
    if owing and head.plan_epoch == epoch:
        return chain
    head.plan_epoch = epoch
    if chain is None:
        chain = bind_known_web(process, head, cache)
        if chain is not None:
            return chain
    plan = _plan_chain(process, head, cache)
    if plan is None:
        chain_stats["unlinked"] += 1
        head.chain_epoch = epoch
        head.chain = NO_CHAIN
        return NO_CHAIN
    segs, key = plan
    if (chain is not None and chain is not NO_CHAIN
            and head.chain_web == tuple(blk.pc for blk in segs)):
        # The web did not actually grow: the bound chain is still the
        # right one, and current again until the next tier-up event.
        head.chain_epoch = epoch
        return chain
    entry = _CHAIN_FACTORY_CACHE.lookup(key)
    if entry is None:
        if owing:
            chain_stats["relinks_deferred"] += 1
            return chain
        entry = _compile_chain(process.isa, segs, key)
    return _bind_chain(process, head, segs, key, entry)


def bind_known_web(process: "Process", head: "Block", cache: dict):
    """Bind the web the node last bound ``head`` into, as it stands —
    no plan, no compile — and return ``head``'s entry handler; None if
    the process's code has no content key, the node knows no web
    through ``head``, or any part of that web is not ready to bind: the
    chain factory, a member's trace record or tier-2 factory is not
    cached, or a member is demoted here. Members not yet in ``cache``
    come from the shared trace records (``compile_block``, a cache hit)
    and bind their cached tier-2 code (``codegen(bind_only=True)``).
    Nothing is bound unless everything can be."""
    ck = _b._content_key(process)
    known = ck is not None and _KNOWN_WEBS.lookup((ck, head.pc))
    if not known:
        return None
    web, key = known
    entry = _CHAIN_FACTORY_CACHE.lookup(key)
    if entry is None:
        return None
    version = process.code_version
    traces = _b._GLOBAL_TRACES
    segs = []
    for pc in web:
        blk = cache.get(pc)
        if blk is None or blk.version != version:
            if (ck, pc) not in traces:
                return None
            blk = None
        elif blk.demoted:
            return None
        segs.append(blk)
    fns = []
    for j, pc in enumerate(web):
        blk = segs[j]
        if blk is None:
            blk = segs[j] = cache[pc] = _b.compile_block(process, pc)
        if blk.fn is None:
            fn = _b.codegen(process, blk, bind_only=True)
            if fn is None:
                return None
            fns.append((blk, fn))
    for blk, fn in fns:
        blk.fn = fn
    return _bind_chain(process, head, segs, key, entry)


def _plan_chain(process: "Process", head: "Block", cache: dict):
    """The canonical hot web around ``head`` and its factory-cache
    key, as ``(segs, key)`` — or None when ``head`` should stay on
    tier-2 (no in-chain edge exists, or ``head`` is outside the
    canonical web). Cheap: a graph walk over memoized successor lists
    and memoized per-block keys; nothing is emitted or compiled.

    The segment set and order are *canonicalized*: because backward
    branches terminate traces (see :func:`_decode_trace`), every
    member of a strongly-connected hot region has the *same* forward
    closure, so collecting ``head``'s closure and sorting it by pc
    yields one factory-cache key for the whole web no matter which
    member triggered the build. The only blocks that break this
    symmetry are quantum-drift duplicates — traces that start at an
    *interior* pc of a web member because a quantum boundary once
    parked mid-trace. Those are detected exactly (``head.pc`` appears
    in another member's ``pcs[1:]``) and refused rather than given a
    private near-duplicate chain: they keep executing on tier-2 and
    control re-enters the web's chain at the next real boundary
    (usually immediately, through the member's resume point at this
    very pc in ``process.resume_points``).
    """
    chain_stats["planned"] += 1
    segs = _collect_web(cache, process.code_version, head, MAX_CHAIN_BLOCKS)
    if len(segs) > 1:
        for blk in segs:
            if blk is not head and head.pc in blk.pcs[1:]:
                return None                # quantum-drift duplicate
        segs.sort(key=lambda blk: blk.pc)
    else:
        # A lone block chains only if it loops onto itself: a static
        # back-edge, or a ``ret`` to its own call-return head.
        term = head.term_instr
        if head.pc not in _static_successors(head) and not (
                term is not None and term.op == "ret"
                and head.pc in _ret_targets(segs)):
            return None
    isa_name = process.isa.name
    return segs, (isa_name, tuple(_seg_key(isa_name, blk) for blk in segs))


def _ret_targets(segs) -> Set[int]:
    """Call return addresses inside the web: the candidates a ``ret``
    terminator's dynamic link-back compares its popped pc against."""
    return {blk.pcs[k] + instr.size for blk in segs
            for k, instr in enumerate(blk.instrs) if instr.op == "call"}


def _compile_chain(isa, segs, key):
    """Emit and compile the chain over ``segs``; returns (and caches
    under ``key``) its ``(factory, fault tables)`` entry. The generated
    text is not retained: ``key`` already names the chain by content."""
    text, consts = _emit_chain(isa, segs)
    ns: dict = {}
    exec(compile(text, f"<chain@{segs[0].pc:#x}>", "exec"), ns)
    entry = (ns["_make"], consts)
    _CHAIN_FACTORY_CACHE.insert(key, entry)
    chain_stats["built"] += 1
    chain_stats["segments_emitted"] += len(segs)
    chain_stats["lines_emitted"] += text.count("\n") + 1
    return entry


def _bind_chain(process: "Process", head: "Block", segs, key, entry):
    """Bind ``entry``'s factory to ``process`` and hand every segment
    block its own entry handler into the one compiled trampoline;
    returns ``head``'s. Every *interior* pc of every segment is
    registered in ``process.resume_points`` as a metered resume point,
    so a quantum boundary parked mid-trace re-enters the chain instead
    of seeding a duplicate trace. A tier-2 resume point already there
    is overwritten: the chain serves it from now on. The web, factory
    ``key`` included, becomes every member's known web
    (``_KNOWN_WEBS``)."""
    factory, (fpcs, foff, fcoff, segcp) = entry
    chain_stats["bound"] += 1
    run = factory(process, *_miss_paths(process.aspace),
                  fpcs, foff, fcoff, segcp, CpuFault, SegmentationFault)
    epoch = process.hot_epoch
    entries = process.resume_points
    nsegs = len(segs)
    web = tuple(blk.pc for blk in segs)
    debt = RELINK_DISPATCHES_PER_SEGMENT * nsegs   # see link_chain
    ck = _b._content_key(process)
    known = (web, key)
    result = None
    for j, blk in enumerate(segs):
        enter = run if j == 0 else _entry_handler(run, j)
        if blk is head:
            result = enter
        # Overwrite, don't keep: an existing handler on a member block
        # was bound at an older hot epoch (or in the same pass) and the
        # fresh web is at least as complete.
        blk.chain = enter
        blk.chain_m = (run, nsegs + j)
        blk.chain_epoch = epoch
        blk.chain_web = web
        formation = blk.formation
        formation[1] = formation[0] + debt
        if ck is not None:
            _KNOWN_WEBS.insert((ck, blk.pc), known)
        # Interior pcs (and the terminator's own pc) resume through
        # the metered arm; the successor pc past a trace's end is the
        # next block's business, not a resume point of this one.
        pcs = blk.pcs
        lim = blk.body_len + (1 if blk.term_instr is not None else 0)
        for k in range(1, lim):
            entries[pcs[k]] = (blk, k)
    return result


def _miss_paths(aspace):
    """The two slow paths every memory site of one chain binding
    shares, as closures ``load_miss(addr, base, view) -> (value, base,
    view)`` and ``store_miss(addr, value, base, view) -> (base,
    view)``: perform the access through the address space (faulting
    exactly as ``interp.step`` would) and return the site's refilled
    last-page cache — or the old one when the page has no store yet.

    Both remember, per binding, every page they have refilled a site
    with: ``loaded`` maps page base to the word view of a page a load
    found present and readable, ``stored`` one a store has already
    written through ``write_u64``. A site caches one page, and threads
    that run the same chain take turns every slice, so a site shared by
    several threads' stacks misses on every switch; on a remembered
    page an aligned word costs one dict probe and a subscript instead
    of an address-space walk and a fresh ``memoryview.cast``. Misaligned
    and page-straddling words always take the walk.

    The memo is per binding for the same reason the site cells are: a
    binding dies with the blocks that hold it, and every event that
    must be seen again drops the blocks — code invalidation, and
    ``start_dirty_tracking``/``harvest_dirty_pages``, after which each
    page's next store must reach ``write_u64`` so the new epoch marks
    it. That is why ``stored`` admits only pages a store has written
    through ``write_u64`` in this binding: the page is already in the
    current dirty set. It never holds a stale page either: it holds
    only pages present in the page table, and while code runs pages are
    only ever *added* (lazy fault-in, ``install_page`` of absent pages).

    Loads also share a *hot VMA* (``lo``/``hi``, filled in here): a
    full-word access inside its bounds is known readable, so one
    page-dict probe replaces the whole ``read_u64`` walk on every page
    of the hot mapping. Missing pages still take the walk — under lazy
    post-copy an absent store is not proof of zeros. Stores
    deliberately do not use it, for the dirty-tracking reason above.
    """
    pages_get = aspace._pages.get
    read_u64 = aspace.read_u64
    write_u64 = aspace.write_u64
    find_vma = aspace.find_vma
    unpack_from = _U64S.unpack_from
    loaded: Dict[int, object] = {}
    stored: Dict[int, object] = {}
    lo, hi = 1, 0

    def load_miss(a, base, view):
        nonlocal lo, hi
        a &= _U64M
        o = a & _PM
        p = a - o
        if not o & 7:
            memo = loaded.get(p)
            if memo is not None:
                return memo[o >> 3], p, memo
        if lo <= a and a + 8 <= hi and o <= _LS:
            page = pages_get(p)
            if page is None:
                return read_u64(a), base, view
            view = loaded[p] = _cast_page(page)
            return unpack_from(page, o)[0], p, view
        value = read_u64(a)
        vma = find_vma(a)
        if vma is not None and vma.readable and a + 8 <= vma.end:
            lo = vma.start
            hi = vma.end
        page = pages_get(p)
        if page is None:
            return value, base, view
        view = loaded[p] = _cast_page(page)
        return value, p, view

    def store_miss(a, value, base, view):
        a &= _U64M
        o = a & _PM
        p = a - o
        if not o & 7:
            memo = stored.get(p)
            if memo is not None:
                memo[o >> 3] = value
                return p, memo
        write_u64(a, value)
        page = pages_get(p)
        if page is None:
            return base, view
        view = stored[p] = _cast_page(page)
        return p, view

    return load_miss, store_miss


def _entry_handler(run, label: int):
    """An entry into ``run``'s trampoline at ``label`` — how non-head
    segments reuse the head's compiled chain."""
    def enter(thread, regs, budget):
        return run(thread, regs, budget, label)
    return enter


# -- chain code generation -----------------------------------------------------
#
# One chain compiles into ONE function: a ``while 1:`` trampoline with
# two arms per linked segment. Labels 0..S-1 are the *fast* arms — no
# per-op checks, entered only when the whole trace fits the remaining
# budget. Labels S..2S-1 are the *metered* arms — every op is guarded
# so execution can start at op index ``K`` (quantum-boundary resume)
# and stops exactly when the retired count reaches the budget, parking
# ``pc`` mid-trace. Register locals hold canonical u64; ``f`` holds
# the raw compare difference (sign-accurate); ``n``/``c`` batch the
# retired instruction/cycle counts; every exit path sets ``pc`` and
# breaks to a single spill epilogue that re-canonicalizes to signed
# i64. The flat fault tables (PCS/OFF/COFF indexed by ``i``, which
# each potentially-faulting slow path sets) let the handlers
# reconstruct the exact per-instruction state of whichever segment
# faulted; the metered arm pre-subtracts its skip count from ``n``/
# ``c`` so the same static tables stay exact there too.


def _scan_registers(isa, segs) -> Tuple[set, set, bool]:
    """Registers read / written anywhere in the chain, plus TLS use."""
    abi = isa.abi
    sp = isa.reg(abi.stack_pointer)
    fp = isa.reg(abi.frame_pointer)
    lr = (isa.reg(abi.link_register)
          if abi.link_register is not None else None)
    reads: set = set()
    writes: set = set()
    uses_tp = False
    for blk in segs:
        for instr in blk.instrs:
            op = instr.op
            rd, rn, rm = instr.rd, instr.rn, instr.rm
            if op == "mov":
                reads.add(rn); writes.add(rd)
            elif op in ("movi", "movi_full", "movz"):
                writes.add(rd)
            elif op in _b._MOVK_SHIFTS:
                reads.add(rd); writes.add(rd)
            elif op == "load":
                reads.add(rn); writes.add(rd)
            elif op == "store":
                reads.add(rn); reads.add(rd)
            elif op == "ldp":
                reads.add(fp); writes.add(rd); writes.add(rm)
            elif op == "stp":
                reads.add(fp); reads.add(rd); reads.add(rm)
            elif op in ("lea", "addi"):
                reads.add(rn); writes.add(rd)
            elif op == "push":
                reads.add(sp); writes.add(sp); reads.add(rd)
            elif op == "pop":
                reads.add(sp); writes.add(sp); writes.add(rd)
            elif op == "cmp":
                reads.add(rn); reads.add(rm)
            elif op == "cmpi":
                reads.add(rn)
            elif op == "tlsload":
                writes.add(rd); uses_tp = True
            elif op == "tlsstore":
                reads.add(rd); uses_tp = True
            elif op == "call":
                if lr is None:
                    reads.add(sp); writes.add(sp)
                else:
                    writes.add(lr)
            elif op in ("b", "nop", "bcc"):
                pass
            else:                          # ALU: binops / shifts / div
                reads.add(rn); reads.add(rm); writes.add(rd)
        term = blk.term_instr
        if term is not None and term.op == "ret":
            if lr is None:
                reads.add(sp); writes.add(sp)
            else:
                reads.add(lr)
    return reads, writes, uses_tp


#: Bitwise binops need no mask under the u64 representation (operands
#: canonical u64 keep results in range); arithmetic ones do.
_MASKLESS_BINOPS = frozenset(("and", "orr", "eor"))

#: Page-base sentinel for cold memory-site caches: far enough outside
#: the u64 address range that ``addr - sentinel`` can never land in
#: [0, LAST_U64_SLOT], so the first access always takes the slow path.
_COLD_PAGE = 1 << 70


def _off(base: str, imm: int) -> str:
    """Unmasked address expression ``base ± imm`` for a memory site."""
    if not imm:
        return base
    return f"{base} - {-imm}" if imm < 0 else f"{base} + {imm}"


def _emit_chain(isa, segs) -> Tuple[str, tuple]:
    labels: Dict[int, int] = {blk.pc: j for j, blk in enumerate(segs)}
    ret_targets = _ret_targets(segs)
    abi = isa.abi
    sp = isa.reg(abi.stack_pointer)
    fp = isa.reg(abi.frame_pointer)
    lr = (isa.reg(abi.link_register)
          if abi.link_register is not None else None)
    nsegs = len(segs)
    reads, writes, uses_tp = _scan_registers(isa, segs)
    used = sorted(reads | writes)
    spilled = sorted(writes)

    body: List[Tuple[int, str]] = []       # (indent units, text)
    sites: List[str] = []                  # closure cell names, in pairs
    fpcs: List[int] = []                   # flat fault tables, indexed by i
    foff: List[int] = []
    fcoff: List[int] = []

    def emit(depth: int, text: str) -> None:
        body.append((depth, text))

    def new_site() -> Tuple[str, str]:
        pair = (f"p{len(sites) // 2}", f"s{len(sites) // 2}")
        sites.extend(pair)
        return pair

    def fault_index(pc: int, off: int, coff: int) -> int:
        fpcs.append(pc)
        foff.append(off)
        fcoff.append(coff)
        return len(fpcs) - 1

    def read(depth: int, pc: int, off: int, coff: int,
             addr: str, dest: str) -> None:
        # The hit test folds the page-base compare, the straddle check,
        # the alignment check, and the offset computation into one
        # subtraction and one mask: ``o = addr - cached_base`` has no
        # bits outside ``LAST_U64_SLOT`` iff the access is an aligned
        # word wholly inside the cached page, and the data move is then
        # a plain subscript on the page's ``'Q'``-cast memoryview — no
        # struct call, no tuple. ``addr`` is deliberately unmasked (one
        # AND saved per access) — a wrapped address falls off the fast
        # path and is masked in the slow path, as do the (compiler-never-
        # emitted) misaligned words. A miss is one call into the
        # binding's ``load_miss`` closure (see :func:`_miss_paths`),
        # which hands back the value and the site's refilled cache;
        # ``i`` is set first, so a fault inside it finds its table row.
        p, s = new_site()
        emit(depth, f"if not (o := {addr} - {p}) & {~_LS}:")
        emit(depth + 1, f"{dest} = {s}[o >> 3]")
        emit(depth, "else:")
        emit(depth + 1, f"i = {fault_index(pc, off, coff)}")
        emit(depth + 1, f"{dest}, {p}, {s} = LM(o + {p}, {p}, {s})")

    def write(depth: int, pc: int, off: int, coff: int,
              addr: str, value: str) -> None:
        # Same folded hit test as ``read``; the miss goes through the
        # binding's ``store_miss`` closure.
        p, s = new_site()
        emit(depth, f"if not (o := {addr} - {p}) & {~_LS}:")
        emit(depth + 1, f"{s}[o >> 3] = {value}")
        emit(depth, "else:")
        emit(depth + 1, f"i = {fault_index(pc, off, coff)}")
        emit(depth + 1, f"{p}, {s} = SM(o + {p}, {value}, {p}, {s})")

    def transition(depth: int, target: int, add_n: int, add_c: int) -> None:
        """Leave the current segment for ``target``: enter the fast arm
        when the target's whole trace fits the remaining budget, its
        metered arm when any budget remains (it parks ``pc`` exactly at
        the boundary), else exit with ``pc`` at the target."""
        if add_n:
            emit(depth, f"n += {add_n}")
            emit(depth, f"c += {add_c}")
        j = labels.get(target)
        if j is not None:
            emit(depth, f"if budget - n >= {segs[j].full}:")
            emit(depth + 1, f"L = {j}")
            emit(depth + 1, "continue")
            emit(depth, "if budget > n:")
            emit(depth + 1, f"L = {nsegs + j}")
            emit(depth + 1, "K = 0")
            emit(depth + 1, "continue")
        emit(depth, f"pc = {target}")
        emit(depth, "break")

    def emit_segment(j: int, blk, metered: bool, base: int) -> None:
        pcs = blk.pcs
        cp = blk.cost_prefix
        nb = blk.body_len
        if metered:
            # Pre-subtract the skipped prefix: every static accounting
            # constant below (side exits, segment totals, fault table
            # offsets) then stays exact without knowing K, and the
            # budget stop is the single compare ``e == k``.
            emit(base, "n -= K")
            emit(base, f"c -= CP{j}[K]")
            emit(base, "e = budget - n")
        for k, instr in enumerate(blk.instrs):
            op = instr.op
            rd, rn, rm = instr.rd, instr.rn, instr.rm
            imm = instr.imm if instr.imm is not None else 0
            if op in ("nop", "b"):         # extension b: pc baked in pcs
                if metered and k:
                    emit(base, f"if e == {k}: pc = {pcs[k]};"
                               f" c += {cp[k]}; n = budget; break")
                continue
            if metered:
                emit(base, f"if K <= {k}:")
                d = base + 1
                if k:
                    # Budget exhausted here: the retired total is the
                    # budget by definition (e == k solves exactly
                    # that), and the cycle prefix of this arm pass is
                    # cp[k] (K's share was pre-subtracted).
                    emit(d, f"if e == {k}: pc = {pcs[k]};"
                            f" c += {cp[k]}; n = budget; break")
            else:
                d = base
            if op == "bcc":
                # Side exit: taken, account the exact prefix and either
                # continue at a linked segment or spill out.
                sym = _b._COND_SYMS[instr.cond]
                emit(d, f"if f {sym} 0:")
                transition(d + 1, instr.target, k + 1, cp[k + 1])
            elif op == "mov":
                emit(d, f"r{rd} = r{rn}")
            elif op in ("movi", "movi_full"):
                emit(d, f"r{rd} = {imm & _U64M}")
            elif op == "movz":
                emit(d, f"r{rd} = {imm & 0xFFFF}")
            elif op in _b._MOVK_SHIFTS:
                shift = _b._MOVK_SHIFTS[op]
                keep = _U64M & ~(0xFFFF << shift)
                part = (imm & 0xFFFF) << shift
                emit(d, f"r{rd} = (r{rd} & {keep}) | {part}")
            elif op == "load":
                read(d, pcs[k], k, cp[k], _off(f"r{rn}", imm), f"r{rd}")
            elif op == "store":
                write(d, pcs[k], k, cp[k], _off(f"r{rn}", imm), f"r{rd}")
            elif op == "ldp":
                emit(d, f"t = r{fp}")
                read(d, pcs[k], k, cp[k], _off("t", imm), f"r{rd}")
                read(d, pcs[k], k, cp[k], _off("t", imm + 8), f"r{rm}")
            elif op == "stp":
                emit(d, f"t = r{fp}")
                write(d, pcs[k], k, cp[k], _off("t", imm), f"r{rd}")
                write(d, pcs[k], k, cp[k], _off("t", imm + 8), f"r{rm}")
            elif op in ("lea", "addi"):
                emit(d, f"r{rd} = (r{rn} + {imm}) & {_U64M}"
                     if imm else f"r{rd} = r{rn}")
            elif op == "push":
                emit(d, f"r{sp} = (r{sp} - 8) & {_U64M}")
                write(d, pcs[k], k, cp[k], f"r{sp}", f"r{rd}")
            elif op == "pop":
                read(d, pcs[k], k, cp[k], f"r{sp}", f"r{rd}")
                if rd != sp:               # pop sp: no post-increment
                    emit(d, f"r{sp} = (r{sp} + 8) & {_U64M}")
            elif op == "cmp":
                # Signed compare via the sign-flip identity; f keeps
                # the raw difference (sign-accurate, normalized only
                # when spilled).
                emit(d, f"f = (r{rn} ^ {_SIGN}) - (r{rm} ^ {_SIGN})")
            elif op == "cmpi":
                emit(d,
                     f"f = (r{rn} ^ {_SIGN}) - {(imm & _U64M) ^ _SIGN}")
            elif op == "tlsload":
                read(d, pcs[k], k, cp[k], _off("tp", imm), f"r{rd}")
            elif op == "tlsstore":
                write(d, pcs[k], k, cp[k], _off("tp", imm), f"r{rd}")
            elif op in _MASKLESS_BINOPS:
                emit(d, f"r{rd} = r{rn} {_b._BINOP_SYMS[op]} r{rm}")
            elif op in _b._BINOP_SYMS:
                emit(d, f"r{rd} = (r{rn} {_b._BINOP_SYMS[op]} r{rm})"
                        f" & {_U64M}")
            elif op == "lsl":
                emit(d, f"r{rd} = (r{rn} << (r{rm} & 63)) & {_U64M}")
            elif op == "lsr":
                emit(d, f"r{rd} = r{rn} >> (r{rm} & 63)")
            elif op in ("sdiv", "srem"):
                msg = ("integer division by zero" if op == "sdiv"
                       else "integer remainder by zero")
                emit(d, f"x = r{rn} - {_TWO64} if r{rn} >> 63 else r{rn}")
                emit(d, f"y = r{rm} - {_TWO64} if r{rm} >> 63 else r{rm}")
                emit(d, "if y == 0:")
                emit(d + 1, f"i = {fault_index(pcs[k], k, cp[k])}")
                emit(d + 1, f"thread.pc = {pcs[k]}")
                emit(d + 1, f"raise CpuFault(thread, {msg!r})")
                emit(d, "v = abs(x) // abs(y)" if op == "sdiv"
                     else "v = abs(x) % abs(y)")
                if op == "sdiv":
                    emit(d, f"r{rd} = (-v if (x < 0) != (y < 0) else v)"
                            f" & {_U64M}")
                else:
                    emit(d, f"r{rd} = (-v if x < 0 else v) & {_U64M}")
            elif op == "call":             # extension call: pc baked in
                return_to = pcs[k] + instr.size
                if lr is None:             # x86: push the return address
                    emit(d, f"r{sp} = (r{sp} - 8) & {_U64M}")
                    write(d, pcs[k], k, cp[k], f"r{sp}", str(return_to))
                else:                      # arm: link register
                    emit(d, f"r{lr} = {return_to}")

        total = nb
        cycles = cp[nb]
        term = blk.term_instr
        if term is not None:
            total += 1
            cycles += blk.term_cost
            if metered:
                # The budget may end right before the terminator.
                emit(base, f"if e == {nb}: pc = {pcs[nb]};"
                           f" c += {cp[nb]}; n = budget; break")
        if term is None:                   # length-split trace: fall through
            transition(base, pcs[nb], total, cycles)
        elif term.op == "b":               # loop-closing back-edge
            transition(base, term.target, total, cycles)
        elif term.op == "bcc":             # loop-closing two-way terminator
            emit(base, f"n += {total}")
            emit(base, f"c += {cycles}")
            sym = _b._COND_SYMS[term.cond]
            emit(base, f"if f {sym} 0:")
            transition(base + 1, term.target, 0, 0)
            transition(base, pcs[nb] + term.size, 0, 0)
        else:                              # ret: dynamic link via return pc
            # The pop executes *before* the segment's accounting is
            # added to ``n``/``c``: a faulting pop must account only
            # the ``nb``-op prefix (via the fault table), exactly like
            # a faulting body op.
            if lr is None:                 # x86: pop the return pc
                read(base, pcs[nb], nb, cp[nb], f"r{sp}", "pc")
                emit(base, f"r{sp} = (r{sp} + 8) & {_U64M}")
            else:                          # arm: link register
                emit(base, f"pc = r{lr}")
            emit(base, f"n += {total}")
            emit(base, f"c += {cycles}")
            for target in sorted(ret_targets):
                j2 = labels.get(target)
                if j2 is None:
                    continue
                emit(base, f"if pc == {target}:")
                emit(base + 1, f"if budget - n >= {segs[j2].full}:")
                emit(base + 2, f"L = {j2}")
                emit(base + 2, "continue")
                emit(base + 1, "if budget > n:")
                emit(base + 2, f"L = {nsegs + j2}")
                emit(base + 2, "K = 0")
                emit(base + 2, "continue")
                emit(base + 1, "break")
            emit(base, "break")

    # Label dispatch is a binary tree over [0, 2 * nsegs) — fast arms
    # are labels [0, nsegs), metered arms [nsegs, 2 * nsegs) — so a
    # transition costs ~log2 compares instead of a linear label scan.
    # Leaves carry no equality test: every label reaching the loop top
    # (entry handlers, transitions, resume points) is a
    # valid arm index, so the range pins the arm exactly.
    def emit_dispatch(lo: int, hi: int, depth: int) -> None:
        if hi - lo == 1:
            j = lo % nsegs
            emit_segment(j, segs[j], lo >= nsegs, depth)
            return
        mid = (lo + hi) // 2
        emit(depth, f"if L < {mid}:")
        emit_dispatch(lo, mid, depth + 1)
        emit(depth, "else:")
        emit_dispatch(mid, hi, depth + 1)

    emit_dispatch(0, 2 * nsegs, 0)
    # A recursive local function is a reference cycle (its own cell
    # holds it) whose other cells reach ``segs`` — blocks, their bound
    # closures, the process. Unbind it so all of that is freed by
    # reference count when its owners let go, not by a collector pass.
    emit_dispatch = None

    # -- assemble ----------------------------------------------------------
    # Every way out — a ``break`` with ``pc`` set, or a fault — leaves
    # through the one ``finally`` epilogue, which spills the register
    # locals and accounts ``n``/``c``; the fault arms only move the
    # three to the faulting op first, via the flat fault tables.
    src = ["def _make(process, LM, SM, PCS, OFF, COFF, SEGCP, CpuFault,"
           " SegmentationFault):"]
    for j in range(nsegs):
        src.append(f"    CP{j} = SEGCP[{j}]")
    if sites:
        src.append("    " + " = ".join(sites[0::2]) + f" = {_COLD_PAGE}")
        src.append("    " + " = ".join(sites[1::2]) + " = None")
    src.append("    def run(thread, regs, budget, L=0, K=0):")
    if sites:
        src.append("        nonlocal " + ", ".join(sites))
    for idx in used:
        src.append(f"        r{idx} = regs[{idx}] & {_U64M}")
    src.append("        f = thread.flags")
    if uses_tp:
        src.append("        tp = thread.tp")
    src.append("        n = 0")
    src.append("        c = 0")
    src.append("        i = 0")
    src.append("        pc = thread.pc")   # bound even on a BaseException
    src.append("        try:")
    src.append("            while 1:")
    for depth, text in body:
        src.append("                " + "    " * depth + text)
    if fpcs:
        src.extend([
            "        except SegmentationFault as exc:",
            "            pc = thread.pc = PCS[i]",
            "            n += OFF[i]",
            "            c += COFF[i]",
            "            raise CpuFault(thread, str(exc)) from exc",
            "        except Exception:",   # div by zero, dead lazy-page server
            "            pc = PCS[i]",
            "            n += OFF[i]",
            "            c += COFF[i]",
            "            raise",
        ])
    src.append("        finally:")
    src.append("            thread.pc = pc")
    for idx in spilled:
        src.append(f"            regs[{idx}] = "
                   f"r{idx} - {_TWO64} if r{idx} >> 63 else r{idx}")
    src.extend([
        "            thread.flags = (f > 0) - (f < 0)",
        "            thread.instr_count += n",
        "            process.instr_total += n",
        "            process.cycle_total += c",
        "        return n",
        "    return run",
    ])
    segcp = tuple(tuple(blk.cost_prefix) for blk in segs)
    return "\n".join(src), (tuple(fpcs), tuple(foff), tuple(fcoff), segcp)
