"""End-to-end migration pipeline (paper §IV-A, Fig. 5/7).

One :class:`MigrationPipeline` owns a source and a destination machine
(with both architectures' binaries installed, as in the paper's cluster)
and executes the four stages the paper measures:

1. **checkpoint** — pause at equivalence points + CRIU dump into tmpfs,
2. **recode** — rewrite the image set with the cross-ISA policy (the
   paper notes the rewrite can run on either node; the recode node is
   configurable and defaults to the source),
3. **scp** — copy the transformed images over the network link,
4. **verify** — the restore guard: the arrived image set runs the
   multi-pass :class:`~repro.verify.ImageVerifier` against the
   destination binary and the sender's per-page digest manifest;
   clean-page divergence is auto-repaired in place, anything
   unrepairable is quarantined on the destination
   (``/quarantine/<id>`` with a machine-readable diagnosis) and the
   migration rolls back to the source,
5. **restore** — vanilla or post-copy (lazy) restoration on the target.

Each stage reports a simulated wall-clock latency from the calibrated
cost model, driven by the *measured* image sizes / frame counts / page
counts of the run.

**Transactional semantics.** With a chaos ``injector`` attached,
``migrate`` becomes a staged transaction: every stage retries under a
deterministic exponential backoff when an injected fault (or an
integrity failure it provokes) fires, arriving images are re-verified
against the source content digest, a post-copy page-server death
degrades gracefully to a pre-copy of the remaining pages, and an
exhausted retry budget **rolls back to the source** — the destination's
partial state is swept (image tree removed, orphan store chunks GC'd)
and the paused source process resumes as if the migration was never
attempted. The source is only torn down *after* a successful restore,
so at every instant exactly one runnable copy of the process exists.
Without an injector none of this machinery runs and the pipeline is
byte-identical to the fault-free fast path.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from ..compiler.driver import CompiledProgram
from ..criu.images import ImageSet
from ..criu.lazy import PageServer, restore_process_lazy
from ..criu.restore import restore_process
from ..errors import (InjectedFault, IntegrityError, MigrationError,
                      MigrationRollback, PageServerDead, QuarantinedImage,
                      ReproError, StoreError)
from ..mem.paging import PAGE_SIZE
from ..verify import ImageVerifier, Quarantine, image_page_digests
from ..vm.kernel import Machine, Process
from .costs import (LinkProfile, MigrationCostModel, NodeProfile,
                    infiniband_link, profile_for_arch)
from .policies.cross_isa import CrossIsaPolicy
from .rewriter import ProcessRewriter
from .runtime import DapperRuntime

if TYPE_CHECKING:
    from ..store import (CheckpointStore, StorePageServer, plan_transfer,
                         ship)

#: exception classes one transactional stage attempt may absorb and retry
RETRYABLE = (InjectedFault, IntegrityError, StoreError)

#: The checkpoint store names this module uses. Only the ``use_store``
#: path needs them, so they are bound into this module on first use
#: (:func:`_import_store`, or reading one as a module attribute) and
#: ``import repro`` does not load ``repro.store``.
_STORE_NAMES = ("CheckpointStore", "StorePageServer", "plan_transfer", "ship")


def _import_store() -> None:
    from .. import store
    names = globals()
    for name in _STORE_NAMES:
        # setdefault: a name patched onto the module (a tracing
        # wrapper) stays what the call sites below look up.
        names.setdefault(name, getattr(store, name))


def __getattr__(name: str):
    if name in _STORE_NAMES:
        _import_store()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class MigrationResult:
    """Everything one migration produced."""

    def __init__(self, *, process: Process, images: ImageSet,
                 stage_seconds: Dict[str, float], stats: Dict,
                 output_before: str, page_server: Optional[PageServer],
                 lazy: bool):
        self.process = process
        self.images = images
        self.stage_seconds = dict(stage_seconds)
        self.stats = dict(stats)
        self.output_before = output_before
        self.page_server = page_server
        self.lazy = lazy
        #: hold_source=True migrations keep the paused source alive
        #: until MigrationPipeline.commit/abort decides its fate
        self.held_runtime = None
        self.held_ctx: Optional[Dict] = None

    @property
    def held(self) -> bool:
        """True while the source is still paused awaiting commit/abort
        (two-phase group migrations)."""
        return self.held_runtime is not None

    @property
    def total_seconds(self) -> float:
        return sum(self.stage_seconds.values())

    def combined_output(self) -> str:
        return self.output_before + self.process.stdout()

    def indirect_restore_seconds(self, link: LinkProfile) -> float:
        """Post-copy page-retrieval cost concealed in post-migration
        execution (estimated from the page server's log, as the paper
        does for Redis)."""
        if self.page_server is None:
            return 0.0
        return link.page_fault_seconds(self.page_server.pages_served)

    def __repr__(self) -> str:
        stages = ", ".join(f"{k}={v * 1e3:.1f}ms"
                           for k, v in self.stage_seconds.items())
        return f"<MigrationResult {'lazy ' if self.lazy else ''}{stages}>"


def exe_path_for(program_name: str, arch: str) -> str:
    return f"/bin/{program_name}.{arch}"


def install_program(machine: Machine, program: CompiledProgram) -> None:
    """Install both architectures' binaries (the paper keeps both on every
    node so the target arch is chosen by the executable, not the host)."""
    for arch, binary in program.binaries.items():
        machine.tmpfs.write(exe_path_for(program.name, arch),
                            binary.to_bytes())


class MigrationPipeline:
    def __init__(self, src_machine: Machine, dst_machine: Machine,
                 program: CompiledProgram,
                 link: Optional[LinkProfile] = None,
                 src_profile: Optional[NodeProfile] = None,
                 dst_profile: Optional[NodeProfile] = None,
                 recode_profile: Optional[NodeProfile] = None,
                 byte_scale: float = 1.0,
                 target_footprint_bytes: Optional[float] = None,
                 use_store: bool = False,
                 src_store: Optional[CheckpointStore] = None,
                 dst_store: Optional[CheckpointStore] = None,
                 store_codec: str = "zlib",
                 network=None,
                 injector=None,
                 retry_budget: int = 3,
                 backoff_base_s: float = 0.05,
                 arrival_check: bool = True,
                 dump_extra=None):
        self.src_machine = src_machine
        self.dst_machine = dst_machine
        self.program = program
        # A Network pins the pipeline to the *registered* topology: the
        # strict lookup raises ClusterError on an unregistered pair
        # instead of silently migrating over the default link.
        self.network = network
        if link is not None:
            self.link = link
        elif network is not None:
            self.link = network.link_between(src_machine.name,
                                             dst_machine.name, strict=True)
        else:
            self.link = infiniband_link()
        self.src_profile = src_profile or profile_for_arch(
            src_machine.isa.name)
        self.dst_profile = dst_profile or profile_for_arch(
            dst_machine.isa.name)
        # The paper: "we can always transform the process image on the
        # most powerful machine" — default to recoding at the source.
        self.recode_profile = recode_profile or self.src_profile
        # Every stage latency below is priced through the shared cost
        # model — the same formulas the fleet's concurrent migration
        # scheduler uses for its modeled migrations.
        self.cost_model = MigrationCostModel(self.src_profile,
                                             self.dst_profile, self.link,
                                             recode=self.recode_profile)
        # Stage-latency inputs are measured image bytes multiplied by
        # byte_scale; the benchmark harnesses set it to
        # nominal_footprint / measured_footprint so latencies reflect
        # full-size (class-B) checkpoints while all rewriting stays real.
        self.byte_scale = byte_scale
        # Alternative to byte_scale: give the nominal full-size resident
        # footprint (e.g. AppSpec.class_b_footprint) and the scale is
        # derived from the process's actual populated memory at pause
        # time — consistent between vanilla and lazy runs.
        self.target_footprint_bytes = target_footprint_bytes
        # Content-addressed transfer: when on, recoded images are put
        # into the source node's checkpoint store and only the chunks
        # the destination store is missing cross the link. Pass
        # long-lived stores to model warm nodes — a destination that
        # has seen the program (or one sharing pages with it) receives
        # a small fraction of a full image copy.
        self.use_store = use_store
        if use_store:
            _import_store()
            self.src_store = src_store or CheckpointStore(
                codec=store_codec)
            self.dst_store = dst_store or CheckpointStore(
                codec=store_codec)
        else:
            self.src_store = src_store
            self.dst_store = dst_store
        # Chaos: a FaultInjector turns migrate() into the staged
        # transaction described in the module docstring. retry_budget is
        # attempts per stage; attempt k backs off
        # backoff_base_s * 2**(k-1) simulated seconds before retrying.
        self.injector = injector
        self.retry_budget = max(1, int(retry_budget))
        self.backoff_base_s = backoff_base_s
        # The in-stage arrival digest check retries a corrupted copy
        # before the verifier ever sees it. Chaos harnesses turn it off
        # (verify-gate mode) so injected corruption provably reaches —
        # and is caught by — the restore guard itself.
        self.arrival_check = arrival_check
        # Extra per-resource dump payloads for the checkpoint plugins:
        # a callable (process -> dict) evaluated at dump time. The group
        # layer uses it to journal each member's in-flight connections
        # into the new sockets.img section.
        self.dump_extra = dump_extra
        install_program(src_machine, program)
        install_program(dst_machine, program)

    def start(self) -> Process:
        return self.src_machine.spawn_process(
            exe_path_for(self.program.name, self.src_machine.isa.name))

    # -- transactional machinery -------------------------------------------------

    def _txn_stage(self, stage: str, txn: Dict, ctx: Dict, fn,
                   cleanup=None):
        """Run one stage under the retry budget.

        Without an injector this is a plain call — the fault-free path
        carries no transaction bookkeeping at all. With one, a retryable
        failure triggers ``cleanup`` (sweep partial destination state),
        a deterministic exponential backoff, and another attempt; an
        exhausted budget rolls the whole migration back to the source.
        """
        if self.injector is None:
            return fn()
        attempts = 0
        while True:
            attempts += 1
            txn["attempts"][stage] = attempts
            try:
                return fn()
            except QuarantinedImage as exc:
                # The verifier's verdict is a pure function of the image
                # bytes — retrying cannot succeed, so an unrepairable
                # image rolls back immediately (the quarantined copy and
                # its diagnosis survive the destination sweep).
                txn["errors"].append(f"{stage}#{attempts}: {exc}")
                self._rollback(stage, attempts, txn, ctx, exc)
            except RETRYABLE as exc:
                txn["errors"].append(f"{stage}#{attempts}: {exc}")
                if cleanup is not None:
                    cleanup()
                if attempts >= self.retry_budget:
                    self._rollback(stage, attempts, txn, ctx, exc)
                backoff = self.backoff_base_s * (2 ** (attempts - 1))
                txn["backoff_seconds"] += backoff

    def _rollback(self, stage: str, attempts: int, txn: Dict, ctx: Dict,
                  exc: BaseException) -> None:
        """Undo the half-migration and resume the source.

        The destination's image tree is removed, a checkpoint this
        migration adopted into the destination store is deleted and its
        now-orphaned chunks GC'd, and the paused source process is
        resumed — it continues exactly where it stopped. Raises
        :class:`MigrationRollback` carrying the transaction record.
        """
        txn["rolled_back"] = True
        txn["rollback_stage"] = stage
        dst_fs = self.dst_machine.tmpfs
        for path in list(dst_fs.listdir(ctx["dst_prefix"])):
            dst_fs.remove(path)
        cid = ctx.get("dst_checkpoint")
        if (cid is not None and self.dst_store is not None
                and not ctx.get("dst_had_checkpoint")
                and cid in self.dst_store):
            self.dst_store.delete(cid)
        if self.dst_store is not None:
            chunks_freed, bytes_freed = self.dst_store.gc()
            txn["gc"] = {"chunks": chunks_freed, "bytes": bytes_freed}
        ctx["runtime"].resume()
        if self.injector is not None:
            self.injector.note("rollback", stage,
                               f"after {attempts} attempt(s)", a=attempts)
        raise MigrationRollback(
            f"migration stage {stage!r} failed after {attempts} "
            f"attempt(s); rolled back to source ({exc})",
            stage=stage, attempts=attempts, txn=txn) from exc

    # -- the pipeline ------------------------------------------------------------

    def migrate(self, process: Process, lazy: bool = False,
                max_pause_steps: int = 20_000_000,
                hold_source: bool = False) -> MigrationResult:
        """Migrate ``process`` to the destination machine.

        With ``hold_source=True`` the pipeline stops one step short of
        done: the process is restored on the destination but the paused
        source is **not** torn down — the caller must settle the
        transaction with :meth:`commit` (kill the source) or
        :meth:`abort` (kill the destination copy, sweep its images, and
        resume the source at the cut). This is the per-member building
        block of two-phase group migrations: no source dies until every
        member of the group has restored.
        """
        if process.machine is not self.src_machine:
            raise MigrationError("process does not run on the source machine")
        src_arch = self.src_machine.isa.name
        dst_arch = self.dst_machine.isa.name
        injector = self.injector
        stage_seconds: Dict[str, float] = {}
        txn: Dict = {"attempts": {}, "errors": [],
                     "backoff_seconds": 0.0, "rolled_back": False,
                     "fallback": False}

        # Pausing happens once, outside the transaction: it advances the
        # process to an equivalence point, which is not a retryable step.
        runtime = DapperRuntime(self.src_machine, process)
        runtime.pause_at_equivalence_points(max_pause_steps)
        output_before = process.stdout()
        footprint_bytes = process.aspace.populated_bytes()
        ctx: Dict = {"runtime": runtime,
                     "dst_prefix": f"/images/{process.pid}",
                     "dst_checkpoint": None, "dst_had_checkpoint": False}

        # 1. checkpoint (a dump only reads the paused process, so a node
        # crash mid-dump retries cleanly)
        def _checkpoint():
            if injector is not None:
                injector.node_fault("checkpoint", self.src_machine.name)
            extra = (self.dump_extra(process)
                     if self.dump_extra is not None else None)
            if lazy:
                return runtime.checkpoint_lazy(extra=extra)
            return runtime.checkpoint(extra=extra), None
        images, page_server = self._txn_stage("checkpoint", txn, ctx,
                                              _checkpoint)
        threads = len(images.inventory().tids)
        scale = self.byte_scale
        if self.target_footprint_bytes:
            scale = max(1.0, self.target_footprint_bytes
                        / max(1, footprint_bytes))

        def scaled(nbytes: int) -> int:
            return int(nbytes * scale)
        stage_seconds["checkpoint"] = self.cost_model.checkpoint_seconds(
            scaled(images.total_bytes()), threads)

        # 2. recode — skipped when the placement shares the source ISA
        # (e.g. a same-ISA member of a split group placement): the dump
        # ships verbatim.
        if src_arch == dst_arch:
            stats: Dict = {"frames": 0, "same_isa": True}
            stage_seconds["recode"] = 0.0
        else:
            policy = CrossIsaPolicy(
                self.program.binary(src_arch),
                self.program.binary(dst_arch),
                exe_path_for(self.program.name, dst_arch))

            def _recode():
                if injector is not None:
                    injector.node_fault("recode", self.src_machine.name)
                return ProcessRewriter().rewrite(images, policy)[0]
            report = self._txn_stage("recode", txn, ctx, _recode)
            stage_seconds["recode"] = self.cost_model.recode_seconds(
                scaled(report.bytes_before), report.stats["frames"])
            stats = dict(report.stats)
        # The sender-side ground truth for the restore guard: the sent
        # set's whole-set digest plus its per-page digest manifest (the
        # same addressing the chunk store uses).
        ctx["sent_digest"] = images.content_digest()
        ctx["page_digests"] = image_page_digests(images)

        # 3. transfer — plain scp of the images, or (use_store) a
        # content-addressed delta: put into the source store, ship only
        # the chunks missing at the destination, materialize there.
        if self.use_store:
            images, page_server = self._store_transfer(
                process, images, page_server, stage_seconds, scaled,
                stats, txn, ctx)
        else:
            images = self._plain_transfer(process, images, stage_seconds,
                                          scaled, txn, ctx)

        # 4. verify — nothing restores until the arrived set passes the
        # multi-pass restore guard (repairing what it can on the way).
        images = self._verify_stage(process, images, stage_seconds,
                                    scaled, stats, txn, ctx)

        # Post-copy chaos: maybe arm the page server to die mid
        # fault-in; snapshot the left-behind pages *now* so the pre-copy
        # fallback can finish the transfer from the snapshot even after
        # the source is torn down.
        fallback_pages = None
        if lazy and injector is not None:
            if injector.page_server_fault(page_server):
                fallback_pages = page_server.pending_pages()

        # 5. restore. The source is torn down only *after* the restore
        # succeeds: until then it remains the rollback target, so a
        # failed migration never strands the process between nodes.
        # verify=False: the verify stage above already judged (and
        # possibly repaired) exactly these bytes, with strictly more
        # context than the restore-local gate has.
        def _restore():
            if injector is not None:
                injector.node_fault("restore", self.dst_machine.name)
            if lazy:
                return restore_process_lazy(self.dst_machine, images,
                                            page_server, verify=False)
            return restore_process(self.dst_machine, images, verify=False)
        restored = self._txn_stage("restore", txn, ctx, _restore)
        stage_seconds["restore"] = self.cost_model.restore_seconds(
            scaled(images.total_bytes()), threads)
        if not hold_source:
            runtime.kill_source()

        if fallback_pages is not None:
            self._arm_precopy_fallback(restored, fallback_pages, txn)

        if injector is not None:
            stats["txn"] = txn
            if txn["backoff_seconds"] > 0.0:
                stage_seconds["retries"] = txn["backoff_seconds"]

        result = MigrationResult(
            process=restored, images=images, stage_seconds=stage_seconds,
            stats=stats, output_before=output_before,
            page_server=page_server, lazy=lazy)
        if hold_source:
            result.held_runtime = runtime
            result.held_ctx = ctx
        return result

    # -- two-phase settlement (hold_source=True) ----------------------------------

    def commit(self, result: MigrationResult) -> None:
        """Settle a held-open migration: tear down the source. After
        this the destination copy is the only one, exactly as a plain
        ``migrate`` would have left things."""
        if not result.held:
            raise MigrationError(
                "migration was not held open (hold_source=False) or "
                "is already settled")
        result.held_runtime.kill_source()
        result.held_runtime = None
        result.held_ctx = None

    def abort(self, result: MigrationResult) -> None:
        """Settle a held-open migration the other way: kill the restored
        destination copy, sweep its images, drop any checkpoint this
        migration adopted into the destination store (GC'ing the orphan
        chunks), and resume the paused source at the cut — the mirror of
        :meth:`_rollback` for a migration that had already restored."""
        if not result.held:
            raise MigrationError(
                "migration was not held open (hold_source=False) or "
                "is already settled")
        ctx = result.held_ctx
        if not result.process.exited:
            self.dst_machine.kill(result.process)
        dst_fs = self.dst_machine.tmpfs
        for path in list(dst_fs.listdir(ctx["dst_prefix"])):
            dst_fs.remove(path)
        cid = ctx.get("dst_checkpoint")
        if (cid is not None and self.dst_store is not None
                and not ctx.get("dst_had_checkpoint")
                and cid in self.dst_store):
            self.dst_store.delete(cid)
        if self.dst_store is not None:
            self.dst_store.gc()
        result.held_runtime.resume()
        result.held_runtime = None
        result.held_ctx = None

    # -- stage 3 variants --------------------------------------------------------

    def _plain_transfer(self, process: Process, images: ImageSet,
                        stage_seconds: Dict[str, float], scaled,
                        txn: Dict, ctx: Dict) -> ImageSet:
        """Plain-scp stage 3: link first, bytes second, verify on arrival."""
        injector = self.injector
        prefix = ctx["dst_prefix"]
        dst_fs = self.dst_machine.tmpfs

        def _sweep_partial():
            for path in list(dst_fs.listdir(prefix)):
                dst_fs.remove(path)

        def _transfer():
            # The link — and any injected drop / partition / latency —
            # is consulted before a single byte lands at the target.
            factor = 1.0
            if injector is not None:
                factor = injector.link_fault(self.src_machine.name,
                                             self.dst_machine.name,
                                             site="scp")
            images.save(dst_fs, prefix)
            if injector is not None and injector.corrupt_roll("scp"):
                # Flip the tail byte of the largest arrived file (the
                # pages image) — the arrival digest check must catch it.
                victim = max(dst_fs.listdir(prefix), key=dst_fs.size)
                blob = bytearray(dst_fs.read(victim))
                blob[-1] ^= 0xFF
                dst_fs.write(victim, bytes(blob))
            if injector is not None:
                try:
                    arrived = ImageSet.load(dst_fs, prefix)
                    ok = arrived.content_digest() == images.content_digest()
                except ReproError as exc:
                    raise IntegrityError(
                        f"arrived images unreadable: {exc}") from exc
                if self.arrival_check and not ok:
                    raise IntegrityError(
                        "arrived image digest does not match source")
                # The destination restores from what actually arrived;
                # with arrival_check off, corrupt bytes flow on to the
                # verify stage instead of being silently re-copied.
                return arrived, factor
            return images, factor
        images, factor = self._txn_stage("scp", txn, ctx, _transfer,
                                         cleanup=_sweep_partial)
        stage_seconds["scp"] = self.cost_model.transfer_seconds(
            scaled(images.total_bytes()), factor)
        return images

    def _verify_stage(self, process: Process, images: ImageSet,
                      stage_seconds: Dict[str, float], scaled,
                      stats: Dict, txn: Dict, ctx: Dict) -> ImageSet:
        """Stage 4: the restore guard.

        Runs :class:`~repro.verify.ImageVerifier` over the arrived set
        with everything the pipeline knows — the destination binary, the
        destination chunk store, and the sender's whole-set digest and
        per-page manifest captured right after recode. Repairable
        divergence (clean pages) is fixed in place and the repaired set
        re-saved over the corrupt arrival; an unrepairable set is moved
        to ``/quarantine/<id>`` on the destination with its diagnosis
        and the migration rolls back to the source.
        """
        injector = self.injector
        verifier = ImageVerifier(
            binary=self.program.binary(self.dst_machine.isa.name),
            store=self.dst_store,
            page_digests=ctx.get("page_digests"),
            expected_digest=ctx.get("sent_digest"))

        def _verify():
            if injector is not None:
                injector.node_fault("verify", self.dst_machine.name)
            fixed, verdict = verifier.repair(images)
            if fixed is None:
                quarantine = Quarantine(self.dst_machine.tmpfs)
                qid = quarantine.add(
                    images, verdict,
                    reason=(f"migrate {self.src_machine.name}->"
                            f"{self.dst_machine.name} pid {process.pid}"))
                if injector is not None:
                    injector.note("quarantine", "verify",
                                  f"image {qid} failed pass "
                                  f"{verdict.failing_pass()}",
                                  a=len(verdict.findings))
                raise QuarantinedImage(
                    f"arrived image failed {verdict.failing_pass()} "
                    f"verification and could not be repaired; "
                    f"quarantined as {qid} on {self.dst_machine.name}",
                    quarantine_id=qid, diagnosis=verdict.to_dict(),
                    pass_name=verdict.failing_pass() or "?",
                    findings=[f.to_dict() for f in verdict.findings])
            return fixed, verdict
        images, verdict = self._txn_stage("verify", txn, ctx, _verify)

        # Per-pass timing from the calibrated cost model: each pass reads
        # every image byte once at the destination's checkpoint-IO rate;
        # the repair pass only rewrites the diverged pages.
        rate = self.dst_profile.checkpoint_bytes_per_s
        pass_seconds: Dict[str, float] = {}
        for name in verdict.passes_run:
            if name == "repair":
                pass_seconds[name] = (scaled(len(verdict.repaired)
                                             * PAGE_SIZE) / rate)
            else:
                pass_seconds[name] = scaled(images.total_bytes()) / rate
        stage_seconds["verify"] = sum(pass_seconds.values())
        stats["verify"] = {
            "passes": list(verdict.passes_run),
            "pass_seconds": pass_seconds,
            "checks": verdict.checks,
            "repaired_pages": len(verdict.repaired),
        }
        if verdict.repaired:
            images.save(self.dst_machine.tmpfs, ctx["dst_prefix"])
            if injector is not None:
                injector.note("repair", "verify",
                              f"repaired {len(verdict.repaired)} page(s) "
                              f"in place", a=len(verdict.repaired))
        recorder = getattr(self.src_machine, "recorder", None)
        if recorder is not None:
            # Verify events are a pure function of the image bytes, so
            # verified/repaired migrations journal — and replay —
            # bit-identically.
            from ..replay.journal import EV_VERIFY
            recorder.on_event(
                EV_VERIFY, pid=process.pid,
                label=("verify:repaired@migrate" if verdict.repaired
                       else "verify:ok@migrate"),
                a=verdict.checks, b=len(verdict.repaired))
        return images

    def _store_transfer(self, process: Process, images: ImageSet,
                        page_server: Optional[PageServer],
                        stage_seconds: Dict[str, float], scaled,
                        stats: Dict, txn: Dict, ctx: Dict):
        """Store-backed stage 3. Returns the (materialized) image set
        the destination restores from and the (possibly store-backed)
        page server.

        A retried attempt re-plans the delta: chunks that landed before
        the fault are already in the destination store, so each retry
        ships strictly less — the transfer is resumable, and any chunks
        stranded by a final rollback carry no references until their
        manifest registers, so the rollback GC reclaims them.
        """
        injector = self.injector
        full_bytes = images.total_bytes()
        put = self.src_store.put(images)
        ctx["dst_checkpoint"] = put.checkpoint_id
        ctx["dst_had_checkpoint"] = put.checkpoint_id in self.dst_store
        # Chunking + hashing runs at checkpoint-write speed on the
        # source node; it replaces writing the image files out twice.
        stage_seconds["store"] = self.cost_model.store_seconds(
            scaled(full_bytes))

        def _ship():
            factor = 1.0
            if injector is not None:
                factor = injector.link_fault(self.src_machine.name,
                                             self.dst_machine.name,
                                             site="ship")
            plan = plan_transfer(self.src_store, self.dst_store,
                                 put.checkpoint_id, self.link)
            shipped = ship(self.src_store, self.dst_store, plan,
                           injector=injector)
            images_dst = self.dst_store.materialize(put.checkpoint_id)
            if (injector is not None
                    and images_dst.content_digest()
                    != images.content_digest()):
                raise IntegrityError(
                    "materialized checkpoint digest does not match "
                    "source images")
            return plan, shipped, images_dst, factor
        plan, shipped, images_dst, factor = self._txn_stage(
            "ship", txn, ctx, _ship)
        stage_seconds["scp"] = self.cost_model.transfer_seconds(
            scaled(shipped), factor)
        images_dst.save(self.dst_machine.tmpfs, ctx["dst_prefix"])

        if page_server is not None:
            # Post-copy + store: the left-behind pages live in the
            # source store too, so the page server serves by digest and
            # shares physical pages with every checkpoint.
            digests = {vaddr: self.src_store.chunks.put(data)
                       for vaddr, data in page_server.pending_pages().items()}
            page_server = StorePageServer(
                digests, self.src_store,
                node_name=page_server.node_name,
                log_limit=page_server.log_limit)

        stats["store"] = {
            "checkpoint": put.checkpoint_id,
            "new_chunks": put.new_chunks,
            "dup_chunks": put.dup_chunks,
            "chunks_total": plan.chunks_total,
            "chunks_shipped": len(plan.chunks_needed),
            "bytes_shipped": shipped,
            "bytes_full_copy": full_bytes,
            "savings": 1.0 - (shipped / full_bytes) if full_bytes else 0.0,
            "dedup_ratio": self.src_store.stats()["dedup_ratio"],
        }
        recorder = getattr(self.src_machine, "recorder", None)
        if recorder is not None:
            # Store events are content-derived, hence deterministic:
            # replayed store-backed migrations journal identically.
            from ..replay.journal import EV_STORE
            recorder.on_event(EV_STORE, pid=process.pid,
                              label=f"put:{put.checkpoint_id[:16]}",
                              a=put.new_chunks,
                              b=put.new_physical_bytes)
            recorder.on_event(EV_STORE, pid=process.pid,
                              label=(f"plan:{self.src_machine.name}->"
                                     f"{self.dst_machine.name}"),
                              a=len(plan.chunks_needed), b=shipped)
        return images_dst, page_server

    # -- post-copy degradation ---------------------------------------------------

    def _arm_precopy_fallback(self, process: Process,
                              pending: Dict[int, bytes],
                              txn: Dict) -> None:
        """Wrap the lazy restore's missing-page hook: if the page server
        dies mid post-copy, bulk-install the snapshotted left-behind
        pages (pre-copy fallback) and detach the hook — execution
        continues with byte-identical memory, just paid for eagerly."""
        aspace = process.aspace
        inner = aspace.missing_page_hook

        def hook(base):
            try:
                return inner(base)
            except PageServerDead:
                installed = 0
                for vaddr, data in pending.items():
                    if vaddr == base:
                        continue   # returned below; page() installs it
                    # _pages membership, not page(): page() would
                    # re-enter this hook for every missing page.
                    if (vaddr not in aspace._pages
                            and aspace.find_vma(vaddr) is not None):
                        aspace.install_page(vaddr, data)
                        installed += 1
                aspace.missing_page_hook = None
                txn["fallback"] = True
                txn["fallback_pages"] = installed + (1 if base in pending
                                                     else 0)
                if self.injector is not None:
                    self.injector.note(
                        "fallback", "page-server",
                        f"pre-copied {installed} pending pages",
                        a=installed)
                return pending.get(base)
        aspace.missing_page_hook = hook

    # -- convenience ----------------------------------------------------------------

    def run_and_migrate(self, warmup_steps: int, lazy: bool = False,
                        max_total_steps: int = 50_000_000
                        ) -> MigrationResult:
        """Start the program, run ``warmup_steps``, migrate, run to exit."""
        process = self.start()
        self.src_machine.step_all(warmup_steps)
        if process.exited:
            raise MigrationError(
                "process finished before the migration point; lower "
                "warmup_steps")
        result = self.migrate(process, lazy=lazy)
        self.dst_machine.run_process(result.process, max_total_steps)
        return result
