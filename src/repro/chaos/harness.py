"""Chaos trial harness: complete-or-rollback, never half-migrated.

One :class:`ChaosHarness` owns a fault-free *reference* migration of an
app (its final output and settled memory digest are the oracle) and
runs seeded chaos trials against it. Every trial must land in exactly
one of two states:

* **completed** — the migrated process ran to exit on the destination
  with output identical to the reference and byte-identical settled
  memory (a post-copy trial whose page server was killed must still
  match, via the pre-copy fallback), the source torn down;
* **rolled-back** — :class:`~repro.errors.MigrationRollback` was
  raised, the destination holds *no* image files, *no* adopted
  checkpoint, *no* orphan chunks (store verify clean), no restored
  process — and the source process resumed and ran to completion with
  the reference output.

Anything else — a half-migrated process, divergent output, leaked
destination state — fails the trial. Every run is the journal's
migrate scenario built from :meth:`ChaosHarness.trial_header`, so
recording that header records the judged trial. ``tools/chaos.py``
drives this over many seeds; ``tests/test_chaos.py`` pins specific ones.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from ..apps.registry import get_app
from ..core.migration import MigrationPipeline
from ..criu.lazy import install_pending
from ..errors import MigrationRollback
from ..replay.engine import migrate_header, migrate_scenario
from ..verify import Quarantine
from ..vm.kernel import Machine, Process
from .faults import FaultPlan, TrialResult


def settle_lazy_pages(process: Process, page_server) -> None:
    """Install every page still pending at the server into the process
    address space, close the server and detach the fault-in hook.

    This puts lazy, fallback-completed and vanilla migrations on the
    same footing before hashing memory: whatever the serving history
    was, settled memory must be byte-identical.
    """
    if page_server is not None:
        install_pending(process.aspace, page_server.pending_pages())
        page_server.close()
    process.aspace.missing_page_hook = None


def memory_digest(process: Process) -> str:
    """blake2b-128 over every mapped byte, VMAs in address order.

    Reads with the fault-in hook detached (settle first), so holes read
    as zeros identically on both sides of the comparison.
    """
    aspace = process.aspace
    hook, aspace.missing_page_hook = aspace.missing_page_hook, None
    try:
        h = hashlib.blake2b(digest_size=16)
        for vma in sorted(aspace.vmas, key=lambda v: v.start):
            h.update(aspace.read(vma.start, vma.end - vma.start,
                                 check=False))
        return h.hexdigest()
    finally:
        aspace.missing_page_hook = hook


def audit_swept(machines: List[Machine], prefix: str, store=None
                ) -> List[str]:
    """What an aborted migration left behind on its destinations: image
    files under ``prefix``, (half-)restored processes and — with a
    destination ``store`` — orphan chunks and fsck problems."""
    problems: List[str] = []
    for machine in dict.fromkeys(machines):
        leftover = machine.tmpfs.listdir(prefix)
        if leftover:
            problems.append(f"{machine.name} image tree not swept: "
                            f"{leftover}")
        if machine.processes:
            problems.append(f"{machine.name} has a (half-)restored "
                            f"process")
    if store is not None:
        orphans = store.chunks.orphans()
        if orphans:
            problems.append(f"{len(orphans)} orphan chunk(s) leaked")
        fsck = store.verify()
        if fsck:
            problems.append(f"store fsck: {fsck}")
    return problems


class ChaosHarness:
    def __init__(self, app: str = "kmeans", *, lazy: bool = False,
                 use_store: bool = False, warmup: int = 5000,
                 retry_budget: int = 3, size: str = "small",
                 src_arch: str = "x86_64", dst_arch: str = "aarch64",
                 verify_gate: bool = False):
        self.lazy = lazy
        # Trials run on the engine a default Machine runs. verify-gate
        # mode turns the arrival digest check off so injected corruption
        # provably reaches — and is judged by — the restore guard.
        self._shape = dict(source=get_app(app).source(size), name=app,
                           src_arch=src_arch, dst_arch=dst_arch,
                           warmup=warmup, lazy=lazy, store=use_store,
                           engine="chains", retries=retry_budget,
                           verify_gate=verify_gate)
        # The oracle: one fault-free migration of the same shape.
        pipeline, process = migrate_scenario(self.trial_header(None))
        result = pipeline.migrate(process, lazy=lazy)
        pipeline.dst_machine.run_process(result.process)
        settle_lazy_pages(result.process, result.page_server)
        self.expected_output = result.combined_output()
        self.expected_memory = memory_digest(result.process)

    def trial_header(self, plan: Optional[FaultPlan]) -> Dict:
        """The journal header of the trial ``plan`` drives (``None``:
        the fault-free reference) — recording it records that trial."""
        return migrate_header(**self._shape,
                              chaos=plan.to_spec() if plan is not None
                              else "")

    # -- one trial ---------------------------------------------------------

    def run_trial(self, plan: FaultPlan) -> TrialResult:
        """Run one seeded trial and audit the invariant."""
        pipeline, process = migrate_scenario(self.trial_header(plan))
        problems = []
        repaired_pages = 0
        try:
            result = pipeline.migrate(process, lazy=self.lazy)
        except MigrationRollback as exc:
            outcome = "rolled-back"
            txn = exc.txn
            problems += self._audit_rollback(pipeline, process)
        else:
            outcome = "completed"
            pipeline.dst_machine.run_process(result.process)
            txn = result.stats.get("txn", {})
            repaired_pages = result.stats.get("verify", {}).get(
                "repaired_pages", 0)
            problems += self._audit_completed(pipeline, process, result)
        # Counted only now: a pre-copy fallback fires at fault-in time,
        # while the destination runs.
        faults = pipeline.injector.counts()
        problems += self._audit_corrupt_caught(outcome, txn, faults,
                                               pipeline, repaired_pages)
        return TrialResult(plan.seed, outcome, problems, faults,
                           repaired_pages=repaired_pages)

    def _audit_completed(self, pipeline: MigrationPipeline,
                         source: Process, result) -> list:
        problems = []
        if not result.process.exited:
            problems.append("destination process did not run to exit")
        if result.combined_output() != self.expected_output:
            problems.append("output differs from fault-free reference")
        settle_lazy_pages(result.process, result.page_server)
        if memory_digest(result.process) != self.expected_memory:
            problems.append("settled memory differs from reference")
        if (pipeline.src_store is not None
                and pipeline.src_store.chunks.raw_pins):
            problems.append("source store still holds page-server pins")
        if not source.exited:
            problems.append("source process still alive after completion")
        if pipeline.dst_machine.tmpfs.listdir(f"/images/{source.pid}"):
            problems.append("destination image tree not removed")
        return problems

    def _audit_rollback(self, pipeline: MigrationPipeline,
                        source: Process) -> list:
        problems = audit_swept([pipeline.dst_machine],
                               f"/images/{source.pid}", pipeline.dst_store)
        if source.stopped or source.exited:
            problems.append("source did not resume after rollback")
        pipeline.src_machine.run_process(source)
        if source.stdout() != self.expected_output:
            problems.append("resumed source output differs from "
                            "reference")
        return problems

    def _audit_corrupt_caught(self, outcome: str, txn: Dict,
                              faults: Dict[str, int],
                              pipeline: MigrationPipeline,
                              repaired_pages: int) -> list:
        """Every injected ``corrupt`` fault must be *provably* caught
        before restore — an undefined-behavior escape (a corrupted image
        silently restoring) fails the trial even when the output happens
        to match.

        Acceptable evidence, in the order the defenses sit:

        * an arrival/ship integrity error in the transaction record
          (the corrupted copy was detected and re-transferred),
        * the restore guard auto-repaired pages (and the byte-identity
          oracles in the completed-audit then prove the repair exact),
        * the restore guard quarantined the image — which must come with
          a rollback and a diagnosis naming the failing pass.
        """
        fired = faults.get("corrupt", 0)
        if not fired:
            return []
        problems = []
        errors = " ".join(txn.get("errors", []))
        retried = ("digest" in errors or "unreadable" in errors
                   or "decompress" in errors or "match" in errors)
        quarantined = faults.get("quarantine", 0) > 0
        if quarantined:
            if outcome != "rolled-back":
                problems.append("image quarantined but migration did "
                                "not roll back")
            quarantine = Quarantine(pipeline.dst_machine.tmpfs)
            qids = quarantine.ids()
            if not qids:
                problems.append("quarantine noted but no quarantined "
                                "image on the destination")
            else:
                diagnosis = quarantine.diagnosis(qids[0])
                if not diagnosis.get("failing_pass"):
                    problems.append(f"quarantine {qids[0]} diagnosis "
                                    f"names no failing pass")
        if not (retried or repaired_pages > 0 or quarantined):
            problems.append(
                f"{fired} corrupt fault(s) fired with no catch evidence "
                f"(undefined-behavior escape past the restore guard)")
        return problems

    # -- many trials -------------------------------------------------------

    def run_trials(self, nseeds: int, seed0: int = 0,
                   **probabilities) -> list:
        """One trial per seed in ``[seed0, seed0 + nseeds)``."""
        return [self.run_trial(FaultPlan(seed, **probabilities))
                for seed in range(seed0, seed0 + nseeds)]
