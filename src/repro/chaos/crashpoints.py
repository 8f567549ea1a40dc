"""Systematic crash-point injection for the durable checkpoint store.

Where :class:`~repro.chaos.FaultInjector` rolls seeded dice, the
crash-point engine is *exhaustive*: every durability site the store's
backend touches — each chunk-file write / fsync / rename, each WAL
append and its fsync (the torn window between intent and apply), each
GC unlink, each compaction step — is numbered in execution order, and
the sweep kills the store at **every one of them**, once each:

1. a *counting pass* runs the operation cleanly over an instrumented
   backend, enumerating its durability sites and capturing the
   operation's completed end state;
2. one *trial per site* re-runs the operation on a fresh clone of the
   baseline simulated disk with a :class:`CrashPointInjector` armed at
   that site: the injector raises :class:`~repro.errors.StoreCrash`
   (sudden death — no rollback path may catch it), the
   :class:`~repro.store.SimDisk` tears its unsynced writes at seeded
   offsets, and the harness reopens the survivors with
   :meth:`~repro.store.CheckpointStore.recover`;
3. each reopened store is held to the crash-consistency invariants:
   fsck clean, refcount books balanced, committed checkpoints
   materialize byte-identically, uncommitted ones fully absent, and
   recovery idempotent (recovering twice yields the identical store,
   and the second recovery writes nothing).

The sweep is deterministic end to end — sites are counted, not
sampled; tears are seeded — so a failing site number reproduces
exactly, and (with recorders attached) two runs of the same sweep
journal bit-identically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..criu.images import ImageSet
from ..errors import StoreCrash
from ..store import (CheckpointStore, DirBackend, SimDisk, plan_transfer,
                     ship)
from .faults import TrialResult


class CrashPointInjector:
    """Counts durability sites; armed, it kills the process at one.

    With ``crash_at=None`` the injector only records the site labels it
    sees (the counting pass). Armed with a site index, it raises
    :class:`~repro.errors.StoreCrash` the moment that site is reached —
    *before* the site's durable primitive executes, so the crash lands
    in the window the discipline must survive.
    """

    def __init__(self, crash_at: Optional[int] = None, recorder=None):
        self.crash_at = crash_at
        self.recorder = recorder
        #: site labels in execution order (the enumeration)
        self.sites: List[str] = []

    def site(self, label: str) -> None:
        index = len(self.sites)
        self.sites.append(label)
        if self.crash_at is not None and index == self.crash_at:
            if self.recorder is not None:
                from ..replay.journal import EV_FAULT
                self.recorder.on_event(EV_FAULT,
                                       label=f"crashpoint:{label}",
                                       a=index)
            raise StoreCrash(
                f"simulated crash at durability site #{index} ({label})",
                site=label, index=index)


def _capture(store: CheckpointStore) -> Dict[str, Dict[str, bytes]]:
    """Byte-level snapshot of every materializable checkpoint."""
    out: Dict[str, Dict[str, bytes]] = {}
    for cid in store.checkpoint_ids():
        if store.is_group(cid):
            continue
        out[cid] = dict(store.materialize(cid).files)
    return out


def sweep(setup: Callable[[CheckpointStore], object],
          op: Callable[[CheckpointStore, object], object],
          seed: int = 0, atomic: bool = False,
          recorder_factory: Optional[Callable[[], object]] = None
          ) -> List[TrialResult]:
    """Kill ``op`` at every durability site and judge each recovery.

    Returns one :class:`~repro.chaos.faults.TrialResult` per site, in
    execution order: ``seed`` is the site index, ``phase`` the site
    label, ``outcome`` ``"recovered"``, and ``faults`` is
    ``{"crash": 1}`` when the armed crash fired.

    ``setup(store)`` builds the committed baseline on a fresh durable
    store and returns a context object; ``op(store, ctx)`` is the
    mutation under test, re-run once per site on a recovered store over
    a clone of the baseline disk. ``atomic=True`` additionally requires
    all-or-nothing visibility: the recovered checkpoint set must equal
    either the baseline set or the completed set, never a mix (puts,
    group commits and deletes are atomic; a chain adopt may legally
    surface a prefix of the chain).

    ``recorder_factory`` (e.g. ``FlightRecorder``) gives each trial's
    recovery its own recorder, so tests can prove two identically-seeded
    sweeps journal their ``EV_RECOVER`` events bit-identically.
    """
    # -- baseline ----------------------------------------------------------
    base_disk = SimDisk(seed=seed)
    base_store = CheckpointStore(backend=DirBackend(base_disk))
    ctx = setup(base_store)
    baseline_ids = set(base_store.checkpoint_ids())
    baseline_capture = _capture(base_store)

    def _reopen(disk: SimDisk, crash_at: Optional[int] = None,
                recorder=None):
        backend = DirBackend(disk)
        store, _report = CheckpointStore.recover(backend)
        # Arm only after recovery: recovery's own unlinks/compaction
        # are not part of the operation's site enumeration.
        injector = CrashPointInjector(crash_at=crash_at,
                                      recorder=recorder)
        backend.injector = injector
        return store, injector

    # -- counting pass -----------------------------------------------------
    count_store, counter = _reopen(base_disk.clone())
    op(count_store, ctx)
    sites = list(counter.sites)
    after_ids = set(count_store.checkpoint_ids())
    after_capture = _capture(count_store)

    # -- one trial per site ------------------------------------------------
    trials: List[TrialResult] = []
    for index, site in enumerate(sites):
        recorder = recorder_factory() if recorder_factory else None
        disk = base_disk.clone()
        store, injector = _reopen(disk, crash_at=index,
                                  recorder=recorder)
        crashed = False
        try:
            op(store, ctx)
        except StoreCrash:
            crashed = True
        problems: List[str] = []
        if not crashed:
            problems.append(f"site #{index} ({site}) never fired")
        # Sudden death: the in-memory store is gone; the simulated disk
        # tears its unsynced writes and the survivors are reopened.
        disk.crash()
        backend = DirBackend(disk)
        recovered, report = CheckpointStore.recover(backend,
                                                    recorder=recorder)
        problems.extend(_judge(recovered, report, baseline_ids,
                               after_ids, baseline_capture,
                               after_capture, atomic))
        # Idempotency: recovering the recovered disk changes nothing
        # and writes nothing.
        quiet = DirBackend(disk, injector=CrashPointInjector())
        again, again_report = CheckpointStore.recover(quiet)
        if set(again.checkpoint_ids()) != set(recovered.checkpoint_ids()):
            problems.append("recovery is not idempotent: second recover "
                            "yields a different checkpoint set")
        if quiet.injector.sites:
            problems.append(f"second recovery wrote to disk: "
                            f"{quiet.injector.sites}")
        if not again_report.clean:
            problems.append("second recovery not clean: "
                            + "; ".join(again_report.fsck))
        trials.append(TrialResult(index, "recovered", problems,
                                  {"crash": 1} if crashed else {},
                                  phase=site))
    return trials


def store_sweep_ops(first: ImageSet, second: Optional[ImageSet] = None
                    ) -> Dict[str, Tuple[Callable, Callable, bool]]:
    """The store's five mutations as :func:`sweep` rows, ``name ->
    (setup, op, atomic)``: put, put_group, delete, gc and adopt.

    ``first`` is the image set each row puts or builds its baseline
    from; ``adopt`` ships ``second`` (default ``first``) from a fresh
    in-memory source store, so with two successive dumps it lands real
    chunk overlap."""
    shipped = first if second is None else second

    def nothing(store):
        return None

    def put_first(store):
        return store.put(first).checkpoint_id

    def delete_then_gc(store, cid):
        store.delete(cid)
        store.gc()

    def adopt(store, _ctx):
        src = CheckpointStore()
        cid = src.put(shipped).checkpoint_id
        ship(src, store, plan_transfer(src, store, cid))

    return {
        "put": (nothing, lambda store, _ctx: store.put(first), True),
        "put_group": (put_first, lambda store, cid: store.put_group(
            [cid], label="sweep"), True),
        "delete": (put_first, lambda store, cid: store.delete(cid), True),
        "gc": (put_first, delete_then_gc, False),
        "adopt": (nothing, adopt, False),
    }


def _judge(store: CheckpointStore, report, baseline_ids, after_ids,
           baseline_capture, after_capture, atomic: bool) -> List[str]:
    """The crash-consistency invariants, as problem strings."""
    problems: List[str] = []
    if not report.clean:
        problems.extend(f"fsck: {p}" for p in report.fsck)
    recovered = set(store.checkpoint_ids())
    added = after_ids - baseline_ids
    removed = baseline_ids - after_ids
    # Committed-prefix visibility: nothing outside baseline ∪ op's own
    # additions may appear, nothing outside the op's own removals may
    # vanish — uncommitted state is fully absent, committed state is
    # fully present.
    floor = baseline_ids - removed
    ceiling = baseline_ids | added
    if not floor <= recovered:
        missing = sorted(c[:12] for c in floor - recovered)
        problems.append(f"committed checkpoints lost: {missing}")
    if not recovered <= ceiling:
        extra = sorted(c[:12] for c in recovered - ceiling)
        problems.append(f"phantom checkpoints appeared: {extra}")
    if atomic and recovered not in (baseline_ids, after_ids):
        problems.append(
            f"non-atomic visibility: recovered set matches neither "
            f"baseline nor completed state "
            f"(+{sorted(c[:12] for c in recovered - baseline_ids)} "
            f"-{sorted(c[:12] for c in baseline_ids - recovered)})")
    # Byte identity of everything that survived.
    expected = dict(baseline_capture)
    expected.update(after_capture)
    for cid in sorted(recovered):
        if store.is_group(cid):
            continue
        try:
            files = dict(store.materialize(cid).files)
        except Exception as exc:  # noqa: BLE001 — judged, not raised
            problems.append(f"checkpoint {cid[:12]} does not "
                            f"materialize: {exc}")
            continue
        if cid in expected and files != expected[cid]:
            problems.append(f"checkpoint {cid[:12]} materializes "
                            f"differently after recovery")
    return problems
