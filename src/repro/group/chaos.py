"""Group chaos harness: commit-or-resume, never half a group.

One :class:`GroupChaosHarness` owns a fault-free *reference* run of a
group migration (its per-member outputs are the oracle) and runs
faulted trials against it — either a forced
deterministic fault at a named protocol phase (the sweep the CI
``group-smoke`` job runs) or seeded probabilistic chaos through the
shared :class:`~repro.chaos.FaultInjector`. Every trial must land in
exactly one of two states:

* **committed** — every member ran to exit on its destination with
  output identical to the reference, every source is torn down, the
  group manifest is registered with all its members, and the store
  fscks clean;
* **resumed** — :class:`~repro.errors.GroupRollback` was raised, the
  destinations hold *no* processes and *no* image files, the store
  holds *no* group manifest and *no* prepared member checkpoints, no
  orphan chunks survive GC, the connection broker is byte-identical to
  its pre-drain state, and every member resumed at the cut and ran to
  completion on the source with the reference output.

Anything else — a half-committed group, divergent output, leaked
destination or store state — fails the trial. Every run is the
journal's group scenario built from
:meth:`GroupChaosHarness.trial_header`, so recording that header
records the judged trial.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..chaos import FaultPlan, TrialResult
from ..chaos.harness import audit_swept
from ..errors import GroupError, GroupRollback
from ..replay.engine import group_header, group_scenario
from ..vm.kernel import Machine
from .coordinator import GroupCoordinator
from .service import ServiceGroup
from .spec import FAULT_PHASES, GroupSpec


class GroupChaosHarness:
    def __init__(self, spec: Optional[GroupSpec] = None):
        # The trial shape; each trial sets its own fault phase.
        self.spec = spec if spec is not None else GroupSpec()
        if self.spec.size != "small":
            raise GroupError("a group header has no size field: group "
                             "chaos trials run size 'small' only")
        # The oracle: one fault-free run of the same shape.
        self.expected_outputs: Optional[List[str]] = None
        trial, self.expected_outputs = self._run(fault="", plan=None)
        if trial.outcome != "committed":
            raise GroupRollback(
                "reference group run did not commit", phase="?")

    def trial_header(self, fault: str = "",
                     plan: Optional[FaultPlan] = None) -> Dict:
        """The journal header of the trial :meth:`run_trial` runs for
        ``fault`` / ``plan`` — recording it records that trial. A
        seeded trial's broker draws from the plan's seed."""
        base = self.spec
        spec = GroupSpec(base.workers, base.conns, base.drain,
                         plan.seed if plan is not None else base.seed,
                         base.warmup, fault)
        chaos = plan.to_spec() if plan is not None else ""
        return dict(group_header(spec.to_spec(), chaos), engine="chains")

    # -- one trial -----------------------------------------------------------

    def _run(self, fault: str, plan: Optional[FaultPlan]):
        group, placements, coordinator = group_scenario(
            self.trial_header(fault, plan))
        pre_drain_digest = group.broker.digest()
        problems: List[str] = []
        try:
            result = coordinator.migrate()
        except GroupRollback:
            outcome = "resumed"
            problems += self._audit_resumed(group, placements,
                                            coordinator, pre_drain_digest)
            group.run_to_exit_on_source()
            outputs = [m.process.stdout() for m in group.members]
        else:
            outcome = "committed"
            for machine, process in zip(placements, result.processes):
                machine.run_process(process)
            outputs = [m.result.combined_output() for m in group.members]
            problems += self._audit_committed(group, coordinator, result)
        for member, got, want in zip(group.members, outputs,
                                     self.expected_outputs or ()):
            if got != want:
                problems.append(f"member {member.name} output differs "
                                f"from the fault-free reference")
        faults = (coordinator.injector.counts()
                  if coordinator.injector is not None else {})
        trial = TrialResult(plan.seed if plan is not None else 0, outcome,
                            problems, faults, phase=fault)
        return trial, outputs

    def run_trial(self, fault: str = "",
                  plan: Optional[FaultPlan] = None) -> TrialResult:
        """One trial: a forced fault at ``fault`` (one of
        :data:`~repro.group.spec.FAULT_PHASES`), probabilistic chaos
        from ``plan``, or — with neither — a fault-free control."""
        return self._run(fault, plan)[0]

    # -- audits ---------------------------------------------------------------

    def _audit_committed(self, group: ServiceGroup,
                         coordinator: GroupCoordinator,
                         result) -> List[str]:
        problems: List[str] = []
        for process in result.processes:
            if not process.exited:
                problems.append(f"destination process {process.pid} did "
                                f"not run to exit")
        if group.machine.processes:
            problems.append("source member(s) still alive after commit")
        store = coordinator.store
        if result.gid not in store:
            problems.append("group manifest missing from the store")
        elif store.members(result.gid) != result.member_ids:
            problems.append("group manifest members do not match the "
                            "prepared checkpoints")
        fsck = store.verify()
        if fsck:
            problems.append(f"store fsck after commit: {fsck}")
        broker = group.broker
        if len(broker.completed) != result.drained:
            problems.append("drained connections were not committed")
        if len(broker.in_flight) != result.leftover:
            problems.append("journaled connections went missing from "
                            "the broker")
        return problems

    def _audit_resumed(self, group: ServiceGroup,
                       placements: List[Machine],
                       coordinator: GroupCoordinator,
                       pre_drain_digest: str) -> List[str]:
        store = coordinator.store
        problems = audit_swept(placements, "/images", store)
        if store.group_ids():
            problems.append("aborted run left a group manifest behind")
        if store.checkpoint_ids():
            problems.append(f"{len(store.checkpoint_ids())} prepared "
                            f"checkpoint(s) not swept")
        if group.broker.digest() != pre_drain_digest:
            problems.append("broker state differs from its pre-drain "
                            "snapshot")
        for member in group.members:
            if member.process.exited or member.process.stopped:
                problems.append(f"member {member.name} did not resume "
                                f"at the cut")
        return problems

    # -- sweeps ----------------------------------------------------------------

    def sweep_phases(self) -> List[TrialResult]:
        """One forced-fault trial per protocol phase, plus a fault-free
        control — the commit-or-resume acceptance sweep."""
        trials = [self.run_trial(fault=phase) for phase in FAULT_PHASES]
        trials.append(self.run_trial())
        return trials

    def run_trials(self, nseeds: int, seed0: int = 0,
                   **probabilities) -> List[TrialResult]:
        """One probabilistic trial per seed in ``[seed0, seed0+nseeds)``."""
        return [self.run_trial(plan=FaultPlan(seed, **probabilities))
                for seed in range(seed0, seed0 + nseeds)]
