"""The fault taxonomy, its seeded schedule (the :class:`FaultPlan`),
and the one verdict every chaos trial is judged into
(:class:`TrialResult`).

A plan is a compact, fully deterministic description of *what can go
wrong and how often* during one chaos run:

============  ==================================================================
``drop``       a link dies mid-transfer (scp / chunk ship / eviction migration)
``partition``  a node pair becomes unreachable and *stays* unreachable for a
               drawn number of attempts (outlasting the retry budget forces a
               rollback)
``latency``    a link slows down by a drawn factor — the transfer still
               succeeds but its simulated seconds grow
``corrupt``    one shipped chunk / image byte is flipped on the wire; the
               arrival-side integrity check (chunk re-hash, image digest)
               must catch it
``pskill``     the post-copy page server dies after a drawn number of page
               requests — lazy restores must degrade to pre-copy
``crash``      the node running a dump or restore dies mid-stage
============  ==================================================================

Probabilities are stored in basis points (1/10000) so the plan
round-trips exactly through its string ``spec`` — the spec is embedded
in flight-recorder journal headers, which is what makes a chaos run
replayable bit-for-bit from its own journal.
"""

from __future__ import annotations

from typing import Dict, List

from ..errors import ReproError

#: every fault kind a plan can schedule, in canonical spec order
KINDS = ("drop", "partition", "latency", "corrupt", "pskill", "crash")

#: basis points per unit probability
BP = 10_000


def _to_bp(value: float, name: str) -> int:
    if not 0.0 <= value <= 1.0:
        raise ReproError(f"fault probability {name}={value!r} must be "
                         f"in [0, 1]")
    return int(round(value * BP))


class FaultPlan:
    """Seeded fault schedule: per-kind probabilities + the RNG seed."""

    def __init__(self, seed: int = 0, *, drop: float = 0.0,
                 partition: float = 0.0, latency: float = 0.0,
                 corrupt: float = 0.0, pskill: float = 0.0,
                 crash: float = 0.0):
        self.seed = int(seed)
        self.bp: Dict[str, int] = {
            "drop": _to_bp(drop, "drop"),
            "partition": _to_bp(partition, "partition"),
            "latency": _to_bp(latency, "latency"),
            "corrupt": _to_bp(corrupt, "corrupt"),
            "pskill": _to_bp(pskill, "pskill"),
            "crash": _to_bp(crash, "crash"),
        }

    def any_faults(self) -> bool:
        return any(self.bp.values())

    # -- spec round-trip (journal header embedding) -----------------------

    def to_spec(self) -> str:
        """Canonical ``seed=<n>,<kind>=<bp>,...`` string (zero-probability
        kinds omitted). Byte-stable, so journal headers are too."""
        parts = [f"seed={self.seed}"]
        parts.extend(f"{kind}={self.bp[kind]}" for kind in KINDS
                     if self.bp[kind])
        return ",".join(parts)

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        plan = cls(0)
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            key, _, value = part.partition("=")
            key = key.strip()
            try:
                number = int(value)
            except ValueError:
                raise ReproError(
                    f"bad fault spec field {part!r} in {spec!r}") from None
            if key == "seed":
                plan.seed = number
            elif key in plan.bp:
                if not 0 <= number <= BP:
                    raise ReproError(f"fault spec {key}={number} out of "
                                     f"range [0, {BP}]")
                plan.bp[key] = number
            else:
                raise ReproError(f"unknown fault kind {key!r} in {spec!r}; "
                                 f"known: seed, {', '.join(KINDS)}")
        return plan

    def __repr__(self) -> str:
        return f"<FaultPlan {self.to_spec()}>"


class TrialResult:
    """One chaos trial's verdict — a migration, a group, or one site of
    a crash-point sweep: ``ok``, ``detail``, ``fallback`` and
    ``quarantined`` are read off the invariant's ``problems`` and the
    fired ``faults``."""

    __slots__ = ("seed", "phase", "outcome", "problems", "faults",
                 "repaired_pages")

    def __init__(self, seed: int, outcome: str, problems: List[str],
                 faults: Dict[str, int], *, phase: str = "",
                 repaired_pages: int = 0):
        self.seed = seed
        #: forced group fault phase, or the crash site's label ("" for
        #: seeded / fault-free trials)
        self.phase = phase
        #: "completed" | "rolled-back" for a migration,
        #: "committed" | "resumed" for a group, "recovered" for a site
        self.outcome = outcome
        self.problems = list(problems)
        self.faults = dict(faults)
        #: pages the restore guard auto-repaired before restoring
        self.repaired_pages = repaired_pages

    @property
    def ok(self) -> bool:
        """Did the trial's invariant hold?"""
        return not self.problems

    @property
    def detail(self) -> str:
        return "; ".join(self.problems)

    @property
    def fallback(self) -> bool:
        """Did a dead page server degrade the restore to pre-copy?"""
        return self.faults.get("fallback", 0) > 0

    @property
    def quarantined(self) -> bool:
        """Did the restore guard quarantine an unrepairable image?"""
        return self.faults.get("quarantine", 0) > 0

    def __repr__(self) -> str:
        mark = "ok" if self.ok else "FAIL"
        which = f"fault={self.phase}" if self.phase else f"seed={self.seed}"
        return (f"<Trial {which} {self.outcome} [{mark}] "
                f"faults={self.faults}>")
