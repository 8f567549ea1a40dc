"""Chaos engine: seeded, journal-replayable fault injection.

A :class:`FaultPlan` says *what can go wrong and how often*; a
:class:`FaultInjector` draws every fault decision from a seeded
:class:`~repro.core.rng.RngService`, so chaos runs are deterministic and
— with a flight recorder attached — replay bit-identically from their
own journals.

The crash-point engine (:mod:`repro.chaos.crashpoints`) is the
exhaustive counterpart: instead of rolling dice it enumerates every
durability site the checkpoint store's backend touches and kills the
store at each one, reopening the survivors and judging each site into
the same :class:`TrialResult` every chaos trial reports.
"""

from .crashpoints import CrashPointInjector, store_sweep_ops, sweep
from .faults import BP, KINDS, FaultPlan, TrialResult
from .injector import FaultInjector, FiredFault

__all__ = ["BP", "KINDS", "FaultPlan", "FaultInjector", "FiredFault",
           "TrialResult", "CrashPointInjector", "store_sweep_ops", "sweep"]
