"""Pausable, resumable re-execution of a journal's scenario.

:class:`Replayer.run` drives a scenario to completion (or to a one-shot
stop point) — it cannot be paused, inspected, and resumed. This module
adds that as a standalone API: a :class:`ReplaySession` runs the
scenario on a worker thread and blocks it *inside* the recorder's
:meth:`~repro.replay.recorder.ReplayObserver.after_slice` hook whenever
the requested instruction target is reached. The scheduling-slice
stream is exactly what a straight run produces — pausing happens at
slice boundaries the kernel was going to honor anyway — so digests,
events, and the final journal are bit-identical no matter how many
times the session stops and resumes. That property is what lets
``repro-replay seek`` visit several instruction counts in one
re-execution instead of one full replay per seek, and what the
time-travel debugger builds its forward scans on.

While paused, the caller may read anything reachable from the recorder
(machines, journal so far, byte-exact :func:`capture_state` snapshots).
The machines must be treated as read-only: a mutation here would
diverge the rest of the run.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

from ..errors import JournalError
from .engine import Replayer, ReplayResult
from .journal import Journal
from .recorder import FlightRecorder, ReplayObserver


class _SessionAbort(BaseException):
    """Unwinds the worker thread on close(). BaseException on purpose:
    scenario code that catches ``Exception`` must not swallow it."""


class ReplaySession(ReplayObserver):
    """One journal re-execution that can pause at instruction targets.

    Usage::

        session = ReplaySession(journal)
        while session.run_until(next_target):   # False once finished
            inspect(session.state())
        result = session.result                 # completed ReplayResult
        session.close()

    ``run_until`` returns True when the run paused at the target (the
    first slice boundary at or past it) and False when the scenario
    finished first. Targets must be non-decreasing — a session only
    moves forward; rewinding is the snapshot-seeking debugger's job.
    """

    def __init__(self, journal: Journal, engine: Optional[str] = None,
                 digest_every: Optional[int] = None):
        self._replayer = Replayer(journal, engine=engine,
                                  digest_every=digest_every)
        self._cond = threading.Condition()
        self._target: float = 0
        self._paused = False
        self._finished = False
        self._abort = False
        self._error: Optional[BaseException] = None
        self.result: Optional[ReplayResult] = None
        self.recorder: Optional[FlightRecorder] = None
        self._thread = threading.Thread(target=self._worker, daemon=True)
        self._started = False

    # -- observer side (worker thread) ------------------------------------

    def on_recorder(self, recorder: FlightRecorder) -> None:
        self.recorder = recorder

    def after_slice(self, recorder: FlightRecorder) -> None:
        with self._cond:
            if self._abort:
                raise _SessionAbort()
            if recorder.instructions < self._target:
                return
            self._paused = True
            self._cond.notify_all()
            while self._paused and not self._abort:
                self._cond.wait()
            if self._abort:
                raise _SessionAbort()

    def _worker(self) -> None:
        try:
            self.result = self._replayer.run(observer=self)
        except _SessionAbort:
            pass
        except BaseException as exc:  # surfaced on the driver thread
            self._error = exc
        finally:
            with self._cond:
                self._finished = True
                self._paused = False
                self._cond.notify_all()

    # -- driver side -------------------------------------------------------

    def run_until(self, instr: float) -> bool:
        """Advance to the first slice boundary at/past ``instr``.

        Returns True if paused there, False if the scenario completed
        first (``result`` is then set). Raises whatever the scenario
        raised, re-thrown on this thread.
        """
        if self._finished and self._error is None:
            return False
        with self._cond:
            if instr < self._target:
                raise JournalError(
                    f"replay session cannot rewind: target {instr} is "
                    f"before {self._target}")
            self._target = instr
            if not self._started:
                self._started = True
                self._thread.start()
            else:
                self._paused = False
                self._cond.notify_all()
            while not self._paused and not self._finished:
                self._cond.wait()
            if self._error is not None:
                error, self._error = self._error, None
                raise error
            return not self._finished

    def run_to_end(self) -> ReplayResult:
        """Resume and run the scenario to completion."""
        self.run_until(float("inf"))
        assert self.result is not None
        return self.result

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def finished(self) -> bool:
        return self._finished

    @property
    def instructions(self) -> int:
        """Instructions retired so far (valid while paused/finished)."""
        return self.recorder.instructions if self.recorder else 0

    @property
    def slices(self) -> int:
        return self.recorder.slices if self.recorder else 0

    def machines(self) -> List:
        return list(self.recorder.machines) if self.recorder else []

    def state(self) -> Dict:
        """Byte-exact :func:`capture_state` snapshot at the pause point."""
        if self.recorder is None:
            return {}
        return self.recorder.capture_state()

    def close(self) -> None:
        """Abandon the run (if still paused) and reap the worker."""
        with self._cond:
            self._abort = True
            self._paused = False
            self._cond.notify_all()
        if self._started:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ReplaySession":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
