"""repro.resilience — the run's time budget and the store's writer lock.

* :mod:`.deadline` — the cooperative-deadline channel that lets
  ``time_budget_s`` (``--budget``, the paper's per-run budget of §V-B)
  interrupt :class:`repro.sat.CdclSolver` mid-query
  (:class:`~repro.errors.SolverInterrupted`);
* :mod:`.lock` — the best-effort cross-process writer
  :class:`FileLock` the suite store takes around writes;
* :mod:`.scheduler` — the task runner behind every sharded run and its
  spawn :class:`~repro.resilience.scheduler.PoolManager`.  Its callers
  import it directly; it is not re-exported here, so the SAT solver,
  which imports this package for its deadline channel, loads none of it.
"""

from __future__ import annotations

from .deadline import (
    current_deadline,
    deadline_exceeded,
    deadline_scope,
    install_deadline,
)
from .lock import FileLock

__all__ = [
    "FileLock",
    "current_deadline",
    "deadline_exceeded",
    "deadline_scope",
    "install_deadline",
]
