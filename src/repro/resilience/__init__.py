"""repro.resilience — fault tolerance for the orchestration stack.

Week-long sweeps (the paper's §VI regime) and the ``repro serve``
direction both demand that a worker crash, a stuck SAT query, or a torn
cache write *degrades* a run instead of destroying it.  Four cooperating
pieces:

* :mod:`.policy` — :class:`RetryPolicy`: bounded retries, deterministic
  backoff, per-shard wall timeouts, quarantine-vs-raise;
* :mod:`.scheduler` — :func:`run_resilient_tasks`, the retrying shard
  scheduler the shard executor runs on (pool rebuild on
  ``BrokenProcessPool``, resubmission of in-flight shards only,
  poison-shard quarantine into explicitly *degraded* results), plus the
  rebuildable :class:`PoolManager`;
* :mod:`.deadline` — the cooperative-deadline channel that lets
  ``time_budget_s`` interrupt :class:`repro.sat.CdclSolver` mid-query
  (:class:`~repro.errors.SolverInterrupted`);
* :mod:`.faults` — :class:`FaultPlan`, the seeded deterministic
  fault-injection harness behind the tests and ``--chaos`` (worker
  crashes, delays, bit-flipped store bytes, pool kills);
* :mod:`.lock` — the best-effort cross-process writer
  :class:`FileLock` the suite store takes around writes.

Every scheduler event (retry, pool rebuild, shard timeout, quarantine)
lands on the current :mod:`repro.obs` registry as an *informational*
counter — resilience effort varies with timing, the merged artifact
never does.  See ``docs/RESILIENCE.md`` for the run-level contracts.
"""

from __future__ import annotations

from ..errors import ShardFailure, SolverInterrupted
from .deadline import (
    current_deadline,
    deadline_exceeded,
    deadline_scope,
    install_deadline,
)
from .faults import (
    INJECTED_EXIT_CODE,
    FaultPlan,
    InjectedFault,
    default_chaos_plan,
    flip_bit,
    in_worker_process,
)
from .lock import FileLock
from .policy import DEFAULT_RETRY_POLICY, RetryPolicy
from .scheduler import (
    FailureRecord,
    PoolManager,
    ResilienceStats,
    SchedulerOutcome,
    run_resilient_tasks,
)

__all__ = [
    "DEFAULT_RETRY_POLICY",
    "FailureRecord",
    "FaultPlan",
    "FileLock",
    "INJECTED_EXIT_CODE",
    "InjectedFault",
    "PoolManager",
    "ResilienceStats",
    "RetryPolicy",
    "SchedulerOutcome",
    "ShardFailure",
    "SolverInterrupted",
    "current_deadline",
    "deadline_exceeded",
    "deadline_scope",
    "default_chaos_plan",
    "flip_bit",
    "in_worker_process",
    "install_deadline",
    "run_resilient_tasks",
]
