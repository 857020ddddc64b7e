"""The retrying shard scheduler behind every sharded run.

:func:`run_resilient_tasks` is the single execution loop; its one
caller for shard plans is the shard executor
(:func:`repro.orchestrate.execute_plan`).  It owns the full failure
envelope a long sharded run can hit:

* **ordinary worker exceptions** — retried with deterministic backoff
  up to ``RetryPolicy.max_retries``, then quarantined (the run merges
  what completed and reports itself *degraded*) or, with
  ``quarantine=False``, raised as :class:`~repro.errors.ShardFailure`
  naming the shard and attempt count;
* **pool collapse** (``BrokenProcessPool`` — a worker hard-exited or
  was killed) — the pool is rebuilt and only the shards that were in
  flight are resubmitted; completed results are kept.  Collapse is not
  attributable to one shard, so in-flight shards accrue *pool strikes*
  rather than attempts — except when exactly one shard was in flight,
  which is attributable and costs it an attempt;
* **per-shard wall timeout** (``RetryPolicy.shard_timeout_s``) — a
  stuck worker cannot be cancelled, so the pool is recycled; the
  expired shard is charged an attempt, the collateral in-flight shards
  are resubmitted at their same attempt.

Tasks must be frozen dataclasses with a ``spec.label`` and an
``attempt`` field (re-runs ship ``dataclasses.replace(task,
attempt=n)``, so workers and fault plans see the attempt number).
Every retry/timeout/quarantine/rebuild surfaces as an informational
:mod:`repro.obs` counter and a zero-length span on the current tracer.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from multiprocessing import get_context
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import ShardFailure
from ..obs import current_registry, current_tracer
from .policy import DEFAULT_RETRY_POLICY, RetryPolicy


@dataclass
class FailureRecord:
    """One quarantined shard: who died, how often, and how."""

    label: str
    attempts: int
    kind: str  # "exception" | "pool" | "timeout"
    error: str  # repr of the final exception

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "attempts": self.attempts,
            "kind": self.kind,
            "error": self.error,
        }


@dataclass
class ResilienceStats:
    """What the scheduler had to do to finish (informational — varies
    with timing, never with the merged artifact)."""

    retries: int = 0
    pool_rebuilds: int = 0
    shard_timeouts: int = 0
    quarantined: int = 0

    def absorb(self, other: "ResilienceStats") -> None:
        """Add another run's effort (the fuzz rounds of one campaign)."""
        self.retries += other.retries
        self.pool_rebuilds += other.pool_rebuilds
        self.shard_timeouts += other.shard_timeouts
        self.quarantined += other.quarantined

    def any_event(self) -> bool:
        return bool(
            self.retries
            or self.pool_rebuilds
            or self.shard_timeouts
            or self.quarantined
        )


@dataclass
class SchedulerOutcome:
    """Results by submission slot, plus the failure/effort bookkeeping."""

    results: Dict[int, object] = field(default_factory=dict)
    failures: List[FailureRecord] = field(default_factory=list)
    stats: ResilienceStats = field(default_factory=ResilienceStats)


class PoolManager:
    """Owns a spawn pool that can be killed and rebuilt mid-run.

    The sweep shares one manager across points; a pool collapse at any
    point transparently hands later points a fresh pool.  The pool
    itself is spawned on first use, or up front by :meth:`start`.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._executor: Optional[ProcessPoolExecutor] = None

    def start(self) -> None:
        """Spawn all ``jobs`` workers now, so their interpreter start-up
        and imports overlap whatever the caller does before its first
        submit.  A no-op while a pool is up."""
        if self._executor is not None:
            return
        executor = self.executor
        # ProcessPoolExecutor spawns every worker on the first submit
        # (Python 3.9) or one per submit while no worker is idle (3.11+):
        # ``jobs`` no-op submits, made before any worker can finish
        # booting, reach ``jobs`` workers on both.  Their futures go
        # unread: a no-op can only fail by a pool collapse, which fails
        # the real tasks too, and the scheduler recovers from that.
        for _ in range(self.jobs):
            executor.submit(os.getpid)

    @property
    def executor(self) -> ProcessPoolExecutor:
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=get_context("spawn")
            )
        return self._executor

    def rebuild(self) -> None:
        """Terminate the current pool (workers may be stuck, not just
        dead); the next ``executor`` access builds a fresh one."""
        executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = getattr(executor, "_processes", None) or {}
        for process in list(processes.values()):
            try:
                process.terminate()
            except Exception:
                pass
        try:
            executor.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


@dataclass
class _Flight:
    """One in-flight submission."""

    slot: int
    task: object
    attempt: int
    submitted_at: float = 0.0
    pool_strikes: int = 0


def _label(task) -> str:
    return task.spec.label


def run_resilient_tasks(
    tasks: Sequence[Tuple[int, object]],
    worker: Callable,
    jobs: int,
    policy: Optional[RetryPolicy] = None,
    pool: Optional[PoolManager] = None,
    progress=None,
) -> SchedulerOutcome:
    """Execute ``(slot, task)`` pairs inline (no ``pool``) or on a
    rebuildable spawn pool, applying ``policy``'s full failure envelope.

    Returns results keyed by slot; a slot absent from ``results`` was
    quarantined and appears in ``failures``.  With
    ``policy.quarantine=False`` an unrecoverable shard raises
    :class:`~repro.errors.ShardFailure` instead (the pool, if owned by
    the caller's manager, stays usable).
    """
    policy = policy if policy is not None else DEFAULT_RETRY_POLICY
    outcome = SchedulerOutcome()
    if not tasks:
        return outcome
    if pool is not None and jobs > 1:
        _run_pooled(tasks, worker, policy, pool, progress, outcome)
    else:
        _run_inline(tasks, worker, policy, progress, outcome)
    return outcome


def _note(name: str, **args) -> None:
    """Record one resilience event: informational counter + marker span."""
    current_registry().inc(f"resilience.{name}", informational=True)
    tracer = current_tracer()
    if tracer:
        with tracer.span(f"resilience.{name}", category="resilience", **args):
            pass


def _give_up(
    flight: _Flight,
    kind: str,
    error: BaseException,
    policy: RetryPolicy,
    outcome: SchedulerOutcome,
) -> None:
    label = _label(flight.task)
    record = FailureRecord(
        label=label,
        attempts=flight.attempt,
        kind=kind,
        error=repr(error),
    )
    outcome.failures.append(record)
    outcome.stats.quarantined += 1
    _note("quarantined", shard=label, attempts=flight.attempt, kind=kind)
    if not policy.quarantine:
        raise ShardFailure(label, flight.attempt, kind) from error


def _run_inline(tasks, worker, policy, progress, outcome) -> None:
    for slot, task in tasks:
        attempt = 1
        while True:
            try:
                result = worker(replace(task, attempt=attempt))
            except Exception as error:
                if attempt >= policy.max_attempts:
                    _give_up(
                        _Flight(slot, task, attempt),
                        "exception",
                        error,
                        policy,
                        outcome,
                    )
                    break
                outcome.stats.retries += 1
                _note("retries", shard=_label(task), attempt=attempt)
                delay = policy.backoff_s(attempt)
                if delay > 0.0:
                    time.sleep(delay)
                attempt += 1
            else:
                outcome.results[slot] = result
                if progress is not None:
                    progress.update(_label(task))
                break


def _run_pooled(tasks, worker, policy, pool, progress, outcome) -> None:
    pending: Dict[object, _Flight] = {}

    def submit(flight: _Flight) -> None:
        flight.submitted_at = time.monotonic()
        future = pool.executor.submit(
            worker, replace(flight.task, attempt=flight.attempt)
        )
        pending[future] = flight

    def charge_attempt(
        flight: _Flight, kind: str, error: BaseException, resubmit: list
    ) -> None:
        """One attributable failure: retry with backoff or give up."""
        if flight.attempt >= policy.max_attempts:
            _give_up(flight, kind, error, policy, outcome)
            return
        outcome.stats.retries += 1
        _note("retries", shard=_label(flight.task), attempt=flight.attempt)
        delay = policy.backoff_s(flight.attempt)
        resubmit.append(
            (_Flight(flight.slot, flight.task, flight.attempt + 1,
                     pool_strikes=flight.pool_strikes), delay)
        )

    def strike(flight: _Flight, error: BaseException, resubmit: list) -> None:
        """Unattributable pool collapse: resubmit without charging the
        retry budget, bounded by the (larger) strike budget.  The attempt
        number still advances so a failure that *was* caused by this
        shard doesn't replay identically on every resubmission."""
        flight.pool_strikes += 1
        if flight.pool_strikes >= policy.max_pool_strikes:
            _give_up(flight, "pool", error, policy, outcome)
            return
        resubmit.append(
            (_Flight(flight.slot, flight.task, flight.attempt + 1,
                     pool_strikes=flight.pool_strikes), 0.0)
        )

    for slot, task in tasks:
        submit(_Flight(slot, task, 1))

    while pending:
        timeout = None
        if policy.shard_timeout_s is not None:
            now = time.monotonic()
            expiry = min(
                flight.submitted_at + policy.shard_timeout_s
                for flight in pending.values()
            )
            timeout = max(0.0, expiry - now) + 0.01
        done, _not_done = wait(
            list(pending), timeout=timeout, return_when=FIRST_COMPLETED
        )

        resubmit: List[Tuple[_Flight, float]] = []
        pool_error: Optional[BaseException] = None
        broken: List[_Flight] = []
        for future in done:
            flight = pending.pop(future)
            try:
                result = future.result()
            except BrokenProcessPool as error:
                pool_error = error
                broken.append(flight)
            except Exception as error:
                charge_attempt(flight, "exception", error, resubmit)
            else:
                outcome.results[flight.slot] = result
                if progress is not None:
                    progress.update(_label(flight.task))

        if pool_error is not None:
            # Every remaining in-flight future died with the pool too
            # (their .result() would raise the same BrokenProcessPool);
            # drain them and resubmit everything on a fresh pool.  A
            # collapse with exactly one total casualty is attributable
            # to that shard and costs it an attempt; multi-casualty
            # collapses cost strikes, not attempts.
            casualties = broken + list(pending.values())
            pending.clear()
            if len(casualties) == 1:
                charge_attempt(casualties[0], "pool", pool_error, resubmit)
            else:
                for flight in casualties:
                    strike(flight, pool_error, resubmit)
            outcome.stats.pool_rebuilds += 1
            _note("pool_rebuilds")
            pool.rebuild()
        elif not done and policy.shard_timeout_s is not None:
            now = time.monotonic()
            expired = [
                (future, flight)
                for future, flight in pending.items()
                if now - flight.submitted_at > policy.shard_timeout_s
            ]
            if expired:
                # A stuck worker cannot be cancelled: recycle the pool.
                # The expired shards are charged an attempt; the other
                # in-flight shards are collateral and resubmit as-is.
                for future, flight in expired:
                    pending.pop(future)
                    outcome.stats.shard_timeouts += 1
                    _note(
                        "shard_timeouts",
                        shard=_label(flight.task),
                        attempt=flight.attempt,
                    )
                    charge_attempt(
                        flight,
                        "timeout",
                        TimeoutError(
                            f"shard {_label(flight.task)} exceeded "
                            f"{policy.shard_timeout_s}s"
                        ),
                        resubmit,
                    )
                collateral = list(pending.values())
                pending.clear()
                outcome.stats.pool_rebuilds += 1
                _note("pool_rebuilds")
                pool.rebuild()
                for flight in collateral:
                    resubmit.append((flight, 0.0))

        if resubmit:
            delay = max(wait_s for _flight, wait_s in resubmit)
            if delay > 0.0:
                time.sleep(delay)
            for flight, _wait_s in resubmit:
                submit(flight)
