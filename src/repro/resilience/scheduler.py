"""The task runner behind every sharded run.

:func:`run_tasks` runs a shard plan's tasks inline, or on a spawn pool
(:class:`PoolManager`), and returns their results in plan order.  Its
one caller is the shard executor (:func:`repro.orchestrate.execute_plan`).

A shard is a deterministic function of its task, so a failed shard is
not retried: the first task in plan order that raises, or a pool that
collapses under it (a worker killed or hard-exited), ends the run with
a :class:`~repro.errors.ShardFailure` naming the task's shard, with the
worker's exception as ``__cause__``.  Tasks not yet started are
cancelled; tasks already running finish when the pool shuts down.

Tasks must carry a ``spec.label``.  ``concurrent.futures`` and
``multiprocessing`` are imported only when a pool is built, so a serial
run never loads them.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Callable, Optional, Sequence

from ..errors import ShardFailure

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class PoolManager:
    """Owns one spawn pool of ``jobs`` workers.

    The sweep shares one manager across its points.  The pool itself is
    spawned on first use, or up front by :meth:`start`.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._executor: Optional["ProcessPoolExecutor"] = None

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
        # the real tasks too.
        for _ in range(self.jobs):
            executor.submit(os.getpid)

    @property
    def executor(self) -> "ProcessPoolExecutor":
        if self._executor is None:
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            self._executor = ProcessPoolExecutor(
                max_workers=self.jobs, mp_context=get_context("spawn")
            )
        return self._executor

    def shutdown(self) -> None:
        executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown()


def run_tasks(
    tasks: Sequence,
    worker: Callable,
    pool: Optional[PoolManager] = None,
    progress=None,
) -> list:
    """Run ``worker`` over ``tasks`` inline (no ``pool``) or on the
    pool, and return the results in task order.

    Raises :class:`~repro.errors.ShardFailure` for the first task, in
    task order, whose worker raised or whose pool collapsed.
    """
    if pool is not None:
        return _run_pooled(tasks, worker, pool, progress)
    results = []
    for task in tasks:
        try:
            results.append(worker(task))
        except Exception as error:
            raise ShardFailure(task.spec.label, error) from error
        if progress is not None:
            progress.update(task.spec.label)
    return results


def _run_pooled(tasks, worker, pool: PoolManager, progress) -> list:
    futures = [pool.executor.submit(worker, task) for task in tasks]
    results = []
    for task, future in zip(tasks, futures):
        try:
            results.append(future.result())
        except Exception as error:
            for pending in futures:
                pending.cancel()
            raise ShardFailure(task.spec.label, error) from error
        if progress is not None:
            progress.update(task.spec.label)
    return results
