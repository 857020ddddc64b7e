"""The one shard executor behind every sharded run.

A sharded run hands :func:`execute_plan` a shard plan and a task
factory: one synthesis config per task (:func:`repro.orchestrate.run_sharded`),
one or many diff pairs fused into each task
(:func:`repro.conformance.run_all_pairs`, whose one-pair call is
:func:`repro.conformance.run_diff`), or one fuzz round
(:func:`repro.fuzz.run_fuzz`).  The executor owns the four steps those
runs share:

1. start the pool's workers (a given or self-owned
   :class:`~repro.resilience.scheduler.PoolManager`) when ``jobs > 1``,
   so their start-up overlaps step 2;
2. build one task per spec (building the first may enumerate the run's
   skeletons);
3. run the tasks through :func:`repro.resilience.scheduler.run_tasks`,
   inline or on the pool: a task that raises ends the run with a
   :class:`~repro.errors.ShardFailure`;
4. adopt worker spans and metrics in plan order (one trace lane per
   task).

The runs keep only their whole-result cache check, their merge and
their result record.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional, Sequence

from ..obs import ProgressReporter, current_registry, current_tracer
from ..resilience.scheduler import PoolManager, run_tasks
from .shards import ShardSpec

#: ``make_task(spec, observe)``: the task that runs one spec's slice;
#: ``observe`` asks the worker to ship its spans and metrics back on
#: the result.
TaskFactory = Callable[[ShardSpec, bool], Any]


def wall_deadline(budget_s: Optional[float]) -> Optional[float]:
    """A run's time budget as the absolute wall-clock deadline its tasks
    carry (comparable across processes), or None."""
    return None if budget_s is None else time.time() + budget_s


def execute_plan(
    specs: Sequence[ShardSpec],
    make_task: TaskFactory,
    worker: Callable,
    *,
    jobs: int,
    pool: Optional[PoolManager] = None,
    progress: str = "shards",
) -> list:
    """Run one task per spec and return the tasks' results in plan order.

    ``worker`` must be a module-level function (it is pickled by
    reference onto the pool); it returns one shard result, or for a
    fused task one shard result per query, as a list.  Without ``pool``,
    a parallel run (``jobs > 1``) spawns a pool and shuts it down before
    returning.
    """
    observe = bool(current_tracer()) or bool(current_registry())
    bar = ProgressReporter(progress, len(specs))
    own_pool: Optional[PoolManager] = None
    try:
        if jobs > 1:
            if pool is None:
                pool = own_pool = PoolManager(jobs)
            # Workers boot (interpreter start-up, imports) while the
            # tasks are built: building one may enumerate the run's
            # skeletons.
            pool.start()
        else:
            pool = None
        tasks = [make_task(spec, observe) for spec in specs]
        results = run_tasks(tasks, worker, pool=pool, progress=bar)
    finally:
        bar.finish()
        if own_pool is not None:
            own_pool.shutdown()

    # Plan order fixes the trace lanes: a fused task's batch rides on its
    # first query's result.
    tracer, registry = current_tracer(), current_registry()
    for produced in results:
        for shard in produced if isinstance(produced, list) else [produced]:
            tracer.adopt(shard.spans)
            registry.absorb(shard.metrics)
    return results
