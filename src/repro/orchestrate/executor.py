"""The one shard executor behind every sharded run.

A sharded run hands :func:`execute_plan` a shard plan and the queries
every shard runs: one synthesis config (:func:`repro.orchestrate.run_sharded`),
one or many diff pairs (:func:`repro.conformance.run_all_pairs`, whose
one-pair call is :func:`repro.conformance.run_diff`), or one fuzz round
(:func:`repro.fuzz.run_fuzz`).  Each (spec, query) pair is one *slot*.
The executor owns the protocol those runs share:

1. look every slot up in the :class:`~repro.orchestrate.store.SuiteStore`,
   counting hits and misses per query;
2. start the pool's workers (a given or self-owned
   :class:`~repro.resilience.PoolManager`) when slots are pending and
   ``jobs > 1``, so their start-up overlaps step 3;
3. build one fused task per spec covering the queries it still misses,
   so a spec's program slice is enumerated once however many queries
   ride on it (the first task built may enumerate the run's skeletons);
4. run the tasks through :func:`repro.resilience.run_resilient_tasks`,
   inline or on the pool;
5. adopt worker spans and metrics in plan order (one trace lane per
   fused task);
6. persist the completed slots through :meth:`SuiteStore.save`, which
   never caches timed-out work and strips spans;
7. map each quarantined task's failure to every query that rode on it.

The runs keep only their whole-result cache check, their merge and their
result record.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

from ..obs import ProgressReporter, current_registry, current_tracer
from ..resilience import (
    FailureRecord,
    PoolManager,
    ResilienceStats,
    RetryPolicy,
    run_resilient_tasks,
)
from .shards import ShardSpec
from .store import SuiteStore

#: ``make_task(spec, queries, observe)``: the fused task that runs the
#: listed query indices over one spec's slice; ``observe`` asks the
#: worker to ship its spans and metrics back on the result.
TaskFactory = Callable[[ShardSpec, list, bool], Any]


def wall_deadline(budget_s: Optional[float]) -> Optional[float]:
    """A run's time budget as the absolute wall-clock deadline its tasks
    carry (comparable across processes), or None."""
    return None if budget_s is None else time.time() + budget_s


@dataclass
class PlanOutcome:
    """Every slot's shard result, plus the plan's bookkeeping."""

    #: ``results[query][spec]``: the slot's shard result, or None when
    #: the task it rode on was quarantined.
    results: list[list[Optional[Any]]]
    #: Per query: slots served from the store / looked up and missing.
    hits: list[int]
    misses: list[int]
    #: Per query: the quarantined tasks it rode on.
    failures: list[list[FailureRecord]]
    resilience: ResilienceStats


def execute_plan(
    specs: Sequence[ShardSpec],
    identities: Sequence[dict],
    make_task: TaskFactory,
    worker: Callable,
    *,
    kind: str,
    jobs: int,
    store: Optional[SuiteStore] = None,
    pool: Optional[PoolManager] = None,
    retry: Optional[RetryPolicy] = None,
    progress: str = "shards",
) -> PlanOutcome:
    """Run every (spec, query) slot of a plan.

    ``identities`` holds one store identity per query; a slot is stored
    under its query's identity, ``kind`` and the spec.  ``worker`` must
    be a module-level function (it is pickled by reference onto the
    pool); it returns one shard result per query of its task, as a list,
    or the bare result for a one-query task.  Without ``pool``, a
    parallel run (``jobs > 1``) spawns a pool and shuts it down before
    returning.  A plan whose slots are all in the store spawns nothing.
    """
    observe = bool(current_tracer()) or bool(current_registry())
    results: list[list[Optional[Any]]] = [[None] * len(specs) for _ in identities]
    hits = [0] * len(identities)
    misses = [0] * len(identities)
    riders: dict[int, list[int]] = {}
    for index, spec in enumerate(specs):
        missing = []
        for query, identity in enumerate(identities):
            cached = None if store is None else store.load(identity, kind, spec)
            if cached is not None:
                results[query][index] = cached
                hits[query] += 1
                continue
            if store is not None:
                misses[query] += 1
            missing.append(query)
        if missing:
            riders[index] = missing

    bar = ProgressReporter(progress, len(specs))
    bar.done = len(specs) - len(riders)
    own_pool: Optional[PoolManager] = None
    try:
        if riders and jobs > 1:
            if pool is None:
                pool = own_pool = PoolManager(jobs)
            # Workers boot (interpreter start-up, imports) while the
            # tasks are built: building one may enumerate the run's
            # skeletons.
            pool.start()
        tasks = [
            (index, make_task(specs[index], missing, observe))
            for index, missing in riders.items()
        ]
        outcome = run_resilient_tasks(
            tasks, worker=worker, jobs=jobs, policy=retry, pool=pool, progress=bar
        )
    finally:
        bar.finish()
        if own_pool is not None:
            own_pool.shutdown()

    for index, produced in outcome.results.items():
        if not isinstance(produced, list):
            produced = [produced]
        for query, shard in zip(riders[index], produced):
            results[query][index] = shard
    failures: list[list[FailureRecord]] = [[] for _ in identities]
    riders_by_label = {specs[index].label: riders[index] for index in riders}
    for failure in outcome.failures:
        for query in riders_by_label[failure.label]:
            failures[query].append(failure)

    # Plan order fixes the trace lanes: a fused task's batch rides on its
    # first query's result.  Cached slots carry no spans but replay their
    # stored metrics.
    tracer, registry = current_tracer(), current_registry()
    for index in range(len(specs)):
        for by_spec in results:
            shard = by_spec[index]
            if shard is not None:
                tracer.adopt(shard.spans)
                registry.absorb(shard.metrics)
    if store is not None:
        for index, queries in riders.items():
            for query in queries:
                shard = results[query][index]
                if shard is not None:
                    store.save(identities[query], kind, shard, specs[index])
    return PlanOutcome(results, hits, misses, failures, outcome.stats)
