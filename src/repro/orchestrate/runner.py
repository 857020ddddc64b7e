"""The orchestrator: sharded parallel synthesis runs and resumable sweeps.

``run_sharded`` scales one (axiom, bound) synthesis across cores:

1. plan deterministic shards (:mod:`.shards`);
2. hand the plan to the shard executor (:func:`.executor.execute_plan`),
   which reuses shards completed by an earlier interrupted run from the
   :class:`~repro.orchestrate.store.SuiteStore` and runs the rest through
   the retrying scheduler (:func:`repro.resilience.run_resilient_tasks`)
   on a rebuildable spawn pool (or inline when ``jobs == 1``) — worker
   crashes, pool collapses, and stuck shards are retried under the run's
   :class:`~repro.resilience.RetryPolicy`;
3. merge (:mod:`.merge`) into a suite provably identical to the serial
   engine's, and persist the merged suite.

A shard that exhausts its retries is *quarantined*: the run still
merges every completed shard but the result is marked ``degraded``
(``result.stats.degraded``) and the failed specs are listed on
``OrchestratedResult.failures`` — a week-long sweep loses one point,
not the run.  Degraded suites are never cached.

``run_sweep_sharded`` lifts this over the Fig 9 per-axiom bound sweep,
reusing one rebuildable worker pool across all points and skipping any
(axiom, bound) point whose merged suite is already in the store — which
is what makes an interrupted ``sweep --cache-dir …`` resumable by
rerunning the same command.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from ..errors import SynthesisError
from ..resilience import (
    FailureRecord,
    FaultPlan,
    PoolManager,
    ResilienceStats,
    RetryPolicy,
)
from ..synth import SuiteResult, SweepPoint, SweepResult, SynthesisConfig
from .executor import execute_plan, wall_deadline
from .merge import MergeReport, merge_shards
from .shards import ShardSpec, plan_shards
from .store import KIND_SHARD, KIND_SUITE, SuiteStore, config_identity
from .worker import ShardResult, ShardTask, run_shard


@dataclass
class OrchestratedResult:
    """A merged suite plus per-shard, cache, and resilience bookkeeping."""

    result: SuiteResult
    report: MergeReport
    jobs: int
    shard_specs: list[ShardSpec] = field(default_factory=list)
    suite_cache_hit: bool = False
    shard_cache_hits: int = 0
    shard_cache_misses: int = 0
    #: Shards quarantined after exhausting retries (empty on clean runs).
    failures: list[FailureRecord] = field(default_factory=list)
    #: What the scheduler had to do (retries/rebuilds/timeouts) to finish.
    resilience: ResilienceStats = field(default_factory=ResilienceStats)

    @property
    def shard_results(self) -> list[ShardResult]:
        return self.report.per_shard

    @property
    def degraded(self) -> bool:
        return bool(self.failures)


def run_sharded(
    config: SynthesisConfig,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
    pool: Optional[PoolManager] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> OrchestratedResult:
    """Run one synthesis config across ``jobs`` workers.

    With a ``store``, previously completed shards and suites are reused
    (cache counters on the store record how much); timed-out or degraded
    results are never cached.  Pass a
    :class:`~repro.resilience.PoolManager` as ``pool`` to share one
    worker pool across several calls (the sweep does); otherwise a spawn
    pool is created on demand and torn down before returning.  ``retry``
    configures the failure envelope (defaults to
    :data:`~repro.resilience.DEFAULT_RETRY_POLICY`); ``faults`` is the
    seeded ``--chaos`` fault-injection plan shipped to workers.
    """
    if jobs < 1:
        raise SynthesisError(f"jobs must be positive, got {jobs}")
    started = time.monotonic()
    identity = config_identity(config)
    if store is not None:
        cached = store.load(identity, KIND_SUITE)
        if cached is not None:
            report = MergeReport(shard_count=0, shard_elts=cached.count)
            return OrchestratedResult(
                result=cached, report=report, jobs=jobs, suite_cache_hit=True
            )

    specs = plan_shards(jobs, shard_count=shard_count)
    deadline = wall_deadline(config.time_budget_s)
    # Shards carry their own deadline; the config they run under must not
    # double-apply the budget through the serial path.
    shard_config = replace(config, time_budget_s=None)

    def make_task(spec: ShardSpec, _queries: list, observe: bool) -> ShardTask:
        return ShardTask(shard_config, spec, deadline, observe=observe, faults=faults)

    plan = execute_plan(
        specs,
        [config_identity(shard_config)],
        make_task,
        run_shard,
        kind=KIND_SHARD,
        jobs=jobs,
        store=store,
        pool=pool,
        retry=retry,
        progress="synthesize",
    )
    result, report = merge_shards(
        config,
        [shard for shard in plan.results[0] if shard is not None],
        runtime_s=time.monotonic() - started,
        failures=plan.failures[0],
    )
    if store is not None:
        store.save(identity, KIND_SUITE, result)
    return OrchestratedResult(
        result=result,
        report=report,
        jobs=jobs,
        shard_specs=list(specs),
        shard_cache_hits=plan.hits[0],
        shard_cache_misses=plan.misses[0],
        failures=plan.failures[0],
        resilience=plan.resilience,
    )


def run_sweep_sharded(
    base_config: SynthesisConfig,
    axioms: Optional[list[str]] = None,
    min_bound: int = 4,
    max_bound: Optional[Union[int, Mapping[str, int]]] = None,
    time_budget_per_run_s: Optional[float] = None,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
    retry: Optional[RetryPolicy] = None,
    faults: Optional[FaultPlan] = None,
) -> tuple[SweepResult, list[OrchestratedResult]]:
    """Sharded, resumable Fig 9 sweep (same semantics as
    :func:`repro.synth.synthesize_sweep`, run point-by-point through
    :func:`run_sharded`).

    Returns the sweep plus the per-point orchestration records (cache
    hits, per-shard runtimes, quarantined shards).  Rerunning an
    interrupted sweep with the same store picks up where it left off:
    finished (axiom, bound) points are suite-level cache hits and are
    not re-synthesized.  A *timed-out* point skips the axiom's later
    bounds (they would only be slower); a *degraded* point does not —
    the failure is shard-local, so the sweep continues.

    ``max_bound`` may be a single cap or a per-axiom mapping (the shape of
    :data:`repro.reporting.DEFAULT_MAX_BOUNDS`).
    """
    model = base_config.model
    if axioms is None:
        axioms = [a.name for a in model.axioms]
    if time_budget_per_run_s is None:
        time_budget_per_run_s = base_config.time_budget_s

    def top_for(axiom: str) -> int:
        if max_bound is None:
            return base_config.bound
        if isinstance(max_bound, Mapping):
            return max_bound.get(axiom, base_config.bound)
        return max_bound

    sweep = SweepResult()
    records: list[OrchestratedResult] = []
    shared_pool: Optional[PoolManager] = None
    try:
        if jobs > 1:
            shared_pool = PoolManager(jobs)
        for axiom in axioms:
            top = top_for(axiom)
            for bound in range(min_bound, top + 1):
                config = replace(
                    base_config,
                    bound=bound,
                    target_axiom=axiom,
                    time_budget_s=time_budget_per_run_s,
                )
                orchestrated = run_sharded(
                    config,
                    jobs=jobs,
                    shard_count=shard_count,
                    store=store,
                    pool=shared_pool,
                    retry=retry,
                    faults=faults,
                )
                records.append(orchestrated)
                sweep.points.append(
                    SweepPoint(axiom, bound, orchestrated.result)
                )
                if orchestrated.result.stats.timed_out:
                    sweep.skipped.extend(
                        (axiom, later) for later in range(bound + 1, top + 1)
                    )
                    break
    finally:
        if shared_pool is not None:
            shared_pool.shutdown()
    return sweep, records
