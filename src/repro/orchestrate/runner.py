"""The orchestrator: sharded parallel synthesis runs and cached sweeps.

``run_sharded`` scales one (axiom, bound) synthesis across cores:

1. plan deterministic shards (:mod:`.shards`), whose base skeletons
   are enumerated once, here, when the first task is built;
2. hand the plan to the shard executor (:func:`.executor.execute_plan`),
   which runs the tasks on a spawn pool (or inline when ``jobs == 1``);
   a shard that raises ends the run with a
   :class:`~repro.errors.ShardFailure`;
3. merge (:mod:`.merge`) into a suite provably identical to the serial
   engine's, and persist the merged suite.

``run_sweep_sharded`` lifts this over the Fig 9 per-axiom bound sweep,
reusing one worker pool across all points and skipping any (axiom,
bound) point whose merged suite is already in the store — so rerunning
an interrupted ``sweep --cache-dir …`` recomputes only the points it
had not finished.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Mapping, Optional, Union

from ..errors import SynthesisError
from ..resilience.scheduler import PoolManager
from ..synth import SuiteResult, SweepPoint, SweepResult, SynthesisConfig
from .executor import execute_plan, wall_deadline
from .merge import MergeReport, merge_shards
from .shards import ShardSpec, SkeletonSlices, plan_shards
from .store import KIND_SUITE, SuiteStore, config_identity
from .worker import ShardResult, ShardTask, run_shard


@dataclass
class OrchestratedResult:
    """A merged suite plus per-shard and cache bookkeeping."""

    result: SuiteResult
    report: MergeReport
    jobs: int
    shard_specs: list[ShardSpec] = field(default_factory=list)
    suite_cache_hit: bool = False

    @property
    def shard_results(self) -> list[ShardResult]:
        return self.report.per_shard


def run_sharded(
    config: SynthesisConfig,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
    pool: Optional[PoolManager] = None,
) -> OrchestratedResult:
    """Run one synthesis config across ``jobs`` workers.

    With a ``store``, a previously completed suite is reused (cache
    counters on the store record it); a timed-out suite is never cached.
    Pass a :class:`~repro.resilience.scheduler.PoolManager` as ``pool``
    to share one worker pool across several calls (the sweep does);
    otherwise a spawn pool is created on demand and torn down before
    returning.  A failed shard raises
    :class:`~repro.errors.ShardFailure` and caches nothing.
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
    slices = SkeletonSlices(shard_config, specs)

    def make_task(spec: ShardSpec, observe: bool) -> ShardTask:
        return ShardTask(
            shard_config, spec, deadline, observe=observe, skeletons=slices[spec]
        )

    shards = execute_plan(
        specs, make_task, run_shard, jobs=jobs, pool=pool, progress="synthesize"
    )
    result, report = merge_shards(
        config, shards, runtime_s=time.monotonic() - started
    )
    slices.charge(result.stats)
    if store is not None:
        store.save(identity, KIND_SUITE, result)
    return OrchestratedResult(
        result=result, report=report, jobs=jobs, shard_specs=list(specs)
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
) -> tuple[SweepResult, list[OrchestratedResult]]:
    """Sharded Fig 9 sweep (same semantics as
    :func:`repro.synth.synthesize_sweep`, run point-by-point through
    :func:`run_sharded`).

    Returns the sweep plus the per-point orchestration records (cache
    hits, per-shard runtimes).  Rerunning an interrupted sweep with the
    same store picks up where it left off: finished (axiom, bound)
    points are suite-level cache hits and are not re-synthesized.  A
    *timed-out* point skips the axiom's later bounds (they would only
    be slower); a failed shard ends the sweep.

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
