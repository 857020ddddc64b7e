"""Spawn-safe differential shard execution.

The differential analogue of :mod:`repro.orchestrate.worker`: a worker
process receives a pickled :class:`DiffShardTask` (one pair) or
:class:`MultiDiffShardTask` (every pending pair of one shard), runs the
fused diff pipeline over the shard's slice of the program stream, and
returns one :class:`DiffShardResult` per pair — a synthesis
:class:`~repro.orchestrate.worker.ShardResult` (discriminating ELTs with
their enumeration order keys, raw bucket counters) plus the asymmetric
key sets: everything the merge layer needs to reconstruct the serial
cell.

Everything here is a module-level function/dataclass so it pickles under
the ``spawn`` start method; deadlines travel as wall-clock timestamps
and are converted to each worker's monotonic clock on arrival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Set

from ..orchestrate.shards import ShardSpec, shard_programs
from ..orchestrate.worker import ShardResult, observe_shard, shard_elts
from ..resilience import FaultPlan
from .diff import DiffConfig, run_multi_diff_pipeline


@dataclass(frozen=True)
class DiffShardTask:
    """One unit of differential work shipped to a worker process."""

    diff: DiffConfig
    spec: ShardSpec
    #: Absolute wall-clock deadline (``time.time()``), or None.
    wall_deadline: Optional[float] = None
    #: Collect spans/metrics in the worker and ship them on the result.
    observe: bool = False
    #: Which (re)submission this is (stamped by the resilient scheduler).
    attempt: int = 1
    #: Seeded chaos harness; consulted on worker entry when set.
    faults: Optional[FaultPlan] = None


@dataclass(frozen=True)
class MultiDiffShardTask:
    """One *fused* unit: every pending pair's share of one shard.

    The all-pairs driver ships one of these per shard spec instead of one
    :class:`DiffShardTask` per (pair, shard): the worker enumerates the
    shard's program slice (and translates it, under the SAT backend)
    once, classifying each witness under every pair in the task.  All
    diffs share the base enumeration config; the deadline spans the whole
    fused task.
    """

    diffs: tuple  # tuple[DiffConfig, ...], in pair order
    spec: ShardSpec
    wall_deadline: Optional[float] = None
    #: Collect spans/metrics in the worker; the fused task's batch and
    #: registry ride on the *first* pair's result (one lane per task).
    observe: bool = False
    #: Which (re)submission this is (stamped by the resilient scheduler).
    attempt: int = 1
    #: Seeded chaos harness; consulted on worker entry when set.
    faults: Optional[FaultPlan] = None


@dataclass
class DiffShardResult(ShardResult):
    """One pair's shard result: the synthesis shard result plus the
    canonical keys of both asymmetric buckets."""

    reference_only_keys: Set[tuple] = field(default_factory=set)
    subject_only_keys: Set[tuple] = field(default_factory=set)


def _run_diffs(task, diffs: tuple) -> list:
    """Run ``diffs`` over the task's shard in one fused pass; one
    :class:`DiffShardResult` per diff, in order.  ``runtime_s`` is the
    pass's wall time split evenly across its pairs (per-pair sums
    reflect the work actually done once, at the cost of per-pair
    attribution), and SAT counters follow
    :func:`~repro.synth.engine.run_queries`' lead-query-translations /
    rest-avoided convention."""
    spec = task.spec
    if task.faults is not None:
        task.faults.apply_worker_fault(spec.label, task.attempt)
    started = time.monotonic()
    deadline = None
    if task.wall_deadline is not None:
        deadline = started + max(0.0, task.wall_deadline - time.time())
    tracer, registry, restore = observe_shard(spec, task.observe)
    try:
        span = (
            tracer.begin("shard", category="orchestrate", pairs=len(diffs))
            if tracer
            else None
        )
        try:
            outcomes = run_multi_diff_pipeline(
                list(diffs),
                shard_programs(diffs[0].base, spec),
                deadline=deadline,
            )
        finally:
            if tracer:
                tracer.end(span)
    finally:
        restore()
    share = (time.monotonic() - started) / len(outcomes)
    results = []
    for outcome in outcomes:
        elts = shard_elts(outcome)
        outcome.stats.unique_programs = len(elts)
        outcome.stats.runtime_s = share
        results.append(
            DiffShardResult(
                spec=spec,
                elts=elts,
                stats=outcome.stats,
                runtime_s=share,
                reference_only_keys=outcome.reference_only_keys,
                subject_only_keys=outcome.subject_only_keys,
            )
        )
    if tracer is not None:
        results[0].spans = tracer.batch()
        results[0].metrics = registry
    return results


def run_diff_shard(task: DiffShardTask) -> DiffShardResult:
    """Execute one differential shard (in-process or in a worker)."""
    return _run_diffs(task, (task.diff,))[0]


def run_multi_diff_shard(task: MultiDiffShardTask) -> list:
    """Execute one fused shard: the shard's program slice enumerated once,
    classified under every pair; returns one :class:`DiffShardResult` per
    pair, in task order, each carrying the elts, keys, and agreement
    counters its dedicated single-pair shard would have produced."""
    return _run_diffs(task, task.diffs)
