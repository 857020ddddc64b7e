"""Spawn-safe differential shard execution.

The differential analogue of :mod:`repro.orchestrate.worker`: a worker
process receives a pickled :class:`MultiDiffShardTask` (every pending
pair of one shard — a single-pair diff sends one pair — plus the shard's
base skeletons), runs the fused diff pipeline over the programs those
skeletons expand to, and returns
one :class:`DiffShardResult` per pair — a synthesis
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

from ..orchestrate.shards import ShardSpec, SkeletonSlice, shard_programs
from ..orchestrate.worker import ShardResult, observe_shard, shard_elts
from ..resilience import FaultPlan
from .diff import run_multi_diff_pipeline


@dataclass(frozen=True)
class MultiDiffShardTask:
    """One *fused* unit: every pending pair's share of one shard.

    The diff driver ships one of these per shard spec, not one per
    (pair, shard): the worker enumerates the shard's program slice (and
    translates it, under the SAT backend) once, classifying each witness
    under every pair in the task.  All diffs share the base enumeration
    config; the deadline spans the whole fused task.
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
    #: The shard's base skeletons (see :class:`~repro.orchestrate.ShardTask`).
    skeletons: Optional[SkeletonSlice] = None


@dataclass
class DiffShardResult(ShardResult):
    """One pair's shard result: the synthesis shard result plus the
    canonical keys of both asymmetric buckets."""

    reference_only_keys: Set[tuple] = field(default_factory=set)
    subject_only_keys: Set[tuple] = field(default_factory=set)


def run_multi_diff_shard(task: MultiDiffShardTask) -> list:
    """Execute one fused shard (in-process or in a worker): the shard's
    program slice enumerated once, classified under every pair; returns
    one :class:`DiffShardResult` per pair, in task order, each carrying
    the elts, keys, and agreement counters a dedicated single-pair shard
    would have produced.  ``runtime_s`` is the pass's wall time split
    evenly across its pairs (per-pair sums reflect the work actually done
    once, at the cost of per-pair attribution)."""
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
            tracer.begin("shard", category="orchestrate", pairs=len(task.diffs))
            if tracer
            else None
        )
        try:
            outcomes = run_multi_diff_pipeline(
                list(task.diffs),
                shard_programs(task.diffs[0].base, spec, task.skeletons),
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


# Every diff runs through run_multi_diff_shard.  This name stays only
# because the end-to-end benchmark's span map (bench_e2e/layers.py,
# WORKER_ENTRIES) wraps it at this module's path.
run_diff_shard = run_multi_diff_shard
