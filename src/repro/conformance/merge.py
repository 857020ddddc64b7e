"""Cross-shard merging of differential results.

The serial-equivalence argument of :mod:`repro.orchestrate.merge`
carries over verbatim: a diff shard holds the same
:class:`~repro.orchestrate.worker.ShardElt` entries a synthesis shard
does, so :func:`~repro.orchestrate.merge.merge_best` picks every class's
winner — the entry minimizing ``(rep_rank, order)`` — for both.  Diffs
add two things, both exact under partitioning:

* the (orbit-weighted) Agreement-bucket counters are per-witness counts
  over a *partitioned* program stream, so summing shard counters
  reproduces the serial counts exactly (no cross-shard dedup
  subtleties);
* the asymmetric canonical-key sets merge by union.
"""

from __future__ import annotations

from typing import Iterable, Tuple

from ..orchestrate.merge import MergeReport, merge_best
from .diff import ConformanceCell, DiffConfig
from .worker import DiffShardResult


def merge_diff_shards(
    diff: DiffConfig,
    shard_results: Iterable[DiffShardResult],
    runtime_s: float = 0.0,
) -> Tuple[ConformanceCell, MergeReport]:
    """Fuse diff shards into one serial-equivalent :class:`ConformanceCell`."""
    shards = list(shard_results)
    elts, stats, report = merge_best(shards, runtime_s)
    reference_only: set = set()
    subject_only: set = set()
    for shard in shards:
        reference_only |= shard.reference_only_keys
        subject_only |= shard.subject_only_keys
    cell = ConformanceCell(
        reference=diff.reference.name,
        subject=diff.subject.name,
        bound=diff.bound,
        elts=elts,
        stats=stats,
        reference_only_keys=tuple(sorted(reference_only)),
        subject_only_keys=tuple(sorted(subject_only)),
    )
    return cell, report
