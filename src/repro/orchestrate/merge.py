"""Cross-shard deduplication and serial-equivalent merging.

Why the merged result is *provably* identical to a serial run
-------------------------------------------------------------

The serial program loop (:func:`repro.synth.engine.run_queries`)
deduplicates on two levels: canonical execution keys (each distinct
minimal key counts once) and canonical program keys (one
:class:`SynthesizedElt` per program class).  Synthesis suites and
differential cells are both lists of such entries, so
:func:`merge_best` below is the one best-of-shards merge behind
synthesis and diff runs (:func:`merge_shards` here,
:func:`repro.conformance.merge_diff_shards` for diffs).

Both keys are canonical — invariant under thread permutation and VA/PA/
event-id renaming — so two programs with the same canonical key have
*isomorphic* execution sets, and an execution's key determines its
program's key.  Consequences:

1. **ELT membership is shard-invariant.**  A program class yields an ELT
   iff any one of its member programs does; each member yields the same
   canonical execution-key set regardless of which shard it lands in.
2. **Representative choice is order-free.**  The pipeline selects, per
   class, the member program with the smallest identity rank
   (``SynthesizedElt.rep_rank``) and, within it, the minimal forbidden
   witness minimizing *(canonical execution key, witness sort key)*.
   Both ranks are properties of the entry, not of enumeration order, so
   the cross-shard minimum over ``(rep_rank, order)`` reproduces the
   serial entry byte-for-byte — whichever shard the class members landed
   in, and whether or not symmetry pruning thinned their witness
   streams (pruned witnesses are never rank-minimal).
3. **Outcome counts are shard-invariant.**  ``outcome_count`` counts the
   distinct canonical minimal forbidden execution keys of class K, a
   quantity every member program reproduces in full; duplicated class
   members across shards therefore report the *same* count, and the merge
   takes the winner's (equal) value rather than summing.

Aggregate counters (programs/executions enumerated, interesting, minimal)
are summed; they can legitimately exceed the serial numbers when duplicate
program classes straddle shards (serial skips what a shard cannot know was
seen elsewhere).  The ELT list itself — the artifact — is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..synth import SuiteResult, SuiteStats, SynthesisConfig
from .worker import ShardElt, ShardResult


@dataclass
class MergeReport:
    """Bookkeeping from one merge: how much cross-shard overlap existed."""

    shard_count: int = 0
    shard_elts: int = 0
    cross_shard_duplicates: int = 0
    per_shard: list[ShardResult] = field(default_factory=list)


def merge_best(
    shard_results: Iterable[ShardResult], runtime_s: float = 0.0
) -> tuple[list, SuiteStats, MergeReport]:
    """The best-of-shards merge behind synthesis and diff runs: sum the shard
    stats and keep per program class the entry minimizing ``(rep_rank,
    order)``.  Returns ``(elts sorted by class key, stats, report)``."""
    report = MergeReport()
    stats = SuiteStats()
    best: dict = {}  # ProgramKey -> ShardElt with minimal (rank, order)
    for shard in shard_results:
        report.shard_count += 1
        report.per_shard.append(shard)
        stats.absorb(shard.stats)
        for shard_elt in shard.elts:
            report.shard_elts += 1
            current = best.get(shard_elt.elt.key)
            if current is None:
                best[shard_elt.elt.key] = shard_elt
            else:
                report.cross_shard_duplicates += 1
                if (shard_elt.elt.rep_rank, shard_elt.order) < (
                    current.elt.rep_rank,
                    current.order,
                ):
                    best[shard_elt.elt.key] = shard_elt

    elts = sorted(
        (shard_elt.elt for shard_elt in best.values()), key=lambda e: e.key
    )
    stats.unique_programs = len(elts)
    stats.runtime_s = runtime_s
    return elts, stats, report


def merge_shards(
    config: SynthesisConfig,
    shard_results: Iterable[ShardResult],
    runtime_s: float = 0.0,
) -> tuple[SuiteResult, MergeReport]:
    """Fuse shard results into one serial-equivalent :class:`SuiteResult`."""
    elts, stats, report = merge_best(shard_results, runtime_s)
    result = SuiteResult(config.bound, config.target_axiom, stats=stats)
    result.elts = elts
    return result, report
