"""The fuzz orchestrator: coverage-guided rounds over sharded workers.

``run_fuzz`` scales a coverage-guided differential fuzz run across cores
with the exact machinery every sharded run uses — deterministic shard
plan (:func:`repro.orchestrate.plan_shards`) and, for each round, the
one shard executor (:func:`repro.orchestrate.execute_plan`, inline or
on the campaign's one spawn pool) — plus a store entry for the whole
run.

The determinism contract, end to end:

1. program bytes are a pure function of ``(seed, round, global attempt
   index)`` — never of the shard that generated them;
2. workers report only class-pure observations plus shrunk findings;
3. the runner folds observations into the coverage map in global
   attempt order at each round barrier, so the next round's profile
   allocation is a pure function of the merged map;
4. findings are deduplicated by shrunk orbit-canonical class, the
   winner chosen by the smallest ``(identity rank, execution key,
   witness rank)`` — an order-free rule.

Hence the findings (and the suite/corpus bytes serialized from them)
are byte-identical for every ``--jobs`` and shard split; only
scheduling-flavored counters (memo hits, runtimes) may differ.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from ..errors import SynthesisError
from ..mtm import Execution, Program
from ..obs import current_registry
from ..orchestrate.executor import execute_plan, wall_deadline
from ..orchestrate.shards import ShardSpec, plan_shards
from ..orchestrate.store import KIND_FUZZ_RUN, SuiteStore
from ..resilience.scheduler import PoolManager
from .config import FuzzConfig, FuzzStats, fuzz_identity
from .coverage import CoverageMap, class_digest
from .worker import FuzzShardResult, FuzzShardTask, run_fuzz_shard


@dataclass
class FuzzFinding:
    """One deduplicated, shrunk, §IV-B-minimal discriminating ELT."""

    #: The shrunk program and its representative witness (reference
    #: forbids it, subject permits it, every relaxation is permitted).
    program: Program
    execution: Execution
    #: Orbit-canonical key of the shrunk program (the dedup identity).
    canonical_key: tuple
    #: Short digest of ``canonical_key`` (the corpus file name stem).
    digest: str
    identity_rank: tuple
    execution_key: tuple
    witness_rank: tuple
    violated_axioms: Tuple[str, ...]
    #: Accepted shrink steps for the winning member.
    shrink_steps: int
    #: (round, global attempt index) of the winning member.
    source: Tuple[int, int]
    #: Distinct attempts whose shrink landed in this class.
    occurrences: int = 1


@dataclass
class FuzzRunResult:
    """Merged findings, coverage, and counters for one fuzz run."""

    findings: List[FuzzFinding] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)
    stats: FuzzStats = field(default_factory=FuzzStats)
    #: Pair and schedule echo (lets a result serialize standalone).
    reference: str = ""
    subject: str = ""
    seed: int = 0
    bound: int = 0
    jobs: int = 1
    rounds_run: int = 0
    run_cache_hit: bool = False


def _merge_round(
    coverage: CoverageMap,
    findings_by_key: Dict[tuple, FuzzFinding],
    round_index: int,
    shards: List[FuzzShardResult],
) -> int:
    """Fold one round's shard results into the coverage map and the
    finding table, in global attempt order (shard-split-invariant).
    Returns the round's novelty."""
    records = sorted(
        (record for shard in shards for record in shard.records),
        key=lambda record: record.index,
    )
    novelty = 0
    for record in records:
        novelty += coverage.observe_attempt(
            record.profile, record.digest, record.counts, record.signatures
        )
        shrunk = record.finding
        if shrunk is None:
            continue
        rank = (shrunk.identity_rank, shrunk.execution_key, shrunk.witness_rank)
        incumbent = findings_by_key.get(shrunk.canonical_key)
        if incumbent is None:
            findings_by_key[shrunk.canonical_key] = FuzzFinding(
                program=shrunk.program,
                execution=shrunk.execution,
                canonical_key=shrunk.canonical_key,
                digest=class_digest(shrunk.canonical_key),
                identity_rank=shrunk.identity_rank,
                execution_key=shrunk.execution_key,
                witness_rank=shrunk.witness_rank,
                violated_axioms=shrunk.violated_axioms,
                shrink_steps=shrunk.steps,
                source=(round_index, record.index),
            )
            continue
        incumbent.occurrences += 1
        incumbent_rank = (
            incumbent.identity_rank,
            incumbent.execution_key,
            incumbent.witness_rank,
        )
        # Records arrive in (round, attempt) order, so on rank ties the
        # earliest attempt keeps the finding — min over an order-free
        # total order either way.
        if rank < incumbent_rank:
            incumbent.program = shrunk.program
            incumbent.execution = shrunk.execution
            incumbent.identity_rank = shrunk.identity_rank
            incumbent.execution_key = shrunk.execution_key
            incumbent.witness_rank = shrunk.witness_rank
            incumbent.violated_axioms = shrunk.violated_axioms
            incumbent.shrink_steps = shrunk.steps
            incumbent.source = (round_index, record.index)
    return novelty


def run_fuzz(
    config: FuzzConfig,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
) -> FuzzRunResult:
    """Run one coverage-guided fuzz campaign across ``jobs`` workers."""
    if jobs < 1:
        raise SynthesisError(f"jobs must be positive, got {jobs}")
    started = time.monotonic()

    identity = fuzz_identity(config)
    if store is not None:
        cached = store.load(identity, KIND_FUZZ_RUN)
        if cached is not None:
            cached.run_cache_hit = True
            cached.jobs = jobs
            return cached

    specs = plan_shards(jobs, shard_count=shard_count)
    deadline = wall_deadline(config.time_budget_s)
    # (round, shard) slices carry their own deadline, like diff shards.
    shard_config = replace(config, time_budget_s=None)

    result = FuzzRunResult(
        reference=config.reference.name,
        subject=config.subject.name,
        seed=config.seed,
        bound=config.bound,
        jobs=jobs,
    )
    coverage = result.coverage
    stats = result.stats
    findings_by_key: Dict[tuple, FuzzFinding] = {}

    # Every round runs on the campaign's one pool (booted by the first).
    pool: Optional[PoolManager] = PoolManager(jobs) if jobs > 1 else None
    try:
        for round_index in range(config.rounds):
            allocation = coverage.allocate(config.attempts_per_round)

            def make_task(spec: ShardSpec, observe: bool):
                return FuzzShardTask(
                    config=shard_config,
                    round_index=round_index,
                    allocation=allocation,
                    spec=spec,
                    wall_deadline=deadline,
                    observe=observe,
                )

            shards = execute_plan(
                specs,
                make_task,
                run_fuzz_shard,
                jobs=jobs,
                pool=pool,
                progress=f"fuzz r{round_index}",
            )
            for shard in shards:
                stats.absorb(shard.stats)
            novelty = _merge_round(coverage, findings_by_key, round_index, shards)
            coverage.finish_round(novelty)
            result.rounds_run = round_index + 1
            if any(shard.stats.timed_out for shard in shards):
                stats.timed_out = True
                break
    finally:
        if pool is not None:
            pool.shutdown()

    result.findings = sorted(
        findings_by_key.values(),
        key=lambda finding: (
            finding.identity_rank,
            finding.execution_key,
            finding.witness_rank,
        ),
    )
    stats.findings = len(result.findings)
    stats.novel_classes = coverage.class_count
    stats.novel_behaviors = coverage.behavior_count
    stats.runtime_s = time.monotonic() - started
    current_registry().inc(
        "fuzz.findings", stats.findings, informational=True
    )

    if store is not None:
        store.save(identity, KIND_FUZZ_RUN, result)
    return result
