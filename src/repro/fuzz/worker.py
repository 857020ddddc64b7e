"""Spawn-safe fuzz shard execution.

The fuzz analogue of :mod:`repro.conformance.worker`: a worker process
receives a pickled :class:`FuzzShardTask` (fuzz config + one round's
profile allocation + shard spec + wall-clock deadline), generates and
judges its residue class of the round's attempts, shrinks every
discriminating program to a §IV-B-minimal ELT, and returns a
:class:`FuzzShardResult` of per-attempt :class:`AttemptRecord`\\ s.

The records carry only class-pure observations (class digest, agreement
counts, behavior signatures) plus the shrunk findings — everything the
runner's merge needs, nothing that depends on which shard did the work.
Program bytes are a pure function of ``(run seed, round, global attempt
index)`` via :func:`repro.fuzz.generators.derive_seed`, and the shard
picks attempts by ``index % skeleton_count == skeleton_index``, so the
union of all shards' records is identical for every ``--jobs``/shard
split — the byte-identical-findings contract.

Everything here is a module-level function/dataclass so it pickles under
the ``spawn`` start method; deadlines travel as wall-clock timestamps
and are converted to each worker's monotonic clock on arrival.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional, Tuple

from ..errors import SolverInterrupted
from ..mtm import Execution, Program
from ..obs import MetricsRegistry, SpanBatch, current_registry
from ..orchestrate.shards import ShardSpec
from ..orchestrate.worker import observe_shard
from ..resilience import deadline_scope
from .config import FuzzConfig, FuzzStats
from .coverage import PROFILE_KWARGS, class_digest
from .generators import RngChooser, build_program, derive_seed
from .oracle import DifferentialOracle
from .shrink import shrink


@dataclass(frozen=True)
class FuzzShardTask:
    """One round's residue class of fuzz attempts, shipped to a worker."""

    config: FuzzConfig
    round_index: int
    #: Profile name per global attempt index (the round's allocation,
    #: computed by the runner at the previous round barrier).
    allocation: Tuple[str, ...]
    spec: ShardSpec
    #: Absolute wall-clock deadline (``time.time()``), or None.
    wall_deadline: Optional[float] = None
    #: Collect spans/metrics in the worker and ship them on the result.
    observe: bool = False


@dataclass(frozen=True)
class ShrunkFinding:
    """A shrunk, §IV-B-minimal discriminating ELT from one attempt."""

    program: Program
    execution: Execution
    canonical_key: tuple
    identity_rank: tuple
    execution_key: tuple
    witness_rank: tuple
    violated_axioms: Tuple[str, ...]
    steps: int


@dataclass(frozen=True)
class AttemptRecord:
    """Class-pure observations for one attempt (plus its finding)."""

    #: Global attempt index within the round (the seed-derivation index).
    index: int
    profile: str
    #: Class digest of the *generated* program's orbit-canonical key.
    digest: str
    counts: Tuple[int, int, int, int]
    signatures: tuple
    truncated: bool
    discriminating: bool
    #: Set when the attempt discriminated AND shrinking reached §IV-B
    #: minimality; None otherwise (counted in ``shrink_failed``).
    finding: Optional[ShrunkFinding] = None


@dataclass
class FuzzShardResult:
    spec: ShardSpec
    round_index: int
    records: list = field(default_factory=list)
    stats: FuzzStats = field(default_factory=FuzzStats)
    runtime_s: float = 0.0
    #: Worker span batch (``task.observe`` only).
    spans: Optional[SpanBatch] = None
    #: Worker metrics registry (``task.observe`` only).
    metrics: Optional[MetricsRegistry] = None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


def _judge_attempt(
    oracle: DifferentialOracle,
    config: FuzzConfig,
    round_index: int,
    index: int,
    profile: str,
) -> AttemptRecord:
    """Generate, classify, and (when discriminating) shrink one attempt."""
    program = build_program(
        RngChooser(derive_seed(config.seed, round_index, index)),
        max_threads=config.max_threads,
        max_events=config.bound,
        **PROFILE_KWARGS[profile],
    )
    oracle.stats.programs_generated += 1
    current_registry().inc("fuzz.programs_generated", informational=True)
    digest = class_digest(oracle.canonical_key_of(program))
    replays_before = oracle.stats.oracle_memo_hits
    summary = oracle.classify(program)
    if oracle.stats.oracle_memo_hits > replays_before:
        oracle.stats.class_replays += 1
    finding = None
    if summary.discriminating:
        oracle.stats.discriminating += 1
        current_registry().inc("fuzz.discriminating", informational=True)
        outcome = shrink(program, oracle)
        if outcome is not None:
            judgment = outcome.judgment
            finding = ShrunkFinding(
                program=outcome.program,
                execution=judgment.execution,
                canonical_key=judgment.canonical_key,
                identity_rank=judgment.identity_rank,
                execution_key=judgment.execution_key,
                witness_rank=judgment.witness_rank,
                violated_axioms=judgment.violated_axioms,
                steps=outcome.steps,
            )
    return AttemptRecord(
        index=index,
        profile=profile,
        digest=digest,
        counts=summary.counts,
        signatures=summary.signatures,
        truncated=summary.truncated,
        discriminating=summary.discriminating,
        finding=finding,
    )


def run_fuzz_shard(task: FuzzShardTask) -> FuzzShardResult:
    """Execute one fuzz shard (in-process or in a worker process)."""
    started = time.monotonic()
    deadline = None
    if task.wall_deadline is not None:
        deadline = started + max(0.0, task.wall_deadline - time.time())
    tracer, registry, restore = observe_shard(task.spec, task.observe)
    result = FuzzShardResult(spec=task.spec, round_index=task.round_index)
    oracle = DifferentialOracle(task.config, stats=result.stats)
    spec = task.spec
    try:
        shard_span = (
            tracer.begin("shard", category="fuzz", round=task.round_index)
            if tracer
            else None
        )
        try:
            # Publish the deadline on the cooperative channel so a stuck
            # SAT query inside one witness step can be interrupted
            # mid-solve.
            with deadline_scope(deadline):
                for index in range(len(task.allocation)):
                    if not spec.owns(index):
                        continue
                    if deadline is not None and time.monotonic() > deadline:
                        result.stats.timed_out = True
                        break
                    span = (
                        tracer.begin("attempt", category="fuzz", index=index)
                        if tracer
                        else None
                    )
                    try:
                        record = _judge_attempt(
                            oracle,
                            task.config,
                            task.round_index,
                            index,
                            task.allocation[index],
                        )
                    except SolverInterrupted:
                        result.stats.timed_out = True
                        break
                    finally:
                        if tracer:
                            tracer.end(span)
                    result.records.append(record)
        finally:
            if tracer:
                tracer.end(shard_span)
    finally:
        restore()
    result.runtime_s = time.monotonic() - started
    result.stats.runtime_s = result.runtime_s
    if tracer is not None:
        result.spans = tracer.batch()
        result.metrics = registry
    return result
