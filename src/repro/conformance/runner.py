"""The differential orchestrator: the all-pairs conformance matrix and
its one-pair call, a sharded single-pair diff.

``run_all_pairs`` fans every ordered pair of a model catalog through the
shard executor (:func:`repro.orchestrate.execute_plan`): cells already in
the store are loaded, the remaining pairs share one shard plan (sized by
the pool alone: every spec is one fused task whatever the pair count),
the base skeletons are enumerated once and sliced across the specs,
each shard spec becomes one fused task covering every remaining pair,
and the merged cells land in a deterministic
:class:`~repro.conformance.matrix.ConformanceMatrix`.

``run_diff`` is the one-pair call of the same driver: same plan, same
store keys, same serial-equivalent merge.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import List, Mapping, Optional, Sequence, Tuple

from ..errors import SynthesisError
from ..models import MemoryModel, catalog_models
from ..orchestrate.executor import execute_plan, wall_deadline
from ..orchestrate.merge import MergeReport
from ..orchestrate.shards import ShardSpec, SkeletonSlices, plan_shards
from ..orchestrate.store import KIND_DIFF_CELL, SuiteStore, config_identity
from ..synth import SynthesisConfig
from .diff import ConformanceCell, DiffConfig
from .matrix import ConformanceMatrix
from .merge import merge_diff_shards
from .worker import DiffShardResult, MultiDiffShardTask, run_multi_diff_shard

# Nothing here calls the task runner (the shard executor does).  It
# stays importable from this module, under its old name, only because
# the end-to-end benchmark's span map (bench_e2e/layers.py,
# "orchestrate.schedule") wraps it at this module's path.
from ..resilience.scheduler import run_tasks as run_resilient_tasks  # noqa: F401

Pair = Tuple[str, str]


def diff_identity(diff: DiffConfig) -> dict:
    """The JSON-safe identity of a differential configuration: the base
    synthesis identity with the model renamed to ``reference`` plus the
    subject's name and ordered axiom names."""
    identity = config_identity(diff.base)
    identity["reference"] = identity.pop("model")
    identity["reference_axioms"] = identity.pop("axioms")
    identity["subject"] = diff.subject.name
    identity["subject_axioms"] = list(diff.subject.axiom_names)
    return identity


@dataclass
class DiffRunResult:
    """A merged conformance cell plus per-shard and cache bookkeeping."""

    cell: ConformanceCell
    report: MergeReport
    jobs: int
    shard_specs: List[ShardSpec] = field(default_factory=list)
    cell_cache_hit: bool = False

    @property
    def shard_results(self) -> List[DiffShardResult]:
        return self.report.per_shard


def run_diffs(
    diffs: Sequence[DiffConfig],
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
) -> List[DiffRunResult]:
    """Run several differential passes over one shared shard plan (the
    driver behind :func:`run_all_pairs` and :func:`run_diff`).

    Every diff must share the base enumeration knobs (bound, thread/VA
    caps, witness backend, time budget); only the model pair varies.
    Scheduling is *fused*: each shard spec becomes one
    :class:`~repro.conformance.worker.MultiDiffShardTask` covering every
    diff whose cell is not in the store, so the shard's program slice is
    enumerated — and, under the SAT backend, translated — once for all
    of them instead of once per pair (the per-pair merge, store keys,
    and output bytes are unchanged).  Consequently ``time_budget_s``
    bounds each fused task rather than each (pair, shard) separately.
    """
    if jobs < 1:
        raise SynthesisError(f"jobs must be positive, got {jobs}")
    started = time.monotonic()
    identities = [diff_identity(diff) for diff in diffs]
    records: List[Optional[DiffRunResult]] = [None] * len(diffs)
    if store is not None:
        for index, identity in enumerate(identities):
            cell = store.load(identity, KIND_DIFF_CELL)
            if cell is not None:
                report = MergeReport(shard_count=0, shard_elts=cell.count)
                records[index] = DiffRunResult(
                    cell=cell, report=report, jobs=jobs, cell_cache_hit=True
                )
    remaining = [index for index, record in enumerate(records) if record is None]
    if not remaining:
        return records

    specs = plan_shards(jobs, shard_count=shard_count)
    deadline = wall_deadline(diffs[0].base.time_budget_s)
    # Shards carry their own deadline; see repro.orchestrate.runner.
    shard_diffs = [
        replace(diffs[index], base=replace(diffs[index].base, time_budget_s=None))
        for index in remaining
    ]
    slices = SkeletonSlices(shard_diffs[0].base, specs)

    def make_task(spec: ShardSpec, observe: bool):
        return MultiDiffShardTask(
            diffs=tuple(shard_diffs),
            spec=spec,
            wall_deadline=deadline,
            observe=observe,
            skeletons=slices[spec],
        )

    fused = execute_plan(
        specs, make_task, run_multi_diff_shard, jobs=jobs, progress="diff"
    )
    for query, index in enumerate(remaining):
        cell, report = merge_diff_shards(
            diffs[index],
            [shards[query] for shards in fused],
            runtime_s=time.monotonic() - started,
        )
        if query == 0:
            # Stage times ride on the lead query (see run_queries).
            slices.charge(cell.stats)
        if store is not None:
            store.save(identities[index], KIND_DIFF_CELL, cell)
        records[index] = DiffRunResult(
            cell=cell, report=report, jobs=jobs, shard_specs=list(specs)
        )
    return records


def run_diff(
    diff: DiffConfig,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
) -> DiffRunResult:
    """Run one differential pass across ``jobs`` workers: the one-pair
    call of :func:`run_diffs` (same caching and failure semantics as
    :func:`repro.orchestrate.run_sharded`)."""
    return run_diffs([diff], jobs=jobs, shard_count=shard_count, store=store)[0]


def catalog_pairs(models: Mapping[str, MemoryModel]) -> List[Pair]:
    """Every ordered (reference, subject) pair, in catalog order."""
    names = list(models)
    return [(r, s) for r in names for s in names if r != s]


def run_all_pairs(
    base: SynthesisConfig,
    models: Optional[Mapping[str, MemoryModel]] = None,
    jobs: int = 1,
    shard_count: Optional[int] = None,
    store: Optional[SuiteStore] = None,
    pairs: Optional[List[Pair]] = None,
) -> Tuple[ConformanceMatrix, List[DiffRunResult]]:
    """Differential conformance over every ordered pair of a catalog.

    ``base`` supplies the enumeration knobs (bound, thread/VA caps,
    witness backend, time budget); its ``model`` field is replaced by
    each pair's reference.  Returns the matrix plus per-pair run records
    in pair order.  With a ``store``, finished cells are reused.  All
    pairs run fused through :func:`run_diffs`.
    """
    if models is None:
        models = catalog_models()
    if pairs is None:
        pairs = catalog_pairs(models)
    if not pairs:
        raise SynthesisError("all-pairs run needs at least one model pair")
    records = run_diffs(
        [
            DiffConfig(base=replace(base, model=models[ref]), subject=models[sub])
            for ref, sub in pairs
        ],
        jobs=jobs,
        shard_count=shard_count,
        store=store,
    )
    matrix = ConformanceMatrix(models=tuple(models), bound=base.bound)
    for pair, record in zip(pairs, records):
        matrix.cells[pair] = record.cell
    return matrix, records
