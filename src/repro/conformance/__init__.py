"""Differential conformance: pairwise model differencing at scale.

The paper's §I/§VII payoff — synthesized ELTs that *distinguish* one
transistency model from another (the correct x86t spec vs the AMD-
erratum variant) — as a first-class workload on top of every subsystem
built so far:

* :class:`DiffConfig` / :func:`diff_models` / :func:`run_diff_pipeline`
  — the single-pair differential pipeline (one candidate enumeration,
  both verdicts, shared axiom evaluation, discriminating-ELT suite);
* :func:`run_multi_diff_pipeline` — the fused core every sharded path
  actually runs: one query per pair in flight over the synthesis
  engine's one program/witness loop
  (:func:`repro.synth.engine.run_queries`), which enumerates — and,
  under the SAT backend, translates — each program once for all pairs,
  shares per-witness axiom verdicts through one
  :class:`~repro.models.AxiomTable`, and owns symmetry pruning
  (:mod:`repro.symmetry`), minimality and representative selection.
  Discriminating ELTs are :class:`~repro.synth.SynthesizedElt`
  records, exactly like synthesized suites;
* :class:`ConformanceCell` / :class:`Refinement` — one pair's
  Agreement-bucketed counts and refinement verdict at a bound;
* :func:`run_all_pairs` / :class:`ConformanceMatrix` — the catalog-wide
  matrix (one fused enumeration shared by all 20 catalog pairs) with
  axiom-subset consistency obligations;
* :func:`run_diff` — its one-pair call: sharded, store-cached execution
  of one pair;
* the ``repro diff`` CLI command front-ends all of it.
"""

from .diff import (
    ConformanceCell,
    DiffConfig,
    DiffOutcome,
    Refinement,
    diff_models,
    finalize_cell,
    run_diff_pipeline,
    run_multi_diff_pipeline,
)
from .matrix import (
    ConformanceMatrix,
    axiom_subset,
    cell_to_json,
    expected_refinements,
)
from .merge import merge_diff_shards
from .runner import (
    DiffRunResult,
    catalog_pairs,
    diff_identity,
    run_all_pairs,
    run_diff,
)
from .worker import (
    DiffShardResult,
    MultiDiffShardTask,
    run_multi_diff_shard,
)

__all__ = [
    "ConformanceCell",
    "ConformanceMatrix",
    "DiffConfig",
    "DiffOutcome",
    "DiffRunResult",
    "DiffShardResult",
    "MultiDiffShardTask",
    "Refinement",
    "axiom_subset",
    "catalog_pairs",
    "cell_to_json",
    "diff_identity",
    "diff_models",
    "expected_refinements",
    "finalize_cell",
    "merge_diff_shards",
    "run_all_pairs",
    "run_diff",
    "run_diff_pipeline",
    "run_multi_diff_pipeline",
    "run_multi_diff_shard",
]
