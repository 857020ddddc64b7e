"""Sharded parallel synthesis orchestration (scaling the Fig 7 pipeline).

The synthesis search is embarrassingly parallel: the skeleton/program
enumeration partitions into independent work units, each shard runs the
identical pipeline, and canonical-form merging reconstructs the exact
serial result.  This package provides:

* :class:`ShardSpec` / :func:`plan_shards` / :func:`shard_programs` —
  deterministic partitioning of the enumeration space;
* :func:`execute_plan` — the one shard executor behind every sharded
  run (synthesis, differencing, fuzz rounds): pool start, fused tasks,
  trace adoption;
* :func:`run_shard` — the spawn-safe worker entry point;
* :func:`merge_shards` — serial-equivalent cross-shard deduplication;
* :class:`SuiteStore` — the persistent content-addressed whole-result
  cache;
* :func:`run_sharded` / :func:`run_sweep_sharded` — the orchestrator.
"""

from .executor import execute_plan
from .merge import MergeReport, merge_shards
from .runner import OrchestratedResult, run_sharded, run_sweep_sharded
from .shards import (
    DEFAULT_OVERSUBSCRIPTION,
    ShardSpec,
    plan_shards,
    shard_programs,
)
from .store import (
    KIND_DIFF_CELL,
    KIND_FUZZ_RUN,
    KIND_SUITE,
    SCHEMA_VERSION,
    SuiteStore,
    config_identity,
    identity_key,
    store_key,
)
from .worker import ShardElt, ShardResult, ShardTask, run_shard

__all__ = [
    "DEFAULT_OVERSUBSCRIPTION",
    "KIND_DIFF_CELL",
    "KIND_FUZZ_RUN",
    "KIND_SUITE",
    "MergeReport",
    "OrchestratedResult",
    "SCHEMA_VERSION",
    "ShardElt",
    "ShardResult",
    "ShardSpec",
    "ShardTask",
    "SuiteStore",
    "config_identity",
    "execute_plan",
    "identity_key",
    "merge_shards",
    "plan_shards",
    "run_shard",
    "run_sharded",
    "run_sweep_sharded",
    "shard_programs",
    "store_key",
]
