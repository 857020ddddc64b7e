"""Deterministic partitioning of the synthesis enumeration space.

A :class:`ShardSpec` names one independent work unit of a sharded run by
striding the outer loop of program enumeration: the global base-skeleton
index (across all thread counts) is taken modulo ``skeleton_count``, and
a shard owns the indices congruent to ``skeleton_index``.

The base skeletons are enumerated once per run, by the coordinator, in
global skeleton-index order (:class:`SkeletonSlices`); each task ships
its shard's slice, and the worker expands only that slice (remap/TLB
fan-out, assembly, witness checking).  No shard re-enumerates the
skeletons.

Shards are disjoint and jointly exhaustive by construction: every
program has exactly one ``skeleton_index % K`` residue.  Order keys
``(skeleton_index, fanout_index)`` assigned by
:func:`repro.synth.skeletons.expand_skeletons` depend only on a
program's skeleton, never on which shard expands it, which is what lets
:mod:`repro.orchestrate.merge` reconstruct serial enumeration order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from ..errors import SynthesisError
from ..mtm import Program
from ..obs import current_tracer
from ..synth import SuiteStats, SynthesisConfig
from ..synth.skeletons import IndexedSkeleton, expand_skeletons, indexed_skeletons

#: Shards per worker when the planner is free to choose: oversubscription
#: smooths out skeletons with very uneven fan-out (static stride keeps
#: determinism; extra shards give the pool work-stealing slack).
DEFAULT_OVERSUBSCRIPTION = 4

#: One shard's base skeletons, in global skeleton-index order.
SkeletonSlice = tuple[IndexedSkeleton, ...]


@dataclass(frozen=True)
class ShardSpec:
    """One work unit: a skeleton-stride residue class."""

    skeleton_index: int
    skeleton_count: int

    def __post_init__(self) -> None:
        if self.skeleton_count < 1:
            raise SynthesisError("shard stride counts must be positive")
        if not 0 <= self.skeleton_index < self.skeleton_count:
            raise SynthesisError(
                f"skeleton_index {self.skeleton_index} outside "
                f"[0, {self.skeleton_count})"
            )

    @property
    def label(self) -> str:
        return f"s{self.skeleton_index}/{self.skeleton_count}"

    def owns(self, skeleton_index: int) -> bool:
        return skeleton_index % self.skeleton_count == self.skeleton_index


def plan_shards(jobs: int, shard_count: int | None = None) -> list[ShardSpec]:
    """Plan the work units for a run with ``jobs`` workers.

    ``shard_count`` overrides the skeleton-stride width.  By default a
    serial run is one shard, and a parallel run is ``jobs ×
    DEFAULT_OVERSUBSCRIPTION`` shards.  Every shard is one fused task
    however many queries (the pairs of an all-pairs diff) ride on it, so
    the query count does not change the plan.
    """
    if jobs < 1:
        raise SynthesisError(f"jobs must be positive, got {jobs}")
    if shard_count is None:
        shard_count = 1 if jobs == 1 else jobs * DEFAULT_OVERSUBSCRIPTION
    if shard_count < 1:
        raise SynthesisError(f"shard_count must be positive, got {shard_count}")
    return [ShardSpec(index, shard_count) for index in range(shard_count)]


class SkeletonSlices:
    """Every spec's slice of one run's base skeletons.

    The skeletons are enumerated once, on the first lookup, in global
    skeleton-index order, and grouped by stride residue; a plan whose
    slots are all cached never looks one up and enumerates nothing.  The
    enumeration is a ``skeletons`` span on the current tracer, and
    :meth:`charge` adds its time to a merged result's ``generate`` stage.
    """

    def __init__(self, config: SynthesisConfig, specs: Sequence[ShardSpec]):
        self._config = config
        self._specs = tuple(specs)
        self._slices: Optional[dict] = None
        #: Seconds spent enumerating (0.0 until the first lookup).
        self.generate_s = 0.0

    def __getitem__(self, spec: ShardSpec) -> SkeletonSlice:
        if self._slices is None:
            started = time.perf_counter()
            with current_tracer().span(
                "skeletons", category="generate", shards=len(self._specs)
            ):
                skeletons = list(indexed_skeletons(self._config))
                self._slices = {
                    owner: tuple(item for item in skeletons if owner.owns(item[0]))
                    for owner in self._specs
                }
            self.generate_s = time.perf_counter() - started
        return self._slices[spec]

    def charge(self, stats: SuiteStats) -> None:
        """Add the enumeration time to ``stats``' ``generate`` stage."""
        if self.generate_s:
            stages = stats.stage_times
            stages["generate"] = stages.get("generate", 0.0) + self.generate_s


def shard_programs(
    config: SynthesisConfig,
    spec: ShardSpec,
    skeletons: Optional[SkeletonSlice] = None,
) -> Iterator[tuple[tuple[int, int], Program]]:
    """The shard's slice of the ordered program stream: the expansion of
    its ``skeletons`` (the shard's :class:`SkeletonSlices` slice, built
    here when not given)."""
    if skeletons is None:
        skeletons = SkeletonSlices(config, [spec])[spec]
    yield from expand_skeletons(config, skeletons)
