"""Deterministic partitioning of the synthesis enumeration space.

A :class:`ShardSpec` names one independent work unit of a sharded run by
striding the outer loop of program enumeration: the global base-skeleton
index (across all thread counts) is taken modulo ``skeleton_count``, and
a shard owns the indices congruent to ``skeleton_index``.  Every shard
re-enumerates all skeletons but expands only its own: a skipped
skeleton costs its generation, not its remap/TLB fan-out or witness
checking.

Shards are disjoint and jointly exhaustive by construction: every
program has exactly one ``skeleton_index % K`` residue.  Order keys
``(skeleton_index, fanout_index)`` assigned by
:func:`repro.synth.enumerate_programs_with_order` are identical no
matter which shard enumerates a program, which is what lets
:mod:`repro.orchestrate.merge` reconstruct serial enumeration order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..errors import SynthesisError
from ..mtm import Program
from ..synth import SynthesisConfig, enumerate_programs_with_order

#: Shards per worker when the planner is free to choose: oversubscription
#: smooths out skeletons with very uneven fan-out (static stride keeps
#: determinism; extra shards give the pool work-stealing slack).
DEFAULT_OVERSUBSCRIPTION = 4


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


def plan_shards(
    jobs: int,
    shard_count: int | None = None,
    queries: int = 1,
) -> list[ShardSpec]:
    """Plan the work units for a run with ``jobs`` workers.

    ``shard_count`` overrides the skeleton-stride width.  By default a
    serial run is one shard, and a parallel run aims at ``jobs ×
    DEFAULT_OVERSUBSCRIPTION`` tasks: every shard runs all ``queries``
    (the pairs of an all-pairs diff) in one fused task, and query-level
    work already fills the pool, so the stride shrinks as the query count
    grows.
    """
    if jobs < 1:
        raise SynthesisError(f"jobs must be positive, got {jobs}")
    if queries < 1:
        raise SynthesisError(f"queries must be positive, got {queries}")
    if shard_count is None:
        if jobs == 1:
            shard_count = 1
        else:
            target = jobs * DEFAULT_OVERSUBSCRIPTION
            shard_count = max(1, -(-target // queries))  # ceil division
    if shard_count < 1:
        raise SynthesisError(f"shard_count must be positive, got {shard_count}")
    return [ShardSpec(index, shard_count) for index in range(shard_count)]


def shard_programs(
    config: SynthesisConfig, spec: ShardSpec
) -> Iterator[tuple[tuple[int, int], Program]]:
    """The shard's slice of the ordered program stream."""
    skeleton_filter = (
        None
        if spec.skeleton_count == 1
        else lambda index: index % spec.skeleton_count == spec.skeleton_index
    )
    return enumerate_programs_with_order(config, skeleton_filter=skeleton_filter)
