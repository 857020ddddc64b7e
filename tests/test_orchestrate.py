"""Tests for the sharded parallel synthesis orchestrator.

The load-bearing property is *shard-count invariance*: any shard plan —
one worker or many, coarse or fine — must reproduce the serial engine's suite exactly (same canonical key
set, same ordering, same representative programs, byte-identical suite
file).  The merge layer's docstring argues why; these tests enforce it.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SynthesisError
from repro.litmus import suite_from_synthesis
from repro.models import X86T_ELT_AXIOM_NAMES, x86t_elt
from repro.orchestrate import (
    ShardSpec,
    ShardTask,
    merge_shards,
    plan_shards,
    run_shard,
    run_sharded,
    shard_programs,
)
from repro.synth import (
    SynthesisConfig,
    enumerate_programs_with_order,
    synthesize,
    synthesize_sweep,
)


def config_for(axiom: str, bound: int = 4) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)


def merge_plan_inline(config: SynthesisConfig, specs):
    """Run every shard in-process and merge (no worker pool)."""
    shards = [run_shard(ShardTask(config, spec)) for spec in specs]
    return merge_shards(config, shards)


class TestShardSpecs:
    def test_plan_serial_is_single_shard(self) -> None:
        assert plan_shards(1) == [ShardSpec(0, 1)]

    def test_plan_oversubscribes_parallel_jobs(self) -> None:
        specs = plan_shards(2)
        assert len(specs) == 8
        assert {spec.skeleton_index for spec in specs} == set(range(8))

    def test_invalid_specs_rejected(self) -> None:
        with pytest.raises(SynthesisError):
            ShardSpec(2, 2)
        with pytest.raises(SynthesisError):
            ShardSpec(0, 0)
        with pytest.raises(SynthesisError):
            plan_shards(0)

    def test_shards_partition_the_program_stream(self) -> None:
        """Disjoint and jointly exhaustive, with identical order keys."""
        config = config_for("sc_per_loc")
        full = {
            order for order, _p in enumerate_programs_with_order(config)
        }
        specs = plan_shards(1, shard_count=3)
        seen: dict = {}
        for spec in specs:
            for order, _program in shard_programs(config, spec):
                assert order not in seen, (
                    f"order {order} in both {seen[order]} and {spec}"
                )
                seen[order] = spec
        assert set(seen) == full


class TestShardCountInvariance:
    """Satellite: ``orchestrate`` with jobs=1 and jobs=4 yields identical
    canonical ELT key sets and stable ordering."""

    @settings(max_examples=12, deadline=None)
    @given(
        axiom=st.sampled_from(sorted(X86T_ELT_AXIOM_NAMES)),
        shard_count=st.integers(min_value=1, max_value=5),
    )
    def test_any_shard_plan_matches_serial(
        self, axiom: str, shard_count: int
    ) -> None:
        config = config_for(axiom)
        serial = synthesize(config)
        specs = plan_shards(1, shard_count=shard_count)
        merged, _report = merge_plan_inline(config, specs)
        assert [e.key for e in merged.elts] == [e.key for e in serial.elts]
        assert merged.keys() == serial.keys()
        # Representative programs and executions match too (not just keys).
        serial_text = suite_from_synthesis(serial).dumps()
        merged_text = suite_from_synthesis(merged).dumps()
        assert merged_text == serial_text

    def test_jobs1_and_jobs4_identical(self) -> None:
        config = config_for("sc_per_loc")
        one = run_sharded(config_for("sc_per_loc"), jobs=1)
        four = run_sharded(config_for("sc_per_loc"), jobs=4)
        assert [e.key for e in one.result.elts] == [
            e.key for e in four.result.elts
        ]
        serial = synthesize(config)
        assert (
            suite_from_synthesis(four.result).dumps()
            == suite_from_synthesis(serial).dumps()
        )

    def test_outcome_counts_survive_sharding(self) -> None:
        config = config_for("sc_per_loc", bound=5)
        serial = synthesize(config)
        merged, _ = merge_plan_inline(
            config, plan_shards(1, shard_count=4)
        )
        assert [e.outcome_count for e in merged.elts] == [
            e.outcome_count for e in serial.elts
        ]

    def test_merge_reports_cross_shard_duplicates(self) -> None:
        """Duplicating a shard's results must not duplicate ELTs."""
        config = config_for("invlpg")
        spec = plan_shards(1)[0]
        shard = run_shard(ShardTask(config, spec))
        merged, report = merge_shards(config, [shard, shard])
        assert merged.count == shard.stats.unique_programs
        assert report.cross_shard_duplicates == shard.stats.unique_programs


class TestTimeouts:
    def test_exhausted_budget_propagates_timed_out(self) -> None:
        config = SynthesisConfig(
            bound=6,
            model=x86t_elt(),
            target_axiom="sc_per_loc",
            time_budget_s=0.0,
        )
        orchestrated = run_sharded(config, jobs=1, shard_count=2)
        assert orchestrated.result.stats.timed_out

    def test_sweep_records_skipped_bounds(self) -> None:
        base = SynthesisConfig(bound=6, model=x86t_elt())
        sweep = synthesize_sweep(
            base,
            axioms=["sc_per_loc"],
            min_bound=4,
            max_bound=6,
            time_budget_per_run_s=0.0,
        )
        assert len(sweep.points) == 1
        assert sweep.points[0].result.stats.timed_out
        assert sweep.timed_out_points() == [("sc_per_loc", 4)]
        assert sweep.skipped == [("sc_per_loc", 5), ("sc_per_loc", 6)]

    def test_sweep_budget_falls_back_to_base_config(self) -> None:
        """A base config's budget must not be silently discarded."""
        base = SynthesisConfig(
            bound=5, model=x86t_elt(), time_budget_s=0.0
        )
        sweep = synthesize_sweep(
            base, axioms=["invlpg"], min_bound=4, max_bound=5
        )
        assert sweep.points[0].result.stats.timed_out
        assert sweep.skipped == [("invlpg", 5)]
