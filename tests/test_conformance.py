"""Tests for the differential conformance engine.

The load-bearing properties:

* the paper's case study reproduces — x86t_elt vs x86t_amd_bug at bound
  5 synthesizes exactly the fig 11-style stale-read ELT, violating only
  ``invlpg``;
* determinism is *stronger* than synthesis: the diff suite's bytes are
  identical across shard plans, jobs settings, and witness backends;
* the all-pairs matrix honors the catalog's axiom-subset inclusions and
  pair-swap antisymmetry at every tested bound;
* the suite store makes diff runs resumable (cell- and shard-level
  cache hits, never caching timed-out work).
"""

from __future__ import annotations

import pytest

from repro.conformance import (
    ConformanceCell,
    DiffConfig,
    Refinement,
    axiom_subset,
    catalog_pairs,
    diff_identity,
    diff_models,
    expected_refinements,
    run_all_pairs,
    run_diff,
)
from repro.errors import SynthesisError
from repro.litmus import suite_from_diff
from repro.models import (
    catalog_models,
    sc_t,
    sequential_consistency,
    x86t_amd_bug,
    x86t_elt,
    x86tso,
)
from repro.orchestrate import (
    KIND_DIFF_CELL,
    SuiteStore,
    store_key,
)
from repro.synth import SynthesisConfig


def amd_diff(bound: int = 5, **overrides) -> DiffConfig:
    return DiffConfig(
        base=SynthesisConfig(bound=bound, model=x86t_elt(), **overrides),
        subject=x86t_amd_bug(),
    )


class TestAmdBugCaseStudy:
    def test_bound5_synthesizes_the_invlpg_discriminator(self) -> None:
        cell = diff_models(amd_diff())
        assert cell.count == 1
        (elt,) = cell.elts
        assert elt.violated_axioms == ("invlpg",)
        assert cell.verdict is Refinement.REFERENCE_STRONGER
        assert cell.stats.only_reference_forbids == 1
        assert cell.stats.only_subject_forbids == 0
        # The representative is genuinely discriminating.
        assert x86t_elt().forbids(elt.execution)
        assert x86t_amd_bug().permits(elt.execution)

    def test_bound4_is_not_yet_discriminating(self) -> None:
        cell = diff_models(amd_diff(bound=4))
        assert cell.verdict is Refinement.EQUIVALENT
        assert not cell.discriminating

    def test_counts_partition_the_candidate_space(self) -> None:
        cell = diff_models(amd_diff())
        assert (
            sum(cell.counts().values())
            == cell.stats.executions_enumerated
        )


class TestDeterminism:
    def test_shard_plans_reproduce_serial_bytes(self) -> None:
        serial = suite_from_diff(diff_models(amd_diff())).dumps()
        for shard_count in (2, 5):
            sharded = run_diff(amd_diff(), jobs=1, shard_count=shard_count)
            assert suite_from_diff(sharded.cell).dumps() == serial
            assert sharded.cell.counts() == diff_models(amd_diff()).counts()

    def test_witness_backends_reproduce_identical_bytes(self) -> None:
        explicit = diff_models(amd_diff())
        sat = diff_models(amd_diff(witness_backend="sat"))
        assert suite_from_diff(sat).dumps() == suite_from_diff(explicit).dumps()
        assert sat.counts() == explicit.counts()
        assert sat.reference_only_keys == explicit.reference_only_keys
        assert sat.subject_only_keys == explicit.subject_only_keys
        assert sat.stats.sat_decisions > 0


class TestConfigValidation:
    def test_target_axiom_is_rejected(self) -> None:
        with pytest.raises(SynthesisError):
            DiffConfig(
                base=SynthesisConfig(
                    bound=4, model=x86t_elt(), target_axiom="invlpg"
                ),
                subject=x86t_amd_bug(),
            )

    def test_jobs_must_be_positive(self) -> None:
        with pytest.raises(SynthesisError):
            run_diff(amd_diff(), jobs=0)


class TestSuiteSerialization:
    def test_diff_suite_round_trips_with_pair_metadata(self, tmp_path) -> None:
        from repro.litmus import EltSuite

        cell = diff_models(amd_diff())
        path = tmp_path / "amd.elts"
        suite_from_diff(cell).save(path)
        loaded = EltSuite.load(path)
        assert len(loaded) == cell.count
        entry = loaded.get("diff_001")
        assert entry.meta["reference"] == "x86t_elt"
        assert entry.meta["subject"] == "x86t_amd_bug"
        assert entry.meta["violates"] == "invlpg"
        assert entry.meta["agreement"] == "only-reference-forbids"
        assert x86t_elt().forbids(entry.execution)
        assert x86t_amd_bug().permits(entry.execution)


class TestStore:
    def test_cell_level_resume(self, tmp_path) -> None:
        store = SuiteStore(tmp_path / "cache")
        first = run_diff(amd_diff(), store=store)
        assert not first.cell_cache_hit
        second = run_diff(amd_diff(), store=store)
        assert second.cell_cache_hit
        assert (
            suite_from_diff(second.cell).dumps()
            == suite_from_diff(first.cell).dumps()
        )

    def test_diff_keys_are_pair_specific(self) -> None:
        forward = store_key(diff_identity(amd_diff()), KIND_DIFF_CELL)
        backward = store_key(
            diff_identity(
                DiffConfig(
                    base=SynthesisConfig(bound=5, model=x86t_amd_bug()),
                    subject=x86t_elt(),
                )
            ),
            KIND_DIFF_CELL,
        )
        assert forward != backward


class TestAllPairs:
    @pytest.fixture(scope="class")
    def bound4(self):
        models = catalog_models()
        matrix, records = run_all_pairs(
            SynthesisConfig(bound=4, model=x86t_elt()), models=models
        )
        return models, matrix, records

    def test_covers_every_ordered_pair(self, bound4) -> None:
        models, matrix, records = bound4
        assert len(matrix.pairs()) == len(models) * (len(models) - 1)
        assert len(records) == len(matrix.pairs())

    def test_inclusions_consistent_with_catalog(self, bound4) -> None:
        models, matrix, _ = bound4
        expected = expected_refinements(models)
        # The catalog's syntactic inclusions are present...
        assert ("x86t_elt", "x86tso") in expected
        assert ("x86t_elt", "x86t_amd_bug") in expected
        assert ("x86t_amd_bug", "x86tso") in expected
        assert ("sc_t", "sc") in expected
        # ...and none is violated by the synthesized matrix.
        assert matrix.inclusion_violations(models) == []

    def test_antisymmetry_holds(self, bound4) -> None:
        _, matrix, _ = bound4
        assert matrix.antisymmetry_violations() == []

    def test_sc_strength_is_visible_at_bound4(self, bound4) -> None:
        _, matrix, _ = bound4
        # SC over all memory events (user po only) forbids ghost-visible
        # reorderings the x86 models permit: every catalog entry is
        # strictly weaker than sc on the bound-4 space.
        assert (
            matrix.verdict("x86tso", "sc") is Refinement.REFERENCE_STRONGER
        )
        assert matrix.verdict("sc", "x86tso") is Refinement.SUBJECT_STRONGER
        assert matrix.cell("x86tso", "sc").count > 0

    def test_matrix_json_is_stable(self, bound4) -> None:
        _, matrix, _ = bound4
        payload = matrix.to_json()
        assert payload["schema"] == 1
        assert payload["kind"] == "conformance-matrix"
        assert payload["models"] == list(matrix.models)
        assert len(payload["pairs"]) == len(matrix.pairs())
        first = payload["pairs"][0]
        assert set(first) == {
            "schema",
            "kind",
            "reference",
            "subject",
            "bound",
            "verdict",
            "counts",
            "discriminating",
            "stats",
        }

    def test_all_pairs_store_resume(self, tmp_path, bound4) -> None:
        models, matrix, _ = bound4
        store = SuiteStore(tmp_path / "cache")
        base = SynthesisConfig(bound=4, model=x86t_elt())
        _, first_records = run_all_pairs(base, models=models, store=store)
        assert not any(r.cell_cache_hit for r in first_records)
        rerun, second_records = run_all_pairs(base, models=models, store=store)
        assert all(r.cell_cache_hit for r in second_records)
        for pair in matrix.pairs():
            assert rerun.cell(*pair).counts() == matrix.cell(*pair).counts()

    def test_pair_subset_run(self) -> None:
        models = catalog_models()
        pairs = [("x86t_elt", "x86t_amd_bug")]
        matrix, records = run_all_pairs(
            SynthesisConfig(bound=5, model=x86t_elt()),
            models=models,
            pairs=pairs,
        )
        assert matrix.pairs() == pairs
        assert matrix.cell("x86t_elt", "x86t_amd_bug").count == 1


class TestAxiomSubset:
    def test_subset_facts(self) -> None:
        assert axiom_subset(x86tso(), x86t_elt())
        assert axiom_subset(x86t_amd_bug(), x86t_elt())
        assert axiom_subset(sequential_consistency(), sc_t())
        assert not axiom_subset(x86t_elt(), x86tso())
        assert not axiom_subset(sequential_consistency(), x86tso())

    def test_catalog_pairs_order(self) -> None:
        models = catalog_models()
        pairs = catalog_pairs(models)
        assert len(pairs) == len(models) * (len(models) - 1)
        assert pairs[0][0] == list(models)[0]


class TestEmptyCell:
    def test_equivalent_cell_has_no_keys(self) -> None:
        cell = diff_models(
            DiffConfig(
                base=SynthesisConfig(bound=3, model=sequential_consistency()),
                subject=sequential_consistency(),
            )
        )
        assert cell.verdict is Refinement.EQUIVALENT
        assert cell.reference_only_keys == ()
        assert cell.subject_only_keys == ()
        assert isinstance(cell, ConformanceCell)
