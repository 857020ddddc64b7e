"""Engine determinism and stability guarantees.

Bounded-exhaustive synthesis must be a *function* of its configuration:
same config, same suite (the paper's completeness-up-to-bound framing
depends on it).  Canonical keys must likewise be stable across process
randomization (dict ordering, hash seeds) — these tests lock that in.
"""

from __future__ import annotations

from repro.litmus import serialize_elt
from repro.models import x86t_elt
from repro.synth import (
    SynthesisConfig,
    canonical_program_key,
    enumerate_programs,
    synthesize,
)


def run(axiom: str, bound: int):
    return synthesize(
        SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)
    )


class TestDeterminism:
    def test_same_config_same_suite(self) -> None:
        first = run("invlpg", 5)
        second = run("invlpg", 5)
        assert first.keys() == second.keys()
        assert [e.key for e in first.elts] == [e.key for e in second.elts]

    def test_stats_are_reproducible(self) -> None:
        first = run("tlb_causality", 4)
        second = run("tlb_causality", 4)
        assert (
            first.stats.programs_enumerated == second.stats.programs_enumerated
        )
        assert (
            first.stats.executions_enumerated
            == second.stats.executions_enumerated
        )
        assert first.stats.interesting == second.stats.interesting
        assert first.stats.minimal == second.stats.minimal

    def test_program_enumeration_order_is_stable(self) -> None:
        config = SynthesisConfig(bound=5, model=x86t_elt())
        first = [canonical_program_key(p) for p in enumerate_programs(config)]
        second = [canonical_program_key(p) for p in enumerate_programs(config)]
        assert first == second

    def test_serializations_are_stable(self) -> None:
        result = run("sc_per_loc", 4)
        texts_a = [serialize_elt(e.execution) for e in result.elts]
        texts_b = [
            serialize_elt(e.execution) for e in run("sc_per_loc", 4).elts
        ]
        assert texts_a == texts_b


class TestRepresentativeExecutions:
    def test_representative_violates_its_axioms(self) -> None:
        model = x86t_elt()
        result = run("invlpg", 5)
        for elt in result.elts:
            verdict = model.check(elt.execution)
            assert verdict.violated == elt.violated_axioms

    def test_outcome_counts_positive(self) -> None:
        for elt in run("sc_per_loc", 5).elts:
            assert elt.outcome_count >= 1

    def test_representative_program_matches_key(self) -> None:
        for elt in run("invlpg", 5).elts:
            assert canonical_program_key(elt.program) == elt.key


class TestSatWitnessBackend:
    """The SAT witness backend must be a drop-in for the explicit one:
    identical canonical suites (the representative execution per class may
    differ, since the backends enumerate witnesses in different orders),
    deterministic across runs, solver counters threaded into the stats."""

    def test_backends_produce_canonically_identical_suites(self) -> None:
        for bound in (4, 5):
            explicit = run("sc_per_loc", bound)
            via_sat = synthesize(
                SynthesisConfig(
                    bound=bound,
                    model=x86t_elt(),
                    target_axiom="sc_per_loc",
                    witness_backend="sat",
                )
            )
            assert explicit.keys() == via_sat.keys()
            assert [e.key for e in explicit.elts] == [
                e.key for e in via_sat.elts
            ]
            assert [e.outcome_count for e in explicit.elts] == [
                e.outcome_count for e in via_sat.elts
            ]

    def test_sat_backend_is_deterministic_and_counts_work(self) -> None:
        config = SynthesisConfig(
            bound=4,
            model=x86t_elt(),
            target_axiom="tlb_causality",
            witness_backend="sat",
        )
        first = synthesize(config)
        second = synthesize(config)
        assert first.keys() == second.keys()
        assert first.stats.sat_propagations > 0
        assert first.stats.sat_propagations == second.stats.sat_propagations
        assert first.stats.sat_decisions == second.stats.sat_decisions

    def test_rerun_translates_every_program_again(self) -> None:
        """No witness list outlives its program: a second run of the same
        config in the same process translates and solves every program
        again (one session each) and reports the first run's counters."""
        config = SynthesisConfig(
            bound=5,
            model=x86t_elt(),
            target_axiom="invlpg",
            witness_backend="sat",
            canonical_pruning=False,
        )
        first = synthesize(config)
        second = synthesize(config)
        assert first.keys() == second.keys()
        for stats in (first.stats, second.stats):
            # The ablated pass translates every program it enumerates,
            # isomorphic duplicates included.
            assert (
                stats.sat_sessions
                == stats.sat_translations
                == stats.programs_enumerated
            )
            assert stats.sat_translations_avoided == 0
        assert second.stats.sat_propagations == first.stats.sat_propagations
        assert second.stats.sat_decisions == first.stats.sat_decisions

    def test_explicit_backend_reports_no_sat_work(self) -> None:
        result = run("sc_per_loc", 4)
        assert result.stats.sat_propagations == 0
        assert result.stats.sat_decisions == 0

    def test_unknown_backend_rejected(self) -> None:
        import pytest

        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            SynthesisConfig(bound=4, model=x86t_elt(), witness_backend="z3")
