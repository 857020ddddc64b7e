"""End-to-end tests of the synthesis engine (paper Fig 7 pipeline).

Golden counts at small bounds serve as regressions; structural invariants
(§IV-B criteria) are asserted over every synthesized ELT.
"""

from __future__ import annotations

import pytest

from repro.conformance import run_all_pairs
from repro.litmus.figures import fig10a_ptwalk2, fig11_stale_mapping_after_ipi
from repro.models import x86t_elt, x86tso
from repro.mtm import EventKind
from repro.synth import (
    SynthesisConfig,
    canonical_program_key,
    is_minimal,
    synthesize,
    synthesize_sweep,
)
from repro.synth import engine
from repro.synth.relax import model_fingerprint


def run(axiom: str, bound: int, **overrides):
    config = SynthesisConfig(
        bound=bound, model=x86t_elt(), target_axiom=axiom, **overrides
    )
    return synthesize(config)


@pytest.fixture(scope="module")
def invlpg4():
    return run("invlpg", 4)


@pytest.fixture(scope="module")
def invlpg5():
    return run("invlpg", 5)


@pytest.fixture(scope="module")
def scperloc4():
    return run("sc_per_loc", 4)


class TestGoldenCounts:
    """Regression pins for per-axiom suite sizes at small bounds."""

    def test_invlpg_bound4_is_exactly_ptwalk2(self, invlpg4) -> None:
        # §VI-C / Fig 10a: ptwalk2 (4 instructions) is the only bound-4
        # member of the invlpg suite and is synthesized verbatim.
        assert invlpg4.count == 1
        synthesized = invlpg4.elts[0]
        expected = canonical_program_key(fig10a_ptwalk2().execution.program)
        assert synthesized.key == expected

    def test_invlpg_bound5_contains_fig11(self, invlpg5) -> None:
        # Fig 11 (5 instructions) is a new TransForm-synthesized ELT.
        expected = canonical_program_key(
            fig11_stale_mapping_after_ipi().execution.program
        )
        assert expected in invlpg5.keys()

    def test_sc_per_loc_bound4(self, scperloc4) -> None:
        assert scperloc4.count == 5

    def test_tlb_causality_bound4(self) -> None:
        assert run("tlb_causality", 4).count == 2

    def test_rmw_atomicity_minimum_bound_is_seven(self) -> None:
        # §VI: per-axiom minimum bounds lie between 4 and 7; the RMW
        # intervening-write test needs RMW(4) + remote W(3) = 7 events.
        assert run("rmw_atomicity", 6).count == 0
        result = run("rmw_atomicity", 7)
        assert result.count == 1
        program = result.elts[0].program
        assert len(program.rmw) == 1

    def test_causality_bound4(self) -> None:
        result = run("causality", 4)
        # The PTE-level coWW (two remaps of one VA, co inverted) is the
        # earliest causality violation expressible with ghosts counted.
        assert result.count >= 1

    def test_suites_grow_monotonically_with_bound(self, invlpg4, invlpg5) -> None:
        assert invlpg4.keys() <= invlpg5.keys()


class TestSynthesizedInvariants:
    """§IV-B spanning-set criteria hold for every output."""

    @pytest.fixture(scope="class")
    def suite(self):
        return run("sc_per_loc", 5)

    def test_every_elt_violates_target(self, suite) -> None:
        model = x86t_elt()
        for elt in suite.elts:
            assert "sc_per_loc" in elt.violated_axioms
            assert not model.axiom("sc_per_loc").holds(elt.execution)

    def test_every_elt_has_a_write(self, suite) -> None:
        for elt in suite.elts:
            assert any(
                e.is_write_like for e in elt.program.events.values()
            )

    def test_every_elt_is_minimal(self, suite) -> None:
        model = x86t_elt()
        for elt in suite.elts:
            assert is_minimal(elt.execution, model)

    def test_keys_are_unique(self, suite) -> None:
        keys = [elt.key for elt in suite.elts]
        assert len(keys) == len(set(keys))

    def test_bound_respected(self, suite) -> None:
        for elt in suite.elts:
            assert elt.program.size <= 5


class TestMcmBaseline:
    """User-level synthesis baseline (§VI-A's reference to [30])."""

    def test_mcm_sc_per_loc_counts(self) -> None:
        counts = {}
        for bound in (2, 3, 4):
            config = SynthesisConfig(
                bound=bound,
                model=x86tso(),
                target_axiom="sc_per_loc",
                mcm_mode=True,
            )
            counts[bound] = synthesize(config).count
        # coWW/coWR/coRW1 at two instructions; coRR and coRW2 join at
        # three; the suite then saturates (paper cites saturation for [30]).
        assert counts == {2: 3, 3: 5, 4: 5}

    def test_mcm_programs_have_no_vm_events(self) -> None:
        config = SynthesisConfig(
            bound=3, model=x86tso(), target_axiom="sc_per_loc", mcm_mode=True
        )
        for elt in synthesize(config).elts:
            kinds = {e.kind for e in elt.program.events.values()}
            assert EventKind.PT_WALK not in kinds
            assert EventKind.PTE_WRITE not in kinds


class TestSweep:
    def test_sweep_collects_per_axiom_series(self) -> None:
        base = SynthesisConfig(bound=5, model=x86t_elt())
        sweep = synthesize_sweep(
            base,
            axioms=["invlpg", "tlb_causality"],
            min_bound=4,
            max_bound=5,
        )
        counts = sweep.counts()
        assert counts["invlpg"][4] == 1
        assert counts["invlpg"][5] >= 1
        assert set(counts) == {"invlpg", "tlb_causality"}

    def test_unique_union_deduplicates_across_suites(self) -> None:
        base = SynthesisConfig(bound=4, model=x86t_elt())
        sweep = synthesize_sweep(
            base,
            axioms=["sc_per_loc", "invlpg"],
            min_bound=4,
            max_bound=4,
        )
        total = sum(p.result.count for p in sweep.points)
        unique = len(sweep.unique_elts())
        # ptwalk2 violates both axioms, so the union is strictly smaller.
        assert unique < total

    def test_time_budget_aborts_cleanly(self) -> None:
        config = SynthesisConfig(
            bound=9,
            model=x86t_elt(),
            target_axiom="sc_per_loc",
            time_budget_s=0.2,
        )
        result = synthesize(config)
        assert result.stats.timed_out
        assert result.stats.runtime_s < 10.0


class TestProgramLoopContract:
    """What ``run_queries`` computes per witness: one §IV-B verdict per
    judging model, and a canonical key only for a minimal candidate."""

    def test_only_minimal_candidates_are_keyed(self, monkeypatch) -> None:
        verdicts: list = []
        keyed: list = []
        real_minimal = engine._uncached_is_minimal
        real_via = engine.execution_key_via
        real_key = engine.canonical_execution_key

        def minimal_spy(execution, model, evaluation=None):
            verdict = real_minimal(execution, model, evaluation)
            verdicts.append((execution, verdict))
            return verdict

        def via_spy(sym, execution):
            keyed.append(execution)
            return real_via(sym, execution)

        def key_spy(execution):
            keyed.append(execution)
            return real_key(execution)

        monkeypatch.setattr(engine, "_uncached_is_minimal", minimal_spy)
        monkeypatch.setattr(engine, "execution_key_via", via_spy)
        monkeypatch.setattr(engine, "canonical_execution_key", key_spy)
        result = synthesize(SynthesisConfig(bound=6))
        minimal = [execution for execution, verdict in verdicts if verdict]
        assert result.elts and len(minimal) < len(verdicts)
        assert [id(e) for e in keyed] == [id(e) for e in minimal]

    def test_fused_pairs_share_one_verdict_per_witness_and_model(
        self, monkeypatch
    ) -> None:
        checks: list = []
        real_minimal = engine._uncached_is_minimal

        def minimal_spy(execution, model, evaluation=None):
            checks.append((execution, model_fingerprint(model)))
            return real_minimal(execution, model, evaluation)

        monkeypatch.setattr(engine, "_uncached_is_minimal", minimal_spy)
        run_all_pairs(SynthesisConfig(bound=5))
        assert len({(id(e), model) for e, model in checks}) == len(checks)
        # Pinned: 58 candidates over the 20 pairs, 4 of them answered by
        # the verdict a pair with the same reference already decided.
        assert len(checks) == 54


class TestConfigValidation:
    def test_unknown_axiom_rejected(self) -> None:
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            SynthesisConfig(bound=4, model=x86t_elt(), target_axiom="nope")

    def test_nonpositive_bound_rejected(self) -> None:
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            SynthesisConfig(bound=0, model=x86t_elt())

    def test_mcm_mode_disables_vm_features(self) -> None:
        config = SynthesisConfig(bound=4, model=x86tso(), mcm_mode=True)
        assert not config.enable_pte_writes
        assert not config.enable_spurious_invlpg
