"""Model verdict tests: paper-figure oracles + textbook MCM litmus tests.

These are the strongest correctness anchors the paper provides — each
assertion cites where the paper states the expected verdict.
"""

from __future__ import annotations

import pytest

from repro.litmus.classics import ALL_CLASSICS, SC_VERDICTS, TSO_VERDICTS
from repro.litmus.figures import (
    fig2b_sb_elt,
    fig2c_sb_aliased,
    fig4b_remap_chain,
    fig5a_shared_walk,
    fig5b_invlpg_forces_rewalk,
    fig6d_remap_disambiguation,
    fig8_non_minimal_mp,
    fig10a_ptwalk2,
    fig10b_dirtybit3,
    fig11_stale_mapping_after_ipi,
)
from repro.models import (
    MemoryModel,
    sequential_consistency,
    x86t_amd_bug,
    x86t_elt,
    x86tso,
)


@pytest.fixture(scope="module")
def mtm() -> MemoryModel:
    return x86t_elt()


@pytest.fixture(scope="module")
def tso() -> MemoryModel:
    return x86tso()


class TestModelCatalog:
    def test_x86t_elt_has_five_axioms(self, mtm: MemoryModel) -> None:
        assert mtm.axiom_names == (
            "sc_per_loc",
            "rmw_atomicity",
            "causality",
            "invlpg",
            "tlb_causality",
        )

    def test_transistency_extends_consistency(
        self, mtm: MemoryModel, tso: MemoryModel
    ) -> None:
        # §V-A: the transistency predicate includes the consistency axioms.
        assert set(tso.axiom_names) <= set(mtm.axiom_names)

    def test_tlb_causality_is_diagnostic(self, mtm: MemoryModel) -> None:
        assert mtm.axiom("tlb_causality").diagnostic
        assert not mtm.axiom("invlpg").diagnostic

    def test_amd_bug_variant_drops_invlpg(self) -> None:
        assert "invlpg" not in x86t_amd_bug().axiom_names

    def test_formulas_compile(self, mtm: MemoryModel) -> None:
        formula = mtm.formula()
        assert formula is not None


class TestPaperFigureVerdicts:
    def test_fig2b_permitted(self, mtm: MemoryModel) -> None:
        # Fig 2b caption: "the outcome remains permitted".
        assert mtm.permits(fig2b_sb_elt().execution)

    def test_fig2c_forbidden_by_coherence(self, mtm: MemoryModel) -> None:
        # §II-B1: the aliasing remap yields "an illegal coherence violation"
        verdict = mtm.check(fig2c_sb_aliased().execution)
        assert verdict.forbidden
        assert "sc_per_loc" in verdict.violated

    def test_fig3_and_fig5_singletons_permitted(self, mtm: MemoryModel) -> None:
        for example in (fig5a_shared_walk(), fig5b_invlpg_forces_rewalk()):
            assert mtm.permits(example.execution), example.name

    def test_fig4b_permitted(self, mtm: MemoryModel) -> None:
        assert mtm.permits(fig4b_remap_chain().execution)

    def test_fig6d_permitted(self, mtm: MemoryModel) -> None:
        # §III-D: a "possible candidate execution" (legal under x86t_elt).
        assert mtm.permits(fig6d_remap_disambiguation().execution)

    def test_fig8_forbidden_via_causality(self, mtm: MemoryModel) -> None:
        # Fig 8 caption: violates x86-TSO axioms (mp cycle).
        verdict = mtm.check(fig8_non_minimal_mp().execution)
        assert verdict.forbidden
        assert "causality" in verdict.violated

    def test_fig10a_violates_sc_per_loc_and_invlpg(self, mtm: MemoryModel) -> None:
        # §VI-C: "The outcome shown violates both sc_per_loc and invlpg".
        verdict = mtm.check(fig10a_ptwalk2().execution)
        assert verdict.forbidden
        assert "sc_per_loc" in verdict.violated
        assert "invlpg" in verdict.violated

    def test_fig10b_permitted(self, mtm: MemoryModel) -> None:
        # Fig 10b caption: "the permitted dirtybit3 ELT".
        assert mtm.permits(fig10b_dirtybit3().execution)

    def test_fig11_violates_only_invlpg(self, mtm: MemoryModel) -> None:
        # §VI-C: forbidden via a cycle in remap + fr_va + ^po.
        verdict = mtm.check(fig11_stale_mapping_after_ipi().execution)
        assert verdict.violated == ("invlpg",)

    def test_fig11_exposes_amd_invlpg_bug(self) -> None:
        # The buggy variant (INVLPG does not invalidate) permits the stale
        # read -- Fig 11's ELT distinguishes correct x86 from the erratum.
        example = fig11_stale_mapping_after_ipi()
        assert x86t_elt().forbids(example.execution)
        assert x86t_amd_bug().permits(example.execution)


class TestClassicMcmVerdicts:
    @pytest.mark.parametrize("name", sorted(ALL_CLASSICS))
    def test_tso_verdicts(self, name: str, tso: MemoryModel) -> None:
        example = ALL_CLASSICS[name]()
        assert tso.permits(example.execution) == TSO_VERDICTS[name], name

    @pytest.mark.parametrize("name", sorted(ALL_CLASSICS))
    def test_sc_verdicts(self, name: str) -> None:
        example = ALL_CLASSICS[name]()
        sc = sequential_consistency()
        assert sc.permits(example.execution) == SC_VERDICTS[name], name

    def test_sc_is_stronger_than_tso_here(self, tso: MemoryModel) -> None:
        sc = sequential_consistency()
        for name, make in ALL_CLASSICS.items():
            execution = make().execution
            if sc.permits(execution):
                assert tso.permits(execution), name


class TestSymbolicAgreement:
    """The SAT-compiled predicate must agree with concrete evaluation."""

    @pytest.mark.parametrize(
        "make",
        [
            fig2b_sb_elt,
            fig2c_sb_aliased,
            fig10a_ptwalk2,
            fig10b_dirtybit3,
            fig11_stale_mapping_after_ipi,
        ],
    )
    def test_figures_agree(self, make, mtm: MemoryModel) -> None:
        execution = make().execution
        assert mtm.check_symbolic(execution) == mtm.permits(execution)

    @pytest.mark.parametrize("name", ["sb", "mp", "co_rr", "rmw_intervene"])
    def test_classics_agree(self, name: str, tso: MemoryModel) -> None:
        execution = ALL_CLASSICS[name]().execution
        assert tso.check_symbolic(execution) == tso.permits(execution)


class TestVerdictApi:
    def test_verdict_str(self, mtm: MemoryModel) -> None:
        verdict = mtm.check(fig11_stale_mapping_after_ipi().execution)
        assert "forbidden" in str(verdict)
        assert "invlpg" in str(verdict)

    def test_extended_and_without(self, tso: MemoryModel) -> None:
        from repro.models import INVLPG

        bigger = tso.extended("tso_plus", [INVLPG])
        assert "invlpg" in bigger.axiom_names
        smaller = bigger.without("tso_again", ["invlpg"])
        assert smaller.axiom_names == tso.axiom_names

    def test_without_unknown_axiom_raises(self, tso: MemoryModel) -> None:
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            tso.without("bad", ["nonexistent"])

    def test_permits_stops_at_the_first_violated_axiom(self) -> None:
        from repro.models import Axiom

        evaluated = []

        def spy(voc) -> bool:
            evaluated.append(True)
            return True

        execution = fig11_stale_mapping_after_ipi().execution
        model = MemoryModel(
            "fails_first",
            [Axiom("never", lambda voc: False), Axiom("spy", spy)],
        )
        assert not model.permits(execution)
        assert evaluated == []
        # check() still evaluates every axiom, for reporting.
        assert model.check(execution).violated == ("never",)
        assert evaluated == [True]

    def test_permits_agrees_with_check_on_every_bound5_execution(self) -> None:
        """Every verdict path agrees, and every compiled axiom verdict
        equals its predicate called on the concrete vocabulary (the
        reference), on each execution and on each restricted view its
        relaxations produce.  A predicate that does not compile takes
        the fallback and gives the reference verdict too."""
        from repro.models import Axiom, Evaluation, catalog_models
        from repro.models.plan import plan_of
        from repro.mtm import Vocabulary
        from repro.synth import (
            SynthesisConfig,
            enumerate_programs,
            enumerate_witnesses,
        )
        from repro.synth.relax import relaxations

        predicate_calls = []

        def co_one_chain(v) -> bool:
            # TupleSet.is_total_order_on has no symbolic counterpart.
            predicate_calls.append(True)
            return v.co.is_total_order_on({a for pair in v.co for a in pair})

        assert plan_of(co_one_chain) is None
        predicate_calls.clear()
        uncompiled = Axiom("co_one_chain", co_one_chain)
        models = list(catalog_models().values())
        models.append(MemoryModel("with_fallback", [uncompiled]))
        axioms = {(a.name, a.predicate): a for m in models for a in m.axioms}
        assert all(
            plan_of(a.predicate) is not None
            for a in axioms.values()
            if a is not uncompiled
        )
        count = views = 0
        verdicts = set()
        for program in enumerate_programs(SynthesisConfig(bound=5)):
            for execution in enumerate_witnesses(program):
                count += 1
                for model in models:
                    assert model.permits(execution) == (
                        model.check(execution).permitted
                    ), (model.name, execution)
                restricted = [
                    execution.restricted(removed, dropped)
                    for removed, dropped in relaxations(program)
                    if len(removed) < len(program.events)
                ]
                for view in [execution] + restricted:
                    views += 1
                    reference = Vocabulary(view.relations)
                    evaluation = Evaluation(view)
                    for axiom in axioms.values():
                        compiled = axiom.holds(view, evaluation)
                        assert compiled == axiom.predicate(reference), (
                            axiom.name,
                            execution,
                        )
                        verdicts.add((axiom.name, compiled))
        assert count > 50
        # One predicate call per permits() and check() of the fallback
        # model, and per holds() and reference call on each view.
        assert len(predicate_calls) == 2 * count + 2 * views
        assert ("co_one_chain", True) in verdicts
        assert ("co_one_chain", False) in verdicts
