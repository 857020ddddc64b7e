"""The compiled axiom plan (``repro.models.plan``).

Every formula kind the compiler handles must give the verdict of the
predicate called on the concrete vocabulary (the reference path);
constructs it does not handle must take that path; structurally equal
subterms must be one node; program-only subterms must be computed once
per program; and a program's memos must not outlive its pass.
"""

from __future__ import annotations

import pytest

from repro.errors import ArityError, SynthesisError
from repro.models import (
    Axiom,
    Evaluation,
    MemoryModel,
    PairClassifier,
    catalog_models,
    x86t_elt,
)
from repro.models import axioms as library
from repro.models import plan
from repro.models.plan import plan_of
from repro.mtm import Vocabulary, program_memo
from repro.relational import TupleSet
from repro.relational.ast import acyclic, forall, irreflexive, no, some, subset
from repro.synth import (
    SynthesisConfig,
    enumerate_programs,
    enumerate_witnesses,
    synthesize,
)

#: Predicates over every formula and expression kind the compiler handles.
COMPILED = {
    "acyclic": lambda v: acyclic(v.co + v.fr + v.po_loc),
    "acyclic_static": lambda v: acyclic(v.po + v.remap + v.rf_ptw.t()),
    "irreflexive": lambda v: irreflexive(v.co.dot(v.co.t())),
    "no": lambda v: no(v.fr - v.fr_va),
    "disjoint": lambda v: no(v.rf & v.po),
    "some": lambda v: some(v.rfe),
    "subset": lambda v: subset(v.rf, v.rfe),
    "transpose": lambda v: subset(v.fr.t().dot(v.fr), v.sloc),
    "closure": lambda v: subset(v.rf.dot(v.fr).plus(), v.co.t().plus()),
    "product": lambda v: subset(
        v.co, v.write_like.product(v.write_like) - v.po
    ),
    "literal": lambda v: acyclic(
        v.com + TupleSet.pairs([("e0", "e1"), ("e1", "e0")])
    ),
    "static_join": lambda v: no(v.ghost.dot(v.ghost)),
}

#: Kinds over program relations or constants: one verdict is enough.
ONE_VERDICT = {"acyclic_static", "literal", "static_join"}

#: Predicates the compiler does not handle: evaluated as written.
UNCOMPILED = {
    "raises": lambda v: v.co.is_total_order_on(()),
    "quantifier": lambda v: forall("x", v.read, lambda x: some(x.dot(v.fr))),
    "star": lambda v: no(v.co.star(()) - v.co),
    "unknown_relation": lambda v: no(v.missing_relation),
    "connective": lambda v: no(v.rf).or_(no(v.co)),
}


def _executions(bound: int = 5):
    for program in enumerate_programs(SynthesisConfig(bound=bound)):
        yield from enumerate_witnesses(program)


def _reference(predicate, execution):
    return predicate(Vocabulary(execution.relations))


@pytest.mark.parametrize("name", sorted(COMPILED))
def test_compiled_kinds_match_the_reference(name: str) -> None:
    predicate = COMPILED[name]
    assert plan_of(predicate) is not None
    axiom = Axiom(name, predicate)
    verdicts = set()
    for execution in _executions():
        verdict = axiom.holds(execution)
        assert verdict == _reference(predicate, execution), execution
        verdicts.add(verdict)
    if name not in ONE_VERDICT:
        assert verdicts == {True, False}, "the check must see both verdicts"


@pytest.mark.parametrize("name", sorted(UNCOMPILED))
def test_uncompiled_predicates_take_the_reference_path(name: str) -> None:
    predicate = UNCOMPILED[name]
    assert plan_of(predicate) is None
    axiom = Axiom(name, predicate)
    for execution in list(_executions(4)):
        try:
            expected = _reference(predicate, execution)
        except Exception as exc:  # the reference's own failure
            with pytest.raises(type(exc)):
                axiom.holds(execution)
            continue
        if isinstance(expected, bool):
            assert axiom.holds(execution) == expected
        else:
            with pytest.raises(SynthesisError, match="did not evaluate"):
                axiom.holds(execution)


def test_non_boolean_and_ill_typed_predicates_still_raise() -> None:
    execution = next(_executions())
    with pytest.raises(SynthesisError, match="did not evaluate concretely"):
        Axiom("relation", lambda v: v.rf).holds(execution)
    ill_typed = lambda v: no(v.rf & v.read)  # noqa: E731
    assert plan_of(ill_typed) is None
    with pytest.raises(ArityError):
        Axiom("ill_typed", ill_typed).holds(execution)


def test_constant_predicates_compile_to_their_value() -> None:
    calls = []

    def constant(v) -> bool:
        calls.append(v)
        return False

    execution = next(_executions())
    axiom = Axiom("constant", constant)
    assert not axiom.holds(execution)
    assert not axiom.holds(execution)
    assert len(calls) == 1  # the symbolic call, at compile time


def test_equal_subterms_are_one_node() -> None:
    reordered = lambda v: acyclic(v.po_loc + v.fr + (v.co + v.rf))  # noqa: E731
    assert plan_of(reordered) is plan_of(library.sc_per_loc)
    causality = plan_of(library.causality)
    static = [part for part in causality.parts if part.static]
    assert len(static) == 1, "ppo and fence fold into one static node"
    assert static[0].parts == tuple(
        sorted(static[0].parts, key=lambda node: node.id)
    )


def test_program_subterms_are_computed_once_per_program() -> None:
    causality = plan_of(library.causality)
    (fold,) = [part for part in causality.parts if part.static]
    for program in enumerate_programs(SynthesisConfig(bound=6)):
        executions = list(enumerate_witnesses(program))
        if len(executions) < 2:
            continue
        values = {id(fold.value(Evaluation(e))) for e in executions}
        assert len(values) == 1
        assert fold.id in program_memo(program).static
        # A restricted view has its own static memo per relaxation.
        removed = frozenset({program.threads[0][0]})
        first = executions[0].restricted(removed)
        second = executions[1].restricted(removed)
        assert first.static_memo() is second.static_memo()
        assert first.static_memo() is not program_memo(program).static
        return
    pytest.fail("no bound-6 program has two witnesses")


def test_one_evaluation_serves_every_consumer(monkeypatch) -> None:
    """The verdict pair, then the reference's violated axioms (the fuzz
    oracle's sequence), search each acyclicity axiom at most once."""
    searches = []
    search = plan.find_cycle_union

    def counted(relations):
        searches.append(relations)
        return search(relations)

    monkeypatch.setattr(plan, "find_cycle_union", counted)
    reference = x86t_elt()
    subject = reference.without("no_invlpg", ["invlpg"])
    classifier = PairClassifier(reference, subject)
    acyclicity_axioms = 4  # sc_per_loc, causality, invlpg, tlb_causality
    forbidden = 0
    for execution in _executions():
        searches.clear()
        evaluation = Evaluation(execution)
        pair = classifier.verdicts(execution, evaluation)
        verdict = reference.check(execution, evaluation)
        assert len(searches) <= acyclicity_axioms
        assert pair == (verdict.permitted, subject.permits(execution))
        evaluator = classifier.evaluator(execution)
        assert (evaluator(0), evaluator(1)) == pair
        forbidden += not pair[0]
    assert forbidden > 10


#: Catalog axioms whose violations survive restriction: their plan
#: yields the atoms of one violation (``Axiom.violation``).
YIELDS_ATOMS = {"sc_per_loc", "invlpg", "tlb_causality", "sc_order"}


def test_catalog_axioms_that_yield_violation_atoms() -> None:
    axioms = {
        axiom.name: axiom
        for model in catalog_models().values()
        for axiom in model.axioms
    }
    # causality's fence_order is a join, rmw_atomicity's fr.co too.
    assert set(axioms) - YIELDS_ATOMS == {"causality", "rmw_atomicity"}
    pointwise = {name for name, a in axioms.items() if plan_of(a.predicate).pointwise}
    assert pointwise == YIELDS_ATOMS
    violated = set()
    for execution in _executions(6):
        evaluation = Evaluation(execution)
        for name, axiom in axioms.items():
            atoms = axiom.violation(execution, evaluation)
            if axiom.holds(execution, evaluation) or name not in YIELDS_ATOMS:
                assert atoms is None, name
            else:
                assert atoms and atoms <= execution.program.events.keys(), name
                violated.add(name)
    assert violated == YIELDS_ATOMS


@pytest.mark.parametrize(
    "predicate, monotone, pointwise",
    [
        (lambda v: v.co + v.fr, True, True),
        (lambda v: v.co & v.po.t(), True, True),
        (lambda v: v.read.product(v.write), True, True),
        (lambda v: v.co.dot(v.fr), True, False),
        (lambda v: v.co.plus(), True, False),
        (lambda v: v.fr - v.fr.dot(v.co), False, True),
        (lambda v: v.fr - (v.co - v.po), False, False),
        (lambda v: (v.fr - v.co) + v.rf, False, True),
        (lambda v: (v.fr - v.co).dot(v.rf), False, False),
    ],
)
def test_restriction_flags(predicate, monotone, pointwise) -> None:
    expression = plan_of(lambda v: some(predicate(v))).arg
    assert (expression.monotone, expression.pointwise) == (monotone, pointwise)
    # ``no x`` (a disjointness test for an intersection) yields atoms
    # exactly when x is pointwise; ``some x`` never does.
    assert plan_of(lambda v: no(predicate(v))).pointwise == pointwise
    assert not plan_of(lambda v: some(predicate(v))).pointwise


def test_program_loop_releases_memos() -> None:
    result = synthesize(SynthesisConfig(bound=5))
    assert result.elts
    for elt in result.elts:
        assert "_memo" not in elt.program.__dict__


def test_fallback_model_in_a_table() -> None:
    predicate = UNCOMPILED["raises"]
    fallback = MemoryModel("fallback", [Axiom("raises", predicate)])
    classifier = PairClassifier(x86t_elt(), fallback)
    assert classifier.distinct_axiom_count == 6
    for execution in _executions():
        assert classifier.verdicts(execution) == (
            x86t_elt().permits(execution),
            _reference(predicate, execution),
        )
