"""Deciding §IV-B minimality from the parent's violation.

:func:`repro.synth.relax.is_minimal` decides a relaxation that keeps
every rf source and removes no atom of the parent's recorded violation
without building it (the corollary in :mod:`repro.synth.relax`), then
decides restricted views, then rebuilds.  The tests here hold it to the
plain conjunction over :func:`~repro.synth.relax.relaxations` in
declared order, and hold the certificates to the predicate called on a
restricted view's concrete vocabulary — the fallback path, which shares
nothing with the plan's restriction flags.
"""

from __future__ import annotations

from pathlib import Path
from unittest import mock

from hypothesis import given, settings

from repro.litmus.suitefile import EltSuite
from repro.models import Axiom, Evaluation, catalog_models, sequential_consistency
from repro.models.plan import plan_of
from repro.mtm import Execution, ProgramBuilder, Vocabulary
from repro.relational.ast import irreflexive, no
from repro.synth import SynthesisConfig, enumerate_programs, enumerate_witnesses
from repro.synth import relax
from repro.synth.relax import (
    is_minimal,
    keeps_value_flow,
    relaxation_becomes_permitted,
    relaxations,
    removal_groups,
)

from .strategies import executions

MODELS = tuple(catalog_models().values())

#: Every catalog axiom, once by name.
AXIOMS = tuple({a.name: a for model in MODELS for a in model.axioms}.values())

#: Pointwise formulas of the kinds no catalog axiom uses: an offending
#: tuple of ``no x``, ``no (a & b)`` and ``irreflexive x``.
TUPLE_AXIOMS = (
    Axiom("no_difference", lambda v: no(v.fr - v.fr_va)),
    Axiom("disjoint", lambda v: no(v.rf & v.po)),
    Axiom("irreflexive_product", lambda v: irreflexive(v.read.product(v.read))),
)

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def conjunction(execution: Execution, model) -> bool:
    """The reference: every relaxation, in declared order, decided by
    :func:`relaxation_becomes_permitted`."""
    return all(
        relaxation_becomes_permitted(execution, model, group, dropped)
        for group, dropped in relaxations(execution.program)
    )


def check_minimality(execution: Execution) -> int:
    """``is_minimal`` equals the conjunction under every catalog model
    that forbids ``execution``: without an evaluation, with one the
    classification read, and with a fresh one.  Returns how many
    (execution, model) pairs were forbidden."""
    forbidden = 0
    for model in MODELS:
        classified = Evaluation(execution)
        if model.permits(execution, classified):
            continue
        forbidden += 1
        expected = conjunction(execution, model)
        assert is_minimal(execution, model) == expected, (model.name, execution)
        assert is_minimal(execution, model, classified) == expected
        assert is_minimal(execution, model, Evaluation(execution)) == expected
    return forbidden


def enumerated(config: SynthesisConfig):
    for program in enumerate_programs(config):
        yield from enumerate_witnesses(program)


def test_minimality_equals_the_conjunction_at_bound_6() -> None:
    forbidden = sum(map(check_minimality, enumerated(SynthesisConfig(bound=6))))
    assert forbidden == 1755


def test_minimality_equals_the_conjunction_in_mcm_mode() -> None:
    config = SynthesisConfig(bound=3, mcm_mode=True, max_threads=3)
    assert sum(map(check_minimality, enumerated(config))) == 510


def test_minimality_equals_the_conjunction_on_the_corpus() -> None:
    paths = sorted(CORPUS_DIR.glob("*.elts"))
    assert paths
    forbidden = sum(
        check_minimality(entry.execution)
        for path in paths
        for entry in EltSuite.load(path)
    )
    assert forbidden > 0


@given(executions(max_events=8))
@settings(max_examples=60, deadline=None)
def test_minimality_equals_the_conjunction_on_random_executions(execution) -> None:
    check_minimality(execution)


@given(executions(max_events=6, mcm=True, max_threads=3))
@settings(max_examples=60, deadline=None)
def test_minimality_equals_the_conjunction_on_random_mcm_executions(
    execution,
) -> None:
    check_minimality(execution)


def test_a_removal_that_changes_value_flow_is_not_decided_by_the_violation() -> None:
    """``R v0`` reads ``W v1`` only because a remap moved v0 onto v1's PA.
    The remap's group holds no atom of the SC cycle ``R -> W -> R``, but
    it feeds R's walk: without it R reads its initial PA, the cycle is
    gone and the relaxation becomes permitted.  The execution is
    minimal; no execution at bound 6 has this shape, so the enumerated
    checks above do not cover it."""
    builder = ProgramBuilder()
    builder.map("v0", "pa0").map("v1", "pa1")
    thread = builder.thread()
    read = thread.read("v0")
    write = thread.write("v1")
    remap = thread.pte_write("v0", "pa1")
    program = builder.build()
    execution = Execution(
        program,
        rf=[(write.eid, read.eid), (remap.eid, builder.walk_of(read).eid)],
    )
    model = sequential_consistency()
    atoms = model.axiom("sc_order").violation(execution)
    assert atoms == {read.eid, write.eid}
    (group,) = [g for g in removal_groups(program) if remap.eid in g]
    assert group.isdisjoint(atoms) and not keeps_value_flow(execution, group)
    assert relaxation_becomes_permitted(execution, model, group)
    assert is_minimal(execution, model) is conjunction(execution, model) is True


def check_certificates(execution: Execution, axioms) -> int:
    """Every value-flow-preserving group removal disjoint from a violated
    axiom's atoms leaves the axiom violated, judged by its predicate on
    the restricted view's concrete vocabulary.  Returns how many
    removals were checked."""
    checked = 0
    evaluation = Evaluation(execution)
    for axiom in axioms:
        atoms = axiom.violation(execution, evaluation)
        if axiom.holds(execution, evaluation):
            assert atoms is None, axiom.name
            continue
        if atoms is None:
            continue
        assert atoms and atoms <= execution.program.events.keys()
        for group in removal_groups(execution.program):
            if group.isdisjoint(atoms) and keeps_value_flow(execution, group):
                view = execution.restricted(group)
                assert axiom.predicate(Vocabulary(view.relations)) is False, (
                    axiom.name,
                    sorted(group),
                )
                checked += 1
    return checked


def test_certificates_survive_every_disjoint_restriction_at_bound_6() -> None:
    checked = sum(
        check_certificates(execution, AXIOMS + TUPLE_AXIOMS)
        for execution in enumerated(SynthesisConfig(bound=6))
    )
    assert checked > 1000


def test_tuple_kinds_yield_atoms() -> None:
    yielded = set()
    for execution in enumerated(SynthesisConfig(bound=5)):
        for axiom in TUPLE_AXIOMS:
            assert plan_of(axiom.predicate).pointwise, axiom.name
            if axiom.violation(execution) is not None:
                yielded.add(axiom.name)
    assert yielded == {axiom.name for axiom in TUPLE_AXIOMS}


def test_views_before_rebuilds_and_no_view_when_the_violation_decides() -> None:
    """Rebuilds run only after every restricted view, and a check the
    violation decides builds nothing."""
    calls: list = []
    restricted = Execution.restricted
    rebuild = relax.relaxed_completions

    def spy_view(self, *args):
        calls.append("view")
        return restricted(self, *args)

    def spy_rebuild(*args):
        calls.append("rebuild")
        return rebuild(*args)

    decided = 0
    model = MODELS[2]  # x86t_elt
    with mock.patch.object(Execution, "restricted", spy_view), mock.patch.object(
        relax, "relaxed_completions", spy_rebuild
    ):
        for execution in enumerated(SynthesisConfig(bound=6)):
            evaluation = Evaluation(execution)
            if model.permits(execution, evaluation):
                continue
            calls.clear()
            is_minimal(execution, model, evaluation)
            if not calls:
                decided += 1
            if "rebuild" in calls:
                first = calls.index("rebuild")
                assert "view" not in calls[first:], calls
    assert decided > 100
