"""Property-based cross-validation of the relational stack.

Two oracles are compared exhaustively on a 2-atom universe:

* the SAT-backed model finder (``Problem.iter_instances``), and
* brute-force enumeration of every relation assignment checked with the
  reference evaluator (``eval_formula``).

Any disagreement in the *set* of satisfying instances indicates a bug in the
translator, the circuit builder, Tseitin conversion, or the CDCL solver.
Also checks algebraic laws of TupleSet against random relations.
"""

from __future__ import annotations

from itertools import chain, combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational import (
    Iden,
    Problem,
    Rel,
    TupleSet,
    Univ,
    acyclic,
    eval_formula,
    exists,
    forall,
    no,
    some,
    subset,
)
from repro.relational.ast import Formula
from repro.relational.instance import Instance
from repro.relational.tuples import find_cycle_union, is_acyclic_union

ATOMS = ("a0", "a1")
R_TUPLES = tuple((x, y) for x in ATOMS for y in ATOMS)
S_TUPLES = tuple((x,) for x in ATOMS)
R = Rel("r", 2)
S = Rel("s", 1)


def _powerset(items):
    return chain.from_iterable(combinations(items, n) for n in range(len(items) + 1))


def brute_force_instances(formula: Formula) -> set[frozenset]:
    found = set()
    for r_subset in _powerset(R_TUPLES):
        for s_subset in _powerset(S_TUPLES):
            instance = Instance(
                ATOMS,
                {"r": TupleSet(2, r_subset), "s": TupleSet(1, s_subset)},
            )
            if eval_formula(formula, instance):
                key = frozenset(
                    [("r", frozenset(r_subset)), ("s", frozenset(s_subset))]
                )
                found.add(key)
    return found


def solver_instances(formula: Formula) -> set[frozenset]:
    problem = Problem(ATOMS)
    problem.declare("r", 2)
    problem.declare("s", 1)
    problem.constrain(formula)
    found = set()
    for instance in problem.iter_instances():
        key = frozenset(
            [
                ("r", frozenset(instance.relation("r").tuples)),
                ("s", frozenset(instance.relation("s").tuples)),
            ]
        )
        found.add(key)
    return found


# ----------------------------------------------------------------------
# Random formula generator
# ----------------------------------------------------------------------
def exprs():
    base = st.sampled_from(
        [R, R.t(), R.plus(), Iden(), R + R.t(), R - Iden(), R & R.t(), R.dot(R)]
    )
    return base


def unary_exprs():
    return st.sampled_from([S, Univ(), S.dot(R), Univ().dot(R), S - S.dot(R)])


def atomic_formulas():
    return st.one_of(
        st.tuples(exprs(), exprs()).map(lambda ab: subset(ab[0], ab[1])),
        exprs().map(acyclic),
        exprs().map(no),
        exprs().map(some),
        unary_exprs().map(some),
        unary_exprs().map(lambda e: e.lone()),
        unary_exprs().map(lambda e: e.one()),
        st.just(forall("x", Univ(), lambda x: some(x.dot(R)))),
        st.just(exists("x", S, lambda x: no(x.dot(R)))),
        st.just(forall("x", S, lambda x: subset(x.dot(R), S))),
    )


def formulas():
    return st.recursive(
        atomic_formulas(),
        lambda children: st.one_of(
            st.tuples(children, children).map(lambda ab: ab[0].and_(ab[1])),
            st.tuples(children, children).map(lambda ab: ab[0].or_(ab[1])),
            children.map(lambda f: f.not_()),
            st.tuples(children, children).map(lambda ab: ab[0].implies(ab[1])),
        ),
        max_leaves=4,
    )


@given(formulas())
@settings(max_examples=60, deadline=None)
def test_solver_agrees_with_brute_force(formula: Formula) -> None:
    assert solver_instances(formula) == brute_force_instances(formula)


# ----------------------------------------------------------------------
# Algebraic laws of TupleSet
# ----------------------------------------------------------------------
ATOMS4 = ["w", "x", "y", "z"]


def random_relation():
    pairs = st.lists(
        st.tuples(st.sampled_from(ATOMS4), st.sampled_from(ATOMS4)),
        max_size=8,
    )
    return pairs.map(TupleSet.pairs)


@given(random_relation(), random_relation(), random_relation())
@settings(max_examples=100, deadline=None)
def test_join_distributes_over_union(a, b, c) -> None:
    assert a.dot(b + c) == a.dot(b) + a.dot(c)


@given(random_relation(), random_relation())
@settings(max_examples=100, deadline=None)
def test_transpose_antidistributes_over_join(a, b) -> None:
    assert a.dot(b).t() == b.t().dot(a.t())


@given(random_relation())
@settings(max_examples=100, deadline=None)
def test_closure_is_fixpoint(a) -> None:
    closed = a.plus()
    assert closed.dot(closed).is_subset(closed)
    assert a.is_subset(closed)
    # Minimality: closure equals iterated composition.
    expanded = a
    power = a
    for _ in range(len(ATOMS4)):
        power = power.dot(a)
        expanded = expanded + power
    assert expanded == closed


@given(random_relation())
@settings(max_examples=100, deadline=None)
def test_acyclic_iff_closure_irreflexive(a) -> None:
    assert a.is_acyclic() == a.plus().is_irreflexive()


@given(st.lists(random_relation(), max_size=3))
@settings(max_examples=200, deadline=None)
def test_find_cycle_union_returns_a_closed_walk(parts) -> None:
    cycle = find_cycle_union(parts)
    union = TupleSet.empty(2)
    for part in parts:
        union = union + part
    assert (cycle is None) == is_acyclic_union(parts)
    assert (cycle is None) == union.plus().is_irreflexive()
    if cycle is not None:
        # Consecutive atoms, and the last back to the first, are union
        # edges (a self-loop is a one-atom cycle).
        assert cycle
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            assert (a, b) in union


@given(random_relation(), random_relation())
@settings(max_examples=100, deadline=None)
def test_union_commutative_and_idempotent(a, b) -> None:
    assert a + b == b + a
    assert a + a == a
