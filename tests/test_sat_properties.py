"""Property-based tests: the CDCL solver against a brute-force oracle."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sat import (
    CdclSolver,
    Cnf,
    brute_force_count,
    brute_force_models,
    brute_force_satisfiable,
    count_models,
    solve_cnf,
)

MAX_VARS = 6


def literals(num_vars: int):
    return st.integers(min_value=1, max_value=num_vars).flatmap(
        lambda v: st.sampled_from([v, -v])
    )


@st.composite
def random_cnf(draw) -> Cnf:
    num_vars = draw(st.integers(min_value=1, max_value=MAX_VARS))
    num_clauses = draw(st.integers(min_value=0, max_value=12))
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        clause = draw(st.lists(literals(num_vars), min_size=1, max_size=4))
        cnf.add_clause(clause)
    return cnf


@given(random_cnf())
@settings(max_examples=150, deadline=None)
def test_sat_agrees_with_brute_force(cnf: Cnf) -> None:
    expected = brute_force_satisfiable(cnf)
    result = solve_cnf(cnf)
    assert result.satisfiable == expected
    if result.satisfiable:
        assert cnf.evaluate(result.model)


@given(random_cnf())
@settings(max_examples=75, deadline=None)
def test_model_count_agrees_with_brute_force(cnf: Cnf) -> None:
    assert count_models(cnf) == brute_force_count(cnf)


@given(random_cnf())
@settings(max_examples=60, deadline=None)
def test_enumeration_is_exact_and_deterministic(cnf: Cnf) -> None:
    """In-place AllSAT enumerates exactly the brute-force model set with
    no duplicates, and a second solver over the same formula reproduces
    the model order and every search counter (suite byte-identity rests
    on this determinism)."""
    from dataclasses import asdict

    expected = {
        tuple(sorted(model.items())) for model in brute_force_models(cnf)
    }
    runs = []
    for _ in range(2):
        solver = CdclSolver(cnf)
        models = [
            tuple(sorted(model.items())) for model in solver.iter_solutions()
        ]
        assert len(models) == len(set(models))
        assert set(models) == expected
        runs.append((models, asdict(solver.stats)))
    assert runs[0] == runs[1]


@given(random_cnf(), st.lists(st.integers(min_value=1, max_value=MAX_VARS), max_size=3))
@settings(max_examples=75, deadline=None)
def test_assumptions_agree_with_unit_clauses(cnf: Cnf, assumed_vars) -> None:
    # Solving under assumptions must agree with conjoining unit clauses.
    assumptions = sorted({v for v in assumed_vars})
    solver = CdclSolver(cnf)
    under_assumptions = solver.solve(assumptions=assumptions).satisfiable

    strengthened = Cnf(cnf.num_vars)
    strengthened.add_clauses(cnf.clauses)
    for lit in assumptions:
        strengthened.add_clause([lit])
    assert under_assumptions == brute_force_satisfiable(strengthened)
    # The solver must remain intact for plain solving afterwards.
    assert solver.solve().satisfiable == brute_force_satisfiable(cnf)
