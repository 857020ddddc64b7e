"""Unit tests for the CDCL SAT solver substrate."""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import asdict, fields

import pytest

import repro.sat.solver as solver_module
from repro.errors import CnfError, SolverInterrupted
from repro.resilience import deadline_scope
from repro.sat import (
    MAX_MERGED_STAT_FIELDS,
    SOLVER_CORE,
    CdclSolver,
    Cnf,
    SolverStats,
    accel_status,
    brute_force_count,
    brute_force_models,
    brute_force_satisfiable,
    count_models,
    iter_models,
    luby,
    resolve_solver_core,
    solve_cnf,
)


def make_cnf(num_vars: int, clauses: list[list[int]]) -> Cnf:
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    return cnf


class TestCnfContainer:
    def test_new_var_sequence(self) -> None:
        cnf = Cnf()
        assert [cnf.new_var() for _ in range(3)] == [1, 2, 3]
        assert cnf.num_vars == 3

    def test_add_clause_grows_variable_range(self) -> None:
        cnf = Cnf()
        cnf.add_clause([5, -7])
        assert cnf.num_vars == 7

    def test_tautology_dropped(self) -> None:
        cnf = Cnf(2)
        cnf.add_clause([1, -1, 2])
        assert cnf.num_clauses == 0

    def test_duplicate_literals_collapsed(self) -> None:
        cnf = Cnf(1)
        cnf.add_clause([1, 1, 1])
        assert cnf.clauses[0] == (1,)

    def test_zero_literal_rejected(self) -> None:
        cnf = Cnf(1)
        with pytest.raises(CnfError):
            cnf.add_clause([0])

    def test_evaluate(self) -> None:
        cnf = make_cnf(2, [[1, 2], [-1, 2]])
        assert cnf.evaluate({1: True, 2: True})
        assert not cnf.evaluate({1: True, 2: False})

    def test_evaluate_missing_variable(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        with pytest.raises(CnfError):
            cnf.evaluate({1: False})


class TestBasicSolving:
    def test_empty_formula_is_sat(self) -> None:
        assert solve_cnf(Cnf(0)).satisfiable

    def test_single_unit(self) -> None:
        result = solve_cnf(make_cnf(1, [[1]]))
        assert result.satisfiable
        assert result.model == {1: True}

    def test_contradictory_units(self) -> None:
        assert not solve_cnf(make_cnf(1, [[1], [-1]])).satisfiable

    def test_empty_clause_unsat(self) -> None:
        cnf = Cnf(1)
        cnf.add_clause([])
        assert not solve_cnf(cnf).satisfiable

    def test_simple_implication_chain(self) -> None:
        # 1 -> 2 -> 3 -> 4, with 1 forced.
        cnf = make_cnf(4, [[1], [-1, 2], [-2, 3], [-3, 4]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert result.model == {1: True, 2: True, 3: True, 4: True}

    def test_model_satisfies_formula(self) -> None:
        cnf = make_cnf(5, [[1, 2, -3], [-1, 4], [3, -4, 5], [-2, -5], [2, 3]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        assert cnf.evaluate(result.model)

    def test_xor_chain_sat(self) -> None:
        # (a xor b), (b xor c) encoded in CNF; satisfiable.
        cnf = make_cnf(3, [[1, 2], [-1, -2], [2, 3], [-2, -3]])
        result = solve_cnf(cnf)
        assert result.satisfiable
        model = result.model
        assert model[1] != model[2]
        assert model[2] != model[3]

    def test_unsat_xor_cycle(self) -> None:
        # a xor b, b xor c, c xor a is unsatisfiable (odd cycle).
        cnf = make_cnf(
            3, [[1, 2], [-1, -2], [2, 3], [-2, -3], [3, 1], [-3, -1]]
        )
        assert not solve_cnf(cnf).satisfiable


def pigeonhole(holes: int) -> Cnf:
    """PHP(holes+1, holes): holes+1 pigeons in `holes` holes — UNSAT."""
    pigeons = holes + 1
    cnf = Cnf(pigeons * holes)

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for p1 in range(pigeons):
            for p2 in range(p1 + 1, pigeons):
                cnf.add_clause([-var(p1, hole), -var(p2, hole)])
    return cnf


class TestHarderInstances:
    @pytest.mark.parametrize("holes", [1, 2, 3, 4, 5])
    def test_pigeonhole_unsat(self, holes: int) -> None:
        assert not solve_cnf(pigeonhole(holes)).satisfiable

    def test_pigeonhole_sat_when_enough_holes(self) -> None:
        # n pigeons in n holes is satisfiable: reuse encoding with a dummy
        # pigeon removed by forcing it into hole 0 alongside nobody.
        holes = 4
        cnf = Cnf(holes * holes)

        def var(pigeon: int, hole: int) -> int:
            return pigeon * holes + hole + 1

        for pigeon in range(holes):
            cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
        for hole in range(holes):
            for p1 in range(holes):
                for p2 in range(p1 + 1, holes):
                    cnf.add_clause([-var(p1, hole), -var(p2, hole)])
        assert solve_cnf(cnf).satisfiable

    def test_learned_clause_stats(self) -> None:
        solver = CdclSolver(pigeonhole(4))
        result = solver.solve()
        assert not result.satisfiable
        assert result.stats.conflicts > 0


class TestAssumptions:
    def test_sat_under_assumption(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        solver = CdclSolver(cnf)
        result = solver.solve(assumptions=[-1])
        assert result.satisfiable
        assert result.model[2] is True

    def test_unsat_under_assumptions_but_sat_overall(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        solver = CdclSolver(cnf)
        assert not solver.solve(assumptions=[-1, -2]).satisfiable
        # Solver remains usable and the formula itself is satisfiable.
        assert solver.solve().satisfiable

    def test_assumption_of_forced_literal(self) -> None:
        cnf = make_cnf(2, [[1], [-1, 2]])
        solver = CdclSolver(cnf)
        assert solver.solve(assumptions=[1, 2]).satisfiable
        assert not solver.solve(assumptions=[-2]).satisfiable
        assert solver.solve().satisfiable


class TestEnumeration:
    def test_count_all_models_of_or(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        assert count_models(cnf) == 3

    def test_projected_enumeration(self) -> None:
        # Variable 3 is free; projecting onto {1, 2} removes its doubling.
        cnf = make_cnf(3, [[1, 2]])
        assert count_models(cnf) == 6
        assert count_models(cnf, projection=[1, 2]) == 3

    def test_limit(self) -> None:
        cnf = make_cnf(3, [])
        models = list(iter_models(cnf, limit=5))
        assert len(models) == 5

    def test_models_are_distinct_and_satisfying(self) -> None:
        cnf = make_cnf(4, [[1, -2], [2, 3, -4]])
        seen = set()
        for model in iter_models(cnf):
            key = tuple(sorted(model.items()))
            assert key not in seen
            seen.add(key)
            assert cnf.evaluate(model)
        assert len(seen) == brute_force_count(cnf)

    def test_enumeration_matches_brute_force_on_unsat(self) -> None:
        cnf = make_cnf(1, [[1], [-1]])
        assert count_models(cnf) == 0
        assert not brute_force_satisfiable(cnf)


class TestLuby:
    def test_prefix(self) -> None:
        expected = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]
        assert [luby(i) for i in range(1, 16)] == expected

    def test_values_are_powers_of_two(self) -> None:
        for i in range(1, 200):
            value = luby(i)
            assert value & (value - 1) == 0


def random_3cnf(num_vars: int, num_clauses: int, seed: int) -> Cnf:
    rng = random.Random(seed)
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


SEARCH_COUNTERS = (
    "decisions",
    "propagations",
    "conflicts",
    "restarts",
    "learned_clauses",
    "max_decision_level",
    "minimized_literals",
    "db_reductions",
    "deleted_clauses",
)


# ----------------------------------------------------------------------
# Pinned search trajectories
#
# The search is deterministic, and suite bytes and the committed counter
# baselines depend on its exact trajectory: answers, model order and
# counters pin it, so a change to any heuristic (decision order,
# learning, minimization, restarts, reduction) shows up here first.
# ----------------------------------------------------------------------


def model_bits(model: dict[int, bool]) -> str:
    return "".join("1" if model[var] else "0" for var in sorted(model))


def answer(result) -> str:
    return model_bits(result.model) if result.satisfiable else "unsat"


def solve_once(cnf: Cnf, max_learned=None):
    def run(solver: CdclSolver) -> list[str]:
        if max_learned is not None:
            solver._max_learned = max_learned
        return [answer(solver.solve())]

    return cnf, run


def enumerate_all(cnf: Cnf, max_learned=None, projection=None):
    def run(solver: CdclSolver) -> list[str]:
        if max_learned is not None:
            solver._max_learned = max_learned
        blocking = None
        if projection is not None:

            def blocking(model):
                return [-var if model[var] else var for var in projection]

        return [model_bits(m) for m in solver.iter_solutions(blocking_literals=blocking)]

    return cnf, run


def assumption_queries(cnf: Cnf, seed: int, rounds: int):
    def run(solver: CdclSolver) -> list[str]:
        rng = random.Random(seed)
        answers = []
        for _ in range(rounds):
            chosen = rng.sample(range(1, cnf.num_vars + 1), 4)
            assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
            answers.append(answer(solver.solve(assumptions=assumptions)))
        return answers

    return cnf, run


def tagged_enumerations(cnf: Cnf, seed: int, rounds: int):
    """The witness-session pattern: enumerate under a fresh tag plus
    guard literals, then retire the tag (and every blocking clause of
    that enumeration) with one unit clause."""

    def run(solver: CdclSolver) -> list[str]:
        rng = random.Random(seed)
        answers = []
        tag = cnf.num_vars
        for _ in range(rounds):
            tag += 1
            chosen = rng.sample(range(1, cnf.num_vars + 1), 3)
            guards = [v if rng.random() < 0.5 else -v for v in chosen]
            models = solver.iter_solutions(assumptions=[tag] + guards)
            answers.append(",".join(model_bits(m) for m in models))
            solver.add_clause([-tag])
        answers.append(answer(solver.solve()))
        return answers

    return cnf, run


def growing_formula(cnf: Cnf, seed: int, rounds: int):
    def run(solver: CdclSolver) -> list[str]:
        rng = random.Random(seed)
        answers = []
        for _ in range(rounds):
            result = solver.solve()
            answers.append(answer(result))
            if not result.satisfiable:
                break
            chosen = rng.sample(range(1, cnf.num_vars + 1), 3)
            solver.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
            solver.add_clause(
                [-v if result.model[v] else v for v in sorted(result.model)[:12]]
            )
        return answers

    return cnf, run


TRAJECTORY_SCENARIOS = {
    "php6-reduce50": lambda: solve_once(pigeonhole(6), max_learned=50),
    "3sat-unsat-60-255": lambda: solve_once(random_3cnf(60, 255, seed=7)),
    "allsat-30-125-reduce5": lambda: enumerate_all(
        random_3cnf(30, 125, seed=2), max_learned=5
    ),
    "php4": lambda: solve_once(pigeonhole(4)),
    "php5": lambda: solve_once(pigeonhole(5)),
    "php5-reduce10": lambda: solve_once(pigeonhole(5), max_learned=10),
    "3sat-sat-80-300": lambda: solve_once(random_3cnf(80, 300, seed=1)),
    "3sat-sat-120-440": lambda: solve_once(random_3cnf(120, 440, seed=4)),
    "3sat-50-240": lambda: solve_once(random_3cnf(50, 240, seed=3)),
    "3sat-unsat-70-320-reduce8": lambda: solve_once(
        random_3cnf(70, 320, seed=9), max_learned=8
    ),
    "allsat-20-70": lambda: enumerate_all(random_3cnf(20, 70, seed=4)),
    "allsat-50-205-reduce2": lambda: enumerate_all(
        random_3cnf(50, 205, seed=0), max_learned=2
    ),
    "allsat-projected-30-100": lambda: enumerate_all(
        random_3cnf(30, 100, seed=5), projection=list(range(1, 11))
    ),
    "assumptions-40-160": lambda: assumption_queries(
        random_3cnf(40, 160, seed=6), seed=1, rounds=25
    ),
    "assumptions-60-250": lambda: assumption_queries(
        random_3cnf(60, 250, seed=8), seed=2, rounds=15
    ),
    "tagged-16-50": lambda: tagged_enumerations(
        random_3cnf(16, 50, seed=7), seed=3, rounds=6
    ),
    "growing-40-150": lambda: growing_formula(
        random_3cnf(40, 150, seed=10), seed=4, rounds=20
    ),
}

#: scenario -> (answers, satisfiable answers, sha256 prefix of the
#: answers, SEARCH_COUNTERS).  Recorded on the object-storage core (one
#: Python object per clause), which the solver replaced; that core and
#: the flat-arena core searched in lockstep by contract, and both
#: reproduced every row before the object core was deleted.  The
#: flat-arena search must keep reproducing them.
OBJECT_CORE_TRAJECTORIES = {
    "php6-reduce50": (
        1, 0, "af3a14c11c198ad9", (1298, 13295, 1005, 14, 999, 18, 1431, 5, 410)
    ),
    "3sat-unsat-60-255": (
        1, 0, "af3a14c11c198ad9", (111, 1518, 90, 2, 86, 10, 78, 0, 0)
    ),
    "allsat-30-125-reduce5": (
        192, 192, "b7c88fc7d210a4da", (242, 1024, 39, 1, 34, 11, 17, 1, 12)
    ),
    "php4": (1, 0, "af3a14c11c198ad9", (38, 297, 27, 0, 23, 6, 7, 0, 0)),
    "php5": (1, 0, "af3a14c11c198ad9", (209, 1836, 160, 3, 155, 11, 101, 0, 0)),
    "php5-reduce10": (
        1, 0, "af3a14c11c198ad9", (257, 2304, 193, 5, 188, 13, 118, 5, 152)
    ),
    "3sat-sat-80-300": (
        1, 1, "2be8da84878d3845", (66, 534, 31, 0, 31, 24, 7, 0, 0)
    ),
    "3sat-sat-120-440": (
        1, 1, "aa864953371e193f", (185, 2404, 92, 2, 92, 36, 84, 0, 0)
    ),
    "3sat-50-240": (1, 1, "b8e30da9df850e9c", (78, 928, 58, 1, 58, 9, 46, 0, 0)),
    "3sat-unsat-70-320-reduce8": (
        1, 0, "af3a14c11c198ad9", (177, 2653, 147, 3, 143, 13, 129, 3, 80)
    ),
    "allsat-20-70": (8, 8, "8b40a699f9bf885e", (28, 189, 15, 0, 10, 7, 8, 0, 0)),
    "allsat-50-205-reduce2": (
        3625, 3625, "0ebfa74b2d19cc53", (3772, 10528, 110, 2, 104, 17, 62, 2, 38)
    ),
    "allsat-projected-30-100": (
        32, 32, "18a6b9402896abe4", (163, 867, 53, 1, 50, 11, 37, 0, 0)
    ),
    "assumptions-40-160": (
        25, 14, "6d20d79e0a742eb3", (162, 1389, 64, 0, 63, 17, 22, 0, 0)
    ),
    "assumptions-60-250": (
        15, 6, "aec993b5d8434ce5", (155, 2065, 106, 0, 106, 15, 66, 0, 0)
    ),
    "tagged-16-50": (7, 7, "6c7a58279aaa9b49", (54, 262, 9, 0, 8, 9, 1, 0, 0)),
    "growing-40-150": (3, 2, "26f11ffee9cf6d8e", (58, 551, 38, 0, 34, 8, 22, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(TRAJECTORY_SCENARIOS))
def test_trajectory_matches_the_object_core_record(name: str) -> None:
    """Single solves, full and projected AllSAT, assumption queries,
    tagged session enumerations and a formula growing between solves,
    with and without forced database reductions: same answers, same
    model order, same search counters as the recorded core."""
    cnf, run = TRAJECTORY_SCENARIOS[name]()
    solver = CdclSolver(cnf)
    answers = run(solver)
    digest = hashlib.sha256("\n".join(answers).encode()).hexdigest()[:16]
    counters = tuple(getattr(solver.stats, field) for field in SEARCH_COUNTERS)
    satisfiable = sum(a != "unsat" for a in answers)
    assert (len(answers), satisfiable, digest, counters) == (
        OBJECT_CORE_TRAJECTORIES[name]
    )


# ----------------------------------------------------------------------
# Locked reasons under database reduction (dangling-reference sweep)
# ----------------------------------------------------------------------


def assert_reason_integrity(solver: CdclSolver) -> None:
    """Every trail literal's reason clause must still read back as a
    clause containing that literal with every other literal false —
    exactly what conflict analysis will assume of it."""
    for lit in solver._trail:
        reason = solver._reason_lits(abs(lit))
        if reason is None:
            continue
        assert lit in reason
        assert all(solver._value(other) is False for other in reason if other != lit)


def test_reduce_db_keeps_locked_reasons_valid() -> None:
    """Force a database reduction at every restart and every solve
    entry: clauses that are reasons of root-level assignments must
    survive, and their references must be remapped across arena
    compaction."""
    solver = CdclSolver(pigeonhole(6))
    solver._max_learned = 0
    assert not solver.solve().satisfiable
    assert solver.stats.db_reductions > 0

    rng = random.Random(0xBEEF)
    for _ in range(25):
        num_vars = rng.randint(4, 9)
        cnf = Cnf(num_vars)
        for _clause in range(rng.randint(num_vars, 4 * num_vars)):
            width = rng.randint(1, min(4, num_vars))
            chosen = rng.sample(range(1, num_vars + 1), width)
            cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
        solver = CdclSolver(cnf)
        solver._max_learned = 0
        result = solver.solve()
        assert result.satisfiable == brute_force_satisfiable(cnf)
        assert_reason_integrity(solver)
        seen = {tuple(sorted(m.items())) for m in solver.iter_solutions()}
        expected = {tuple(sorted(m.items())) for m in brute_force_models(cnf)}
        if result.satisfiable:
            assert seen == expected
        assert_reason_integrity(solver)


# ----------------------------------------------------------------------
# Cooperative-deadline re-reads
# ----------------------------------------------------------------------


def test_deadline_installed_mid_enumeration_interrupts(monkeypatch) -> None:
    """The solver re-reads the ambient deadline at every poll, so a
    scope entered *after* iter_solutions started must interrupt the
    very next burst — an entry-time snapshot would never see it."""
    monkeypatch.setattr(solver_module, "DEADLINE_POLL_PROPAGATIONS", 1)
    solver = CdclSolver(Cnf(4))
    models = solver.iter_solutions()
    assert next(models) is not None  # no deadline active: runs fine
    with deadline_scope(time.monotonic() - 1.0):
        with pytest.raises(SolverInterrupted):
            next(models)
    # The interrupt backtracked to the root: the solver stays usable.
    assert solver.solve().satisfiable


def test_expired_deadline_interrupts_solve(monkeypatch) -> None:
    monkeypatch.setattr(solver_module, "DEADLINE_POLL_PROPAGATIONS", 1)
    solver = CdclSolver(pigeonhole(4))
    with deadline_scope(time.monotonic() - 1.0):
        with pytest.raises(SolverInterrupted, match="SAT solve interrupted"):
            solver.solve()
    assert not solver.solve().satisfiable


# ----------------------------------------------------------------------
# SolverStats
# ----------------------------------------------------------------------


def test_solver_stats_merge_covers_every_field() -> None:
    """merge() iterates dataclasses.fields, so a newly added counter is
    aggregated automatically — this pins the policy: every field is
    summed unless listed in MAX_MERGED_STAT_FIELDS, and that list only
    names real fields."""
    names = [f.name for f in fields(SolverStats)]
    assert MAX_MERGED_STAT_FIELDS <= set(names)
    left = SolverStats()
    right = SolverStats()
    for index, name in enumerate(names):
        setattr(left, name, 3 + 2 * index)
        setattr(right, name, 1000 + 3 * index)
    left.merge(right)
    for index, name in enumerate(names):
        a, b = 3 + 2 * index, 1000 + 3 * index
        want = max(a, b) if name in MAX_MERGED_STAT_FIELDS else a + b
        assert getattr(left, name) == want, name


def test_solver_stats_asdict_covers_every_field() -> None:
    assert set(asdict(SolverStats())) == {f.name for f in fields(SolverStats)}


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------


def test_environment_stamp_names_the_single_core() -> None:
    assert resolve_solver_core() == resolve_solver_core("auto") == SOLVER_CORE
    assert resolve_solver_core(SOLVER_CORE) == SOLVER_CORE
    with pytest.raises(ValueError, match="unknown solver core"):
        resolve_solver_core("accel")
    assert accel_status() == {"available": False, "default_core": SOLVER_CORE}
