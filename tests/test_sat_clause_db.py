"""The CDCL solver's clause database: arena, watch lists, reduction.

The solver keeps every clause in one flat integer arena and names a
clause by its arena index (``cref``).  Watch lists, the learned-clause
list and the propagation reasons on the trail all hold crefs, and a
database reduction compacts the arena and remaps every one of them.
These tests check that bookkeeping directly:

* clause records and where each kind of clause is filed;
* root-level filtering, tautologies and variable growth in ``add_clause``;
* the reduction policy: glue clauses and locked reasons survive, the
  rest is ranked by (LBD, size, age);
* a full structural check (arena records, both kinds of watch list,
  trail / level / reason consistency, the VSIDS heap, level-0
  propagation completeness) run after every reduction and restart of
  random searches, and at every model of random enumerations;
* decision order and phase saving, which the search's determinism
  rests on.
"""

from __future__ import annotations

import random
from bisect import bisect_right

import pytest

from repro.sat import CdclSolver, Cnf, brute_force_models, brute_force_satisfiable


def make_cnf(num_vars: int, clauses=()) -> Cnf:
    cnf = Cnf(num_vars)
    cnf.add_clauses(clauses)
    return cnf


def random_cnf(num_vars: int, num_clauses: int, seed: int, widths=(3,)) -> Cnf:
    rng = random.Random(seed)
    cnf = Cnf(num_vars)
    for _ in range(num_clauses):
        chosen = rng.sample(range(1, num_vars + 1), rng.choice(widths))
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in chosen])
    return cnf


def pigeonhole(holes: int) -> Cnf:
    pigeons = holes + 1
    cnf = Cnf(pigeons * holes)

    def var(pigeon: int, hole: int) -> int:
        return pigeon * holes + hole + 1

    for pigeon in range(pigeons):
        cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
    for hole in range(holes):
        for a in range(pigeons):
            for b in range(a + 1, pigeons):
                cnf.add_clause([-var(a, hole), -var(b, hole)])
    return cnf


def model_key(model: dict[int, bool]) -> tuple:
    return tuple(sorted(model.items()))


def brute_force_keys(cnf: Cnf) -> set[tuple]:
    return {model_key(model) for model in brute_force_models(cnf)}


# ----------------------------------------------------------------------
# The structural invariant check
# ----------------------------------------------------------------------


def literal_of_index(index: int) -> int:
    """Inverse of :meth:`CdclSolver._lit_index`."""
    return index >> 1 if index % 2 == 0 else -(index >> 1)


def clause_lits(solver: CdclSolver, cref: int) -> list[int]:
    arena = solver._arena
    return arena[cref : cref + arena[cref - 2]]


def clause_table(solver: CdclSolver) -> dict[int, str]:
    """Every live cref, mapped to the list that files it."""
    table: dict[int, str] = {}
    for kind, crefs in (
        ("binary", solver._bin_crefs),
        ("problem", solver._long_crefs),
        ("learned", solver._learned_crefs),
    ):
        for cref in crefs:
            assert cref not in table, f"cref {cref} is filed twice"
            table[cref] = kind
    return table


def check_invariants(solver: CdclSolver, at_rest: bool = True) -> None:
    """Assert every structural invariant of the solver's state.

    ``at_rest`` adds the checks that need propagation to have run to
    completion without a conflict: true between queries and at every
    enumerated model, false right after a backjump to level 0, where a
    learned unit may still wait on the propagation queue."""
    arena = solver._arena
    table = clause_table(solver)
    nvars = solver._nvars

    # The arena is two padding slots, then back-to-back clause records
    # (size, flags, literals) of exactly the live clauses: nothing dead.
    assert arena[:2] == [0, 0]
    assert len(arena) == 2 + sum(arena[cref - 2] + 2 for cref in table)
    for cref, kind in table.items():
        lits = clause_lits(solver, cref)
        assert len({abs(lit) for lit in lits}) == len(lits)
        assert all(0 < abs(lit) <= nvars for lit in lits)
        if kind == "binary":
            assert len(lits) == 2
        else:
            assert len(lits) >= 3
            assert arena[cref - 1] & 1 == (kind == "learned")

    # Long clauses are watched by exactly their first two literals, each
    # watch carrying a blocker taken from the clause itself.
    watchers: dict[int, list[int]] = {
        cref: [] for cref, kind in table.items() if kind != "binary"
    }
    for index, entries in enumerate(solver._watches):
        assert len(entries) % 2 == 0
        watched = -literal_of_index(index)
        for k in range(0, len(entries), 2):
            blocker, cref = entries[k], entries[k + 1]
            assert cref in watchers, f"watch names dead cref {cref}"
            assert blocker in clause_lits(solver, cref)
            watchers[cref].append(watched)
    for cref, watched in watchers.items():
        assert sorted(watched) == sorted(arena[cref : cref + 2]), cref

    # Binary clauses appear once in the binary list of each literal.
    bin_watchers: dict[int, list[int]] = {
        cref: [] for cref, kind in table.items() if kind == "binary"
    }
    for index, entries in enumerate(solver._bin_watches):
        watched = -literal_of_index(index)
        for other, cref in entries:
            assert cref in bin_watchers, f"binary watch names dead cref {cref}"
            assert sorted([watched, other]) == sorted(clause_lits(solver, cref))
            bin_watchers[cref].append(watched)
    for cref, watched in bin_watchers.items():
        assert sorted(watched) == sorted(clause_lits(solver, cref)), cref

    # Trail, values and levels agree.
    values = solver._values
    trail = solver._trail
    assigned = {abs(lit) for lit in trail}
    assert len(assigned) == len(trail)
    for var in range(1, nvars + 1):
        assert values[2 * var] == -values[2 * var + 1]
        assert (values[2 * var] != 0) == (var in assigned)
    for position, lit in enumerate(trail):
        assert solver._value(lit) is True
        assert solver._level[abs(lit)] == bisect_right(solver._trail_lim, position)

    # Every reason is a live clause that implies its literal: the other
    # literals are false and assigned no later.  A long reason keeps the
    # implied literal in position 0.
    for var in range(1, nvars + 1):
        cref = solver._reason[var]
        if var not in assigned:
            assert cref == -1, f"unassigned var {var} keeps a reason"
            continue
        if cref < 0:
            continue
        assert cref in table, f"reason of var {var} is dead cref {cref}"
        lits = clause_lits(solver, cref)
        implied = var if values[2 * var] > 0 else -var
        assert implied in lits
        for other in lits:
            if other != implied:
                assert solver._value(other) is False
                assert solver._level[abs(other)] <= solver._level[var]
        if table[cref] != "binary":
            assert lits[0] == implied

    # The VSIDS heap is a valid indexed max-heap holding at least every
    # unassigned variable.
    heap, pos = solver._heap, solver._heap_pos
    for index, var in enumerate(heap):
        assert pos[var] == index
    assert sum(1 for p in pos if p >= 0) == len(heap)
    for index in range(1, len(heap)):
        assert not solver._heap_before(heap[index], heap[(index - 1) >> 1])
    for var in range(1, nvars + 1):
        if var not in assigned:
            assert pos[var] >= 0, f"unassigned var {var} is not in the heap"

    if at_rest:
        assert solver._qhead == len(trail)
        # Propagation is complete: no clause is unit or falsified.
        for cref in table:
            states = [solver._value(lit) for lit in clause_lits(solver, cref)]
            assert True in states or states.count(None) >= 2, (
                clause_lits(solver, cref),
                states,
            )


class CheckedSolver(CdclSolver):
    """A solver that runs :func:`check_invariants` after every database
    reduction and every restart: the points where crefs move."""

    def __init__(self, cnf: Cnf) -> None:
        super().__init__(cnf)
        self.checks = 0

    def _reduce_db(self) -> None:
        super()._reduce_db()
        check_invariants(self, at_rest=False)
        self.checks += 1

    def _restart(self) -> None:
        super()._restart()
        check_invariants(self, at_rest=False)
        self.checks += 1


# ----------------------------------------------------------------------
# Clause records and propagation
# ----------------------------------------------------------------------


class TestClauseRecords:
    def test_problem_clause_record(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1, -2, 3]]))
        (cref,) = solver._long_crefs
        assert solver._arena[cref - 2 : cref + 3] == [3, 0, 1, -2, 3]
        assert solver._learned_crefs == [] and solver._bin_crefs == []
        check_invariants(solver)

    def test_learned_clause_record_packs_the_lbd(self) -> None:
        solver = CdclSolver(make_cnf(5))
        cref = solver._attach_clause([1, 2, 3, 4], learned=True, lbd=3)
        assert solver._arena[cref - 2 : cref] == [4, (3 << 1) | 1]
        assert solver._learned_crefs == [cref]
        assert solver.learned_count == 1
        check_invariants(solver)

    def test_binary_learned_clauses_are_untracked_and_kept(self) -> None:
        solver = CdclSolver(make_cnf(4))
        cref = solver._attach_clause([1, 2], learned=True, lbd=2)
        assert solver._bin_crefs == [cref]
        assert solver.learned_count == 0
        assert solver._arena[cref - 1] & 1 == 1
        solver._reduce_db()
        assert [clause_lits(solver, c) for c in solver._bin_crefs] == [[1, 2]]
        check_invariants(solver)

    def test_binary_clauses_propagate_from_their_own_lists(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2], [-1, 3, 2]]))
        (bin_cref,) = solver._bin_crefs
        assert all(bin_cref not in entries[1::2] for entries in solver._watches)
        assert (2, bin_cref) in solver._bin_watches[solver._lit_index(-1)]
        assert (1, bin_cref) in solver._bin_watches[solver._lit_index(-2)]
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(-1, -1)
        assert solver._propagate() is None
        assert solver._value(2) is True
        assert solver._reason_lits(2) == [1, 2]
        check_invariants(solver)

    def test_long_clause_propagates_its_last_literal(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3]]))
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(-1, -1)
        assert solver._propagate() is None
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(-2, -1)
        assert solver._propagate() is None
        assert solver._value(3) is True
        assert solver._level[3] == 2
        check_invariants(solver)

    def test_conflict_returns_the_falsified_clause(self) -> None:
        solver = CdclSolver(make_cnf(3, [[1, 2, 3], [1, 2, -3], [1, -2]]))
        solver._trail_lim.append(len(solver._trail))
        assert solver._enqueue(-1, -1)
        conflict = solver._propagate()
        assert conflict is not None
        assert sorted(conflict, key=abs) in ([1, 2, 3], [1, 2, -3])
        assert all(solver._value(lit) is False for lit in conflict)
        # The watch list was compacted past the conflict: structurally
        # intact, just not at rest.
        check_invariants(solver, at_rest=False)

    def test_solver_copies_the_cnf(self) -> None:
        cnf = make_cnf(2, [[1, 2]])
        solver = CdclSolver(cnf)
        cnf.add_clause([-1])
        cnf.add_clause([-2])
        assert solver.solve().satisfiable
        assert not CdclSolver(cnf).solve().satisfiable

    def test_formula_unsat_at_load_stays_unsat(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1], [-1, 2], [-2]]))
        assert not solver.solve()
        assert list(solver.iter_solutions()) == []
        assert solver.add_clause([2]) is False
        assert not solver.solve().satisfiable


# ----------------------------------------------------------------------
# add_clause
# ----------------------------------------------------------------------


class TestAddClause:
    def test_root_level_literals_are_filtered(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1], [-2]]))
        arena_before = list(solver._arena)
        assert solver.add_clause([1, 3, 4])  # satisfied at the root
        assert solver._arena == arena_before
        assert solver.add_clause([2, 3, 4])  # 2 is false at the root
        assert [clause_lits(solver, c) for c in solver._bin_crefs] == [[3, 4]]
        assert solver._long_crefs == []
        assert solver.add_clause([2, 3])  # shrinks to the unit 3
        assert solver._value(3) is True and solver._level[3] == 0
        check_invariants(solver)
        assert solver.add_clause([2, -3]) is False  # shrinks to nothing
        assert not solver.solve().satisfiable

    def test_tautologies_and_duplicate_literals(self) -> None:
        solver = CdclSolver(make_cnf(3))
        assert solver.add_clause([1, -1, 2])
        assert solver._arena == [0, 0]
        assert solver.add_clause([3, 1, 3, 2, 1])
        (cref,) = solver._long_crefs
        assert clause_lits(solver, cref) == [1, 2, 3]
        check_invariants(solver)

    def test_new_variables_grow_every_per_variable_array(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1, 2]]))
        assert solver.add_clause([-2, 6])
        assert solver._nvars == 6
        assert len(solver._values) == len(solver._watches) == 2 * 6 + 2
        assert len(solver._bin_watches) == 2 * 6 + 2
        assert len(solver._level) == len(solver._reason) == 7
        assert len(solver._activity) == len(solver._seen) == 7
        check_invariants(solver)
        result = solver.solve(assumptions=[2])
        assert result.satisfiable and result.model[6] is True
        assert set(result.model) == {1, 2, 3, 4, 5, 6}

    def test_assumptions_grow_the_variable_range(self) -> None:
        solver = CdclSolver(make_cnf(2, [[1, 2]]))
        result = solver.solve(assumptions=[-5])
        assert result.satisfiable
        assert result.model[5] is False
        assert set(result.model) == {1, 2, 3, 4, 5}
        check_invariants(solver)

    def test_clause_after_an_abandoned_enumeration_lands_at_the_root(self) -> None:
        cnf = make_cnf(4, [[1, 2], [3, 4]])
        solver = CdclSolver(cnf)
        models = solver.iter_solutions()
        assert next(models) == {1: False, 2: True, 3: False, 4: True}
        models.close()
        assert solver._trail_lim  # abandoned with decisions on the trail
        assert solver.add_clause([-1])
        assert solver._trail_lim == []
        assert solver._value(1) is False and solver._level[1] == 0
        check_invariants(solver)
        cnf.add_clause([-1])
        seen = {model_key(m) for m in solver.iter_solutions()}
        assert seen == brute_force_keys(cnf)


# ----------------------------------------------------------------------
# Database reduction
# ----------------------------------------------------------------------


class TestReduction:
    def test_glue_clauses_and_the_better_half_survive(self) -> None:
        solver = CdclSolver(make_cnf(12))
        learned = [
            ([1, 2, 3], 2),  # glue
            ([4, 5, 6], 2),  # glue
            ([1, 4, 7], 5),
            ([2, 5, 8, 9], 5),
            ([3, 6, 10], 4),
            ([7, 8, 11, 12], 6),
            ([9, 10, 11], 3),
            ([1, 5, 9, 12], 7),
            ([2, 6, 11], 4),  # ties [3, 6, 10] on (LBD, size) but is younger
        ]
        for lits, lbd in learned:
            solver._attach_clause(lits, learned=True, lbd=lbd)
        solver._reduce_db()
        # Ranked by (LBD, size, age), the best 9 // 2 = 4 are kept; the
        # glue clauses are among them.  Survivors keep their order.
        assert [clause_lits(solver, c) for c in solver._learned_crefs] == [
            [1, 2, 3],
            [4, 5, 6],
            [3, 6, 10],
            [9, 10, 11],
        ]
        assert solver.stats.db_reductions == 1
        assert solver.stats.deleted_clauses == 5
        assert solver._max_learned == 3000
        check_invariants(solver)

    def test_glue_clauses_survive_beyond_the_half(self) -> None:
        solver = CdclSolver(make_cnf(6))
        for lits in ([1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]):
            solver._attach_clause(lits, learned=True, lbd=2)
        solver._reduce_db()
        assert solver.learned_count == 4
        assert solver.stats.deleted_clauses == 0
        check_invariants(solver)

    def test_locked_reason_survives_and_is_remapped(self) -> None:
        solver = CdclSolver(make_cnf(9))
        for lits in ([1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]):
            solver._attach_clause(lits, learned=True, lbd=6)
        locked = solver._attach_clause([7, 8, 9], learned=True, lbd=9)
        assert solver._enqueue(-8, -1) and solver._enqueue(-9, -1)
        assert solver._propagate() is None
        assert solver._reason[7] == locked  # 7 was forced at the root
        solver._reduce_db()
        assert solver._reason[7] != locked  # compaction moved the clause
        assert solver._reason_lits(7) == [7, 8, 9]
        assert [clause_lits(solver, c) for c in solver._learned_crefs] == [
            [1, 2, 3],
            [2, 3, 4],
            [7, 8, 9],
        ]
        assert solver.stats.deleted_clauses == 2
        check_invariants(solver)

    def test_reduction_never_touches_problem_or_binary_clauses(self) -> None:
        solver = CdclSolver(pigeonhole(5))
        solver._max_learned = 0

        def filed(crefs) -> list:
            return sorted(sorted(clause_lits(solver, c)) for c in crefs)

        problem = filed(solver._long_crefs)
        binary = filed(solver._bin_crefs)
        assert not solver.solve().satisfiable
        assert solver.stats.db_reductions > 0
        assert filed(solver._long_crefs) == problem
        after = filed(solver._bin_crefs)
        assert all(clause in after for clause in binary)

    def test_blocking_clauses_are_filed_as_problem_clauses(self) -> None:
        solver = CdclSolver(make_cnf(4))
        models = solver.iter_solutions()
        assert next(models) == {1: False, 2: False, 3: False, 4: False}
        # Continuing attaches the first model's blocking clause.
        assert next(models) == {1: False, 2: False, 3: False, 4: True}
        (cref,) = solver._long_crefs
        assert sorted(clause_lits(solver, cref)) == [1, 2, 3, 4]
        assert solver._arena[cref - 1] & 1 == 0
        assert solver.learned_count == 0
        models.close()


# ----------------------------------------------------------------------
# Decision order and enumeration
# ----------------------------------------------------------------------


class TestDecisionOrder:
    def test_ties_go_to_the_lowest_variable_false_first(self) -> None:
        solver = CdclSolver(make_cnf(3))
        assert solver.solve().model == {1: False, 2: False, 3: False}
        assert solver.last_model_decisions() == [-1, -2, -3]

    def test_phase_saving(self) -> None:
        solver = CdclSolver(make_cnf(3))
        assert solver.solve(assumptions=[2]).model == {1: False, 2: True, 3: False}
        # The next solve re-decides 2 with its saved (true) phase.
        assert solver.solve().model == {1: False, 2: True, 3: False}
        assert solver.last_model_decisions() == [-1, 2, -3]

    def test_bumped_variable_is_decided_first(self) -> None:
        solver = CdclSolver(make_cnf(4))
        solver._bump(3)
        solver.solve()
        assert solver.last_model_decisions() == [-3, -1, -2, -4]

    def test_activity_rescaling_keeps_the_order(self) -> None:
        solver = CdclSolver(make_cnf(6))
        solver._var_inc = 6e99
        for var in (4, 2, 2):  # the third bump crosses 1e100: rescale
            solver._bump(var)
        assert solver._activity[2] == pytest.approx(1.2)
        assert solver._activity[4] == pytest.approx(0.6)
        assert solver._var_inc == pytest.approx(0.6)
        check_invariants(solver)
        solver.solve()
        assert solver.last_model_decisions() == [-2, -4, -1, -3, -5, -6]

    def test_custom_blocking_literals_enumerate_a_projection(self) -> None:
        solver = CdclSolver(make_cnf(4, [[1, 2], [-3, 4]]))

        def block(model: dict[int, bool]) -> list[int]:
            return [-v if model[v] else v for v in (1, 2)]

        seen = [(m[1], m[2]) for m in solver.iter_solutions(blocking_literals=block)]
        assert len(seen) == 3
        assert set(seen) == {(False, True), (True, False), (True, True)}

    def test_model_decisions_pin_a_unique_model(self) -> None:
        satisfiable = 0
        for seed in range(6):
            cnf = random_cnf(10, 30, seed, widths=(2, 3))
            solver = CdclSolver(cnf)
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(cnf)
            if not result.satisfiable:
                continue
            satisfiable += 1
            decisions = solver.last_model_decisions()
            extending = [
                model
                for model in brute_force_models(cnf)
                if all(model[abs(lit)] == (lit > 0) for lit in decisions)
            ]
            assert extending == [result.model]
        assert satisfiable > 0


# ----------------------------------------------------------------------
# Invariants across random searches
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(10))
def test_search_invariants_hold_across_reductions(seed: int) -> None:
    """Near-threshold random 3-SAT with a tiny learned-clause budget, so
    restarts reduce and compact: the structure is checked after each,
    the answer against a solver that never reduces."""
    cnf = random_cnf(80, 340, seed)
    solver = CheckedSolver(cnf)
    solver._max_learned = 4
    result = solver.solve()
    assert solver.stats.db_reductions > 0 and solver.checks > 0
    roomy = CdclSolver(cnf)
    roomy._max_learned = 10**9
    assert result.satisfiable == roomy.solve().satisfiable
    if result.satisfiable:
        assert cnf.evaluate(result.model)
        check_invariants(solver)


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_invariants_and_exactness(seed: int) -> None:
    """The state is intact at every enumerated model (blocking clauses
    attached mid-search included), and the models are exactly the
    brute-force set."""
    cnf = random_cnf(11, 18, seed, widths=(2, 3))
    solver = CdclSolver(cnf)
    seen = []
    for model in solver.iter_solutions():
        check_invariants(solver)
        assert cnf.evaluate(model)
        seen.append(model_key(model))
    assert len(seen) == len(set(seen))
    assert set(seen) == brute_force_keys(cnf)


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_survives_reductions(seed: int) -> None:
    """AllSAT with a two-clause learned budget, so restarts in the middle
    of the enumeration reduce and compact the database: the structure is
    checked after each, and the models match a solver that never
    reduces."""
    cnf = random_cnf(55, 225, seed)
    solver = CheckedSolver(cnf)
    solver._max_learned = 2
    seen = []
    for model in solver.iter_solutions():
        assert cnf.evaluate(model)
        seen.append(model_key(model))
    assert solver.stats.db_reductions > 0 and solver.checks > 0
    roomy = CdclSolver(cnf)
    roomy._max_learned = 10**9
    assert len(seen) == len(set(seen))
    assert set(seen) == {model_key(m) for m in roomy.iter_solutions()}


@pytest.mark.parametrize("seed", range(6))
def test_query_sequence_matches_brute_force(seed: int) -> None:
    """A session-style sequence on one solver: solves under random
    assumptions, solve-and-block rounds and new clauses in between.
    Every answer matches brute force, and the state is at rest between
    queries."""
    rng = random.Random(seed)
    cnf = random_cnf(10, 24, seed, widths=(2, 3))
    solver = CheckedSolver(cnf)
    solver._max_learned = 0
    for _ in range(12):
        action = rng.random()
        if action < 0.5:
            chosen = rng.sample(range(1, 11), rng.randint(1, 3))
            assumptions = [v if rng.random() < 0.5 else -v for v in chosen]
            strengthened = make_cnf(
                10, list(cnf.clauses) + [[lit] for lit in assumptions]
            )
            result = solver.solve(assumptions=assumptions)
            assert result.satisfiable == brute_force_satisfiable(strengthened)
            if result.satisfiable:
                assert strengthened.evaluate(result.model)
        elif action < 0.8:
            result = solver.solve()
            assert result.satisfiable == brute_force_satisfiable(cnf)
            if not result.satisfiable:
                break
            blocking = [-v if result.model[v] else v for v in range(1, 11)]
            cnf.add_clause(blocking)
            solver.add_clause(blocking)
        else:
            chosen = rng.sample(range(1, 11), 3)
            clause = [v if rng.random() < 0.5 else -v for v in chosen]
            cnf.add_clause(clause)
            solver.add_clause(clause)
        if solver._ok:
            check_invariants(solver)
    assert solver.solve().satisfiable == brute_force_satisfiable(cnf)
