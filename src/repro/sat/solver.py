"""The CDCL SAT solver (the reproduction's stand-in for MiniSat [17]).

One pure-Python solver serves the paper's Alloy -> Kodkod -> SAT
pipeline (§IV-C): :class:`CdclSolver` implements

* clauses stored in one flat integer arena, two-watched-literal unit
  propagation with blocking literals, and dedicated binary watch lists;
* first-UIP conflict analysis with learned-clause minimization;
* an indexed VSIDS max-heap with deterministic tie-breaking and phase
  saving;
* Luby restarts and LBD-ranked learned-clause database reduction;
* incremental use: assumptions, clauses added between solves, and
  in-place AllSAT enumeration (:meth:`CdclSolver.iter_solutions`);
* cooperative deadlines (:func:`repro.resilience.deadline_scope`).

The search is fully deterministic — the pipeline's byte-identical-output
guarantee rests on that — and its exact trajectory is pinned by
``tests/test_sat_solver.py``; the brute-force procedures in
:mod:`repro.sat.reference` are its correctness oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, fields
from typing import Iterable, Optional, Sequence

from ..errors import SolverInterrupted
from ..resilience import current_deadline
from .cnf import Cnf

#: How many unit propagations may elapse between cooperative-deadline
#: polls.  Coarse enough that the poll is invisible in profile (one
#: comparison per loop iteration, one clock read per ~budget
#: propagations), fine enough that a stuck query dies within a fraction
#: of a second of its deadline.  The deadline itself is re-read from the
#: ambient scope at *every* poll, so a deadline installed after a solve
#: or enumeration started is still honored (nested sweep budgets).
DEADLINE_POLL_PROPAGATIONS = 20000

#: The solver's name in environment stamps (see :func:`accel_status`).
SOLVER_CORE = "python"


def luby(index: int) -> int:
    """Return the ``index``-th element (1-based) of the Luby sequence
    1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...

    >>> [luby(i) for i in range(1, 10)]
    [1, 1, 2, 1, 1, 2, 4, 1, 1]
    """
    while True:
        k = 1
        while (1 << k) - 1 < index:
            k += 1
        if index == (1 << k) - 1:
            return 1 << (k - 1)
        # Here 2^(k-1) - 1 < index < 2^k - 1: recurse into the repeated prefix.
        index -= (1 << (k - 1)) - 1


#: Fields of :class:`SolverStats` that merge by ``max`` instead of ``+``.
#: Everything else is a plain additive counter; :meth:`SolverStats.merge`
#: iterates ``dataclasses.fields()`` so a newly added counter can never
#: be silently dropped from aggregation.
MAX_MERGED_STAT_FIELDS = frozenset({"max_decision_level"})


@dataclass
class SolverStats:
    """Counters exposed for benchmarks and tests."""

    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    max_decision_level: int = 0
    #: Literals removed from learned clauses by minimization.
    minimized_literals: int = 0
    #: Learned-clause database reductions performed.
    db_reductions: int = 0
    #: Learned clauses deleted by those reductions.
    deleted_clauses: int = 0
    # ---- incremental-session counters (maintained by the session layers:
    # :class:`repro.relational.translate.ProblemSession` and the witness
    # session cache in :mod:`repro.synth.sat_backend`) ------------------
    #: Persistent witness sessions opened (one per translated program).
    sessions: int = 0
    #: Relational-to-CNF translations performed.
    translations: int = 0
    #: Queries served by a live session that a fresh-solver run would
    #: have paid a full translation for.
    translations_avoided: int = 0
    #: Assumption-scoped solves/enumerations answered by a live session
    #: (reusing its translation and accumulated solver state).
    incremental_solves: int = 0
    #: Learned clauses already present (and reused) at the start of each
    #: incremental solve, summed over solves.
    retained_learned_clauses: int = 0
    # ---- symmetry-breaking counters (maintained by the relational
    # translation, :mod:`repro.relational.translate`) --------------------
    #: Static lex-leader symmetry-breaking clauses emitted into the CNF
    #: during translation (see :meth:`repro.relational.Problem.
    #: add_symmetry`).  Deterministic for a fixed problem.
    symmetry_clauses: int = 0

    def merge(self, other: "SolverStats") -> None:
        """Accumulate another counter set into this one (used when stats
        from many solver instances are aggregated, e.g. per-program SAT
        witness enumeration inside one synthesis run).

        Driven by ``dataclasses.fields()`` so every counter — including
        any added later — participates: fields named in
        :data:`MAX_MERGED_STAT_FIELDS` merge by ``max``, the rest sum.
        """
        for spec in fields(self):
            name = spec.name
            if name in MAX_MERGED_STAT_FIELDS:
                setattr(self, name, max(getattr(self, name), getattr(other, name)))
            else:
                setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class SatResult:
    """Outcome of a :meth:`CdclSolver.solve` call."""

    satisfiable: bool
    model: Optional[dict[int, bool]] = None
    stats: SolverStats = field(default_factory=SolverStats)

    def __bool__(self) -> bool:
        return self.satisfiable


class CdclSolver:
    """Complete CDCL search over a :class:`Cnf` (see module docstring).

    The solver copies the clauses out of the given CNF, so the CNF may
    keep growing for other purposes afterwards; use :meth:`add_clause`
    to feed additional clauses (e.g. AllSAT blocking clauses) to the
    same solver instance between ``solve`` calls.

    Every clause lives in one flat integer *arena*::

        ... | size | flags | lit0 | lit1 | ... | lit_{size-1} | ...
                            ^
                            cref (clause reference = arena index of lit0)

    ``flags`` packs the LBD quality tag and the learned bit
    (``lbd << 1 | learned``).  Watch lists are flat integer lists of
    ``blocker, cref`` pairs (``(other, cref)`` tuples in the binary watch
    lists), and a propagation *reason* is the forcing clause's ``cref``
    (-1 for decisions and assumptions).  The propagation loop therefore
    touches only integer lists, and a solver holds no per-clause objects
    for the cyclic garbage collector to walk while the rest of the
    pipeline allocates.
    """

    def __init__(self, cnf: Cnf) -> None:
        self._nvars = cnf.num_vars
        # Literal encoding: positive literal v -> 2v, negative -> 2v+1.
        size = 2 * self._nvars + 2
        # Literal-indexed truth values: 1 true, -1 false, 0 unassigned.
        self._values: list[int] = [0] * size
        self._max_learned = 2000
        self._level: list[int] = [0] * (self._nvars + 1)
        self._reason: list[int] = [-1] * (self._nvars + 1)
        self._trail: list[int] = []  # literals in assignment order
        self._trail_lim: list[int] = []  # trail indices at each decision level
        self._qhead = 0
        self._activity: list[float] = [0.0] * (self._nvars + 1)
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._saved_phase: list[bool] = [False] * (self._nvars + 1)
        self._seen = bytearray(self._nvars + 1)
        # Indexed max-heap over unassigned variables: ordered by activity,
        # ties broken deterministically by the smaller variable index.
        self._heap: list[int] = []
        self._heap_pos: list[int] = [-1] * (self._nvars + 1)
        for var in range(1, self._nvars + 1):
            self._heap_insert(var)
        self._ok = True
        self._last_model_decisions: list[int] = []
        self.stats = SolverStats()
        # Arena slots 0/1 are padding so that no real cref is ever <= 1:
        # cref 0 would collide with header reads at cref-2.
        self._arena: list[int] = [0, 0]
        # _watches[i]: flat (blocker, cref) pairs whose watched literal is
        # the negation of literal i; _bin_watches[i]: (other, cref) int
        # tuples for binary clauses (-lit(i), other) — tuples of two ints,
        # so the binary loop unpacks them at C speed.
        self._watches: list[list[int]] = [[] for _ in range(size)]
        self._bin_watches: list[list[tuple[int, int]]] = [[] for _ in range(size)]
        self._long_crefs: list[int] = []
        self._learned_crefs: list[int] = []
        self._bin_crefs: list[int] = []
        self._load(cnf.clauses)

    # ------------------------------------------------------------------
    # Clause database
    # ------------------------------------------------------------------
    def _load(self, clauses: Iterable[Sequence[int]]) -> None:
        """Bulk-load clauses from a :class:`Cnf`.

        The container guarantees clauses are deduplicated and
        tautology-free, and nothing is assigned yet, so clauses can be
        installed without the per-clause filtering of :meth:`add_clause`;
        unit clauses are enqueued at the end and propagated once.
        """
        units: list[int] = []
        for clause in clauses:
            size = len(clause)
            if size == 0:
                self._ok = False
                return
            if size == 1:
                units.append(clause[0])
            else:
                self._attach_clause(clause)
        for lit in units:
            if not self._enqueue(lit, -1):
                self._ok = False
                return
        if self._propagate() is not None:
            self._ok = False

    def add_clause(self, literals: Iterable[int]) -> bool:
        """Add a clause; returns False if the formula became trivially UNSAT.

        Intended for use between solve calls; if the solver was abandoned
        mid-search (an enumeration generator closed early), the search is
        first cancelled back to decision level 0 so the clause — and any
        unit it implies — lands on the root level.  Duplicate literals
        and tautologies are detected in one linear pass.
        """
        if not self._ok:
            return False
        self._cancel_until(0)
        seen: set[int] = set()
        lits: list[int] = []
        max_var = 0
        for lit in literals:
            if -lit in seen:
                return True  # tautology
            if lit not in seen:
                seen.add(lit)
                lits.append(lit)
                var = lit if lit > 0 else -lit
                if var > max_var:
                    max_var = var
        self._grow_to(max_var)
        lits.sort(key=abs)
        # Remove literals already false at level 0; succeed early on a true one.
        values = self._values
        level = self._level
        filtered: list[int] = []
        for lit in lits:
            index = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            value = values[index]
            if value > 0 and level[abs(lit)] == 0:
                return True
            if value < 0 and level[abs(lit)] == 0:
                continue
            filtered.append(lit)
        if not filtered:
            self._ok = False
            return False
        if len(filtered) == 1:
            if not self._enqueue(filtered[0], -1):
                self._ok = False
                return False
            conflict = self._propagate()
            if conflict is not None:
                self._ok = False
                return False
            return True
        self._attach_clause(filtered)
        return True

    def _attach_clause(
        self, lits: Sequence[int], learned: bool = False, lbd: int = 0
    ) -> int:
        """Install a clause of >= 2 literals and return its cref (the
        reason its first literal is enqueued under)."""
        arena = self._arena
        arena.append(len(lits))
        arena.append((lbd << 1) | (1 if learned else 0))
        cref = len(arena)
        arena.extend(lits)
        if len(lits) == 2:
            self._bin_crefs.append(cref)
            self._watch_binary(cref)
        else:
            if learned:
                self._learned_crefs.append(cref)
            else:
                self._long_crefs.append(cref)
            self._watch(cref)
        return cref

    def _watch(self, cref: int) -> None:
        arena = self._arena
        first = arena[cref]
        second = arena[cref + 1]
        watch = self._watches[self._lit_index(-first)]
        watch.append(second)
        watch.append(cref)
        watch = self._watches[self._lit_index(-second)]
        watch.append(first)
        watch.append(cref)

    def _watch_binary(self, cref: int) -> None:
        arena = self._arena
        a = arena[cref]
        b = arena[cref + 1]
        self._bin_watches[self._lit_index(-a)].append((b, cref))
        self._bin_watches[self._lit_index(-b)].append((a, cref))

    def _reason_lits(self, var: int) -> Optional[list[int]]:
        """The literals of the clause that forced ``var``, or None for a
        decision/assumption."""
        cref = self._reason[var]
        if cref < 0:
            return None
        arena = self._arena
        return arena[cref : cref + arena[cref - 2]]

    @property
    def learned_count(self) -> int:
        """Learned clauses currently retained in the database (what an
        incremental session reuses across queries; binary learned clauses
        live in the binary watch lists and are not counted here)."""
        return len(self._learned_crefs)

    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses (called at decision
        level 0 only), then compact the arena.

        Clauses are ranked by (LBD, length, age); "glue" clauses with
        LBD <= 2 are always kept, the standard heuristic for clauses that
        connect decision levels and get reused constantly.  A clause that
        is currently the *reason* for a literal on the trail (level-0
        forced literals survive the backtrack to level 0) is *locked* and
        always kept: deleting it would leave a dangling reason that
        conflict analysis could later trip over."""
        arena = self._arena
        learned = self._learned_crefs
        reasons = self._reason
        locked: set[int] = set()
        for lit in self._trail:
            cref = reasons[lit if lit > 0 else -lit]
            if cref >= 0:
                locked.add(cref)
        ranked = sorted(
            range(len(learned)),
            key=lambda i: (arena[learned[i] - 1] >> 1, arena[learned[i] - 2], i),
        )
        keep_indices = set(ranked[: len(learned) // 2])
        kept: list[int] = []
        deleted = 0
        for i, cref in enumerate(learned):
            if i in keep_indices or (arena[cref - 1] >> 1) <= 2 or cref in locked:
                kept.append(cref)
            else:
                deleted += 1
        self._learned_crefs = kept
        self._compact()
        self.stats.db_reductions += 1
        self.stats.deleted_clauses += deleted
        self._max_learned = self._max_learned + self._max_learned // 2

    def _compact(self) -> None:
        """Copy the surviving clauses into a fresh arena, remap every cref
        (clause lists, trail reasons), and rebuild the watch lists: long
        clauses before learned ones, binary lists in clause order."""
        old = self._arena
        new: list[int] = [0, 0]
        remap: dict[int, int] = {}
        for crefs in (self._bin_crefs, self._long_crefs, self._learned_crefs):
            for cref in crefs:
                size = old[cref - 2]
                new.append(size)
                new.append(old[cref - 1])
                remap[cref] = len(new)
                new.extend(old[cref : cref + size])
        self._arena = new
        self._bin_crefs = [remap[c] for c in self._bin_crefs]
        self._long_crefs = [remap[c] for c in self._long_crefs]
        self._learned_crefs = [remap[c] for c in self._learned_crefs]
        reasons = self._reason
        for var in range(1, self._nvars + 1):
            cref = reasons[var]
            if cref >= 0:
                # Locked clauses are always kept, so this never dangles.
                reasons[var] = remap[cref]
        for watch_list in self._watches:
            del watch_list[:]
        for cref in self._long_crefs:
            self._watch(cref)
        for cref in self._learned_crefs:
            self._watch(cref)
        for watch_list in self._bin_watches:
            del watch_list[:]
        for cref in self._bin_crefs:
            self._watch_binary(cref)

    def _grow_to(self, var: int) -> None:
        while self._nvars < var:
            self._nvars += 1
            self._level.append(0)
            self._reason.append(-1)
            self._activity.append(0.0)
            self._saved_phase.append(False)
            self._heap_pos.append(-1)
            self._values.append(0)
            self._values.append(0)
            self._seen.append(0)
            self._watches.append([])
            self._watches.append([])
            self._bin_watches.append([])
            self._bin_watches.append([])
            self._heap_insert(self._nvars)

    @staticmethod
    def _lit_index(lit: int) -> int:
        return 2 * lit if lit > 0 else -2 * lit + 1

    # ------------------------------------------------------------------
    # Assignment primitives
    # ------------------------------------------------------------------
    def _value(self, lit: int) -> Optional[bool]:
        value = self._values[(lit << 1) if lit > 0 else ((-lit) << 1) | 1]
        if value == 0:
            return None
        return value > 0

    def _enqueue(self, lit: int, reason: int) -> bool:
        index = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
        value = self._values[index]
        if value != 0:
            return value > 0
        var = lit if lit > 0 else -lit
        self._values[index] = 1
        self._values[index ^ 1] = -1
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)
        return True

    # ------------------------------------------------------------------
    # Unit propagation (the hot loop)
    # ------------------------------------------------------------------
    def _propagate(self) -> Optional[list[int]]:
        """Unit propagation; returns a conflicting clause's literals or None.

        The hot loop: truth values are read straight out of the
        literal-indexed array (no method call), blocking literals short-cut
        satisfied clauses without touching the arena, and binary clauses
        propagate from their own watch lists."""
        values = self._values
        trail = self._trail
        watches = self._watches
        bin_watches = self._bin_watches
        arena = self._arena
        level_now = len(self._trail_lim)
        levels = self._level
        reasons = self._reason
        qhead = self._qhead
        start = qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            lit_idx = (lit << 1) if lit > 0 else ((-lit) << 1) | 1

            for other, bin_cref in bin_watches[lit_idx]:
                other_idx = (other << 1) if other > 0 else ((-other) << 1) | 1
                value = values[other_idx]
                if value < 0:
                    self._qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return arena[bin_cref : bin_cref + 2]
                if value == 0:
                    values[other_idx] = 1
                    values[other_idx ^ 1] = -1
                    var = other if other > 0 else -other
                    levels[var] = level_now
                    reasons[var] = bin_cref
                    trail.append(other)

            watch_list = watches[lit_idx]
            neg_lit = -lit
            i = 0
            j = 0
            end = len(watch_list)
            while i < end:
                # Watch entries are flat (blocker, cref) pairs; the
                # blocker is *some* literal of the clause whose truth
                # proves the clause satisfied without touching the arena.
                # Compaction writes are skipped while i == j (nothing has
                # moved out of this list yet) — the common case.
                blocker = watch_list[i]
                if values[(blocker << 1) if blocker > 0 else ((-blocker) << 1) | 1] > 0:
                    if i != j:
                        watch_list[j] = blocker
                        watch_list[j + 1] = watch_list[i + 1]
                    i += 2
                    j += 2
                    continue
                cref = watch_list[i + 1]
                i += 2
                # Normalize: the false literal goes to position 1.
                if arena[cref] == neg_lit:
                    arena[cref] = arena[cref + 1]
                    arena[cref + 1] = neg_lit
                first = arena[cref]
                first_idx = (first << 1) if first > 0 else ((-first) << 1) | 1
                if values[first_idx] > 0:
                    if i != j + 2:
                        watch_list[j] = blocker
                        watch_list[j + 1] = cref
                    j += 2
                    continue
                # Look for a replacement watch.
                moved = False
                for pos in range(cref + 2, cref + arena[cref - 2]):
                    cand = arena[pos]
                    cand_idx = (cand << 1) if cand > 0 else ((-cand) << 1) | 1
                    if values[cand_idx] >= 0:
                        arena[cref + 1] = cand
                        arena[pos] = neg_lit
                        moved_watch = watches[cand_idx ^ 1]
                        moved_watch.append(blocker)
                        moved_watch.append(cref)
                        moved = True
                        break
                if moved:
                    continue
                # Clause is unit or conflicting.
                if i != j + 2:
                    watch_list[j] = blocker
                    watch_list[j + 1] = cref
                j += 2
                if values[first_idx] < 0:
                    if i != j:
                        while i < end:
                            watch_list[j] = watch_list[i]
                            watch_list[j + 1] = watch_list[i + 1]
                            i += 2
                            j += 2
                        del watch_list[j:]
                    self._qhead = len(trail)
                    self.stats.propagations += qhead - start
                    return arena[cref : cref + arena[cref - 2]]
                values[first_idx] = 1
                values[first_idx ^ 1] = -1
                var = first if first > 0 else -first
                levels[var] = level_now
                reasons[var] = cref
                trail.append(first)
            if j != end:
                del watch_list[j:]
        self._qhead = qhead
        self.stats.propagations += qhead - start
        return None

    # ------------------------------------------------------------------
    # Conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _analyze(self, conflict: Sequence[int]) -> tuple[list[int], int, int]:
        """Derive the first-UIP learned clause; returns (clause, backjump
        level, LBD).  The clause is minimized by self-subsumption: a
        non-asserting literal whose reason clause is entirely covered by
        the other learned literals (or level-0 facts) is redundant."""
        seen = self._seen
        to_clear: list[int] = []
        learned: list[int] = []
        counter = 0
        pivot: Optional[int] = None  # trail literal whose reason is expanded
        reason: Sequence[int] = conflict
        trail = self._trail
        trail_index = len(trail) - 1
        current_level = len(self._trail_lim)
        levels = self._level
        while True:
            for q in reason:
                if pivot is not None and q == pivot:
                    continue
                var = abs(q)
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    to_clear.append(var)
                    self._bump(var)
                    if levels[var] >= current_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[abs(trail[trail_index])]:
                trail_index -= 1
            pivot = trail[trail_index]
            var = abs(pivot)
            seen[var] = 0
            counter -= 1
            trail_index -= 1
            if counter == 0:
                break
            clause_reason = self._reason_lits(var)
            assert clause_reason is not None
            reason = clause_reason

        # Minimization.  Every current-level variable has been resolved
        # away, so a learned literal's reason (all at its own, lower,
        # level or below) is checked purely against the seen set — i.e.
        # against the other learned literals and level-0 facts.
        if learned:
            kept: list[int] = []
            for q in learned:
                reason_q = self._reason_lits(abs(q))
                if reason_q is None:
                    kept.append(q)
                    continue
                redundant = True
                for r in reason_q:
                    if r == -q:
                        continue
                    rvar = abs(r)
                    if levels[rvar] > 0 and not seen[rvar]:
                        redundant = False
                        break
                if redundant:
                    self.stats.minimized_literals += 1
                else:
                    kept.append(q)
            learned = kept
        for var in to_clear:
            seen[var] = 0

        learned.insert(0, -pivot)
        if len(learned) == 1:
            return learned, 0, 1
        # Backjump level = max level among the non-asserting literals.
        back_level = 0
        distinct_levels = {current_level}
        for q in learned[1:]:
            q_level = levels[abs(q)]
            distinct_levels.add(q_level)
            if q_level > back_level:
                back_level = q_level
        # Put one literal of the backjump level in watch position 1.
        for pos in range(1, len(learned)):
            if levels[abs(learned[pos])] == back_level:
                learned[1], learned[pos] = learned[pos], learned[1]
                break
        return learned, back_level, len(distinct_levels)

    def _bump(self, var: int) -> None:
        activity = self._activity
        activity[var] += self._var_inc
        if activity[var] > 1e100:
            for index in range(1, self._nvars + 1):
                activity[index] *= 1e-100
            self._var_inc *= 1e-100
            # Uniform rescaling preserves the heap order; no repair needed.
        if self._heap_pos[var] >= 0:
            self._heap_sift_up(self._heap_pos[var])

    def _decay(self) -> None:
        self._var_inc /= self._var_decay

    # ------------------------------------------------------------------
    # VSIDS order heap (indexed binary max-heap; deterministic ties)
    # ------------------------------------------------------------------
    def _heap_before(self, a: int, b: int) -> bool:
        activity = self._activity
        if activity[a] != activity[b]:
            return activity[a] > activity[b]
        return a < b

    def _heap_insert(self, var: int) -> None:
        if self._heap_pos[var] >= 0:
            return
        heap = self._heap
        heap.append(var)
        self._heap_pos[var] = len(heap) - 1
        self._heap_sift_up(len(heap) - 1)

    def _heap_sift_up(self, index: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        var = heap[index]
        while index > 0:
            parent = (index - 1) >> 1
            parent_var = heap[parent]
            if not self._heap_before(var, parent_var):
                break
            heap[index] = parent_var
            pos[parent_var] = index
            index = parent
        heap[index] = var
        pos[var] = index

    def _heap_sift_down(self, index: int) -> None:
        heap = self._heap
        pos = self._heap_pos
        size = len(heap)
        var = heap[index]
        while True:
            child = 2 * index + 1
            if child >= size:
                break
            right = child + 1
            if right < size and self._heap_before(heap[right], heap[child]):
                child = right
            child_var = heap[child]
            if not self._heap_before(child_var, var):
                break
            heap[index] = child_var
            pos[child_var] = index
            index = child
        heap[index] = var
        pos[var] = index

    def _heap_pop(self) -> int:
        heap = self._heap
        pos = self._heap_pos
        top = heap[0]
        pos[top] = -1
        last = heap.pop()
        if heap:
            heap[0] = last
            pos[last] = 0
            self._heap_sift_down(0)
        return top

    # ------------------------------------------------------------------
    # Conflict learning (shared by solve() and iter_solutions())
    # ------------------------------------------------------------------
    def _learn_and_backjump(self, conflict: Sequence[int]) -> Optional[str]:
        """Analyze a conflict at decision level > 0, install the learned
        clause and backjump.  Returns None when the formula became
        unsatisfiable, ``"unit"`` when a unit was learned (the solver is
        back at level 0), ``"clause"`` otherwise."""
        learned, back_level, lbd = self._analyze(conflict)
        self._cancel_until(back_level)
        if len(learned) == 1:
            self._cancel_until(0)
            if not self._enqueue(learned[0], -1):
                self._ok = False
                return None
            if self._propagate() is not None:
                self._ok = False
                return None
            self._decay()
            return "unit"
        cref = self._attach_clause(learned, learned=True, lbd=lbd)
        self.stats.learned_clauses += 1
        self._enqueue(learned[0], cref)
        self._decay()
        return "clause"

    def _restart(self) -> None:
        """Cancel to level 0 and, if due, reduce the learned database."""
        self.stats.restarts += 1
        self._cancel_until(0)
        if self.learned_count > self._max_learned:
            self._reduce_db()

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------
    def _cancel_until(self, level: int) -> None:
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        values = self._values
        for index in range(len(self._trail) - 1, limit - 1, -1):
            lit = self._trail[index]
            var = lit if lit > 0 else -lit
            self._saved_phase[var] = lit > 0
            lit_idx = (lit << 1) if lit > 0 else (var << 1) | 1
            values[lit_idx] = 0
            values[lit_idx ^ 1] = 0
            self._reason[var] = -1
            if self._heap_pos[var] < 0:
                self._heap_insert(var)
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = len(self._trail)

    def _decide(self) -> Optional[int]:
        values = self._values
        heap = self._heap
        while heap:
            var = self._heap_pop()
            if values[var << 1] == 0:
                return var if self._saved_phase[var] else -var
        return None

    def _poll_deadline(self, what: str) -> None:
        """Raise :class:`SolverInterrupted` once the ambient cooperative
        deadline has passed.  The deadline is re-read at every poll, so a
        scope entered after the query started still interrupts it; the
        solver backtracks to level 0 first so it stays usable."""
        deadline = current_deadline()
        if deadline is not None and time.monotonic() > deadline:
            self._cancel_until(0)
            raise SolverInterrupted(f"SAT {what} interrupted by cooperative deadline")

    # ------------------------------------------------------------------
    # Main search loop
    # ------------------------------------------------------------------
    def solve(self, assumptions: Sequence[int] = ()) -> SatResult:
        """Search for a model extending ``assumptions``.

        Assumptions are literals treated as decisions; if the formula is
        unsatisfiable only under the assumptions, the result is UNSAT but the
        solver stays usable for further calls.
        """
        if not self._ok:
            return SatResult(False, stats=self.stats)
        for lit in assumptions:
            self._grow_to(abs(lit))
        self._cancel_until(0)
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return SatResult(False, stats=self.stats)
        if self.learned_count > self._max_learned:
            # Incremental use (AllSAT blocking loops) adds clauses between
            # many short solve calls; reduce here too, not just at restarts.
            self._reduce_db()

        restart_index = 1
        conflict_budget = 32 * luby(restart_index)
        conflicts_here = 0
        next_poll = self.stats.propagations + DEADLINE_POLL_PROPAGATIONS

        while True:
            if self.stats.propagations >= next_poll:
                next_poll = self.stats.propagations + DEADLINE_POLL_PROPAGATIONS
                self._poll_deadline("solve")
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if len(self._trail_lim) == 0:
                    self._cancel_until(0)
                    return SatResult(False, stats=self.stats)
                if not self._all_assumptions_hold(assumptions):
                    # Conflict depends on assumptions only.
                    self._cancel_until(0)
                    return SatResult(False, stats=self.stats)
                outcome = self._learn_and_backjump(conflict)
                if outcome is None:
                    return SatResult(False, stats=self.stats)
                if outcome == "unit" and not self._replay_assumptions(assumptions):
                    return SatResult(False, stats=self.stats)
                if conflicts_here >= conflict_budget:
                    restart_index += 1
                    conflict_budget = 32 * luby(restart_index)
                    conflicts_here = 0
                    self._restart()
                    if not self._replay_assumptions(assumptions):
                        return SatResult(False, stats=self.stats)
                continue

            if not self._replay_assumptions(assumptions):
                return SatResult(False, stats=self.stats)
            if self._qhead < len(self._trail):
                continue

            decision = self._decide()
            if decision is None:
                values = self._values
                model = {
                    var: values[var << 1] > 0
                    for var in range(1, self._nvars + 1)
                }
                trail = self._trail
                self._last_model_decisions = [
                    trail[position] for position in self._trail_lim
                ]
                self._cancel_until(0)
                return SatResult(True, model=model, stats=self.stats)
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            if len(self._trail_lim) > self.stats.max_decision_level:
                self.stats.max_decision_level = len(self._trail_lim)
            self._enqueue(decision, -1)

    # ------------------------------------------------------------------
    # Incremental AllSAT
    # ------------------------------------------------------------------
    def iter_solutions(self, blocking_literals=None, assumptions: Sequence[int] = ()):
        """Enumerate models without restarting the search between them.

        After each yielded model a blocking clause is attached *in place*:
        the solver backjumps only far enough to make the clause assert, so
        the shared prefix of consecutive models (usually almost all of it,
        thanks to phase saving) is never re-propagated.  This is the
        engine behind :func:`repro.sat.enumerate.iter_models` and
        :meth:`repro.relational.translate.Problem.iter_instances`.

        ``blocking_literals``: optional ``callable(model) -> list[int]``
        returning literals, all false under the model, whose clause rules
        it out (e.g. the negated projection values).  The default blocks
        the model's decision literals, which excludes exactly that one
        total model.

        ``assumptions`` scopes the enumeration: the given literals are
        held as pseudo-decisions for the whole run (exactly as in
        :meth:`solve`), and enumeration ends — leaving the solver usable —
        as soon as the formula is exhausted *under the assumptions*.
        Because assumption literals sit on decision levels, the default
        blocking clauses automatically carry their negations, so an
        incremental session that retires one assumption literal (e.g. a
        fresh per-enumeration activation tag asserted false afterwards)
        retracts every blocking clause of that enumeration in one unit
        clause.

        The generator yields each model dict exactly once; the solver must
        not be used for other queries while enumeration is in progress.
        Enumeration is deterministic and complete: it ends when the
        formula plus blocking clauses becomes unsatisfiable (under the
        assumptions, if any).
        """
        if not self._ok:
            return
        for lit in assumptions:
            self._grow_to(abs(lit))
        self._cancel_until(0)
        if self._propagate() is not None:
            self._ok = False
            return

        restart_index = 1
        conflict_budget = 32 * luby(restart_index)
        conflicts_here = 0
        next_poll = self.stats.propagations + DEADLINE_POLL_PROPAGATIONS

        while True:
            if self.stats.propagations >= next_poll:
                next_poll = self.stats.propagations + DEADLINE_POLL_PROPAGATIONS
                # An abandoned enumeration must not poison later queries:
                # the poll backtracks before raising.
                self._poll_deadline("enumeration")
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                conflicts_here += 1
                if len(self._trail_lim) == 0:
                    self._cancel_until(0)
                    self._ok = False
                    return
                if assumptions and not self._all_assumptions_hold(assumptions):
                    # The conflict needs an assumption flipped: the model
                    # space under the assumptions is exhausted, but the
                    # solver (and its learned clauses) stay usable.
                    self._cancel_until(0)
                    return
                outcome = self._learn_and_backjump(conflict)
                if outcome is None:
                    return
                if (
                    outcome == "unit"
                    and assumptions
                    and not self._replay_assumptions(assumptions)
                ):
                    return
                if conflicts_here >= conflict_budget:
                    restart_index += 1
                    conflict_budget = 32 * luby(restart_index)
                    conflicts_here = 0
                    self._restart()
                    if assumptions and not self._replay_assumptions(assumptions):
                        return
                continue

            if assumptions:
                if not self._replay_assumptions(assumptions):
                    return
                if self._qhead < len(self._trail):
                    continue

            decision = self._decide()
            if decision is not None:
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                if len(self._trail_lim) > self.stats.max_decision_level:
                    self.stats.max_decision_level = len(self._trail_lim)
                self._enqueue(decision, -1)
                continue

            values = self._values
            model = {
                var: values[var << 1] > 0 for var in range(1, self._nvars + 1)
            }
            trail = self._trail
            self._last_model_decisions = [
                trail[position] for position in self._trail_lim
            ]
            yield model
            if blocking_literals is None:
                lits = [-lit for lit in self._last_model_decisions]
            else:
                lits = blocking_literals(model)
            if not self._block_and_continue(lits):
                self._cancel_until(0)
                return

    def _block_and_continue(self, lits: list[int]) -> bool:
        """Attach a blocking clause mid-search and backjump so the search
        continues past it; returns False when enumeration is complete.

        Every literal must be false under the current (total) assignment.
        Level-0-false literals are dropped; if none survive, every model
        matches the blocked pattern and enumeration is over.
        """
        for lit in lits:
            self._grow_to(abs(lit))
        level = self._level
        live = [lit for lit in lits if level[abs(lit)] > 0]
        if not live:
            return False
        if len(live) == 1:
            self._cancel_until(0)
            if not self._enqueue(live[0], -1) or (
                self._propagate() is not None
            ):
                self._ok = False
                return False
            return True
        live.sort(key=lambda lit: level[abs(lit)], reverse=True)
        top_level = level[abs(live[0])]
        second_level = level[abs(live[1])]
        cref = self._attach_clause(live)
        self._cancel_until(top_level - 1)
        if second_level < top_level:
            # The clause is unit now: assert its deepest literal here.
            self._enqueue(live[0], cref)
        return True

    def last_model_decisions(self) -> list[int]:
        """The decision (and assumption) literals of the most recent SAT
        result, in trail order.

        Every other literal of that model was forced by unit propagation
        from these, so the model is the *unique* total model extending
        them.  AllSAT loops exploit this: adding the clause that negates
        just the decisions blocks exactly that one model while staying far
        shorter than a full-model blocking clause (see
        :func:`repro.sat.enumerate.iter_models`).
        """
        return list(self._last_model_decisions)

    # ------------------------------------------------------------------
    # Assumption handling
    # ------------------------------------------------------------------
    def _all_assumptions_hold(self, assumptions: Sequence[int]) -> bool:
        values = self._values
        for lit in assumptions:
            if values[(lit << 1) if lit > 0 else ((-lit) << 1) | 1] < 0:
                return False
        return True

    def _replay_assumptions(self, assumptions: Sequence[int]) -> bool:
        """Ensure every assumption literal is enqueued; returns False on
        conflict with the assumptions."""
        for lit in assumptions:
            value = self._value(lit)
            if value is True:
                continue
            if value is False:
                self._cancel_until(0)
                return False
            self._trail_lim.append(len(self._trail))
            self._enqueue(lit, -1)
            conflict = self._propagate()
            if conflict is not None:
                if len(self._trail_lim) == 0:
                    self._ok = False
                self._cancel_until(0)
                return False
        return True


def solve_cnf(cnf: Cnf, assumptions: Sequence[int] = ()) -> SatResult:
    """Convenience helper: build a solver for ``cnf`` and solve once."""
    return CdclSolver(cnf).solve(assumptions)


# ----------------------------------------------------------------------
# Environment stamp
# ----------------------------------------------------------------------


def resolve_solver_core(core: Optional[str] = None) -> str:
    """The solver core a request names.  There is one, pure-Python core
    (:data:`SOLVER_CORE`); ``None`` and ``"auto"`` resolve to it too."""
    if core in (None, "auto", SOLVER_CORE):
        return SOLVER_CORE
    raise ValueError(
        f"unknown solver core: {core!r} (the only core is {SOLVER_CORE!r})"
    )


def accel_status() -> dict:
    """Which solver this process runs, as a JSON-ready record for
    environment stamps (``bench_e2e`` stores it beside every result):
    no native extension, the pure-Python core."""
    return {"available": False, "default_core": SOLVER_CORE}
