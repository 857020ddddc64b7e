"""Bounded relational model finding: the Kodkod [52] stand-in.

A :class:`Problem` fixes a universe of atoms and declares relations with
lower/upper tuple bounds.  Expressions are evaluated into *boolean
adjacency matrices* (sparse maps from tuples to circuit nodes); formulas
compile to circuits; the Tseitin transformation yields CNF which the
:mod:`repro.sat` CDCL solver searches.  Models are decoded back into
:class:`~repro.relational.instance.Instance` objects.

This is exactly the pipeline TransForm relies on via Alloy 4.2 + Kodkod +
MiniSat (paper §IV-C), re-implemented at the scale this reproduction needs,
plus **symmetry breaking**: :meth:`Problem.add_symmetry` registers
solution-space symmetries that compile into static lex-leader clauses,
so enumerations visit one member per orbit (:mod:`repro.symmetry`
derives the permutations from program automorphism groups).

A problem is translated once and enumerated once, on a cold solver
(:meth:`Problem.iter_instances`, or :class:`ProblemSession` when the
caller times translation and enumeration apart).
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Optional

from ..errors import RelationalError
from ..sat import CdclSolver, Cnf, SolverStats
from . import ast
from .boolean import (
    FALSE,
    TRUE,
    BAnd,
    BFalse,
    BNot,
    BOr,
    BoolBuilder,
    BoolNode,
    BTrue,
    BVar,
)
from .instance import Instance
from .tuples import Atom, Tuple_, TupleSet

Matrix = dict[Tuple_, BoolNode]


class RelationBound:
    """Lower/upper tuple bounds for one declared relation."""

    def __init__(
        self,
        name: str,
        arity: int,
        upper: Iterable[Tuple_],
        lower: Iterable[Tuple_] = (),
    ) -> None:
        self.name = name
        self.arity = arity
        self.upper = frozenset(tuple(t) for t in upper)
        self.lower = frozenset(tuple(t) for t in lower)
        for t in self.upper | self.lower:
            if len(t) != arity:
                raise RelationalError(
                    f"bound tuple {t} of {name!r} has arity {len(t)}, expected {arity}"
                )
        if not self.lower <= self.upper:
            raise RelationalError(
                f"lower bound of {name!r} is not contained in its upper bound"
            )


class Problem:
    """A bounded relational satisfaction problem."""

    def __init__(self, atoms: Iterable[Atom]) -> None:
        self.atoms: tuple[Atom, ...] = tuple(dict.fromkeys(atoms))
        if not self.atoms:
            raise RelationalError("universe must contain at least one atom")
        self._bounds: dict[str, RelationBound] = {}
        self._defs: dict[str, tuple[int, ast.Expr]] = {}
        self._constraints: list[ast.Formula] = []
        #: Registered symmetries: tuple permutations of declared free
        #: relation entries, compiled into static lex-leader clauses (see
        #: :meth:`add_symmetry`).
        self._symmetries: list[dict[str, dict[Tuple_, Tuple_]]] = []
        #: Lex-leader clauses emitted by the most recent compilation
        #: (mirrored into :attr:`~repro.sat.SolverStats.symmetry_clauses`
        #: of the enumerating solver).
        self.last_symmetry_clauses = 0
        #: Live counters of the solver behind the most recent
        #: :meth:`solve`/:meth:`iter_instances` call (None before the first).
        self.last_solver_stats: Optional[SolverStats] = None

    # ------------------------------------------------------------------
    # Declaration API
    # ------------------------------------------------------------------
    def declare(
        self,
        name: str,
        arity: int,
        upper: Optional[Iterable[Tuple_]] = None,
        lower: Iterable[Tuple_] = (),
    ) -> ast.Rel:
        """Declare a relation; ``upper`` defaults to all tuples of the given
        arity over the universe."""
        if name in self._bounds:
            raise RelationalError(f"relation {name!r} already declared")
        if upper is None:
            upper = _all_tuples(self.atoms, arity)
        bound = RelationBound(name, arity, upper, lower)
        stray = {a for t in bound.upper for a in t} - set(self.atoms)
        if stray:
            raise RelationalError(
                f"bounds of {name!r} mention unknown atoms: {sorted(stray)}"
            )
        self._bounds[name] = bound
        return ast.Rel(name, arity)

    def define(self, name: str, arity: int, expr) -> ast.Rel:
        """Register a *defined* relation: usable in formulas exactly like a
        declared one, but compiled by substituting its defining
        expression's boolean matrix at every use.

        This is the lean alternative to ``declare`` + an equality
        constraint: no tuple variables are allocated and no two-sided
        subset circuit is built, which for an n-event universe saves
        O(n^arity) variables and clauses per derived relation.  Defined
        relations do not appear in decoded instances (they carry no
        variables); definitions may reference declared and other defined
        relations as long as the definition graph is acyclic.
        """
        from .ast import _as_expr

        if name in self._bounds or name in self._defs:
            raise RelationalError(f"relation {name!r} already declared")
        expr = _as_expr(expr)
        if expr.arity != arity:
            raise RelationalError(
                f"definition of {name!r} has arity {expr.arity}, expected {arity}"
            )
        self._defs[name] = (arity, expr)
        return ast.Rel(name, arity)

    def constrain(self, formula: ast.Formula) -> None:
        """Add a constraint every instance must satisfy."""
        self._constraints.append(formula)

    def add_symmetry(
        self, permutation: dict[str, dict[Tuple_, Tuple_]]
    ) -> None:
        """Register a solution-space symmetry for static lex-leader
        breaking.

        ``permutation`` maps relation names to tuple permutations: for
        every declared relation ``r`` present, ``permutation[r]`` sends
        each upper-bound tuple to its image under one structure-preserving
        bijection of the problem (an automorphism of the constrained
        solution space).  During translation, each registered symmetry
        emits the static lex-leader constraint ``x ⪰ σ(x)`` over the free
        tuple variables in declaration/allocation order (``0 < 1``, first
        difference decides) — so the SAT enumeration only ever visits the
        orbit member whose sorted concrete tuple listing is smallest (the
        same member :func:`repro.symmetry.prune_weighted` keeps), instead
        of decoding and discarding its isomorphs.

        Soundness requirements, checked during compilation:

        * only declared relations may appear, and every mapped entry and
          its image must be *free* (not fixed by the lower bound) —
          a genuine automorphism maps free entries to free entries;
        * the map must be a permutation of each relation's upper bound.

        The constraint is sound only if ``permutation`` really is an
        automorphism (it maps solutions to solutions); callers are
        responsible for that, and for weighting any counts by orbit size
        when the pruned enumeration stands in for the full one.
        """
        cleaned: dict[str, dict[Tuple_, Tuple_]] = {}
        for name, mapping in permutation.items():
            bound = self._bounds.get(name)
            if bound is None:
                raise RelationalError(
                    f"symmetry permutes unknown relation {name!r}"
                )
            entries = {tuple(t): tuple(u) for t, u in mapping.items()}
            domain = set(entries)
            image = set(entries.values())
            if not domain <= bound.upper or not image <= bound.upper:
                raise RelationalError(
                    f"symmetry on {name!r} leaves its upper bound"
                )
            if domain != image:
                raise RelationalError(
                    f"symmetry on {name!r} is not a permutation"
                )
            cleaned[name] = entries
        self._symmetries.append(cleaned)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(self) -> Optional[Instance]:
        """Return one satisfying instance, or None."""
        for instance in self.iter_instances(limit=1):
            return instance
        return None

    def iter_instances(self, limit: Optional[int] = None) -> Iterator[Instance]:
        """Enumerate satisfying instances, distinct on declared relations:
        translate once (on the first ``next``), then enumerate on a cold
        solver (:meth:`ProblemSession.iter_base_instances`).

        After each call (and while one is in flight) ``last_solver_stats``
        holds the live :class:`~repro.sat.SolverStats` of the underlying
        solver, for benchmarks and the synthesis engine's reporting.
        """
        if limit is not None and limit <= 0:
            return
        yield from self.session().iter_base_instances(limit)

    def session(self) -> "ProblemSession":
        """Translate the problem now; enumerate it later (see
        :class:`ProblemSession`)."""
        return ProblemSession(self)


def _all_tuples(atoms: tuple[Atom, ...], arity: int) -> list[Tuple_]:
    out: list[Tuple_] = [()]
    for _ in range(arity):
        out = [t + (a,) for t in out for a in atoms]
    return out


class _Compilation:
    """Compiled form of a Problem: CNF + decoding tables."""

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self.builder = BoolBuilder()
        self.cnf = Cnf()
        self._rel_matrices: dict[str, Matrix] = {}
        #: Decoding tables.  A relation whose bounds are exact is the same
        #: in every model: its tuple set is built here, once.  Per model,
        #: :meth:`decode` fills in only the free relations, from their
        #: ``(variable, tuple)`` entries.
        self._decoded_template: dict[str, Optional[TupleSet]] = {}
        self._free_relations: list[
            tuple[str, int, frozenset[Tuple_], list[tuple[int, Tuple_]]]
        ] = []
        self._tseitin_cache: dict[BoolNode, int] = {}
        # Compilation memos, keyed on (node identity, the env bindings the
        # node actually references).  Quantifiers re-compile their body
        # once per domain atom; subterms that do not mention the bound
        # variable (guards, fixed relations, whole subformulas) hit these
        # caches instead of being re-translated for every binding.
        self._free_vars_cache: dict[int, frozenset[str]] = {}
        self._expr_cache: dict[tuple, Matrix] = {}
        self._formula_cache: dict[tuple, BoolNode] = {}
        self._defs_in_progress: set[str] = set()

        for name, bound in problem._bounds.items():
            matrix: Matrix = {}
            entries: list[tuple[int, Tuple_]] = []
            for t in sorted(bound.upper):
                if t in bound.lower:
                    matrix[t] = TRUE
                else:
                    var = self.cnf.new_var()
                    matrix[t] = self.builder.var(var)
                    entries.append((var, t))
            self._rel_matrices[name] = matrix
            # Decoded tuples come from bounds that RelationBound (arity)
            # and Problem.declare (atoms) already checked, so decode does
            # not validate them again.
            if entries:
                self._decoded_template[name] = None
                self._free_relations.append(
                    (name, bound.arity, bound.lower, entries)
                )
            else:
                self._decoded_template[name] = TupleSet._raw(
                    bound.arity, bound.lower
                )

        self.symmetry_clauses = 0
        for permutation in problem._symmetries:
            self._emit_lex_leader(permutation)
        problem.last_symmetry_clauses = self.symmetry_clauses

        root_nodes = [
            self._formula(constraint, {}) for constraint in problem._constraints
        ]
        root = self.builder.and_(root_nodes)
        root_lit = self._tseitin(root)
        self.cnf.add_clause([root_lit])

    def _emit_lex_leader(
        self, permutation: dict[str, dict[Tuple_, Tuple_]]
    ) -> None:
        """Emit the static lex-leader constraint ``x ⪰_lex σ(x)`` for one
        registered symmetry.

        The variable vector runs over the free entries of the permuted
        relations in declaration/allocation order (the order their
        tuple variables were allocated in); fixed points of the permutation
        contribute nothing.  With ``0 < 1`` per component and the first
        difference deciding, ``x ⪰_lex σ(x)`` keeps exactly the orbit
        member whose sorted concrete tuple listing is smallest — aligned
        with :func:`repro.symmetry.witness_sort_key`, which the decode-
        side filter and the representative tie-breaks use.

        Encoding: prefix-equality variables ``e_i ↔ e_{i-1} ∧ (x_i ↔
        y_i)`` (full equivalences, so every auxiliary stays a function of
        the tuple variables — the property decision-literal blocking
        relies on) plus one ordering clause ``e_{i-1} → (x_i ∨ ¬y_i)``
        per position.
        """
        cnf = self.cnf
        pairs: list[tuple[int, int]] = []
        for name, bound in self.problem._bounds.items():
            mapping = permutation.get(name)
            if not mapping:
                continue
            matrix = self._rel_matrices[name]
            for t in sorted(bound.upper):
                u = mapping.get(t)
                if u is None or u == t:
                    continue
                x_node, y_node = matrix[t], matrix[u]
                if not isinstance(x_node, BVar) or not isinstance(y_node, BVar):
                    raise RelationalError(
                        f"symmetry on {name!r} touches a fixed entry"
                    )
                pairs.append((x_node.var, y_node.var))

        emitted = 0
        prev: Optional[int] = None
        for index, (x, y) in enumerate(pairs):
            if prev is None:
                cnf.add_clause_trusted([x, -y])
            else:
                cnf.add_clause_trusted([-prev, x, -y])
            emitted += 1
            if index + 1 == len(pairs):
                break  # no later position needs the equality chain
            e = cnf.new_var()
            if prev is None:
                # e ↔ (x ↔ y)
                cnf.add_clause_trusted([-e, -x, y])
                cnf.add_clause_trusted([-e, x, -y])
                cnf.add_clause_trusted([e, -x, -y])
                cnf.add_clause_trusted([e, x, y])
                emitted += 4
            else:
                # e ↔ prev ∧ (x ↔ y)
                cnf.add_clause_trusted([-e, prev])
                cnf.add_clause_trusted([-e, -x, y])
                cnf.add_clause_trusted([-e, x, -y])
                cnf.add_clause_trusted([e, -prev, -x, -y])
                cnf.add_clause_trusted([e, -prev, x, y])
                emitted += 5
            prev = e
        self.symmetry_clauses += emitted

    # ------------------------------------------------------------------
    # Compilation memoization
    # ------------------------------------------------------------------
    def _free_vars(self, node) -> frozenset:
        """Quantified-variable names a subtree references (cached by node
        identity; AST nodes stay alive through the constraint list)."""
        key = id(node)
        cached = self._free_vars_cache.get(key)
        if cached is not None:
            return cached
        if isinstance(node, ast.VarRef):
            out = frozenset((node.name,))
        elif isinstance(node, (ast.ForAll, ast.Exists)):
            out = self._free_vars(node.domain) | (
                self._free_vars(node.body) - frozenset((node.var,))
            )
        else:
            out = frozenset()
            for value in vars(node).values():
                if isinstance(value, (ast.Expr, ast.Formula)):
                    out = out | self._free_vars(value)
        self._free_vars_cache[key] = out
        return out

    def _memo_key(self, node, env: dict[str, Atom]) -> tuple:
        """Cache key: node identity plus the env bindings it actually
        reads.  A quantifier body that ignores the bound variable (or a
        guard mentioning none) therefore compiles once, not once per
        domain atom."""
        if not env:
            return (id(node),)
        free = self._free_vars(node)
        if not free:
            return (id(node),)
        return (id(node),) + tuple(
            sorted((name, env[name]) for name in free if name in env)
        )

    # ------------------------------------------------------------------
    # Expression -> matrix
    # ------------------------------------------------------------------
    def _expr(self, expr: ast.Expr, env: dict[str, Atom]) -> Matrix:
        key = self._memo_key(expr, env)
        cached = self._expr_cache.get(key)
        if cached is None:
            cached = self._expr_raw(expr, env)
            self._expr_cache[key] = cached
        return cached

    def _expr_raw(self, expr: ast.Expr, env: dict[str, Atom]) -> Matrix:
        builder = self.builder
        if isinstance(expr, ast.Rel):
            matrix = self._rel_matrices.get(expr.name)
            if matrix is not None:
                return matrix
            definition = self.problem._defs.get(expr.name)
            if definition is None:
                raise RelationalError(f"relation {expr.name!r} was never declared")
            if expr.name in self._defs_in_progress:
                raise RelationalError(f"cyclic definition of relation {expr.name!r}")
            self._defs_in_progress.add(expr.name)
            try:
                matrix = self._expr(definition[1], {})
            finally:
                self._defs_in_progress.discard(expr.name)
            self._rel_matrices[expr.name] = matrix
            return matrix
        if isinstance(expr, ast.Literal):
            return {t: TRUE for t in sorted(expr.value.tuples)}
        if isinstance(expr, ast.Iden):
            return {(a, a): TRUE for a in self.problem.atoms}
        if isinstance(expr, ast.Univ):
            return {(a,): TRUE for a in self.problem.atoms}
        if isinstance(expr, ast.VarRef):
            if expr.name not in env:
                raise RelationalError(f"unbound variable: {expr.name}")
            return {(env[expr.name],): TRUE}
        if isinstance(expr, ast.Union_):
            left = self._expr(expr.left, env)
            right = self._expr(expr.right, env)
            out: Matrix = dict(left)
            for t, node in right.items():
                out[t] = builder.or_([out.get(t, FALSE), node])
            return out
        if isinstance(expr, ast.Intersect):
            left = self._expr(expr.left, env)
            right = self._expr(expr.right, env)
            return {
                t: builder.and_([node, right[t]])
                for t, node in left.items()
                if t in right
            }
        if isinstance(expr, ast.Difference):
            left = self._expr(expr.left, env)
            right = self._expr(expr.right, env)
            return {
                t: builder.and_([node, builder.not_(right.get(t, FALSE))])
                for t, node in left.items()
            }
        if isinstance(expr, ast.Join):
            return self._join(self._expr(expr.left, env), self._expr(expr.right, env))
        if isinstance(expr, ast.Product):
            left = self._expr(expr.left, env)
            right = self._expr(expr.right, env)
            return {
                a + b: builder.and_([na, nb])
                for a, na in left.items()
                for b, nb in right.items()
            }
        if isinstance(expr, ast.Transpose):
            return {(b, a): node for (a, b), node in self._expr(expr.arg, env).items()}
        if isinstance(expr, ast.Closure):
            return self._closure(self._expr(expr.arg, env))
        raise RelationalError(f"unknown expression node: {expr!r}")

    def _join(self, left: Matrix, right: Matrix) -> Matrix:
        builder = self.builder
        by_head: dict[Atom, list[tuple[Tuple_, BoolNode]]] = {}
        for t, node in right.items():
            by_head.setdefault(t[0], []).append((t[1:], node))
        combined: dict[Tuple_, list[BoolNode]] = {}
        for t, node in left.items():
            for rest, rnode in by_head.get(t[-1], ()):
                key = t[:-1] + rest
                if not key:
                    raise RelationalError("join of two unary relations has arity 0")
                combined.setdefault(key, []).append(builder.and_([node, rnode]))
        return {t: builder.or_(nodes) for t, nodes in combined.items()}

    def _closure(self, matrix: Matrix) -> Matrix:
        result = dict(matrix)
        steps = max(1, math.ceil(math.log2(max(2, len(self.problem.atoms)))))
        for _ in range(steps):
            squared = self._join(result, result)
            merged = dict(result)
            for t, node in squared.items():
                merged[t] = self.builder.or_([merged.get(t, FALSE), node])
            result = merged
        return result

    # ------------------------------------------------------------------
    # Formula -> circuit
    # ------------------------------------------------------------------
    def _formula(self, formula: ast.Formula, env: dict[str, Atom]) -> BoolNode:
        key = self._memo_key(formula, env)
        cached = self._formula_cache.get(key)
        if cached is None:
            cached = self._formula_raw(formula, env)
            self._formula_cache[key] = cached
        return cached

    def _formula_raw(self, formula: ast.Formula, env: dict[str, Atom]) -> BoolNode:
        builder = self.builder
        if isinstance(formula, ast.TrueF):
            return TRUE
        if isinstance(formula, ast.FalseF):
            return FALSE
        if isinstance(formula, ast.Subset):
            left = self._expr(formula.left, env)
            right = self._expr(formula.right, env)
            return builder.and_(
                [builder.implies(node, right.get(t, FALSE)) for t, node in left.items()]
            )
        if isinstance(formula, ast.Some):
            return builder.or_(self._expr(formula.arg, env).values())
        if isinstance(formula, ast.No):
            return builder.not_(builder.or_(self._expr(formula.arg, env).values()))
        if isinstance(formula, ast.One):
            return self._exactly_one(list(self._expr(formula.arg, env).values()))
        if isinstance(formula, ast.Lone):
            return self._at_most_one(list(self._expr(formula.arg, env).values()))
        if isinstance(formula, ast.Not):
            return builder.not_(self._formula(formula.arg, env))
        if isinstance(formula, ast.And):
            return builder.and_(
                [self._formula(formula.left, env), self._formula(formula.right, env)]
            )
        if isinstance(formula, ast.Or):
            return builder.or_(
                [self._formula(formula.left, env), self._formula(formula.right, env)]
            )
        if isinstance(formula, (ast.ForAll, ast.Exists)):
            domain = self._expr(formula.domain, env)
            for t in domain:
                if len(t) != 1:
                    raise RelationalError("quantifier domain must be unary")
            parts: list[BoolNode] = []
            for (atom,), guard in domain.items():
                extended = {**env, formula.var: atom}
                body = self._formula(formula.body, extended)
                if isinstance(formula, ast.ForAll):
                    parts.append(builder.implies(guard, body))
                else:
                    parts.append(builder.and_([guard, body]))
            if isinstance(formula, ast.ForAll):
                return builder.and_(parts)
            return builder.or_(parts)
        raise RelationalError(f"unknown formula node: {formula!r}")

    #: Above this operand count the pairwise at-most-one encoding's
    #: O(n^2) clauses lose to the linear sequential encoding.
    _SEQUENTIAL_AMO_THRESHOLD = 6

    def _at_most_one(self, nodes: list[BoolNode]) -> BoolNode:
        builder = self.builder
        if len(nodes) <= self._SEQUENTIAL_AMO_THRESHOLD:
            clauses: list[BoolNode] = []
            for i in range(len(nodes)):
                for j in range(i + 1, len(nodes)):
                    clauses.append(
                        builder.or_([builder.not_(nodes[i]), builder.not_(nodes[j])])
                    )
            return builder.and_(clauses)
        # Sequential (Sinz-style) encoding, expressed as a pure circuit so
        # it stays sound under negation: seen_i = x_0 | ... | x_i built as
        # a chain of *nested* binary ors (or2 does not flatten, keeping
        # each link constant-size), and the constraint is that no x_i is
        # true once seen_{i-1} already is.  O(n) nodes instead of O(n^2).
        parts: list[BoolNode] = []
        seen = nodes[0]
        for node in nodes[1:]:
            parts.append(builder.or2(builder.not_(node), builder.not_(seen)))
            seen = builder.or2(node, seen)
        return builder.and_(parts)

    def _exactly_one(self, nodes: list[BoolNode]) -> BoolNode:
        return self.builder.and_([self.builder.or_(nodes), self._at_most_one(nodes)])

    # ------------------------------------------------------------------
    # Tseitin CNF conversion
    # ------------------------------------------------------------------
    def _tseitin(self, node: BoolNode) -> int:
        """Return a literal equisatisfiably representing ``node``.

        Iterative with an explicit worklist: closure and sequential
        at-most-one circuits nest thousands of nodes deep, which would
        overflow the Python recursion limit.  Gate variables are defined
        by full equivalences, so every auxiliary variable is a function of
        the input variables (a property the decision-literal blocking in
        :meth:`Problem.iter_instances` relies on).
        """
        cache = self._tseitin_cache
        cnf = self.cnf
        literal = self._known_literal
        stack: list[BoolNode] = [node]
        while stack:
            current = stack[-1]
            if literal(current) is not None:
                stack.pop()
                continue
            target = current.arg if isinstance(current, BNot) else current
            if not isinstance(target, (BAnd, BOr)):  # pragma: no cover
                raise RelationalError(f"unknown boolean node: {target!r}")
            pending = [arg for arg in target.args if literal(arg) is None]
            if pending:
                stack.extend(pending)
                continue
            arg_lits = [literal(arg) for arg in target.args]
            fresh = cnf.new_var()
            if isinstance(target, BAnd):
                for lit in arg_lits:
                    cnf.add_clause_trusted([-fresh, lit])
                cnf.add_clause_trusted([fresh] + [-lit for lit in arg_lits])
            else:
                for lit in arg_lits:
                    cnf.add_clause_trusted([-lit, fresh])
                cnf.add_clause_trusted([-fresh] + arg_lits)
            cache[target] = fresh
        result = literal(node)
        assert result is not None
        return result

    def _known_literal(self, node: BoolNode) -> Optional[int]:
        """The literal for ``node`` if derivable without new gates.

        A method, not a closure inside :meth:`_tseitin`: a nested function
        that calls itself sits in a reference cycle that would keep the
        Tseitin cache and the CNF alive until the cyclic collector ran."""
        if isinstance(node, BVar):
            return node.var
        if isinstance(node, BNot):
            # The builder collapses double negation, so this recursion is
            # at most one level deep.
            inner = self._known_literal(node.arg)
            return -inner if inner is not None else None
        if isinstance(node, (BTrue, BFalse)):
            var = self._tseitin_cache.get(TRUE)
            if var is None:
                var = self.cnf.new_var()
                self.cnf.add_clause_trusted([var])
                self._tseitin_cache[TRUE] = var
            return var if isinstance(node, BTrue) else -var
        return self._tseitin_cache.get(node)

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def decode(self, model: dict[int, bool]) -> Instance:
        relations = dict(self._decoded_template)
        for name, arity, lower, entries in self._free_relations:
            chosen = frozenset([t for var, t in entries if model[var]])
            relations[name] = TupleSet._raw(
                arity, (lower | chosen) if lower else chosen
            )
        return Instance._trusted(self.problem.atoms, relations)


class ProblemSession:
    """One problem, translated once and enumerated on a cold solver.

    Construction runs the translation; :meth:`iter_base_instances` then
    enumerates its instances, so a caller can time the two stages apart
    (the SAT witness backend records them as ``translate`` and ``solve``).
    """

    def __init__(self, problem: Problem) -> None:
        self.problem = problem
        self._compiled = _Compilation(problem)

    def iter_base_instances(
        self, limit: Optional[int] = None
    ) -> Iterator[Instance]:
        """Enumerate the problem's instances on a cold solver over the
        compiled CNF; the order is deterministic (the CDCL search is), so
        suite bytes do not depend on when or where a program is solved.

        Blocking clauses negate only the *decision literals* of each model:
        every Tseitin auxiliary variable is fully defined (by equivalence
        clauses) in terms of the tuple variables, so each assignment of the
        declared relations extends to exactly one total model, and blocking
        that model blocks exactly one instance — with a much shorter clause
        than one spanning every tuple variable.
        """
        if limit is not None and limit <= 0:
            return
        compiled = self._compiled
        solver = CdclSolver(compiled.cnf)
        solver.stats.symmetry_clauses = compiled.symmetry_clauses
        self.problem.last_solver_stats = solver.stats
        count = 0
        for model in solver.iter_solutions():
            yield compiled.decode(model)
            count += 1
            if limit is not None and count >= limit:
                return
