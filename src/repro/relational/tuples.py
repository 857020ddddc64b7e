"""Concrete relations: immutable sets of atom tuples.

:class:`TupleSet` implements the same operator protocol as the symbolic
expression AST (:mod:`repro.relational.ast`), so axiom definitions written
against the protocol evaluate directly to booleans on concrete candidate
executions — the fast path used by the explicit synthesis engine — while the
identical definitions compile to SAT through the symbolic path.

Operators (mirroring Alloy syntax where practical):

==============  =====================================
``a + b``       union
``a & b``       intersection
``a - b``       difference
``a.dot(b)``    relational join (Alloy ``a.b``)
``a.product(b)``  cross product (Alloy ``a->b``)
``a.t()``       transpose (binary only, Alloy ``~a``)
``a.plus()``    transitive closure (Alloy ``^a``)
``a.star(atoms)``  reflexive-transitive closure over ``atoms``
==============  =====================================
"""

from __future__ import annotations

from typing import AbstractSet, Iterable, Iterator, Optional

from ..errors import ArityError

Atom = str
Tuple_ = tuple[Atom, ...]


class TupleSet:
    """An immutable relation of fixed arity over named atoms."""

    __slots__ = ("_tuples", "_arity")

    def __init__(self, arity: int, tuples: Iterable[Tuple_] = ()) -> None:
        if arity < 1:
            raise ArityError(f"arity must be >= 1, got {arity}")
        frozen = frozenset(tuple(t) for t in tuples)
        for t in frozen:
            if len(t) != arity:
                raise ArityError(f"tuple {t} has arity {len(t)}, expected {arity}")
        self._tuples = frozen
        self._arity = arity

    @classmethod
    def _raw(cls, arity: int, tuples: frozenset[Tuple_]) -> "TupleSet":
        """Internal fast path: callers guarantee tuples are well-formed
        (used by the algebra operators, whose outputs are valid by
        construction — validation there dominated synthesis profiles)."""
        out = object.__new__(cls)
        out._tuples = tuples
        out._arity = arity
        return out

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def empty(arity: int = 2) -> "TupleSet":
        return TupleSet(arity)

    @staticmethod
    def unary(atoms: Iterable[Atom]) -> "TupleSet":
        return TupleSet(1, ((a,) for a in atoms))

    @staticmethod
    def pairs(pairs: Iterable[tuple[Atom, Atom]]) -> "TupleSet":
        return TupleSet(2, pairs)

    @staticmethod
    def identity(atoms: Iterable[Atom]) -> "TupleSet":
        return TupleSet(2, ((a, a) for a in atoms))

    @staticmethod
    def total_order(sequence: Iterable[Atom]) -> "TupleSet":
        """Strict total order (a before b) over ``sequence``."""
        items = list(sequence)
        return TupleSet(
            2,
            (
                (items[i], items[j])
                for i in range(len(items))
                for j in range(i + 1, len(items))
            ),
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self._arity

    @property
    def tuples(self) -> AbstractSet[Tuple_]:
        return self._tuples

    def __iter__(self) -> Iterator[Tuple_]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def __bool__(self) -> bool:
        return bool(self._tuples)

    def __contains__(self, item: Tuple_) -> bool:
        return tuple(item) in self._tuples

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TupleSet):
            return NotImplemented
        return self._arity == other._arity and self._tuples == other._tuples

    def __hash__(self) -> int:
        return hash((self._arity, self._tuples))

    def __repr__(self) -> str:
        shown = sorted(self._tuples)
        return f"TupleSet({self._arity}, {shown})"

    def atoms(self) -> frozenset[Atom]:
        """All atoms mentioned by any tuple."""
        return frozenset(a for t in self._tuples for a in t)

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_same_arity(self, other: "TupleSet", op: str) -> None:
        if self._arity != other._arity:
            raise ArityError(
                f"{op} requires equal arities, got {self._arity} and {other._arity}"
            )

    def __add__(self, other: "TupleSet") -> "TupleSet":
        self._check_same_arity(other, "union")
        return TupleSet._raw(self._arity, self._tuples | other._tuples)

    def __and__(self, other: "TupleSet") -> "TupleSet":
        self._check_same_arity(other, "intersection")
        return TupleSet._raw(self._arity, self._tuples & other._tuples)

    def __sub__(self, other: "TupleSet") -> "TupleSet":
        self._check_same_arity(other, "difference")
        return TupleSet._raw(self._arity, self._tuples - other._tuples)

    def dot(self, other: "TupleSet") -> "TupleSet":
        """Relational join: drop the matching inner columns."""
        arity = self._arity + other._arity - 2
        if arity < 1:
            raise ArityError("join of two unary relations has arity 0")
        by_head: dict[Atom, list[Tuple_]] = {}
        for t in other._tuples:
            by_head.setdefault(t[0], []).append(t[1:])
        out: set[Tuple_] = set()
        for t in self._tuples:
            for rest in by_head.get(t[-1], ()):
                out.add(t[:-1] + rest)
        return TupleSet._raw(arity, frozenset(out))

    def product(self, other: "TupleSet") -> "TupleSet":
        return TupleSet._raw(
            self._arity + other._arity,
            frozenset(a + b for a in self._tuples for b in other._tuples),
        )

    def t(self) -> "TupleSet":
        if self._arity != 2:
            raise ArityError(f"transpose requires arity 2, got {self._arity}")
        return TupleSet._raw(2, frozenset((b, a) for (a, b) in self._tuples))

    def plus(self) -> "TupleSet":
        """Transitive closure (binary only)."""
        if self._arity != 2:
            raise ArityError(f"closure requires arity 2, got {self._arity}")
        successors: dict[Atom, set[Atom]] = {}
        for a, b in self._tuples:
            successors.setdefault(a, set()).add(b)
        out: set[tuple[Atom, Atom]] = set()
        for start in list(successors):
            # DFS reachability from start.
            stack = list(successors.get(start, ()))
            visited: set[Atom] = set()
            while stack:
                node = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                out.add((start, node))
                stack.extend(successors.get(node, ()))
        return TupleSet._raw(2, frozenset(out))

    def star(self, atoms: Iterable[Atom]) -> "TupleSet":
        """Reflexive-transitive closure over the given atom set."""
        return self.plus() + TupleSet.identity(atoms)

    # ------------------------------------------------------------------
    # Predicates (concrete counterparts of formula constructors)
    # ------------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self._tuples

    def is_subset(self, other: "TupleSet") -> bool:
        self._check_same_arity(other, "subset")
        return self._tuples <= other._tuples

    def is_acyclic(self) -> bool:
        """True iff the binary relation has no cycle (including self-loops)."""
        return is_acyclic_union((self,))

    def is_irreflexive(self) -> bool:
        if self._arity != 2:
            raise ArityError(f"irreflexivity requires arity 2, got {self._arity}")
        return all(a != b for (a, b) in self._tuples)

    def is_total_order_on(self, atoms: Iterable[Atom]) -> bool:
        """True iff the relation is a strict total order on exactly ``atoms``."""
        atom_list = sorted(set(atoms))
        expected = len(atom_list) * (len(atom_list) - 1) // 2
        if len(self._tuples) != expected:
            return False
        if not self.is_acyclic():
            return False
        atom_set = set(atom_list)
        for a, b in self._tuples:
            if a not in atom_set or b not in atom_set:
                return False
        # Totality: every unordered pair appears in one direction.
        for i, a in enumerate(atom_list):
            for b in atom_list[i + 1 :]:
                if (a, b) not in self._tuples and (b, a) not in self._tuples:
                    return False
        return True


def is_acyclic_union(relations: Iterable[TupleSet]) -> bool:
    """True iff the union of binary relations has no cycle (self-loops
    included), searched over the parts without building the union."""
    return find_cycle_union(relations) is None


def find_cycle_union(relations: Iterable[TupleSet]) -> Optional[tuple[Atom, ...]]:
    """A cycle of the union of binary relations, or None when it is
    acyclic: atoms ``(a0, ..., ak)`` such that every ``(ai, ai+1)`` and
    ``(ak, a0)`` is an edge of some part (a self-loop is ``(a0,)``).

    One depth-first search over the parts, without building the union.
    Which cycle it returns depends on the parts' iteration order, so on
    the string hash seed; callers that report a cycle to the user want
    :func:`repro.models.diagnostics.find_cycle`, which walks edges in
    sorted order.
    """
    successors: dict[Atom, list[Atom]] = {}
    for relation in relations:
        if relation._arity != 2:
            raise ArityError(f"acyclicity requires arity 2, got {relation._arity}")
        for a, b in relation._tuples:
            targets = successors.get(a)
            if targets is None:
                successors[a] = [b]
            else:
                targets.append(b)
    # Depth-first search; ``path`` holds the nodes on the stack, ``done``
    # the nodes proven to reach no cycle (sinks are never pushed).
    done: set[Atom] = set()
    for root in successors:
        if root in done:
            continue
        path = {root}
        stack: list[tuple[Atom, Iterator[Atom]]] = [(root, iter(successors[root]))]
        while stack:
            node, children = stack[-1]
            for child in children:
                if child in path:
                    # The stack from ``child`` up to ``node`` closes on it.
                    cycle = []
                    for entry in reversed(stack):
                        cycle.append(entry[0])
                        if entry[0] == child:
                            break
                    cycle.reverse()
                    return tuple(cycle)
                if child in done:
                    continue
                grandchildren = successors.get(child)
                if grandchildren is None:
                    done.add(child)
                    continue
                path.add(child)
                stack.append((child, iter(grandchildren)))
                break
            else:
                path.discard(node)
                done.add(node)
                stack.pop()
    return None
