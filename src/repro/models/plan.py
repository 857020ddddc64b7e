"""Compiled axiom evaluation: one shared-subterm plan, one memo per execution.

Each axiom is compiled once, on its first evaluation, from the symbolic
formula its predicate builds over the Table I vocabulary (the formula
the SAT backend translates; :meth:`Axiom.formula
<repro.models.base.Axiom.formula>`).  Every axiom compiles into one
global, hash-consed expression DAG: structurally identical
subexpressions are one node with one global id, whichever axiom or
model they came from, so every model and table reads the same memos.

A node is *static* when it reads program relations only
(:data:`repro.mtm.names.PROGRAM_RELATIONS`): it is evaluated once per
program — once per relaxation for a restricted view — into the
execution's :meth:`~repro.mtm.Execution.static_memo`.  Every other node
is evaluated at most once per execution, into the dynamic memo of its
:class:`Evaluation`.

Formula kinds are evaluated directly: ``acyclic(x)`` (``no (^x &
iden)``) by one graph search over the parts of ``x``'s union, without
building the union; ``no (a & b)`` by a disjointness test; ``no x`` by
an emptiness test.  A union's static operands fold into one static node,
and an intersection, join or product whose static operand is empty is
empty without evaluating the other side.

Violations that survive restriction
-----------------------------------
§IV-B minimality (:mod:`repro.synth.relax`) asks whether a restricted
view — every relation cut down to the surviving atoms
(:meth:`repro.mtm.Execution.restricted`) — still violates an axiom.
Two flags, set once when a node is interned, say how its value moves
under such a restriction:

* ``monotone``: the value can only shrink.  It holds when no difference
  appears below the node (every other operator is monotone in its
  operands, and a restricted relation is a subset of the original).
* ``pointwise``: every tuple of the value whose atoms all survive stays
  in it.  It holds for relations and constants, for union,
  intersection, product and transpose of pointwise nodes, and for a
  pointwise node minus a monotone one.  It fails for join and closure,
  whose intermediate atoms may be removed.

A violated acyclicity node records the cycle its search met next to
its verdict, in the same memo, so a static violation is shared the way
a static verdict is.  A violated
formula node whose operands are pointwise yields the atoms of one
violation (:meth:`Node.violation`): the recorded cycle for ``acyclic``,
one offending tuple for ``no x``, ``irreflexive x`` and ``no (a & b)``.
A restriction that keeps those atoms keeps every edge of that cycle (or
that tuple), so the formula stays violated.  Any other formula node
yields None.  The search returns whichever cycle it meets first
(:func:`~repro.relational.tuples.find_cycle_union`); ``check
--explain`` reports a deterministic one from
:mod:`repro.models.diagnostics` instead.

The compiler handles what the generic helpers of
:mod:`repro.relational.ast` (``acyclic``, ``irreflexive``, ``no``,
``some``, ``subset``) build over the operators relations share
symbolically and concretely (``+ & - dot product t plus``, constant
relations).  A predicate that returns a plain bool on the symbolic
vocabulary compiles to that constant.  One that raises there, or builds
anything else (quantifiers, formula connectives, ``iden`` outside the
acyclicity and irreflexivity patterns), has no plan: it is evaluated by
calling the predicate on the concrete :class:`~repro.mtm.Vocabulary`,
which is also the reference the tests hold compiled verdicts to.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..mtm import names, symbolic_vocabulary
from ..relational import ast
from ..relational.tuples import TupleSet, find_cycle_union


class Node:
    """One node of the global plan.  ``id`` is its global structural id;
    ``static`` says whether it reads program relations only;
    ``monotone`` and ``pointwise`` are its restriction flags (module
    docstring)."""

    __slots__ = ("id", "static", "monotone", "pointwise")

    def value(self, evaluation: "Evaluation"):
        """The node's value in ``evaluation``, through the memo its
        kind belongs to: a TupleSet for an expression, a bool for a
        formula."""
        memo = evaluation.static if self.static else evaluation.dynamic
        value = memo.get(self.id)
        if value is None:
            value = memo[self.id] = self.evaluate(evaluation)
        return value

    def evaluate(self, evaluation: "Evaluation"):
        raise NotImplementedError

    def flags(self) -> tuple[bool, bool]:
        """``(monotone, pointwise)``, from the operands' flags."""
        return False, False

    def violation(self, evaluation: "Evaluation") -> Optional[frozenset]:
        """The atoms of one violation of this formula node that survives
        every restriction keeping them, or None when the formula holds
        or its kind yields no such violation."""
        return None


class Evaluation:
    """One execution's evaluation: its relations, the static memo its
    program (or relaxation) shares, and its own dynamic memo.  Every
    consumer that judges the execution reads this one memo, so each
    distinct subterm is evaluated once per execution."""

    __slots__ = ("relations", "static", "dynamic")

    def __init__(self, execution) -> None:
        self.relations = execution.relations
        self.static = execution.static_memo()
        self.dynamic: dict = {}


# ----------------------------------------------------------------------
# Node kinds
# ----------------------------------------------------------------------
class _Relation(Node):
    __slots__ = ("name",)

    def value(self, evaluation):
        # A leaf is read, never memoized.
        return evaluation.relations[self.name]

    def flags(self):
        return True, True


class _Constant(Node):
    __slots__ = ("constant",)

    def value(self, evaluation):
        return self.constant

    def flags(self):
        return True, True


class _Union(Node):
    __slots__ = ("parts",)

    def evaluate(self, evaluation):
        parts = self.parts
        result = parts[0].value(evaluation)
        for part in parts[1:]:
            result = result + part.value(evaluation)
        return result

    def flags(self):
        return (
            all(part.monotone for part in self.parts),
            all(part.pointwise for part in self.parts),
        )


class _Binary(Node):
    """An operator whose value is empty when either operand is empty.
    The static operand is evaluated first, so an empty one spares
    evaluating the other."""

    __slots__ = ("left", "right", "arity")

    def flags(self):
        left, right = self.left, self.right
        return left.monotone and right.monotone, left.pointwise and right.pointwise

    def operands(self, evaluation):
        """Both operand values, or None when one is empty."""
        left, right = self.left, self.right
        if right.static and not left.static:
            right_value = right.value(evaluation)
            if not right_value:
                return None
            return left.value(evaluation), right_value
        left_value = left.value(evaluation)
        if not left_value:
            return None
        return left_value, right.value(evaluation)


class _Intersect(_Binary):
    __slots__ = ()

    def evaluate(self, evaluation):
        operands = self.operands(evaluation)
        if operands is None:
            return TupleSet.empty(self.arity)
        return operands[0] & operands[1]


class _Join(_Binary):
    __slots__ = ()

    def flags(self):
        return self.left.monotone and self.right.monotone, False

    def evaluate(self, evaluation):
        operands = self.operands(evaluation)
        if operands is None:
            return TupleSet.empty(self.arity)
        return operands[0].dot(operands[1])


class _Product(_Binary):
    __slots__ = ()

    def evaluate(self, evaluation):
        operands = self.operands(evaluation)
        if operands is None:
            return TupleSet.empty(self.arity)
        return operands[0].product(operands[1])


class _Disjoint(_Binary):
    """``no (a & b)``: a disjointness test, no intersection built."""

    __slots__ = ()

    def evaluate(self, evaluation):
        operands = self.operands(evaluation)
        if operands is None:
            return True
        return operands[0].tuples.isdisjoint(operands[1].tuples)

    def flags(self):
        return False, self.left.pointwise and self.right.pointwise

    def violation(self, evaluation):
        if self.pointwise:
            operands = self.operands(evaluation)
            if operands is not None:
                common = operands[0].tuples & operands[1].tuples
                if common:
                    return frozenset(min(common))
        return None


class _Difference(Node):
    __slots__ = ("left", "right")

    def evaluate(self, evaluation):
        return self.left.value(evaluation) - self.right.value(evaluation)

    def flags(self):
        return False, self.left.pointwise and self.right.monotone


class _Transpose(Node):
    __slots__ = ("arg",)

    def evaluate(self, evaluation):
        return self.arg.value(evaluation).t()

    def flags(self):
        return self.arg.monotone, self.arg.pointwise


class _Closure(Node):
    __slots__ = ("arg",)

    def evaluate(self, evaluation):
        return self.arg.value(evaluation).plus()

    def flags(self):
        return self.arg.monotone, False


class _Acyclic(Node):
    """``acyclic(p1 + ... + pn)``: one graph search over the parts.  When
    it fails, the cycle it met is recorded next to the verdict, in the
    same memo, under the key ``~id``."""

    __slots__ = ("parts",)

    def evaluate(self, evaluation):
        cycle = find_cycle_union([part.value(evaluation) for part in self.parts])
        if cycle is None:
            return True
        memo = evaluation.static if self.static else evaluation.dynamic
        memo[~self.id] = cycle
        return False

    def flags(self):
        return False, all(part.pointwise for part in self.parts)

    def violation(self, evaluation):
        if self.pointwise and not self.value(evaluation):
            memo = evaluation.static if self.static else evaluation.dynamic
            return frozenset(memo[~self.id])
        return None


class _Irreflexive(Node):
    __slots__ = ("arg",)

    def evaluate(self, evaluation):
        return self.arg.value(evaluation).is_irreflexive()

    def flags(self):
        return False, self.arg.pointwise

    def violation(self, evaluation):
        if self.pointwise:
            loops = [a for a, b in self.arg.value(evaluation) if a == b]
            if loops:
                return frozenset((min(loops),))
        return None


class _Empty(Node):
    """``no x``: an emptiness test."""

    __slots__ = ("arg",)

    def evaluate(self, evaluation):
        return not self.arg.value(evaluation)

    def flags(self):
        return False, self.arg.pointwise

    def violation(self, evaluation):
        if self.pointwise:
            value = self.arg.value(evaluation)
            if value:
                return frozenset(min(value.tuples))
        return None


class _NonEmpty(Node):
    """``some x``."""

    __slots__ = ("arg",)

    def evaluate(self, evaluation):
        return bool(self.arg.value(evaluation))


class _Subset(Node):
    __slots__ = ("left", "right")

    def evaluate(self, evaluation):
        return self.left.value(evaluation).is_subset(self.right.value(evaluation))


# ----------------------------------------------------------------------
# Interning: structural keys -> global nodes
# ----------------------------------------------------------------------
#: Structural key -> node; a node's id is its position in this table.
_NODES: dict = {}


def _node(key: tuple, cls, static: bool, **fields) -> Node:
    node = _NODES.get(key)
    if node is None:
        node = cls()
        node.id = len(_NODES)
        node.static = static
        for name, value in fields.items():
            setattr(node, name, value)
        node.monotone, node.pointwise = node.flags()
        _NODES[key] = node
    return node


def _pair(op: str, cls, left: Node, right: Node, **fields) -> Node:
    return _node(
        (op, left.id, right.id),
        cls,
        left.static and right.static,
        left=left,
        right=right,
        **fields,
    )


class _Unsupported(Exception):
    """The symbolic formula uses a construct this compiler does not
    handle; the axiom is evaluated through its predicate instead."""


def _union_operands(expr: ast.Expr, out: list) -> None:
    if isinstance(expr, ast.Union_):
        _union_operands(expr.left, out)
        _union_operands(expr.right, out)
    else:
        out.append(_expr(expr))


def _union(operands: list) -> Node:
    """A flattened union: each operand once, in id order, with its static
    operands folded into one static node."""
    unique = [node for _id, node in sorted({n.id: n for n in operands}.items())]
    static = tuple(node for node in unique if node.static)
    parts = [node for node in unique if not node.static]
    if len(static) > 1:
        ids = tuple(node.id for node in static)
        parts.append(_node(("union",) + ids, _Union, True, parts=static))
    else:
        parts.extend(static)
    if len(parts) == 1:
        return parts[0]  # one operand, or all static: the fold
    parts.sort(key=lambda node: node.id)
    ids = tuple(node.id for node in parts)
    return _node(("union",) + ids, _Union, False, parts=tuple(parts))


def _expr(expr: ast.Expr) -> Node:
    if isinstance(expr, ast.Rel):
        return _node(
            ("rel", expr.name),
            _Relation,
            expr.name in names.PROGRAM_RELATIONS,
            name=expr.name,
        )
    if isinstance(expr, ast.Literal):
        return _node(("const", expr.value), _Constant, True, constant=expr.value)
    arity = expr.arity  # an arity mismatch anywhere below raises here
    if isinstance(expr, ast.Union_):
        operands: list = []
        _union_operands(expr, operands)
        return _union(operands)
    binary = _BINARY.get(type(expr))
    if binary is not None:
        op, cls = binary
        return _pair(op, cls, _expr(expr.left), _expr(expr.right), arity=arity)
    if isinstance(expr, ast.Difference):
        return _pair("-", _Difference, _expr(expr.left), _expr(expr.right))
    unary = _UNARY.get(type(expr))
    if unary is not None:
        op, cls = unary
        arg = _expr(expr.arg)
        return _node((op, arg.id), cls, arg.static, arg=arg)
    raise _Unsupported(expr)


_BINARY = {
    ast.Intersect: ("&", _Intersect),
    ast.Join: (".", _Join),
    ast.Product: ("->", _Product),
}
_UNARY = {ast.Transpose: ("~", _Transpose), ast.Closure: ("^", _Closure)}


def _formula(formula) -> Node:
    """The node of a formula the generic helpers of
    :mod:`repro.relational.ast` build — the forms that also evaluate
    concretely."""
    if isinstance(formula, bool):
        return _node(("bool", formula), _Constant, True, constant=formula)
    if isinstance(formula, ast.No):
        arg = formula.arg
        if isinstance(arg, ast.Intersect) and isinstance(arg.right, ast.Iden):
            arg.arity  # raises unless the relation is binary
            if isinstance(arg.left, ast.Closure):  # acyclic(x)
                relation = _expr(arg.left.arg)
                parts = relation.parts if isinstance(relation, _Union) else (relation,)
                return _node(
                    ("acyclic",) + tuple(n.id for n in parts),
                    _Acyclic,
                    relation.static,
                    parts=parts,
                )
            relation = _expr(arg.left)  # irreflexive(x)
            return _node(
                ("irreflexive", relation.id), _Irreflexive, relation.static, arg=relation
            )
        if isinstance(arg, ast.Intersect):
            return _pair(
                "disjoint",
                _Disjoint,
                _expr(arg.left),
                _expr(arg.right),
                arity=arg.arity,
            )
        relation = _expr(arg)
        return _node(("no", relation.id), _Empty, relation.static, arg=relation)
    if isinstance(formula, ast.Some):
        relation = _expr(formula.arg)
        return _node(("some", relation.id), _NonEmpty, relation.static, arg=relation)
    if isinstance(formula, ast.Subset):
        return _pair("in", _Subset, _expr(formula.left), _expr(formula.right))
    raise _Unsupported(formula)


#: Predicate -> its compiled root node, or None when it has no plan.
_PLANS: dict = {}


def plan_of(predicate: Callable) -> Optional[Node]:
    """The compiled root of an axiom predicate (compiled on first use),
    or None when the predicate does not compile and must be called on
    the concrete vocabulary."""
    try:
        return _PLANS[predicate]
    except KeyError:
        pass
    try:
        root: Optional[Node] = _formula(predicate(symbolic_vocabulary()))
    except Exception:  # any failure to compile means "evaluate as written"
        root = None
    _PLANS[predicate] = root
    return root
