"""Bounded relational model finding (Alloy 4.2 + Kodkod stand-in).

Public surface:

* :class:`TupleSet` — concrete relations with Alloy-style operators.
* AST constructors from :mod:`repro.relational.ast` (``Rel``, ``forall``,
  ``exists``, ``acyclic``, ``no``, ``some``, ``subset``, ``conj`` ...).
* :class:`Instance` — a concrete model.
* :func:`eval_expr` / :func:`eval_formula` — reference evaluation.
* :class:`Problem` — declare bounds, constrain, solve/enumerate via SAT.
"""

from .._lazy import lazy_exports
from .ast import (
    And,
    Closure,
    Difference,
    Exists,
    Expr,
    FalseF,
    ForAll,
    Formula,
    Iden,
    Intersect,
    Join,
    Literal,
    Lone,
    No,
    Not,
    One,
    Or,
    Product,
    Rel,
    Some,
    Subset,
    Transpose,
    TrueF,
    Union_,
    Univ,
    VarRef,
    acyclic,
    conj,
    disj,
    exists,
    forall,
    irreflexive,
    no,
    some,
    subset,
)
from .instance import Instance
from .tuples import TupleSet

# The SAT-backed problem API and the reference evaluator load on first
# use, so importing the relational vocabulary (:class:`TupleSet`, the
# AST) loads neither the translator nor the SAT solver.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "translate": ("Problem", "ProblemSession", "RelationBound"),
        "eval": ("eval_expr", "eval_formula"),
    },
)

__all__ = [
    "TupleSet",
    "Instance",
    "Problem",
    "ProblemSession",
    "RelationBound",
    "eval_expr",
    "eval_formula",
    # AST
    "Expr",
    "Formula",
    "Rel",
    "Literal",
    "Iden",
    "Univ",
    "VarRef",
    "Union_",
    "Intersect",
    "Difference",
    "Join",
    "Product",
    "Transpose",
    "Closure",
    "TrueF",
    "FalseF",
    "Subset",
    "Some",
    "No",
    "One",
    "Lone",
    "Not",
    "And",
    "Or",
    "ForAll",
    "Exists",
    "forall",
    "exists",
    "conj",
    "disj",
    "acyclic",
    "irreflexive",
    "no",
    "some",
    "subset",
]
