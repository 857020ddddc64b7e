"""Memory model infrastructure.

A :class:`MemoryModel` is a named conjunction of :class:`Axiom` predicates
over the MTM vocabulary.  An MCM's conjunction is its *consistency
predicate*; an MTM's is its *transistency predicate* (paper §II-A, §V-A).

Each axiom is a single function written against the generic relational
protocol (see :mod:`repro.relational.ast`), so the same definition:

* builds a symbolic relational :class:`~repro.relational.ast.Formula` for
  the SAT backend and for documentation — :meth:`MemoryModel.formula`;
* checks a candidate execution concretely — :meth:`MemoryModel.check`.
  Concrete verdicts come from that same formula, compiled once into the
  shared-subterm plan of :mod:`repro.models.plan` and evaluated with one
  memo per execution (:class:`~repro.models.plan.Evaluation`).  Calling
  the predicate on the execution's concrete :class:`~repro.mtm.Vocabulary`
  is the fallback for a predicate that does not compile, and the
  reference the tests hold the compiled verdicts to.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, Union

from ..errors import SynthesisError
from ..mtm import Execution, Vocabulary, symbolic_vocabulary
from ..relational.ast import Formula, conj
from .plan import Evaluation, plan_of

AxiomPredicate = Callable[[Vocabulary], Union[bool, Formula]]


@dataclass(frozen=True)
class Axiom:
    """One named axiom of a consistency/transistency predicate.

    ``diagnostic`` marks axioms included to help hardware engineers
    localize bugs (the paper's ``tlb_causality``, §V-A2) — they participate
    in the predicate but are reported separately.
    """

    name: str
    predicate: AxiomPredicate
    description: str = ""
    diagnostic: bool = False

    def holds(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ) -> bool:
        """Concrete evaluation on a candidate execution, through the
        compiled plan and the execution's shared ``evaluation`` (a fresh
        one when not given); a predicate without a plan is called on the
        concrete vocabulary."""
        root = plan_of(self.predicate)
        if root is not None:
            if evaluation is None:
                evaluation = Evaluation(execution)
            return root.value(evaluation)
        result = self.predicate(Vocabulary(execution.relations))
        if not isinstance(result, bool):
            raise SynthesisError(
                f"axiom {self.name!r} did not evaluate concretely"
            )
        return result

    def violation(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ) -> Optional[frozenset]:
        """The atoms of one violation of this axiom on ``execution`` that
        survives every restricted view keeping them — the recorded cycle
        of an acyclicity axiom, or one offending tuple — read from the
        execution's shared ``evaluation``.  None when the axiom holds,
        or when its plan yields no such violation
        (:meth:`repro.models.plan.Node.violation`)."""
        root = plan_of(self.predicate)
        if root is None:
            return None
        if evaluation is None:
            evaluation = Evaluation(execution)
        return root.violation(evaluation)

    def formula(self) -> Formula:
        """Symbolic form over the Table I vocabulary."""
        result = self.predicate(symbolic_vocabulary())
        if isinstance(result, bool):
            raise SynthesisError(
                f"axiom {self.name!r} collapsed to a constant symbolically"
            )
        return result


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one execution against a model."""

    model: str
    results: dict[str, bool] = field(default_factory=dict)

    @property
    def permitted(self) -> bool:
        return all(self.results.values())

    @property
    def forbidden(self) -> bool:
        return not self.permitted

    @property
    def violated(self) -> tuple[str, ...]:
        return tuple(name for name, ok in self.results.items() if not ok)

    def __str__(self) -> str:
        status = "permitted" if self.permitted else "forbidden"
        detail = (
            "" if self.permitted else f" (violates {', '.join(self.violated)})"
        )
        return f"{self.model}: {status}{detail}"


class MemoryModel:
    """A named axiomatic memory (transistency) model."""

    def __init__(self, name: str, axioms: Iterable[Axiom]) -> None:
        self.name = name
        self.axioms: tuple[Axiom, ...] = tuple(axioms)
        seen = set()
        for axiom in self.axioms:
            if axiom.name in seen:
                raise SynthesisError(f"duplicate axiom name {axiom.name!r}")
            seen.add(axiom.name)

    @property
    def axiom_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.axioms)

    def axiom(self, name: str) -> Axiom:
        for axiom in self.axioms:
            if axiom.name == name:
                return axiom
        raise SynthesisError(f"{self.name} has no axiom {name!r}")

    def check(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ) -> Verdict:
        """Evaluate every axiom on a candidate execution (in its shared
        ``evaluation`` when given)."""
        if evaluation is None:
            evaluation = Evaluation(execution)
        return Verdict(
            self.name,
            {
                axiom.name: axiom.holds(execution, evaluation)
                for axiom in self.axioms
            },
        )

    def permits(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ) -> bool:
        """Whether every axiom holds; stops at the first violated one
        (:meth:`check` evaluates them all, for reporting)."""
        if evaluation is None:
            evaluation = Evaluation(execution)
        return all(axiom.holds(execution, evaluation) for axiom in self.axioms)

    def forbids(self, execution: Execution) -> bool:
        return not self.permits(execution)

    def formula(self) -> Formula:
        """The whole predicate as one relational formula (conjunction)."""
        return conj(axiom.formula() for axiom in self.axioms)

    def check_symbolic(self, execution: Execution) -> bool:
        """Check an execution through the SAT backend: encode its relations
        as exact bounds and ask whether the predicate formula is satisfiable.

        Must always agree with :meth:`permits`; the test suite uses this to
        cross-validate the concrete and symbolic evaluation paths.
        """
        from ..relational import Problem

        instance = execution.to_instance()
        problem = Problem(instance.atoms)
        for name, tuple_set in instance.relations.items():
            problem.declare(
                name,
                tuple_set.arity,
                upper=tuple_set.tuples,
                lower=tuple_set.tuples,
            )
        problem.constrain(self.formula())
        return problem.solve() is not None

    def extended(self, name: str, extra_axioms: Iterable[Axiom]) -> "MemoryModel":
        """A new model with additional axioms (e.g. MCM -> MTM, §V-A)."""
        return MemoryModel(name, self.axioms + tuple(extra_axioms))

    def without(self, name: str, dropped: Iterable[str]) -> "MemoryModel":
        """A new model lacking some axioms (for bug-modeling variants)."""
        dropped_set = set(dropped)
        unknown = dropped_set - set(self.axiom_names)
        if unknown:
            raise SynthesisError(f"{self.name} has no axioms {sorted(unknown)}")
        return MemoryModel(
            name, [a for a in self.axioms if a.name not in dropped_set]
        )

    def __repr__(self) -> str:
        return f"MemoryModel({self.name!r}, axioms={list(self.axiom_names)})"
