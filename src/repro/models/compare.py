"""Model-vs-model comparison over ELT executions.

Given two models (say, correct x86t_elt and an erratum variant) and a set
of candidate executions, classify each execution by the pair of verdicts.
Executions *forbidden by the reference but permitted by the subject* are
the discriminating tests: observing one on hardware proves the subject
model (not the reference) describes the machine — exactly how synthesized
ELTs "inform system designers about the software-visible effects of VM
implementations" (paper §I).

:class:`PairClassifier` is the single-pass engine behind the comparison,
the two-model :class:`AxiomTable`: catalog variants are built from the
*same* :class:`~repro.models.base.Axiom` constants (x86t_elt and
x86t_amd_bug share four of their combined nine axioms), and the table's
one evaluation per execution evaluates each distinct axiom at most once.
The fuzz oracle (:mod:`repro.fuzz.oracle`) runs it over every candidate
execution of the programs it judges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from ..mtm import Execution
from .base import Axiom, MemoryModel
from .plan import Evaluation


class Agreement(Enum):
    BOTH_PERMIT = "both-permit"
    BOTH_FORBID = "both-forbid"
    ONLY_REFERENCE_FORBIDS = "only-reference-forbids"  # discriminating
    ONLY_SUBJECT_FORBIDS = "only-subject-forbids"


@dataclass
class ModelComparison:
    reference: str
    subject: str
    buckets: dict[Agreement, list[Execution]] = field(
        default_factory=lambda: {a: [] for a in Agreement}
    )

    @property
    def discriminating(self) -> list[Execution]:
        """Executions the reference forbids but the subject permits — the
        bug-detector tests."""
        return self.buckets[Agreement.ONLY_REFERENCE_FORBIDS]

    def counts(self) -> dict[str, int]:
        return {a.value: len(execs) for a, execs in self.buckets.items()}

    @property
    def equivalent_on_inputs(self) -> bool:
        return not (
            self.buckets[Agreement.ONLY_REFERENCE_FORBIDS]
            or self.buckets[Agreement.ONLY_SUBJECT_FORBIDS]
        )


class AxiomTable:
    """Verdicts of *any* number of models, read from one evaluation per
    execution.

    Every model's axioms compile into one shared plan
    (:mod:`repro.models.plan`), and one :class:`Evaluation` per execution
    memoizes every node, so an axiom shared by k models — and every
    subterm shared by several axioms — is evaluated at most once per
    execution no matter how many model pairs are being classified.
    Every pass of the engine's program loop
    (:func:`repro.synth.engine.run_queries`) reads its verdicts from one
    table: a synthesis pass's holds one verdict model, and a fused
    all-pairs conformance pass's spans every reference and subject in
    flight, so classifying a witness under 20 catalog pairs costs one
    evaluation per *distinct* axiom (typically 6), not one per
    pair-slot (45).
    """

    def __init__(self, models: Iterable[MemoryModel]) -> None:
        self.models: List[MemoryModel] = list(models)
        self._axioms: List[Tuple[Axiom, ...]] = [
            model.axioms for model in self.models
        ]

    @property
    def distinct_axiom_count(self) -> int:
        """How many distinct axioms, by (name, predicate), the models
        hold: the most axiom verdicts one execution costs."""
        return len(
            {(a.name, a.predicate) for axioms in self._axioms for a in axioms}
        )

    def evaluator(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ):
        """A ``permits(model_index) -> bool`` callable for one execution.
        Every model reads the execution's one :class:`Evaluation`
        (``evaluation`` when given, so a caller can read more from it),
        so an axiom shared by several models, and every subterm shared
        by several axioms, is evaluated once; each model keeps its
        first-false short-circuit."""
        if evaluation is None:
            evaluation = Evaluation(execution)
        axioms_of = self._axioms

        def permits(model_index: int) -> bool:
            return _all_hold(axioms_of[model_index], execution, evaluation)

        return permits


def _all_hold(axioms, execution: Execution, evaluation: Evaluation) -> bool:
    for axiom in axioms:
        if not axiom.holds(execution, evaluation):
            return False
    return True


class PairClassifier(AxiomTable):
    """Single-pass verdict-pair classification: the two-model table.

    Catalog variants are built by adding and removing axioms from a
    shared base, so the two models usually share most axioms; through
    the table's one evaluation per execution, a shared axiom is
    evaluated once.
    """

    def __init__(self, reference: MemoryModel, subject: MemoryModel) -> None:
        super().__init__((reference, subject))
        self.reference = reference
        self.subject = subject

    @property
    def shared_axiom_count(self) -> int:
        """How many axioms, by (name, predicate), the two models share."""
        return sum(map(len, self._axioms)) - self.distinct_axiom_count

    def verdicts(
        self, execution: Execution, evaluation: Optional[Evaluation] = None
    ) -> Tuple[bool, bool]:
        """(reference permits, subject permits), read from one evaluation
        (``evaluation`` when given, so a caller can read more verdicts
        from it)."""
        if evaluation is None:
            evaluation = Evaluation(execution)
        return (
            _all_hold(self._axioms[0], execution, evaluation),
            _all_hold(self._axioms[1], execution, evaluation),
        )

    def classify(self, execution: Execution) -> Agreement:
        ref_permits, sub_permits = self.verdicts(execution)
        if ref_permits:
            return (
                Agreement.BOTH_PERMIT
                if sub_permits
                else Agreement.ONLY_SUBJECT_FORBIDS
            )
        return (
            Agreement.ONLY_REFERENCE_FORBIDS
            if sub_permits
            else Agreement.BOTH_FORBID
        )


def compare_models(
    reference: MemoryModel,
    subject: MemoryModel,
    executions: Iterable[Execution],
) -> ModelComparison:
    """Bucket executions by the verdict pair (reference, subject)."""
    comparison = ModelComparison(reference.name, subject.name)
    classifier = PairClassifier(reference, subject)
    for execution in executions:
        comparison.buckets[classifier.classify(execution)].append(execution)
    return comparison


def discriminating_elts(
    reference: MemoryModel,
    subject: MemoryModel,
    executions: Iterable[Execution],
) -> list[Execution]:
    """The tests that distinguish ``subject`` hardware from ``reference``."""
    return compare_models(reference, subject, executions).discriminating
