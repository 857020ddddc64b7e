"""Model-vs-model comparison over ELT executions.

Given two models (say, correct x86t_elt and an erratum variant) and a set
of candidate executions, classify each execution by the pair of verdicts.
Executions *forbidden by the reference but permitted by the subject* are
the discriminating tests: observing one on hardware proves the subject
model (not the reference) describes the machine — exactly how synthesized
ELTs "inform system designers about the software-visible effects of VM
implementations" (paper §I).

:class:`PairClassifier` is the single-pass engine behind the comparison:
it deduplicates the two models' axioms (catalog variants are built from
the *same* :class:`~repro.models.base.Axiom` constants, so e.g. x86t_elt
and x86t_amd_bug share four of their combined nine axioms) and evaluates
each distinct axiom at most once per execution.  The differential
synthesis pipeline (:mod:`repro.conformance`) runs it over every
candidate execution of a bounded enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional, Tuple

from ..mtm import Execution
from .base import Axiom, MemoryModel


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
    """Deduplicated axiom slots across *any* number of models.

    The n-model generalization of :class:`PairClassifier`'s sharing
    trick: all models' axioms are merged into one slot list keyed by
    (name, predicate), so an axiom shared by k models occupies one slot
    and is evaluated at most once per execution no matter how many model
    pairs are being classified.  Every pass of the engine's program loop
    (:func:`repro.synth.engine.run_queries`) reads its verdicts from one
    table: a synthesis pass's holds one verdict model, and a fused
    all-pairs conformance pass's spans every reference and subject in
    flight, so classifying a witness under 20 catalog pairs costs one
    evaluation per *distinct* axiom (typically 6), not one per
    pair-slot (45).
    """

    def __init__(self, models: Iterable[MemoryModel]) -> None:
        self.models: List[MemoryModel] = list(models)
        self._axioms: List[Axiom] = []
        self._slots: List[List[int]] = []
        slot_of: dict = {}
        for model in self.models:
            slots: List[int] = []
            for axiom in model.axioms:
                identity = (axiom.name, axiom.predicate)
                index = slot_of.get(identity)
                if index is None:
                    index = len(self._axioms)
                    slot_of[identity] = index
                    self._axioms.append(axiom)
                slots.append(index)
            self._slots.append(slots)

    @property
    def distinct_axiom_count(self) -> int:
        return len(self._axioms)

    def evaluator(self, execution: Execution):
        """A ``permits(model_index) -> bool`` callable for one execution,
        memoizing each distinct axiom's verdict across models (and
        preserving the all-true / first-false short-circuit per model)."""
        cache: List[Optional[bool]] = [None] * len(self._axioms)
        axioms = self._axioms
        slots = self._slots

        def permits(model_index: int) -> bool:
            for index in slots[model_index]:
                result = cache[index]
                if result is None:
                    result = axioms[index].holds(execution)
                    cache[index] = result
                if not result:
                    return False
            return True

        return permits


class PairClassifier:
    """Single-pass verdict-pair classification under two models.

    The two models' axioms are merged into one slot list, deduplicated by
    (name, predicate): an axiom appearing in both models — the common case
    for catalog variants, which are built by adding/removing axioms from a
    shared base — occupies one slot and is evaluated once per execution.
    Evaluation is lazy and memoized per execution, so the usual all-true /
    first-false short-circuit of :meth:`MemoryModel.permits` is preserved
    wherever slots are not shared.
    """

    def __init__(self, reference: MemoryModel, subject: MemoryModel) -> None:
        self.reference = reference
        self.subject = subject
        self._axioms: List[Axiom] = []
        slot_of: dict = {}
        self._reference_slots: List[int] = []
        self._subject_slots: List[int] = []
        for model, slots in (
            (reference, self._reference_slots),
            (subject, self._subject_slots),
        ):
            for axiom in model.axioms:
                identity = (axiom.name, axiom.predicate)
                index = slot_of.get(identity)
                if index is None:
                    index = len(self._axioms)
                    slot_of[identity] = index
                    self._axioms.append(axiom)
                slots.append(index)

    @property
    def shared_axiom_count(self) -> int:
        """How many axiom slots the two models share."""
        return (
            len(self._reference_slots)
            + len(self._subject_slots)
            - len(self._axioms)
        )

    def verdicts(self, execution: Execution) -> Tuple[bool, bool]:
        """(reference permits, subject permits) with shared evaluation."""
        cache: List[Optional[bool]] = [None] * len(self._axioms)

        def holds(index: int) -> bool:
            result = cache[index]
            if result is None:
                result = self._axioms[index].holds(execution)
                cache[index] = result
            return result

        ref_permits = all(holds(i) for i in self._reference_slots)
        sub_permits = all(holds(i) for i in self._subject_slots)
        return ref_permits, sub_permits

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
