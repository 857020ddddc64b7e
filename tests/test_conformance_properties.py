"""Metamorphic properties of model comparison and the diff pipeline.

Quantified over whole well-formed transistency programs (and their
candidate executions) drawn from :mod:`tests.strategies`:

* comparing any model against itself is an equivalence on every input;
* the Agreement buckets partition the input (counts sum to input size);
* swapping a pair transposes the asymmetric buckets (antisymmetry);
* the shared-axiom :class:`~repro.models.PairClassifier` agrees with two
  independent :meth:`~repro.models.MemoryModel.permits` calls.
"""

from __future__ import annotations

from hypothesis import given, settings

from repro.models import (
    Agreement,
    PairClassifier,
    compare_models,
    x86t_amd_bug,
    x86t_elt,
)
from repro.synth import canonical_execution_key

from .strategies import catalog_model_pairs, vm_programs, witness_lists

SETTINGS = dict(max_examples=25, deadline=None)


@settings(**SETTINGS)
@given(pair=catalog_model_pairs(distinct=False), drawn=witness_lists())
def test_compare_model_with_itself_is_equivalent(pair, drawn) -> None:
    model, _ = pair
    _, witnesses = drawn
    comparison = compare_models(model, model, witnesses)
    assert comparison.equivalent_on_inputs
    assert not comparison.discriminating
    assert not comparison.buckets[Agreement.ONLY_SUBJECT_FORBIDS]
    agreed = len(comparison.buckets[Agreement.BOTH_PERMIT]) + len(
        comparison.buckets[Agreement.BOTH_FORBID]
    )
    assert agreed == len(witnesses)


@settings(**SETTINGS)
@given(pair=catalog_model_pairs(), drawn=witness_lists())
def test_bucket_counts_sum_to_input_size(pair, drawn) -> None:
    reference, subject = pair
    _, witnesses = drawn
    comparison = compare_models(reference, subject, witnesses)
    assert sum(comparison.counts().values()) == len(witnesses)


@settings(**SETTINGS)
@given(pair=catalog_model_pairs(), drawn=witness_lists())
def test_discriminating_sets_antisymmetric_under_swap(pair, drawn) -> None:
    reference, subject = pair
    _, witnesses = drawn
    forward = compare_models(reference, subject, witnesses)
    backward = compare_models(subject, reference, witnesses)

    def keys(comparison, bucket):
        return sorted(
            canonical_execution_key(e) for e in comparison.buckets[bucket]
        )

    assert keys(forward, Agreement.ONLY_REFERENCE_FORBIDS) == keys(
        backward, Agreement.ONLY_SUBJECT_FORBIDS
    )
    assert keys(forward, Agreement.ONLY_SUBJECT_FORBIDS) == keys(
        backward, Agreement.ONLY_REFERENCE_FORBIDS
    )
    assert keys(forward, Agreement.BOTH_PERMIT) == keys(
        backward, Agreement.BOTH_PERMIT
    )
    assert keys(forward, Agreement.BOTH_FORBID) == keys(
        backward, Agreement.BOTH_FORBID
    )


@settings(**SETTINGS)
@given(pair=catalog_model_pairs(), drawn=witness_lists())
def test_pair_classifier_matches_independent_permits(pair, drawn) -> None:
    reference, subject = pair
    _, witnesses = drawn
    classifier = PairClassifier(reference, subject)
    for execution in witnesses:
        assert classifier.verdicts(execution) == (
            reference.permits(execution),
            subject.permits(execution),
        )


@settings(**SETTINGS)
@given(program=vm_programs())
def test_vm_programs_exercise_translation(program) -> None:
    from repro.mtm import EventKind

    # Program.__post_init__ validated well-formedness at build time; the
    # strategy's promise is that the VM vocabulary is actually exercised.
    assert any(
        e.kind is EventKind.PTE_WRITE for e in program.events.values()
    )
    assert program.size > 0


def test_pair_classifier_shares_catalog_axioms() -> None:
    classifier = PairClassifier(x86t_elt(), x86t_amd_bug())
    # x86t_amd_bug is x86t_elt minus invlpg: all four of its axioms are
    # shared, so an execution costs exactly x86t_elt's five axioms.
    assert classifier.shared_axiom_count == 4
    assert classifier.distinct_axiom_count == 5
