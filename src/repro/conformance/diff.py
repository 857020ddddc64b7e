"""The differential synthesis pipeline: one enumeration, two verdicts.

TransForm's headline payoff is *differencing* transistency models:
synthesized ELTs distinguished the buggy AMD-erratum variant of x86t
from the correct spec (paper §I, §VII).  This module runs that workload
as queries of the synthesis engine's one program/witness loop
(:func:`repro.synth.engine.run_queries`): instead of targeting one
axiom, each (reference, subject) pair is a :class:`_DiffAccumulator`
query classifying every candidate execution under both models.

* The candidate enumeration happens **once** per program for every
  pair in flight; under the SAT backend the relational translation is
  built once per program by the witness session of
  :mod:`repro.synth.sat_backend`.
* Classification shares axiom verdicts through one
  :class:`~repro.models.AxiomTable` spanning all models in flight: each
  *distinct* axiom is evaluated once per execution (catalog variants
  share most of their axioms, so e.g. x86t_elt vs x86t_amd_bug costs
  five axiom evaluations, not nine — and the 20-pair catalog matrix
  costs six, not forty-five).
* Executions *forbidden by the reference but permitted by the subject*
  are a pair's candidates; the §IV-B-minimal ones become the
  **discriminating ELT suite** — run one on hardware and an observed
  outcome proves the subject model (not the reference) describes the
  machine.  Minimality is checked under the reference.
* Every witness feeds the :class:`~repro.models.Agreement` counters on
  :class:`~repro.synth.SuiteStats`, and the canonical keys of both
  asymmetric buckets are collected for refinement verdicts.

Everything else — symmetry pruning, minimality, order-free
representative selection, deadlines, SAT counters — is the shared
loop's, so a diff suite's entries are
:class:`~repro.synth.SynthesizedElt` records (a program and its
witness) whose ``.elts`` bytes are identical across ``--jobs``
settings, witness backends and ``--no-symmetry``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, Set, Tuple

from ..errors import SynthesisError
from ..models import Agreement, AxiomTable, MemoryModel
from ..mtm import Program
from ..synth import SuiteStats, SynthesisConfig
from ..synth.canon import ExecutionKey, ProgramKey
from ..synth.engine import (
    OrderKey,
    PipelineOutcome,
    run_queries,
    serial_programs,
)
from ..synth.relax import model_fingerprint

# Key, symmetry and minimality functions that nothing here calls (the
# shared loop in repro.synth.engine does).  They stay importable from
# this module only because the end-to-end benchmark's span map
# (bench_e2e/layers.py) wraps them at this module's path.
from ..symmetry import (  # noqa: F401
    execution_key_via,
    program_symmetry,
    witness_sort_key,
)
from ..synth.canon import (  # noqa: F401
    canonical_execution_key,
    canonical_program_key,
    identity_program_key,
)
from ..synth.engine import _uncached_is_minimal as cached_is_minimal  # noqa: F401
from ..synth.relax import is_minimal  # noqa: F401


class Refinement(Enum):
    """Observed refinement relation of a model pair at one bound.

    ``REFERENCE_STRONGER`` means the reference forbids strictly more than
    the subject on the enumerated executions — i.e. permitted(reference)
    ⊊ permitted(subject), the reference *refines* the subject (the "SC ⊑
    x86-TSO" direction with the stronger model as reference).
    """

    EQUIVALENT = "equivalent"
    REFERENCE_STRONGER = "reference-stronger"
    SUBJECT_STRONGER = "subject-stronger"
    INCOMPARABLE = "incomparable"


@dataclass
class DiffConfig:
    """One differential run: the reference model rides in ``base.model``
    (which also drives enumeration and minimality), ``subject`` is the
    model compared against it."""

    base: SynthesisConfig
    subject: MemoryModel

    def __post_init__(self) -> None:
        if self.base.target_axiom is not None:
            raise SynthesisError(
                "differential runs classify the whole candidate space; "
                "base.target_axiom must be None"
            )

    @property
    def reference(self) -> MemoryModel:
        return self.base.model

    @property
    def bound(self) -> int:
        return self.base.bound


@dataclass
class DiffOutcome(PipelineOutcome):
    """One pair's product of a :func:`run_multi_diff_pipeline` pass: the
    synthesis outcome (discriminating ELTs by class, order keys, stats)
    plus the canonical keys of both asymmetric buckets (per-shard shape;
    merged across shards by :mod:`repro.conformance.merge`)."""

    #: Canonical keys of every reference-forbidden/subject-permitted
    #: witness (minimal or not) — the semantic disagreement evidence.
    reference_only_keys: Set[ExecutionKey] = field(default_factory=set)
    #: ... and the opposite direction (reference permits, subject forbids).
    subject_only_keys: Set[ExecutionKey] = field(default_factory=set)


class _DiffAccumulator:
    """One (reference, subject) pair's query in the shared loop: the
    agreement buckets and the two asymmetric key sets.  A witness is a
    candidate when the reference forbids it and the subject permits it;
    the loop checks its minimality under the reference."""

    def __init__(
        self, reference: MemoryModel, reference_index: int, subject_index: int
    ) -> None:
        self.model = reference
        self.reference_index = reference_index
        self.subject_index = subject_index
        self.outcome = DiffOutcome()

    def observe(self, permits, weight: int, execution_key_of) -> bool:
        outcome = self.outcome
        stats = outcome.stats
        ref_permits = permits(self.reference_index)
        sub_permits = permits(self.subject_index)
        if ref_permits:
            if sub_permits:
                stats.both_permit += weight
                return False
            stats.interesting += weight
            stats.only_subject_forbids += weight
            outcome.subject_only_keys.add(execution_key_of())
            return False
        if not sub_permits:
            stats.both_forbid += weight
            return False
        stats.interesting += weight
        stats.only_reference_forbids += weight
        outcome.reference_only_keys.add(execution_key_of())
        return True


#: SynthesisConfig fields that shape the shared program/witness
#: enumeration — every diff of a fused run must agree on all of them
#: (``model`` deliberately excluded: it is the per-pair reference and
#: plays no part in enumeration).
_ENUMERATION_FIELDS = tuple(
    name for name in SynthesisConfig.__dataclass_fields__ if name != "model"
)


def run_multi_diff_pipeline(
    diffs: Sequence[DiffConfig],
    ordered_programs: Iterable[Tuple[OrderKey, Program]],
    deadline: Optional[float] = None,
) -> list[DiffOutcome]:
    """Classify one shared candidate enumeration under many (reference,
    subject) pairs at once — one :class:`_DiffAccumulator` query per
    pair in :func:`~repro.synth.engine.run_queries`.

    Every program is enumerated (and, under the SAT backend, translated)
    **once** for all pairs; per-witness axiom verdicts are shared through
    one :class:`~repro.models.AxiomTable` spanning every model in flight;
    minimality verdicts are shared between pairs with the same reference.
    Each pair's :class:`DiffOutcome` is what its dedicated single-pair
    run would produce, except that the translations actually run are
    credited to the first pair and recorded as *avoided* on the rest.

    All diffs must share every enumeration-shaping knob of their base
    config (bound, caps, feature toggles, backend); only the models may
    differ.  ``deadline`` spans the whole fused pass: exceeding it marks
    *every* outcome timed out.
    """
    if not diffs:
        raise SynthesisError("fused diff pipeline needs at least one pair")
    base = diffs[0].base
    for diff in diffs[1:]:
        for name in _ENUMERATION_FIELDS:
            if getattr(diff.base, name) != getattr(base, name):
                raise SynthesisError(
                    "fused diff pipeline needs identical enumeration "
                    f"configs; field {name!r} differs"
                )

    # One axiom slot table across every distinct model in flight; each
    # pair resolves its (reference, subject) to table indices.
    model_index: dict = {}
    models: list = []

    def index_of(model: MemoryModel) -> int:
        key = model_fingerprint(model)
        if key not in model_index:
            model_index[key] = len(models)
            models.append(model)
        return model_index[key]

    queries = [
        _DiffAccumulator(
            diff.reference, index_of(diff.reference), index_of(diff.subject)
        )
        for diff in diffs
    ]
    return run_queries(
        base, ordered_programs, AxiomTable(models), queries, deadline
    )


def run_diff_pipeline(
    diff: DiffConfig,
    ordered_programs: Iterable[Tuple[OrderKey, Program]],
    deadline: Optional[float] = None,
) -> DiffOutcome:
    """Classify every candidate execution of an ordered program stream
    under (reference, subject); collect the discriminating ELT suite.

    Entries follow the synthesis merge contract: keyed by canonical
    program class, owned by the class member with the smallest identity
    rank, with class-invariant ``outcome_count``/key sets — so shard
    results merge to exactly the serial outcome (see
    :mod:`repro.orchestrate.merge` for the argument).  The single-pair
    case of :func:`run_multi_diff_pipeline`.
    """
    return run_multi_diff_pipeline([diff], ordered_programs, deadline)[0]


@dataclass
class ConformanceCell:
    """One (reference, subject) pair's differential verdict at a bound:
    the Agreement-bucketed counts, the discriminating ELT suite, and the
    canonical-key evidence behind the refinement verdict."""

    reference: str
    subject: str
    bound: int
    elts: list = field(default_factory=list)
    stats: SuiteStats = field(default_factory=SuiteStats)
    reference_only_keys: Tuple[ExecutionKey, ...] = ()
    subject_only_keys: Tuple[ExecutionKey, ...] = ()

    @property
    def discriminating(self) -> list:
        """The synthesized distinguishing tests (reference forbids,
        subject permits, minimal under the reference)."""
        return self.elts

    @property
    def count(self) -> int:
        return len(self.elts)

    def counts(self) -> dict:
        """Agreement-bucket counts keyed like
        :meth:`~repro.models.ModelComparison.counts`."""
        return {
            Agreement.BOTH_PERMIT.value: self.stats.both_permit,
            Agreement.BOTH_FORBID.value: self.stats.both_forbid,
            Agreement.ONLY_REFERENCE_FORBIDS.value: (
                self.stats.only_reference_forbids
            ),
            Agreement.ONLY_SUBJECT_FORBIDS.value: (
                self.stats.only_subject_forbids
            ),
        }

    @property
    def verdict(self) -> Refinement:
        ref_only = self.stats.only_reference_forbids > 0
        sub_only = self.stats.only_subject_forbids > 0
        if ref_only and sub_only:
            return Refinement.INCOMPARABLE
        if ref_only:
            return Refinement.REFERENCE_STRONGER
        if sub_only:
            return Refinement.SUBJECT_STRONGER
        return Refinement.EQUIVALENT

    @property
    def equivalent_at_bound(self) -> bool:
        return self.verdict is Refinement.EQUIVALENT

    def keys(self) -> Set[ProgramKey]:
        return {elt.key for elt in self.elts}


def finalize_cell(
    diff: DiffConfig, outcome: DiffOutcome, runtime_s: float
) -> ConformanceCell:
    """Package a diff outcome as a sorted, counted :class:`ConformanceCell`."""
    cell = ConformanceCell(
        reference=diff.reference.name,
        subject=diff.subject.name,
        bound=diff.bound,
        stats=outcome.stats,
        reference_only_keys=tuple(sorted(outcome.reference_only_keys)),
        subject_only_keys=tuple(sorted(outcome.subject_only_keys)),
    )
    cell.elts = sorted(outcome.by_key.values(), key=lambda e: e.key)
    outcome.stats.unique_programs = len(cell.elts)
    outcome.stats.runtime_s = runtime_s
    return cell


def diff_models(diff: DiffConfig) -> ConformanceCell:
    """Run one differential pass serially (the ``--jobs 1`` path)."""
    started = time.monotonic()
    deadline = (
        None
        if diff.base.time_budget_s is None
        else started + diff.base.time_budget_s
    )
    outcome = run_diff_pipeline(
        diff, serial_programs(diff.base), deadline=deadline
    )
    return finalize_cell(diff, outcome, time.monotonic() - started)
