"""The differential synthesis pipeline: one enumeration, two verdicts.

TransForm's headline payoff is *differencing* transistency models:
synthesized ELTs distinguished the buggy AMD-erratum variant of x86t
from the correct spec (paper §I, §VII).  This module runs that workload
over the same bounded skeleton/witness enumeration the synthesis engine
uses (:func:`repro.synth.run_pipeline`'s stream contract), but instead
of targeting one axiom it classifies every candidate execution under a
(reference, subject) model pair in a single pass:

* the candidate enumeration happens **once** per program — the witness
  stream is shared between the two models (and, in the fused multi-pair
  pipeline, across *every* pair in flight), and under the SAT backend
  the relational translation is built once per program via the witness
  sessions of :mod:`repro.synth.sat_backend`;
* classification shares axiom verdicts through one
  :class:`~repro.models.AxiomTable` spanning all models in flight: each
  *distinct* axiom is evaluated once per execution (catalog variants
  share most of their axioms, so e.g. x86t_elt vs x86t_amd_bug costs
  five axiom evaluations, not nine — and the 20-pair catalog matrix
  costs six, not forty-five);
* executions *forbidden by the reference but permitted by the subject*
  that are also §IV-B minimal become the **discriminating ELT suite** —
  run one on hardware and an observed outcome proves the subject model
  (not the reference) describes the machine;
* every witness feeds the :class:`~repro.models.Agreement` counters on
  :class:`~repro.synth.SuiteStats`, and the canonical keys of both
  asymmetric buckets are collected for refinement verdicts.

Determinism is order-free at both selection levels: each discriminating
ELT belongs to the class member with the smallest identity rank, and its
representative execution is chosen by *(canonical key, witness sort
key)* — the same total order the symmetry layer's lex-leader clauses
enforce (:mod:`repro.symmetry`) — never by stream position.  The
``.elts`` bytes of a diff suite are therefore identical across
``--jobs`` settings, witness backends, ``--fresh-solver``, and
``--no-symmetry``; with symmetry on (the default), witness streams
arrive orbit-pruned and weighted, and duplicate isomorphic programs are
replayed from the orbit cache instead of being translated again.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence, Set, Tuple

from ..errors import SolverInterrupted, SynthesisError
from ..resilience import deadline_scope
from ..litmus.format import serialize_elt
from ..models import Agreement, AxiomTable, MemoryModel
from ..mtm import Execution, Program
from ..obs import current_registry, current_tracer
from ..synth import SuiteStats, SynthesisConfig
from ..symmetry import execution_key_via, program_symmetry, witness_sort_key
from ..synth.canon import (
    ExecutionKey,
    ProgramKey,
    canonical_execution_key,
    canonical_program_key,
    identity_program_key,
)
from ..synth.engine import OrderKey, witness_stream_factory
from ..synth.relax import cached_is_minimal, is_minimal, model_fingerprint
from ..synth.skeletons import enumerate_programs


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
class DiscriminatingElt:
    """One discriminating test: a program class whose candidate set
    contains a reference-forbidden, subject-permitted, §IV-B-minimal
    execution.  ``program`` is the class member with the smallest
    identity rank; ``execution`` is the canonical representative among
    that winner's minimal discriminating witnesses — smallest
    ``(canonical key, witness sort key)``, the same total order the
    symmetry layer's lex-leader clauses enforce, so orbit pruning can
    never change which bytes are emitted.  ``outcome_count`` counts the
    class's distinct such witnesses (by canonical key)."""

    program: Program
    execution: Execution
    key: ProgramKey
    execution_key: ExecutionKey
    #: ``serialize_elt(execution)`` — kept because the suite writer
    #: reuses it.
    text: str
    violated_axioms: tuple  # reference axioms the representative violates
    outcome_count: int = 1
    #: Identity rank of the winning program (class-member tie-break).
    rep_rank: tuple = ()
    #: :func:`repro.symmetry.witness_sort_key` of the representative.
    witness_rank: tuple = ()


@dataclass
class DiffOutcome:
    """Raw product of one :func:`run_diff_pipeline` pass (per-shard
    shape; merged across shards by :mod:`repro.conformance.merge`)."""

    by_key: dict = field(default_factory=dict)
    order: dict = field(default_factory=dict)
    stats: SuiteStats = field(default_factory=SuiteStats)
    #: Canonical keys of every reference-forbidden/subject-permitted
    #: witness (minimal or not) — the semantic disagreement evidence.
    reference_only_keys: Set[ExecutionKey] = field(default_factory=set)
    #: ... and the opposite direction (reference permits, subject forbids).
    subject_only_keys: Set[ExecutionKey] = field(default_factory=set)


class _DiffAccumulator:
    """One (reference, subject) pair's state inside the fused pipeline:
    exactly the per-witness logic the dedicated single-pair loop used to
    run, fed shared verdicts instead of computing its own."""

    def __init__(
        self, diff: DiffConfig, minimal_cache: dict, stage_acc: dict
    ) -> None:
        self.diff = diff
        self.reference = diff.reference
        self.outcome = DiffOutcome()
        #: shared per-reference minimality verdicts (exec key -> bool).
        self.minimal_cache = minimal_cache
        #: shared stage-time accumulator (minimality seconds land here).
        self.stage_acc = stage_acc
        #: Minimal discriminating keys already credited to an entry.
        self.counted_keys: Set[ExecutionKey] = set()
        self.program_key: Optional[ProgramKey] = None

    def start_program(self) -> None:
        self.program_key = None

    def observe(
        self,
        order_key: OrderKey,
        program: Program,
        execution: Execution,
        weight: int,
        ref_permits: bool,
        sub_permits: bool,
        execution_key_of,
        program_key_of,
        rep_rank_of,
        witness_rank_of,
        use_shared_minimality: bool,
    ) -> None:
        outcome = self.outcome
        stats = outcome.stats
        if ref_permits:
            if sub_permits:
                stats.both_permit += weight
                return
            stats.interesting += weight
            stats.only_subject_forbids += weight
            outcome.subject_only_keys.add(execution_key_of())
            return
        if not sub_permits:
            stats.both_forbid += weight
            return
        stats.interesting += weight
        execution_key = execution_key_of()
        stats.only_reference_forbids += weight
        outcome.reference_only_keys.add(execution_key)

        reference = self.reference
        started = time.perf_counter()
        if use_shared_minimality:
            minimal = cached_is_minimal(execution, reference, execution_key)
        else:
            minimal = self.minimal_cache.get(execution_key)
            if minimal is None:
                minimal = is_minimal(execution, reference)
                self.minimal_cache[execution_key] = minimal
        self.stage_acc["minimality"] += time.perf_counter() - started
        if not minimal:
            return
        if self.program_key is None:
            self.program_key = program_key_of()
        program_key = self.program_key
        by_key = outcome.by_key
        entry = by_key.get(program_key)
        if execution_key not in self.counted_keys:
            self.counted_keys.add(execution_key)
            stats.minimal += 1
            if entry is not None:
                entry.outcome_count += 1
        rep_rank = rep_rank_of()
        witness_rank = witness_rank_of()
        if entry is None:
            by_key[program_key] = DiscriminatingElt(
                program=program,
                execution=execution,
                key=program_key,
                execution_key=execution_key,
                text=serialize_elt(execution),
                violated_axioms=reference.check(execution).violated,
                rep_rank=rep_rank,
                witness_rank=witness_rank,
            )
            outcome.order[program_key] = order_key
            return
        # Representative selection, order-free at both levels: the class
        # member with the smallest identity rank owns the entry, and
        # among the owner's minimal discriminating witnesses — including
        # canonical-key duplicates, so the min is a property of the
        # witness *set* — the smallest (canonical key, witness sort key)
        # wins.  The sort key is the order the symmetry layer's
        # lex-leader clauses enforce, so orbit pruning keeps exactly the
        # witnesses that can win.
        if rep_rank < entry.rep_rank or (
            rep_rank == entry.rep_rank
            and (execution_key, witness_rank)
            < (entry.execution_key, entry.witness_rank)
        ):
            entry.program = program
            entry.execution = execution
            entry.execution_key = execution_key
            entry.text = serialize_elt(execution)
            entry.violated_axioms = reference.check(execution).violated
            entry.rep_rank = rep_rank
            entry.witness_rank = witness_rank
            outcome.order[program_key] = order_key


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
    subject) pairs at once — the witness-session payoff for conformance.

    Every program is enumerated (and, under the SAT backend, translated)
    **once** for all pairs; per-witness axiom verdicts are shared through
    one :class:`~repro.models.AxiomTable` spanning every model in flight;
    minimality verdicts are shared between pairs with the same reference.
    Each pair's :class:`DiffOutcome` is what its dedicated single-pair
    run would produce — same agreement counters, same keys, same
    representatives — because each accumulator replays the identical
    per-witness logic over the identical stream.  SAT counters are the
    shared enumeration's snapshot on every pair, with the translations
    actually run credited to the first pair and recorded as *avoided* on
    the rest.

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
    models = []
    def index_of(model: MemoryModel) -> int:
        key = model_fingerprint(model)
        index = model_index.get(key)
        if index is None:
            index = len(models)
            model_index[key] = index
            models.append(model)
        return index

    pair_indices = [
        (index_of(diff.reference), index_of(diff.subject)) for diff in diffs
    ]
    table = AxiomTable(models)

    use_shared_minimality = base.incremental
    use_symmetry = base.symmetry
    minimal_caches: dict = {}
    stage_acc = {"minimality": 0.0}
    accumulators = []
    for diff in diffs:
        ref_key = model_fingerprint(diff.reference)
        cache = minimal_caches.setdefault(ref_key, {})
        accumulators.append(_DiffAccumulator(diff, cache, stage_acc))

    #: Counters replayed for orbit-level dedup (per accumulator).
    _REPLAYED = (
        "interesting",
        "both_permit",
        "both_forbid",
        "only_reference_forbids",
        "only_subject_forbids",
    )
    #: canonical program key -> (identity rank, weighted executions,
    #: per-accumulator replayed-counter deltas).
    orbit_cache: dict = {}

    lead_stats = accumulators[0].outcome.stats
    witness_stream, sat_stats = witness_stream_factory(
        base, stage_times=lead_stats.stage_times
    )
    clock = time.perf_counter
    enumerate_s = classify_s = generate_s = 0.0
    witnesses_seen = 0
    timed_out = False
    tracer = current_tracer()
    registry = current_registry()

    generated = clock()
    # Publish the deadline on the cooperative channel so a stuck SAT
    # query inside one witness step can be interrupted mid-solve
    # (repro.resilience.deadline).
    with deadline_scope(deadline):
        for order_key, program in ordered_programs:
            generate_s += clock() - generated
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                break
            for accumulator in accumulators:
                accumulator.outcome.stats.programs_enumerated += 1
                accumulator.start_program()
            span = (
                tracer.begin(
                    "program",
                    category="diff",
                    order=list(order_key),
                    pairs=len(accumulators),
                )
                if tracer
                else None
            )
            try:
                sym = program_symmetry(program) if use_symmetry else None
                program_key_memo: list = []
                rep_rank_memo: list = []

                def program_key_of() -> ProgramKey:
                    if not program_key_memo:
                        program_key_memo.append(
                            sym.canonical_key
                            if sym is not None
                            else canonical_program_key(program)
                        )
                    return program_key_memo[0]

                def rep_rank_of() -> tuple:
                    if not rep_rank_memo:
                        rep_rank_memo.append(
                            sym.identity_key
                            if sym is not None
                            else identity_program_key(program)
                        )
                    return rep_rank_memo[0]

                if sym is not None:
                    if sym.prunable:
                        for accumulator in accumulators:
                            accumulator.outcome.stats.symmetric_programs += 1
                    record = orbit_cache.get(sym.canonical_key)
                    if record is not None and record[0] < sym.identity_key:
                        # Orbit-level dedup: replay the class's weighted totals
                        # without enumerating (or translating) the duplicate.
                        for accumulator, deltas in zip(accumulators, record[2]):
                            stats = accumulator.outcome.stats
                            stats.orbit_replays += 1
                            stats.executions_enumerated += record[1]
                            for name, delta in zip(_REPLAYED, deltas):
                                setattr(stats, name, getattr(stats, name) + delta)
                        if span is not None:
                            span.args["orbit_replay"] = True
                        if registry:
                            registry.observe(
                                "pipeline.witnesses_per_program", record[1]
                            )
                        continue
                before = [
                    tuple(
                        getattr(accumulator.outcome.stats, name)
                        for name in _REPLAYED
                    )
                    for accumulator in accumulators
                ]
                program_executions = 0

                started = clock()
                iterator = iter(witness_stream(program, sym))
                while True:
                    item = next(iterator, None)
                    enumerate_s += clock() - started
                    if item is None:
                        break
                    execution, weight = item
                    witnesses_seen += 1
                    program_executions += weight
                    for accumulator in accumulators:
                        stats = accumulator.outcome.stats
                        stats.executions_enumerated += weight
                        if weight > 1:
                            stats.orbit_witnesses_pruned += weight - 1
                    if (
                        deadline is not None
                        and witnesses_seen % 64 == 0
                        and time.monotonic() > deadline
                    ):
                        timed_out = True
                        break
                    started = clock()
                    permits = table.evaluator(execution)
                    execution_key_memo: list = []
                    witness_rank_memo: list = []

                    def execution_key_of() -> ExecutionKey:
                        if not execution_key_memo:
                            execution_key_memo.append(
                                execution_key_via(sym, execution)
                                if sym is not None
                                else canonical_execution_key(execution)
                            )
                        return execution_key_memo[0]

                    def witness_rank_of() -> tuple:
                        if not witness_rank_memo:
                            witness_rank_memo.append(
                                witness_sort_key(
                                    program,
                                    execution._rf,
                                    execution.co,
                                    execution.co_pa,
                                )
                            )
                        return witness_rank_memo[0]

                    for accumulator, (ref_index, sub_index) in zip(
                        accumulators, pair_indices
                    ):
                        accumulator.observe(
                            order_key,
                            program,
                            execution,
                            weight,
                            permits(ref_index),
                            permits(sub_index),
                            execution_key_of,
                            program_key_of,
                            rep_rank_of,
                            witness_rank_of,
                            use_shared_minimality,
                        )
                    classify_s += clock() - started
                    started = clock()
                if span is not None:
                    span.args["witnesses"] = program_executions
                if registry:
                    registry.observe(
                        "pipeline.witnesses_per_program", program_executions
                    )
                if timed_out or (
                    deadline is not None and time.monotonic() > deadline
                ):
                    timed_out = True
                    break
                if sym is not None:
                    record = orbit_cache.get(sym.canonical_key)
                    if record is None or sym.identity_key < record[0]:
                        deltas = tuple(
                            tuple(
                                getattr(accumulator.outcome.stats, name) - start
                                for name, start in zip(_REPLAYED, snapshot)
                            )
                            for accumulator, snapshot in zip(accumulators, before)
                        )
                        orbit_cache[sym.canonical_key] = (
                            sym.identity_key,
                            program_executions,
                            deltas,
                        )
            except SolverInterrupted:
                # The cooperative deadline cut a SAT query short mid-witness;
                # results up to the previous program stand as a partial
                # timeout for every pair in flight.
                timed_out = True
                break
            finally:
                tracer.end(span)
                generated = clock()

    outcomes = [accumulator.outcome for accumulator in accumulators]
    if timed_out:
        for outcome in outcomes:
            outcome.stats.timed_out = True
    if sat_stats is not None:
        # Every pair's stats absorb the shared enumeration's (snapshot)
        # solver counters — what each pair's dedicated run would report.
        # Translations actually performed are credited to the lead pair
        # only; the other pairs record them as *avoided*, so summing the
        # matrix still reflects the work done once, and a cell cached
        # from a fused run never reads as "zero solver work".
        from ..sat import SolverStats

        lead_stats.absorb_solver(sat_stats)
        if len(outcomes) > 1:
            shared = SolverStats()
            shared.merge(sat_stats)
            shared.translations_avoided += shared.translations
            shared.translations = 0
            shared.sessions = 0
            for outcome in outcomes[1:]:
                outcome.stats.absorb_solver(shared)
    minimality_s = stage_acc["minimality"]
    for stage, seconds in (
        ("generate", generate_s),
        ("enumerate", enumerate_s),
        ("classify", max(0.0, classify_s - minimality_s)),
        ("minimality", minimality_s),
    ):
        if seconds:
            lead_stats.stage_times[stage] = (
                lead_stats.stage_times.get(stage, 0.0) + seconds
            )
    return outcomes


def run_diff_pipeline(
    diff: DiffConfig,
    ordered_programs: Iterable[Tuple[OrderKey, Program]],
    deadline: Optional[float] = None,
) -> DiffOutcome:
    """Classify every candidate execution of an ordered program stream
    under (reference, subject); collect the discriminating ELT suite.

    Mirrors :func:`repro.synth.run_pipeline`'s merge contract: entries
    are keyed by canonical program class, the entry belongs to the class
    member with the smallest order key, and ``outcome_count``/key sets
    are class-invariant — so shard results merge to exactly the serial
    outcome (see :mod:`repro.orchestrate.merge` for the argument).

    The single-pair specialization of :func:`run_multi_diff_pipeline`
    (which is where the shared-enumeration logic lives).
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
        diff,
        (
            ((index,), program)
            for index, program in enumerate(enumerate_programs(diff.base))
        ),
        deadline=deadline,
    )
    return finalize_cell(diff, outcome, time.monotonic() - started)
