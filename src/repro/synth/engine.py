"""The TransForm synthesis engine (paper Fig 7 and §IV) and the one
program/witness loop every enumerated workload runs.

``synthesize`` runs one per-axiom suite at one instruction bound:

1. enumerate well-formed programs (skeletons → remap fan-out → TLB
   choices), with generation-time symmetry reduction;
2. enumerate each program's candidate executions (witnesses) — through
   the backend selected by ``config.witness_backend``: the explicit
   Python enumerator, or the relational SAT pipeline, which translates
   each program once and enumerates it once
   (:mod:`repro.synth.sat_backend`);
3. prune to *interesting* executions: at least one write (enforced at the
   program level) that violate the targeted axiom;
4. prune to *minimal* executions (every relaxation becomes permitted);
5. deduplicate into unique ELT programs (canonical forms).

Stages 2-5 are :func:`run_queries`, the only program/witness loop.  It
consumes an *ordered* program stream — ``(order_key, program)`` pairs,
so the serial path and the sharded path (:mod:`repro.orchestrate`)
share it — and classifies every witness under a list of *queries*.  A
query is a per-witness verdict with its own :class:`SuiteStats`
counters plus the model its candidates' minimality is checked under;
every query reads its axiom verdicts from one shared
:class:`~repro.models.AxiomTable`.  Synthesis is the one-query case
(:func:`run_pipeline` with a :class:`ForbiddenQuery`); differential
conformance (:mod:`repro.conformance`) runs one query per (reference,
subject) pair over the same enumeration.  The loop owns what the
queries share: deadline polls, program spans, symmetry analysis, lazy
keys and ranks, one minimality verdict per witness and judging model,
representative selection, SAT-counter crediting and stage timing.  It
also ends each program's memo (:func:`~repro.mtm.release_program_memo`,
every cache derived from the program) when it is done with the program,
and each ELT keeps its program and witness, not an execution: a pass
keeps only what it outputs.

With ``config.symmetry`` (default on), :mod:`repro.symmetry` quotients
the work first: each program's automorphism group prunes its witness
stream to one representative per isomorphism orbit (in-solver, via
lex-leader clauses, on the SAT backend), orbit-size weights keep the
witness-level counters equal to the unpruned enumeration's.  The
``--no-symmetry`` oracle runs the same loop unpruned and must produce
byte-identical suites.

Representative selection is order-free: per class the program with the
smallest identity rank wins, and its representative execution is its
(canonical key, witness sort key)-minimal minimal candidate — so suite
bytes are invariant across ``--jobs``, witness backends and
``--no-symmetry``.  Order keys remain on each
entry for reporting and deterministic merges.

``synthesize_sweep`` reproduces the paper's Fig 9 methodology: for each
axiom, sweep increasing bounds under a time budget (theirs: one week per
run on a server; ours: configurable seconds).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional, Sequence

from ..errors import SolverInterrupted
from ..models import AxiomTable, Evaluation, MemoryModel, x86t_elt
from ..mtm import Execution, Program, release_program_memo
from ..obs import current_registry, current_tracer
from ..resilience import deadline_scope
from ..symmetry import (
    execution_key_via,
    program_symmetry,
    prune_weighted,
    witness_sort_key,
)
from .canon import (
    ProgramKey,
    canonical_execution_key,
    canonical_program_key,
    identity_program_key,
)
from .config import SynthesisConfig
from .relax import is_minimal, model_fingerprint
from .skeletons import enumerate_programs
from .witnesses import enumerate_witnesses


def _uncached_is_minimal(execution, model, evaluation=None) -> bool:
    """:func:`~repro.synth.relax.is_minimal` as :func:`run_queries` calls
    it: once per candidate witness and distinct judging model.  The loop
    resolves it through this module's globals, where the end-to-end
    benchmark's span map (bench_e2e/layers.py, "relax.minimality") wraps
    it."""
    return is_minimal(execution, model, evaluation)


# Nothing calls this name.  It stays importable from this module only
# because the end-to-end benchmark's span map (bench_e2e/layers.py)
# wraps it here.
cached_is_minimal = _uncached_is_minimal

#: Order keys are tuples of ints; comparisons only ever happen between
#: keys produced by the same enumeration scheme.
OrderKey = tuple


@dataclass
class SynthesizedElt:
    """One unique synthesized ELT: a program plus the witness of one
    representative forbidden (minimal, interesting) execution.

    The representative is selected order-free: the class member program
    with the smallest identity rank (``rep_rank``), and among its minimal
    forbidden witnesses the one minimizing ``(canonical execution key,
    witness sort key)`` — so the same bytes emerge from any enumeration
    order, shard plan, witness backend, or symmetry setting.

    The witness — ``rf``, ``co`` and ``co_pa``, as the representative
    :class:`~repro.mtm.Execution` held them — determines the execution,
    so nothing derived is kept: serialization and rendering
    (:mod:`repro.litmus.format`) read the witness, and
    :attr:`execution` rebuilds the execution for callers that need its
    derived relations."""

    program: Program
    rf: frozenset
    co: frozenset
    co_pa: frozenset
    key: ProgramKey
    violated_axioms: tuple[str, ...]
    outcome_count: int = 1  # distinct forbidden minimal executions found
    #: Canonical key of the representative execution.
    execution_key: tuple = ()
    #: Identity rank of the representative program (class-member tie-break).
    rep_rank: tuple = ()
    #: :func:`repro.symmetry.witness_sort_key` of the representative
    #: execution (witness tie-break within equal canonical keys).
    witness_rank: tuple = ()

    @property
    def execution(self) -> Execution:
        """The representative execution, rebuilt from the witness (and
        checked) on every read."""
        return Execution(self.program, self.rf, self.co, self.co_pa)


@dataclass
class SuiteStats:
    programs_enumerated: int = 0
    executions_enumerated: int = 0
    interesting: int = 0
    minimal: int = 0
    unique_programs: int = 0
    runtime_s: float = 0.0
    timed_out: bool = False
    # Always false; kept because baseline_obs_manifest.json pins suite.degraded.
    degraded: bool = False
    # CDCL solver counters, populated when witness_backend == "sat"
    # (summed over every per-program solver; flat ints so shard results
    # pickle and merge trivially).
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_learned_clauses: int = 0
    # Witness-session counters (witness_backend == "sat"): one session
    # and one relational-to-CNF translation per enumerated program; a
    # fused run credits them to its lead query and counts them as
    # avoided on every other one (see :func:`run_queries`).
    sat_sessions: int = 0
    sat_translations: int = 0
    sat_translations_avoided: int = 0
    # Symmetry counters (``config.symmetry``, :mod:`repro.symmetry`).
    # The witness-level counters above (executions/interesting and the
    # agreement buckets) are orbit-weighted, so they match the unpruned
    # oracle exactly; these record the pruning actually performed.
    #: Programs whose automorphism group admitted witness-orbit pruning.
    symmetric_programs: int = 0
    #: Witnesses never enumerated/classified because an orbit
    #: representative stood in for them (sum of ``weight - 1``).
    orbit_witnesses_pruned: int = 0
    #: Static lex-leader clauses emitted during relational translation.
    sat_symmetry_clauses: int = 0
    #: Per-stage wall time (seconds) keyed by stage name — generate /
    #: enumerate / translate / solve / decode / classify / minimality,
    #: disjoint (see :func:`repro.reporting.render_stage_profile`).
    #: Summed key-wise across shards; surfaced by ``--profile``.
    stage_times: dict = field(default_factory=dict)
    # Per-pair verdict counters, populated by differential conformance
    # runs (:mod:`repro.conformance`): how many enumerated candidate
    # executions landed in each (reference, subject) agreement bucket.
    # Raw per-witness counts — programs partition across shards, so shard
    # sums equal the serial counts exactly.
    both_permit: int = 0
    both_forbid: int = 0
    only_reference_forbids: int = 0
    only_subject_forbids: int = 0

    #: The additive counters summed by :meth:`absorb` (cross-shard
    #: merging); ``timed_out`` ors, ``unique_programs``/``runtime_s`` are
    #: the merger's responsibility.
    SUMMED_FIELDS = (
        "programs_enumerated",
        "executions_enumerated",
        "interesting",
        "minimal",
        "sat_decisions",
        "sat_propagations",
        "sat_conflicts",
        "sat_learned_clauses",
        "sat_sessions",
        "sat_translations",
        "sat_translations_avoided",
        "symmetric_programs",
        "orbit_witnesses_pruned",
        "sat_symmetry_clauses",
        "both_permit",
        "both_forbid",
        "only_reference_forbids",
        "only_subject_forbids",
    )

    def absorb(self, other: "SuiteStats") -> None:
        """Fold another stats record into this one (shard merging)."""
        for name in self.SUMMED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.timed_out = self.timed_out or other.timed_out
        for stage, seconds in other.stage_times.items():
            self.stage_times[stage] = self.stage_times.get(stage, 0.0) + seconds

    def absorb_solver(self, solver_stats) -> None:
        """Fold a :class:`~repro.sat.SolverStats` into the suite counters
        (core search counters plus the session counters the witness
        stream maintains on the same object)."""
        self.sat_decisions += solver_stats.decisions
        self.sat_propagations += solver_stats.propagations
        self.sat_conflicts += solver_stats.conflicts
        self.sat_learned_clauses += solver_stats.learned_clauses
        self.sat_sessions += solver_stats.sessions
        self.sat_translations += solver_stats.translations
        self.sat_translations_avoided += solver_stats.translations_avoided
        self.sat_symmetry_clauses += solver_stats.symmetry_clauses


@dataclass
class SuiteResult:
    """Outcome of one per-axiom synthesis run."""

    bound: int
    target_axiom: Optional[str]
    elts: list[SynthesizedElt] = field(default_factory=list)
    stats: SuiteStats = field(default_factory=SuiteStats)

    @property
    def count(self) -> int:
        return len(self.elts)

    def keys(self) -> set[ProgramKey]:
        return {elt.key for elt in self.elts}


@dataclass
class PipelineOutcome:
    """Raw product of one query over one :func:`run_queries` pass:
    deduplicated ELTs keyed by canonical form, plus the enumeration-order
    key of the representative program behind each entry (for cross-shard
    merging)."""

    by_key: dict = field(default_factory=dict)
    order: dict = field(default_factory=dict)
    stats: SuiteStats = field(default_factory=SuiteStats)


def witness_stream_factory(config: SynthesisConfig, stage_times=None):
    """The candidate-execution enumerator selected by
    ``config.witness_backend``.

    Returns ``(stream, sat_stats)``: ``stream`` maps a
    :class:`~repro.mtm.Program` — plus its precomputed
    :class:`~repro.symmetry.ProgramSymmetry` (or ``None`` when
    ``config.symmetry`` is off) — to an iterable of ``(execution,
    weight)`` pairs: one representative per automorphism orbit, weighted
    by orbit size (weight 1 everywhere when pruning does not apply).
    ``sat_stats`` is the :class:`~repro.sat.SolverStats` the SAT backend
    accumulates into across every program (``None`` for the explicit
    backend — fold it into a :class:`SuiteStats` via
    :meth:`SuiteStats.absorb_solver` when the run finishes).  Shared by
    :func:`run_queries` and the fuzz oracle (:mod:`repro.fuzz.oracle`),
    so every workload enumerates candidates identically.

    The SAT backend builds one :class:`~repro.synth.sat_backend.
    WitnessSession` per program, reads its weighted execution list once
    and drops it.  It counts one session and one translation per program
    into ``sat_stats`` with the enumerating solver's counters, observes
    the per-session ``sat.*`` histograms, and adds the translate / solve
    / decode wall time to ``stage_times`` when that is a dict.
    """
    if config.witness_backend == "sat":
        from ..sat import SolverStats
        from .sat_backend import WitnessSession

        sat_stats = SolverStats()

        def witness_stream(program: Program, sym=None):
            session = WitnessSession(program, symmetry=sym)
            witnesses = session.weighted_witnesses()
            _record_session(session, len(witnesses), sat_stats, stage_times)
            return witnesses

        return witness_stream, sat_stats

    def explicit_stream(program: Program, sym=None):
        autos = sym.automorphisms if sym is not None and sym.prunable else ()
        # `enumerate_witnesses` resolved at call time so benchmark
        # monkeypatching of the module global keeps working.
        return prune_weighted(program, autos, enumerate_witnesses(program))

    return explicit_stream, None


def _record_session(session, witnesses: int, sat_stats, stage_times) -> None:
    """Credit one finished witness session to the run's SAT counters,
    histograms and stage times."""
    sat_stats.sessions += 1
    sat_stats.translations += 1
    snapshot = session.enum_stats
    sat_stats.merge(snapshot)
    registry = current_registry()
    if registry:
        registry.observe("sat.conflicts_per_burst", snapshot.conflicts)
        registry.observe("sat.restarts_per_burst", snapshot.restarts)
        registry.observe("sat.learned_clauses_per_burst", snapshot.learned_clauses)
        registry.observe("sat.decisions_per_burst", snapshot.decisions)
        registry.observe("sat.witnesses_per_session", witnesses)
    if stage_times is not None:
        for stage, seconds in (
            ("translate", session.translate_s),
            ("solve", session.solve_s),
            ("decode", session.decode_s),
        ):
            stage_times[stage] = stage_times.get(stage, 0.0) + seconds


class ForbiddenQuery:
    """The synthesis query: a witness is a candidate when the verdict
    model at ``index`` of the pass's :class:`~repro.models.AxiomTable` —
    the target axiom alone, or the whole model when untargeted — forbids
    it.  Minimality and the representative's violated axioms are judged
    under ``model`` (``config.model``)."""

    def __init__(self, model: MemoryModel, index: int) -> None:
        self.model = model
        self.index = index
        self.outcome = PipelineOutcome()

    def observe(self, permits, weight: int, execution_key_of) -> bool:
        if permits(self.index):
            return False
        self.outcome.stats.interesting += weight
        return True


#: Stages the witness session records while the loop is pulling
#: witnesses; ``enumerate`` excludes them so the stages add up.
_SESSION_STAGES = ("translate", "solve", "decode")


def run_queries(
    config: SynthesisConfig,
    ordered_programs: Iterable[tuple[OrderKey, Program]],
    table: AxiomTable,
    queries: Sequence,
    deadline: Optional[float] = None,
) -> list:
    """Stages 2-5 of Fig 7 over an ordered program stream, for every
    query at once; returns each query's :class:`PipelineOutcome`.

    Every program is enumerated (and, under the SAT backend, translated)
    once for all queries, and each witness's axiom verdicts are shared
    through ``table.evaluator``.  A query provides ``model``,
    ``outcome`` and ``observe(permits, weight, execution_key_of)``,
    called once per witness: it counts the witness into its own
    counters and returns True when the witness is a *candidate* (for
    synthesis, forbidden; see :class:`ForbiddenQuery`).  ``permits``
    is the table's per-witness evaluator and ``execution_key_of()`` the
    lazily computed canonical key.  The loop does the rest, identically
    for every query.  It checks each candidate for §IV-B minimality
    under ``query.model``, in the witness's one evaluation, whose
    recorded violation usually decides the check; queries judged under
    the same model share one verdict per witness, and no verdict
    outlives its witness.  Only a minimal candidate is keyed (besides
    the keys a query's ``observe`` asks for): each distinct minimal key
    counts once in ``stats.minimal``, and each program's smallest
    ``(canonical key, witness sort key)`` minimal candidate competes for
    its class entry (:func:`_fold`).

    With ``config.symmetry``, each program's witness stream arrives
    orbit-pruned and weighted (see :func:`witness_stream_factory`).
    Every program the stream yields runs in full: isomorphic duplicates
    reach the loop only when generation-time canonical pruning is
    ablated, and then they are counted and compete for their class
    entry like any member (:func:`_fold`), so output never depends on
    arrival order.  The pass keeps nothing per program but the ELTs it
    outputs.

    SAT counters are the shared enumeration's: the first query is
    credited with the translations actually run, every other query
    records them as *avoided*, so summing outcomes reflects the work
    done once.  Stage times land on the first query's stats.
    ``deadline`` is an absolute ``time.monotonic()`` timestamp spanning
    the whole pass; exceeding it marks every outcome ``timed_out`` and
    stops cleanly with partial results.
    """
    outcomes = [query.outcome for query in queries]
    lead = outcomes[0].stats
    stage_times = lead.stage_times
    witness_stream, sat_stats = witness_stream_factory(
        config, stage_times=stage_times
    )
    #: Per query: (query, slot of its judging model in a witness's
    #: verdicts, minimal keys already credited).  Queries judged under
    #: the same model share a slot.
    slots: dict = {}
    plans = [
        (query, slots.setdefault(model_fingerprint(query.model), len(slots)), set())
        for query in queries
    ]
    use_symmetry = config.symmetry
    evaluator = table.evaluator
    clock = time.perf_counter
    generate_s = enumerate_s = consume_s = minimality_s = 0.0
    witnesses_seen = 0  # unweighted, for the periodic deadline check
    timed_out = False
    tracer = current_tracer()
    registry = current_registry()

    generated = clock()
    # Publish the deadline on the cooperative channel so a stuck SAT
    # query inside one witness step can be interrupted mid-solve
    # (repro.resilience.deadline; the solver polls it on a propagation
    # budget).
    with deadline_scope(deadline):
        for order_key, program in ordered_programs:
            generate_s += clock() - generated
            if deadline is not None and time.monotonic() > deadline:
                timed_out = True
                break
            for outcome in outcomes:
                outcome.stats.programs_enumerated += 1
            span = (
                tracer.begin(
                    "program",
                    category="pipeline",
                    order=list(order_key),
                    queries=len(queries),
                )
                if tracer
                else None
            )
            try:
                sym = program_symmetry(program) if use_symmetry else None
                if sym is not None and sym.prunable:
                    for outcome in outcomes:
                        outcome.stats.symmetric_programs += 1
                program_executions = 0
                #: Per query: this program's best minimal candidate
                #: (execution key, witness rank, execution) and how many
                #: minimal keys it credited first.
                candidates: list = [None] * len(plans)
                new_keys = [0] * len(plans)
                session_before = sum(
                    stage_times.get(stage, 0.0) for stage in _SESSION_STAGES
                )
                program_enumerate = 0.0
                started = clock()
                iterator = iter(witness_stream(program, sym))
                while True:
                    item = next(iterator, None)
                    program_enumerate += clock() - started
                    if item is None:
                        break
                    execution, weight = item
                    witnesses_seen += 1
                    program_executions += weight
                    for outcome in outcomes:
                        stats = outcome.stats
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
                    evaluation = Evaluation(execution)
                    permits = evaluator(execution, evaluation)
                    key_memo: list = []

                    def execution_key_of():
                        if not key_memo:
                            key_memo.append(
                                execution_key_via(sym, execution)
                                if sym is not None
                                else canonical_execution_key(execution)
                            )
                        return key_memo[0]

                    witness_rank = None
                    verdicts: list = [None] * len(slots)
                    for index, (query, slot, credited) in enumerate(plans):
                        if not query.observe(permits, weight, execution_key_of):
                            continue
                        minimal = verdicts[slot]
                        if minimal is None:
                            checked = clock()
                            minimal = verdicts[slot] = _uncached_is_minimal(
                                execution, query.model, evaluation
                            )
                            minimality_s += clock() - checked
                        if not minimal:
                            continue
                        execution_key = execution_key_of()
                        if execution_key not in credited:
                            credited.add(execution_key)
                            query.outcome.stats.minimal += 1
                            new_keys[index] += 1
                        if witness_rank is None:
                            witness_rank = witness_sort_key(
                                program, execution._rf, execution.co, execution.co_pa
                            )
                        best = candidates[index]
                        if best is None or (execution_key, witness_rank) < best[:2]:
                            candidates[index] = (
                                execution_key,
                                witness_rank,
                                execution,
                            )
                    consume_s += clock() - started
                    started = clock()
                session_s = (
                    sum(stage_times.get(stage, 0.0) for stage in _SESSION_STAGES)
                    - session_before
                )
                enumerate_s += max(0.0, program_enumerate - session_s)

                if span is not None:
                    span.args["witnesses"] = program_executions
                if registry:
                    registry.observe(
                        "pipeline.witnesses_per_program", program_executions
                    )
                if any(candidate is not None for candidate in candidates):
                    if sym is not None:
                        program_key, rep_rank = sym.canonical_key, sym.identity_key
                    else:
                        program_key = canonical_program_key(program)
                        rep_rank = identity_program_key(program)
                    for (query, _slot, _credited), candidate, count in zip(
                        plans, candidates, new_keys
                    ):
                        if candidate is not None:
                            _fold(
                                query,
                                order_key,
                                program,
                                program_key,
                                rep_rank,
                                candidate,
                                count,
                            )
                if timed_out or (
                    deadline is not None and time.monotonic() > deadline
                ):
                    timed_out = True
                    break
            except SolverInterrupted:
                # The cooperative deadline cut a SAT query short mid-witness;
                # the solver backtracked to level 0 first, so every result up
                # to the previous program stands as a normal partial timeout.
                timed_out = True
                break
            finally:
                release_program_memo(program)
                tracer.end(span)
                generated = clock()

    if timed_out:
        for outcome in outcomes:
            outcome.stats.timed_out = True
    if sat_stats is not None:
        # Every query absorbs the shared enumeration's (snapshot) solver
        # counters — what a dedicated single-query run would report.
        # Translations actually performed are credited to the lead query
        # only; the others record them as *avoided*, so a sum over
        # outcomes still reflects the work done once, and a result cached
        # from a fused run never reads as "zero solver work".
        from ..sat import SolverStats

        lead.absorb_solver(sat_stats)
        if len(outcomes) > 1:
            shared = SolverStats()
            shared.merge(sat_stats)
            shared.translations_avoided += shared.translations
            shared.translations = 0
            shared.sessions = 0
            for outcome in outcomes[1:]:
                outcome.stats.absorb_solver(shared)
    for stage, seconds in (
        ("generate", generate_s),
        ("enumerate", enumerate_s),
        ("classify", max(0.0, consume_s - minimality_s)),
        ("minimality", minimality_s),
    ):
        if seconds:
            stage_times[stage] = stage_times.get(stage, 0.0) + seconds
    return outcomes


def _fold(query, order_key, program, program_key, rep_rank, candidate, new_keys):
    """Credit one program's best minimal candidate to its class entry.

    Representative selection is order-free at both levels: the class
    member with the smallest identity rank owns the entry, and among the
    owner's minimal candidates — canonical-key duplicates included, so
    the minimum is a property of the witness *set* — the smallest
    (canonical key, witness sort key) wins.  The sort key is the order
    the symmetry layer's lex-leader clauses enforce, so orbit pruning
    keeps exactly the witnesses that can win."""
    execution_key, witness_rank, execution = candidate
    outcome = query.outcome
    entry = outcome.by_key.get(program_key)
    if entry is not None:
        entry.outcome_count += new_keys
        if (entry.rep_rank, entry.execution_key, entry.witness_rank) <= (
            rep_rank,
            execution_key,
            witness_rank,
        ):
            return
    outcome.by_key[program_key] = SynthesizedElt(
        program=program,
        rf=execution._rf,
        co=execution.co,
        co_pa=execution.co_pa,
        key=program_key,
        violated_axioms=query.model.check(execution).violated,
        outcome_count=new_keys if entry is None else entry.outcome_count,
        execution_key=execution_key,
        rep_rank=rep_rank,
        witness_rank=witness_rank,
    )
    outcome.order[program_key] = order_key


def run_pipeline(
    config: SynthesisConfig,
    ordered_programs: Iterable[tuple[OrderKey, Program]],
    deadline: Optional[float] = None,
) -> PipelineOutcome:
    """Synthesis over an ordered program stream: :func:`run_queries`
    with one :class:`ForbiddenQuery`, whose verdict model is the target
    axiom alone (or the whole ``config.model`` when untargeted)."""
    model = config.model
    verdict = model
    if config.target_axiom is not None:
        verdict = MemoryModel(
            f"{model.name}:{config.target_axiom}",
            (model.axiom(config.target_axiom),),
        )
    query = ForbiddenQuery(model, 0)
    return run_queries(
        config, ordered_programs, AxiomTable([verdict]), [query], deadline
    )[0]


def finalize_result(
    config: SynthesisConfig, outcome: PipelineOutcome, runtime_s: float
) -> SuiteResult:
    """Package a pipeline outcome as a sorted, counted :class:`SuiteResult`."""
    result = SuiteResult(config.bound, config.target_axiom, stats=outcome.stats)
    result.elts = sorted(outcome.by_key.values(), key=lambda e: e.key)
    outcome.stats.unique_programs = len(result.elts)
    outcome.stats.runtime_s = runtime_s
    return result


def serial_programs(config: SynthesisConfig):
    """The unsharded ordered program stream: every program keyed by its
    enumeration index."""
    return (
        ((index,), program)
        for index, program in enumerate(enumerate_programs(config))
    )


def synthesize(config: SynthesisConfig) -> SuiteResult:
    """Run the full Fig 7 pipeline for one (axiom, bound) pair."""
    started = time.monotonic()
    deadline = (
        None
        if config.time_budget_s is None
        else started + config.time_budget_s
    )
    outcome = run_pipeline(config, serial_programs(config), deadline=deadline)
    return finalize_result(config, outcome, time.monotonic() - started)


@dataclass
class SweepPoint:
    axiom: str
    bound: int
    result: SuiteResult


@dataclass
class SweepResult:
    """A Fig 9-style sweep: per-axiom suites across increasing bounds.

    ``skipped`` records (axiom, bound) pairs the sweep never attempted
    because a lower bound for that axiom exhausted the time budget — the
    partial-coverage report mirroring the paper's one-week cutoff.
    """

    points: list[SweepPoint] = field(default_factory=list)
    skipped: list[tuple[str, int]] = field(default_factory=list)

    def counts(self) -> dict[str, dict[int, int]]:
        out: dict[str, dict[int, int]] = {}
        for point in self.points:
            out.setdefault(point.axiom, {})[point.bound] = point.result.count
        return out

    def runtimes(self) -> dict[str, dict[int, float]]:
        out: dict[str, dict[int, float]] = {}
        for point in self.points:
            out.setdefault(point.axiom, {})[point.bound] = (
                point.result.stats.runtime_s
            )
        return out

    def timed_out_points(self) -> list[tuple[str, int]]:
        """(axiom, bound) pairs whose suite is complete-up-to-timeout."""
        return [
            (point.axiom, point.bound)
            for point in self.points
            if point.result.stats.timed_out
        ]

    def unique_elts(self) -> dict[ProgramKey, SynthesizedElt]:
        """Union of all per-axiom suites, deduplicated (the paper's "140
        unique ELTs across all per-axiom suites")."""
        out: dict[ProgramKey, SynthesizedElt] = {}
        for point in self.points:
            for elt in point.result.elts:
                out.setdefault(elt.key, elt)
        return out


def synthesize_sweep(
    base_config: SynthesisConfig,
    axioms: Optional[list[str]] = None,
    min_bound: int = 4,
    max_bound: Optional[int] = None,
    time_budget_per_run_s: Optional[float] = None,
) -> SweepResult:
    """Per-axiom bound sweep (the §VI methodology).

    For each axiom, bounds increase from ``min_bound``; a run that exceeds
    the time budget marks its suite ``timed_out`` (its partial results stay
    in the sweep) and stops the sweep for that axiom, recording the
    never-attempted bounds in ``SweepResult.skipped`` (mirroring the
    paper's one-week cutoff).  When ``time_budget_per_run_s`` is ``None``
    the budget falls back to ``base_config.time_budget_s`` rather than
    silently removing the base config's budget.
    """
    model = base_config.model
    if axioms is None:
        axioms = [a.name for a in model.axioms]
    if time_budget_per_run_s is None:
        time_budget_per_run_s = base_config.time_budget_s
    top = max_bound if max_bound is not None else base_config.bound
    sweep = SweepResult()
    for axiom in axioms:
        for bound in range(min_bound, top + 1):
            config = replace(
                base_config,
                bound=bound,
                target_axiom=axiom,
                time_budget_s=time_budget_per_run_s,
            )
            result = synthesize(config)
            sweep.points.append(SweepPoint(axiom, bound, result))
            if result.stats.timed_out:
                sweep.skipped.extend(
                    (axiom, later) for later in range(bound + 1, top + 1)
                )
                break
    return sweep


def default_config(bound: int, **overrides) -> SynthesisConfig:
    """Convenience: an x86t_elt synthesis config at the given bound."""
    return SynthesisConfig(bound=bound, model=x86t_elt(), **overrides)
