"""The TransForm synthesis engine (paper Fig 7 and §IV).

``synthesize`` runs one per-axiom suite at one instruction bound:

1. enumerate well-formed programs (skeletons → remap fan-out → TLB
   choices), with generation-time symmetry reduction;
2. enumerate each program's candidate executions (witnesses) — through
   the backend selected by ``config.witness_backend``: the explicit
   Python enumerator, or the relational SAT pipeline, which under
   ``config.incremental`` (the default) translates each program **once**
   into a process-cached witness session (:mod:`repro.synth.sat_backend`)
   whose execution list is replayed across axiom suites, sweep points,
   and diff pairs;
3. prune to *interesting* executions: at least one write (enforced at the
   program level) that violate the targeted axiom;
4. prune to *minimal* executions (every relaxation becomes permitted);
5. deduplicate into unique ELT programs (canonical forms).

With ``config.symmetry`` (default on), :mod:`repro.symmetry` quotients
the work first: each program's automorphism group prunes its witness
stream to one representative per isomorphism orbit (in-solver, via
lex-leader clauses, on the SAT backend), orbit-size weights keep the
witness-level counters equal to the unpruned enumeration's, and
duplicate isomorphic programs are skipped before translation.  The
``--no-symmetry`` oracle runs the same pipeline unpruned and must
produce byte-identical suites.

``synthesize_sweep`` reproduces the paper's Fig 9 methodology: for each
axiom, sweep increasing bounds under a time budget (theirs: one week per
run on a server; ours: configurable seconds).

The Fig 7 inner loop lives in :func:`run_pipeline`, which consumes an
*ordered* program stream — ``(order_key, program)`` pairs — so that the
serial path and the sharded path (:mod:`repro.orchestrate`) share one
implementation.  Representative selection is order-free: per class the
program with the smallest identity rank wins, and its representative
execution is its (canonical key, witness sort key)-minimal minimal
witness — so suite bytes are invariant across ``--jobs``, witness
backends, ``--fresh-solver``, and ``--no-symmetry``.  Order keys remain
on each entry for reporting and deterministic merges.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from ..errors import SolverInterrupted
from ..models import MemoryModel, x86t_elt
from ..mtm import Execution, Program
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
from .relax import cached_is_minimal, is_minimal
from .skeletons import enumerate_programs
from .witnesses import enumerate_witnesses


def _uncached_is_minimal(execution, model, execution_key) -> bool:
    """The fresh-path minimality check (same signature as
    :func:`~repro.synth.relax.cached_is_minimal`, no shared state)."""
    return is_minimal(execution, model)

#: Order keys are tuples of ints; comparisons only ever happen between
#: keys produced by the same enumeration scheme.
OrderKey = tuple


@dataclass
class SynthesizedElt:
    """One unique synthesized ELT: a program plus one representative
    forbidden (minimal, interesting) execution.

    The representative is selected order-free: the class member program
    with the smallest identity rank (``rep_rank``), and among its minimal
    forbidden witnesses the one minimizing ``(canonical execution key,
    witness sort key)`` — so the same bytes emerge from any enumeration
    order, shard plan, witness backend, or symmetry setting."""

    program: Program
    execution: Execution
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


@dataclass
class SuiteStats:
    programs_enumerated: int = 0
    executions_enumerated: int = 0
    interesting: int = 0
    minimal: int = 0
    unique_programs: int = 0
    runtime_s: float = 0.0
    timed_out: bool = False
    #: True when shards were quarantined after exhausting retries: the
    #: suite merges everything that completed but is explicitly partial
    #: (never cached; see repro.resilience).  Ored by :meth:`absorb`.
    degraded: bool = False
    # CDCL solver counters, populated when witness_backend == "sat"
    # (summed over every per-program solver; flat ints so shard results
    # pickle and merge trivially).
    sat_decisions: int = 0
    sat_propagations: int = 0
    sat_conflicts: int = 0
    sat_learned_clauses: int = 0
    # Incremental-session counters (witness_backend == "sat" with
    # ``incremental`` on): how many sessions were opened, how many
    # relational-to-CNF translations ran vs were avoided by session
    # reuse, and how much warm-solver state assumption queries reused.
    sat_sessions: int = 0
    sat_translations: int = 0
    sat_translations_avoided: int = 0
    sat_incremental_solves: int = 0
    sat_retained_learned_clauses: int = 0
    # Symmetry counters (``config.symmetry``, :mod:`repro.symmetry`).
    # The witness-level counters above (executions/interesting and the
    # agreement buckets) are orbit-weighted, so they match the unpruned
    # oracle exactly; these record the pruning actually performed.
    #: Programs whose automorphism group admitted witness-orbit pruning.
    symmetric_programs: int = 0
    #: Duplicate isomorphic programs skipped before translation
    #: (orbit-level dedup; non-zero only when generation-time pruning is
    #: ablated or cannot see a duplicate class).
    orbit_replays: int = 0
    #: Witnesses never enumerated/classified because an orbit
    #: representative stood in for them (sum of ``weight - 1``).
    orbit_witnesses_pruned: int = 0
    #: Static lex-leader clauses emitted during relational translation.
    sat_symmetry_clauses: int = 0
    #: Per-stage wall time (seconds) keyed by stage name — translate /
    #: solve / decode / classify / minimality (plus "enumerate" for
    #: witness backends that don't split production stages).  Summed
    #: key-wise across shards; surfaced by ``--profile``.
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
        "sat_incremental_solves",
        "sat_retained_learned_clauses",
        "symmetric_programs",
        "orbit_replays",
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
        self.degraded = self.degraded or other.degraded
        for stage, seconds in other.stage_times.items():
            self.stage_times[stage] = self.stage_times.get(stage, 0.0) + seconds

    def absorb_solver(self, solver_stats) -> None:
        """Fold a :class:`~repro.sat.SolverStats` into the suite counters
        (core search counters plus the incremental-session counters the
        session layers maintain on the same object)."""
        self.sat_decisions += solver_stats.decisions
        self.sat_propagations += solver_stats.propagations
        self.sat_conflicts += solver_stats.conflicts
        self.sat_learned_clauses += solver_stats.learned_clauses
        self.sat_sessions += solver_stats.sessions
        self.sat_translations += solver_stats.translations
        self.sat_translations_avoided += solver_stats.translations_avoided
        self.sat_incremental_solves += solver_stats.incremental_solves
        self.sat_retained_learned_clauses += solver_stats.retained_learned_clauses
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
    """Raw product of one :func:`run_pipeline` pass: deduplicated ELTs
    keyed by canonical form, plus the enumeration-order key of the
    representative program behind each entry (for cross-shard merging)."""

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
    the synthesis pipeline and the differential conformance pipeline
    (:mod:`repro.conformance`), so both workloads enumerate candidates
    identically.

    With ``config.incremental`` (the default), the SAT backend routes
    through the process-level :class:`~repro.synth.sat_backend.
    WitnessSessionCache`: each program is translated once into a witness
    session whose (byte-identical) weighted execution list is replayed
    for every later suite or pair that reaches the same program.
    ``stage_times``, when given a dict, receives per-stage wall time
    (translate / solve / decode on the session path; one "enumerate"
    bucket otherwise).
    """
    if config.witness_backend == "sat":
        from ..sat import SolverStats

        sat_stats = SolverStats()
        if config.incremental:
            from .sat_backend import shared_session_cache

            cache = shared_session_cache()

            def witness_stream(program: Program, sym=None):
                return cache.weighted_witnesses(
                    program,
                    symmetry=sym,
                    sink=sat_stats,
                    stage_times=stage_times,
                )

        else:
            from .sat_backend import enumerate_witnesses_sat

            def witness_stream(program: Program, sym=None):
                autos = sym.automorphisms if sym is not None and sym.prunable else ()
                return prune_weighted(
                    program,
                    autos,
                    enumerate_witnesses_sat(
                        program, stats=sat_stats, symmetry=sym
                    ),
                )

        return witness_stream, sat_stats

    def explicit_stream(program: Program, sym=None):
        autos = sym.automorphisms if sym is not None and sym.prunable else ()
        # `enumerate_witnesses` resolved at call time so benchmark
        # monkeypatching of the module global keeps working.
        return prune_weighted(program, autos, enumerate_witnesses(program))

    return explicit_stream, None


def run_pipeline(
    config: SynthesisConfig,
    ordered_programs: Iterable[tuple[OrderKey, Program]],
    deadline: Optional[float] = None,
) -> PipelineOutcome:
    """Stages 2-5 of Fig 7 over an arbitrary ordered program stream.

    With ``config.symmetry``, each program's witness stream arrives
    orbit-pruned and weighted (see :func:`witness_stream_factory`), and
    duplicate isomorphic programs are skipped before translation: the
    orbit cache remembers, per canonical class, the identity rank of the
    member that already did the work this pass plus its weighted witness
    totals, so a later member with a larger rank only replays those
    totals.  A later member with a *smaller* rank still runs in full —
    it must supply the class representative — so suite bytes never
    depend on arrival order.

    ``deadline`` is an absolute ``time.monotonic()`` timestamp; exceeding
    it sets ``stats.timed_out`` and stops cleanly with partial results.
    """
    model = config.model
    target = (
        model.axiom(config.target_axiom)
        if config.target_axiom is not None
        else None
    )
    outcome = PipelineOutcome()
    stats = outcome.stats
    by_key = outcome.by_key
    #: canonical execution key -> minimality verdict (doubles as the
    #: seen-set: a key is present iff its first witness was classified).
    minimal_by_key: dict = {}
    #: canonical program key -> (identity rank, weighted executions,
    #: weighted interesting) of the class member that ran in full.
    orbit_cache: dict = {}
    use_symmetry = config.symmetry
    clock = time.perf_counter
    enumerate_s = classify_s = minimality_s = generate_s = 0.0
    tracer = current_tracer()
    registry = current_registry()

    witness_stream, sat_stats = witness_stream_factory(
        config, stage_times=stats.stage_times
    )
    check_minimal = (
        cached_is_minimal if config.incremental else _uncached_is_minimal
    )

    generated = clock()
    # Publish the deadline on the cooperative channel so a stuck SAT
    # query inside one witness step can be interrupted mid-solve
    # (repro.resilience.deadline; the solver polls it on a propagation
    # budget).
    with deadline_scope(deadline):
        for order_key, program in ordered_programs:
            generate_s += clock() - generated
            if deadline is not None and time.monotonic() > deadline:
                stats.timed_out = True
                break
            stats.programs_enumerated += 1
            span = (
                tracer.begin("program", category="pipeline", order=list(order_key))
                if tracer
                else None
            )
            try:
                sym = None
                program_key: Optional[ProgramKey] = None
                if use_symmetry:
                    sym = program_symmetry(program)
                    program_key = sym.canonical_key
                    if sym.prunable:
                        stats.symmetric_programs += 1
                    record = orbit_cache.get(program_key)
                    if record is not None and record[0] < sym.identity_key:
                        # Orbit-level dedup: a class member with a smaller rank
                        # already ran in full this pass; replay its weighted
                        # totals and skip translation/enumeration entirely.
                        stats.orbit_replays += 1
                        stats.executions_enumerated += record[1]
                        stats.interesting += record[2]
                        if span is not None:
                            span.args["orbit_replay"] = True
                        if registry:
                            registry.observe(
                                "pipeline.witnesses_per_program", record[1]
                            )
                        continue
                program_executions = 0
                program_interesting = 0
                new_keys = 0
                witnesses_seen = 0  # unweighted, for the periodic deadline check
                candidate: Optional[tuple] = None  # (exec key, witness rank, execution)
                started = clock()
                iterator = iter(witness_stream(program, sym))
                while True:
                    item = next(iterator, None)
                    enumerate_s += clock() - started
                    if item is None:
                        break
                    execution, weight = item
                    witnesses_seen += 1
                    stats.executions_enumerated += weight
                    program_executions += weight
                    if weight > 1:
                        stats.orbit_witnesses_pruned += weight - 1
                    if (
                        deadline is not None
                        and witnesses_seen % 64 == 0
                        and time.monotonic() > deadline
                    ):
                        stats.timed_out = True
                        break
                    started = clock()
                    if target is not None:
                        interesting = not target.holds(execution)
                    else:
                        interesting = not model.permits(execution)
                    classify_s += clock() - started
                    if not interesting:
                        started = clock()
                        continue
                    stats.interesting += weight
                    program_interesting += weight
                    execution_key = (
                        execution_key_via(sym, execution)
                        if sym is not None
                        else canonical_execution_key(execution)
                    )
                    minimal = minimal_by_key.get(execution_key)
                    if minimal is None:
                        started = clock()
                        minimal = check_minimal(execution, model, execution_key)
                        minimality_s += clock() - started
                        minimal_by_key[execution_key] = minimal
                        if minimal:
                            stats.minimal += 1
                            new_keys += 1
                    if minimal:
                        rank = witness_sort_key(
                            program, execution._rf, execution.co, execution.co_pa
                        )
                        if candidate is None or (execution_key, rank) < candidate[:2]:
                            candidate = (execution_key, rank, execution)
                    started = clock()

                if span is not None:
                    span.args["witnesses"] = program_executions
                    span.args["interesting"] = program_interesting
                if registry:
                    registry.observe(
                        "pipeline.witnesses_per_program", program_executions
                    )
                program_timed_out = (
                    deadline is not None and time.monotonic() > deadline
                )
                if candidate is not None:
                    if program_key is None:
                        program_key = canonical_program_key(program)
                    rep_rank = (
                        sym.identity_key
                        if sym is not None
                        else identity_program_key(program)
                    )
                    execution_key, rank, execution = candidate
                    entry = by_key.get(program_key)
                    if entry is None:
                        by_key[program_key] = SynthesizedElt(
                            program=program,
                            execution=execution,
                            key=program_key,
                            violated_axioms=model.check(execution).violated,
                            outcome_count=new_keys,
                            execution_key=execution_key,
                            rep_rank=rep_rank,
                            witness_rank=rank,
                        )
                        outcome.order[program_key] = order_key
                    else:
                        entry.outcome_count += new_keys
                        if rep_rank < entry.rep_rank:
                            entry.program = program
                            entry.execution = execution
                            entry.violated_axioms = model.check(execution).violated
                            entry.execution_key = execution_key
                            entry.rep_rank = rep_rank
                            entry.witness_rank = rank
                            outcome.order[program_key] = order_key
                if use_symmetry and not program_timed_out and not stats.timed_out:
                    record = orbit_cache.get(program_key)
                    if record is None or sym.identity_key < record[0]:
                        orbit_cache[program_key] = (
                            sym.identity_key,
                            program_executions,
                            program_interesting,
                        )
                if program_timed_out:
                    stats.timed_out = True
                    break
            except SolverInterrupted:
                # The cooperative deadline cut a SAT query short mid-witness;
                # the solver backtracked to level 0 first, so every result up
                # to the previous program stands as a normal partial timeout.
                stats.timed_out = True
                break
            finally:
                tracer.end(span)
                generated = clock()

    if sat_stats is not None:
        stats.absorb_solver(sat_stats)
    times = stats.stage_times
    for stage, seconds in (
        ("generate", generate_s),
        ("enumerate", enumerate_s),
        ("classify", classify_s),
        ("minimality", minimality_s),
    ):
        if seconds:
            times[stage] = times.get(stage, 0.0) + seconds
    return outcome


def finalize_result(
    config: SynthesisConfig, outcome: PipelineOutcome, runtime_s: float
) -> SuiteResult:
    """Package a pipeline outcome as a sorted, counted :class:`SuiteResult`."""
    result = SuiteResult(config.bound, config.target_axiom, stats=outcome.stats)
    result.elts = sorted(outcome.by_key.values(), key=lambda e: e.key)
    outcome.stats.unique_programs = len(result.elts)
    outcome.stats.runtime_s = runtime_s
    return result


def synthesize(config: SynthesisConfig) -> SuiteResult:
    """Run the full Fig 7 pipeline for one (axiom, bound) pair."""
    started = time.monotonic()
    deadline = (
        None
        if config.time_budget_s is None
        else started + config.time_budget_s
    )
    outcome = run_pipeline(
        config,
        (
            ((index,), program)
            for index, program in enumerate(enumerate_programs(config))
        ),
        deadline=deadline,
    )
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

    def degraded_points(self) -> list[tuple[str, int]]:
        """(axiom, bound) pairs whose suite lost quarantined shards."""
        return [
            (point.axiom, point.bound)
            for point in self.points
            if point.result.stats.degraded
        ]

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
