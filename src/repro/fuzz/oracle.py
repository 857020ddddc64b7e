"""The differential oracle: one random program in, verdicts out.

Built entirely from machinery the exact pipeline already trusts:
:class:`~repro.models.PairClassifier` supplies the shared-axiom verdict
pairs, :func:`repro.synth.engine.witness_stream_factory` supplies the
candidate-execution stream (explicit or SAT/witness-session backend,
orbit-pruned and weighted under :mod:`repro.symmetry`), and
:func:`repro.synth.relax.is_minimal` supplies §IV-B minimality.

Two query shapes:

* :meth:`DifferentialOracle.classify` returns a :class:`ClassSummary` —
  agreement counts, behavior signatures, whether a discriminating
  witness exists, and whether a *minimal* one does.  Every field is a
  pure function of the program's orbit-canonical class (verdicts,
  weighted counts, and minimality are isomorphism-invariant), so the
  summary is memoized by canonical key: duplicate orbit members and
  shrink re-queries replay instead of re-enumerating.
* :meth:`DifferentialOracle.judge` additionally selects the
  representative execution — the smallest ``(canonical execution key,
  witness sort key)`` among the program's minimal discriminating
  witnesses, the same total order the enumerated diff pipeline uses —
  which is member-specific and therefore never memoized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..models import Agreement, Evaluation, MemoryModel, PairClassifier
from ..mtm import Execution, Program, release_program_memo
from ..obs import current_registry
from ..symmetry import execution_key_via, program_symmetry, witness_sort_key
from ..synth.canon import (
    canonical_execution_key,
    canonical_program_key,
    identity_program_key,
)
from ..synth.engine import witness_stream_factory
from ..synth.relax import cached_is_minimal, is_minimal
from .config import FuzzConfig, FuzzStats


@dataclass(frozen=True)
class ClassSummary:
    """Class-pure verdicts for one orbit-canonical program class."""

    #: (both-permit, both-forbid, only-reference-forbids,
    #: only-subject-forbids) weighted witness counts.
    counts: Tuple[int, int, int, int]
    #: Distinct (agreement value, violated-reference-axiom tuple) pairs.
    signatures: Tuple[Tuple[str, Tuple[str, ...]], ...]
    #: A reference-forbidden, subject-permitted witness exists.
    discriminating: bool
    #: ... and at least one such witness is §IV-B minimal.
    minimal: bool
    #: Abandoned: weighted witness count exceeded ``max_witnesses``
    #: (every other field is zeroed; the class is counted, not judged).
    truncated: bool
    #: Weighted candidate executions (0 when truncated).
    witnesses: int


@dataclass
class Judgment:
    """A full member-level judgment: the class summary plus the
    representative minimal discriminating execution (when one exists)."""

    summary: ClassSummary
    canonical_key: tuple
    identity_rank: tuple
    execution: Optional[Execution] = None
    execution_key: Optional[tuple] = None
    witness_rank: Optional[tuple] = None
    violated_axioms: Tuple[str, ...] = ()


class DifferentialOracle:
    """Judges random programs under one (reference, subject) pair."""

    def __init__(self, config: FuzzConfig, stats: Optional[FuzzStats] = None):
        self.config = config
        self.reference: MemoryModel = config.reference
        self.subject: MemoryModel = config.subject
        self.classifier = PairClassifier(config.reference, config.subject)
        self.stats = stats if stats is not None else FuzzStats()
        self.stage_times: dict = {}
        base = config.base_synthesis_config()
        self._use_symmetry = base.symmetry
        self._use_shared_minimality = base.incremental
        self._stream, self.sat_stats = witness_stream_factory(
            base, stage_times=self.stage_times
        )
        #: canonical program key -> ClassSummary (class-pure replay).
        self._memo: dict = {}
        #: local minimality cache for the --fresh-solver oracle path.
        self._minimal_cache: dict = {}

    # -- keys -----------------------------------------------------------
    def symmetry_of(self, program: Program):
        return program_symmetry(program) if self._use_symmetry else None

    def canonical_key_of(self, program: Program, sym=None) -> tuple:
        if sym is not None:
            return sym.canonical_key
        if self._use_symmetry:
            return program_symmetry(program).canonical_key
        return canonical_program_key(program)

    # -- queries --------------------------------------------------------
    def classify(self, program: Program) -> ClassSummary:
        """The memoized class-pure summary for a program's orbit class."""
        self.stats.oracle_calls += 1
        sym = self.symmetry_of(program)
        key = self.canonical_key_of(program, sym)
        cached = self._memo.get(key)
        if cached is not None:
            self.stats.oracle_memo_hits += 1
            current_registry().inc("fuzz.oracle_memo_hits", informational=True)
            return cached
        current_registry().inc("fuzz.oracle_calls", informational=True)
        summary, _rep = self._evaluate(program, sym, want_representative=False)
        self._memo[key] = summary
        return summary

    def judge(self, program: Program) -> Judgment:
        """A full pass selecting the representative execution (the
        member-specific part a shrunk finding serializes)."""
        self.stats.oracle_calls += 1
        current_registry().inc("fuzz.oracle_calls", informational=True)
        sym = self.symmetry_of(program)
        key = self.canonical_key_of(program, sym)
        summary, rep = self._evaluate(program, sym, want_representative=True)
        self._memo[key] = summary
        identity_rank = (
            sym.identity_key if sym is not None else identity_program_key(program)
        )
        judgment = Judgment(
            summary=summary, canonical_key=key, identity_rank=identity_rank
        )
        if rep is not None:
            (
                judgment.execution_key,
                judgment.witness_rank,
                judgment.execution,
                judgment.violated_axioms,
            ) = rep
        return judgment

    # -- evaluation -----------------------------------------------------
    def _is_minimal(
        self, execution: Execution, execution_key: tuple, evaluation: Evaluation
    ) -> bool:
        if self._use_shared_minimality:
            return cached_is_minimal(
                execution, self.reference, execution_key, evaluation
            )
        verdict = self._minimal_cache.get(execution_key)
        if verdict is None:
            verdict = is_minimal(execution, self.reference, evaluation)
            self._minimal_cache[execution_key] = verdict
        return verdict

    def _evaluate(self, program: Program, sym, want_representative: bool):
        """One pass over the witness stream.  Returns (summary,
        representative-or-None) where the representative is the smallest
        ``(execution key, witness rank)`` minimal discriminating witness,
        as ``(execution key, witness rank, execution, violated reference
        axioms)``.  The program's memos are released when the pass ends.
        """
        try:
            return self._evaluate_pass(program, sym, want_representative)
        finally:
            release_program_memo(program)

    def _evaluate_pass(self, program: Program, sym, want_representative: bool):
        counts = [0, 0, 0, 0]  # bp, bf, orf, osf
        signatures: set = set()
        #: (execution_key, witness_rank, execution, violated axioms,
        #: evaluation)
        discriminating: list = []
        total = 0
        truncated = False
        limit = self.config.max_witnesses
        verdicts = self.classifier.verdicts
        check_reference = self.reference.check
        for execution, weight in self._stream(program, sym):
            total += weight
            if total > limit:
                truncated = True
                break
            # One evaluation serves the verdict pair and, when the
            # reference forbids, its violated axioms and minimality.
            evaluation = Evaluation(execution)
            ref_permits, sub_permits = verdicts(execution, evaluation)
            if ref_permits:
                if sub_permits:
                    counts[0] += weight
                    signatures.add((Agreement.BOTH_PERMIT.value, ()))
                else:
                    counts[3] += weight
                    signatures.add((Agreement.ONLY_SUBJECT_FORBIDS.value, ()))
                continue
            violated = check_reference(execution, evaluation).violated
            if not sub_permits:
                counts[1] += weight
                signatures.add((Agreement.BOTH_FORBID.value, violated))
                continue
            counts[2] += weight
            signatures.add((Agreement.ONLY_REFERENCE_FORBIDS.value, violated))
            execution_key = (
                execution_key_via(sym, execution)
                if sym is not None
                else canonical_execution_key(execution)
            )
            witness_rank = witness_sort_key(
                program, execution._rf, execution.co, execution.co_pa
            )
            discriminating.append(
                (execution_key, witness_rank, execution, violated, evaluation)
            )
        if truncated:
            self.stats.truncated += 1
            current_registry().inc("fuzz.truncated", informational=True)
            return (
                ClassSummary(
                    counts=(0, 0, 0, 0),
                    signatures=(),
                    discriminating=False,
                    minimal=False,
                    truncated=True,
                    witnesses=0,
                ),
                None,
            )
        self.stats.witnesses_classified += total
        current_registry().observe("fuzz.witnesses_per_program", total)
        # The representative is the smallest (canonical execution key,
        # witness sort key) among the *minimal* discriminating witnesses
        # — the same order-free total order the enumerated diff pipeline
        # uses, so isomorphic findings always serialize the same bytes.
        representative = None
        minimal = False
        for candidate in sorted(discriminating, key=lambda item: item[:2]):
            if self._is_minimal(candidate[2], candidate[0], candidate[4]):
                minimal = True
                if want_representative:
                    representative = candidate[:4]
                break
        summary = ClassSummary(
            counts=tuple(counts),
            signatures=tuple(sorted(signatures)),
            discriminating=bool(discriminating),
            minimal=minimal,
            truncated=False,
            witnesses=total,
        )
        return summary, representative
