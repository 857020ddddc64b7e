"""Fuzz run configuration, counters, and store identity.

:class:`FuzzConfig` is the fuzz analogue of
:class:`~repro.synth.SynthesisConfig`: everything that shapes a run.
Fields that change *what* the run finds participate in the store
identity (:func:`fuzz_identity`); ``symmetry``, the execution strategy
the rest of the pipeline treats as output-invariant, is excluded exactly
like :func:`repro.orchestrate.store.config_identity` excludes it.

:class:`FuzzStats` is the run's deterministic counter block.  Counters
marked *serial-deterministic* reproduce exactly for a fixed seed at
``--jobs 1`` (the bench gate); per-shard oracle memo hits vary with the
shard split, so only the findings bytes — never the counters — are the
cross-``--jobs`` contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from ..models import MemoryModel, x86t_elt
from ..models.catalog import CATALOG
from ..synth import SynthesisConfig


def _default_reference() -> MemoryModel:
    return x86t_elt()


def _default_subject() -> MemoryModel:
    return CATALOG["x86t_amd_bug"]()


@dataclass
class FuzzConfig:
    """One coverage-guided differential fuzz run."""

    #: Run seed: the only entropy source.  Per-program seeds derive from
    #: (seed, round, attempt) via :func:`repro.fuzz.generators.derive_seed`.
    seed: int = 0
    #: Generation bound: max events per random program (8-12 is the
    #: beyond-the-enumeration regime; the enumerator caps out at 6-8).
    bound: int = 8
    #: The spec model — forbids the discriminating findings; also drives
    #: minimality, exactly like ``DiffConfig.base.model``.
    reference: MemoryModel = field(default_factory=_default_reference)
    #: The model under comparison — permits the findings.
    subject: MemoryModel = field(default_factory=_default_subject)
    #: Coverage-feedback rounds.  Generation profiles adapt only at
    #: round barriers (deterministic merge), never mid-round.
    rounds: int = 2
    #: Programs generated per round (partitioned across shards).
    attempts_per_round: int = 64
    max_threads: int = 2
    #: Abandon a program whose candidate-execution count exceeds this
    #: (counted, never classified — the verdict stays class-pure).
    max_witnesses: int = 20000
    #: Wall-clock budget for the whole run (None = unbounded).
    time_budget_s: Optional[float] = None
    #: Candidate-execution enumerator.  Part of the identity, as for
    #: suites: the two backends disagree on a few programs from bound 8
    #: (docs/ARCHITECTURE.md, "The canonical co_pa completion").
    witness_backend: str = "explicit"
    #: Output-invariant execution strategy: the one field excluded from
    #: the identity.
    symmetry: bool = True

    def __post_init__(self) -> None:
        # A bad bound, thread cap or backend raises SynthesisError here,
        # in the parent, before any shard runs.
        self.base_synthesis_config()

    def base_synthesis_config(self) -> SynthesisConfig:
        """The enumeration-shaping config the oracle's witness stream and
        minimality checks run under (model = reference)."""
        return SynthesisConfig(
            bound=self.bound,
            model=self.reference,
            target_axiom=None,
            max_threads=self.max_threads,
            witness_backend=self.witness_backend,
            symmetry=self.symmetry,
        )


@dataclass
class FuzzStats:
    """Deterministic fuzz counters (merged across shards by summation)."""

    #: Programs generated (= attempts executed).
    programs_generated: int = 0
    #: Oracle classification/judgment requests (including shrink
    #: re-queries; serial-deterministic).
    oracle_calls: int = 0
    #: Requests answered by the per-shard orbit-class memo (varies with
    #: the shard split — reported, never gated across ``--jobs``).
    oracle_memo_hits: int = 0
    #: Weighted candidate executions classified.
    witnesses_classified: int = 0
    #: Attempts whose program had a discriminating witness.
    discriminating: int = 0
    #: Accepted shrink steps across all findings.
    shrink_steps: int = 0
    #: Discriminating attempts the greedy shrinker could not reduce to a
    #: §IV-B-minimal ELT (dropped from the suite, kept honest here).
    shrink_failed: int = 0
    #: Programs abandoned for exceeding ``max_witnesses``.
    truncated: int = 0
    #: Attempts judged entirely from the orbit-class memo.
    class_replays: int = 0
    #: Distinct orbit-canonical program classes observed (set at merge).
    novel_classes: int = 0
    #: Distinct (agreement x axiom-signature) behavior buckets observed.
    novel_behaviors: int = 0
    #: Findings surviving dedup (set at merge).
    findings: int = 0
    timed_out: bool = False
    # Always false; kept because bench_e2e/pins.json's fuzz-b12 digest covers it.
    degraded: bool = False
    runtime_s: float = 0.0

    SUMMED_FIELDS = (
        "programs_generated",
        "oracle_calls",
        "oracle_memo_hits",
        "witnesses_classified",
        "discriminating",
        "shrink_steps",
        "shrink_failed",
        "truncated",
        "class_replays",
    )

    def absorb(self, other: "FuzzStats") -> None:
        for name in self.SUMMED_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.timed_out = self.timed_out or other.timed_out

    def to_json(self) -> dict[str, Any]:
        payload = {name: getattr(self, name) for name in self.SUMMED_FIELDS}
        payload.update(
            novel_classes=self.novel_classes,
            novel_behaviors=self.novel_behaviors,
            findings=self.findings,
            timed_out=self.timed_out,
            degraded=self.degraded,
            runtime_s=round(self.runtime_s, 3),
        )
        return payload


def fuzz_identity(config: FuzzConfig) -> dict[str, Any]:
    """The JSON-safe identity of a fuzz configuration (the store key
    base for fuzz-kind entries; see :mod:`repro.orchestrate.store`)."""
    from ..orchestrate.store import SCHEMA_VERSION

    return {
        "schema": SCHEMA_VERSION,
        "seed": config.seed,
        "bound": config.bound,
        "reference": config.reference.name,
        "reference_axioms": list(config.reference.axiom_names),
        "subject": config.subject.name,
        "subject_axioms": list(config.subject.axiom_names),
        "rounds": config.rounds,
        "attempts_per_round": config.attempts_per_round,
        "max_threads": config.max_threads,
        "max_witnesses": config.max_witnesses,
        "time_budget_s": config.time_budget_s,
        "witness_backend": config.witness_backend,
    }
