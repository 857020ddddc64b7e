"""Synthesis configuration (the engine's knobs — paper §IV, §V-B).

The instruction ``bound`` counts *all* events including ghosts
(docs/ARCHITECTURE.md, "Modelling decisions").  The paper sweeps bounds
of 4..17 under a one-week timeout on a server; this reproduction exposes
the same sweep with a configurable ``time_budget_s`` so benchmarks stay
laptop-sized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..errors import SynthesisError
from ..models import MemoryModel, x86t_elt


@dataclass
class SynthesisConfig:
    """Knobs for one synthesis run.

    ``target_axiom``
        The axiom whose violation the synthesized ELTs must exhibit (the
        paper synthesizes one per-axiom suite per axiom, §V-B).  ``None``
        targets the whole predicate (any axiom may be violated).
    ``mcm_mode``
        Ghost-free user-level synthesis (the [30] baseline).
    ``canonical_pruning``
        Symmetry reduction during generation (one thread arrangement per
        isomorphism class); disabling it is the ablation of the Fig 9b
        discussion ("symmetry reduction enables synthesis ... within
        practical runtimes").  Output is identical either way: the
        pipelines select class representatives by canonical rank, and
        the orbit-level dedup of :mod:`repro.symmetry` skips duplicate
        class members before translation when ``symmetry`` is on.
    ``dirty_bit_as_rmw``
        Model dirty-bit updates as an RMW (read + write) instead of a
        single Write — the §III-A2 ablation; costs one extra instruction
        per user-facing Write inside the bound.
    """

    bound: int
    model: MemoryModel = field(default_factory=x86t_elt)
    target_axiom: Optional[str] = None
    max_threads: int = 2
    max_vas: int = 2
    mcm_mode: bool = False
    enable_rmw: bool = True
    enable_fences: bool = False
    enable_pte_writes: bool = True
    enable_spurious_invlpg: bool = True
    #: Explore whole-TLB flushes (the "additional IPI" extension).  Off by
    #: default: like spurious INVLPGs, a flush is removable in isolation,
    #: so it can never be load-bearing for a *minimal* ELT — enabling it
    #: only widens the search space (useful for checking that argument).
    enable_tlb_flush: bool = False
    canonical_pruning: bool = True
    dirty_bit_as_rmw: bool = False
    time_budget_s: Optional[float] = None
    #: How candidate executions are enumerated per program: ``"explicit"``
    #: is the hand-written Python enumerator, ``"sat"`` routes through the
    #: relational (Alloy-port) encoding and the CDCL solver (§IV-C), which
    #: also populates the ``sat_*`` counters on :class:`SuiteStats`.  Both
    #: backends are deterministic and produce the same canonical suites.
    witness_backend: str = "explicit"
    #: Symmetry-aware enumeration (:mod:`repro.symmetry`): per-program
    #: automorphism groups quotient the witness stream (one orbit
    #: representative, orbit-size weights), the SAT backend emits static
    #: lex-leader clauses so pruned witnesses are never even visited, and
    #: duplicate isomorphic programs are skipped before translation
    #: (orbit-level dedup).  Canonical suites and conformance matrices
    #: are byte-identical either way — ``--no-symmetry`` (False) is the
    #: differential oracle that runs the same pipelines unpruned.  It is
    #: an output-invariant execution strategy and is excluded from
    #: suite-store cache identity.
    symmetry: bool = True

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise SynthesisError(f"bound must be positive, got {self.bound}")
        if self.witness_backend not in ("explicit", "sat"):
            raise SynthesisError(
                f"unknown witness backend: {self.witness_backend!r} "
                "(expected 'explicit' or 'sat')"
            )
        if self.max_threads < 1:
            raise SynthesisError("max_threads must be at least 1")
        if self.max_vas < 1:
            raise SynthesisError("max_vas must be at least 1")
        if self.target_axiom is not None:
            self.model.axiom(self.target_axiom)  # raises if unknown
        if self.mcm_mode and self.enable_pte_writes:
            self.enable_pte_writes = False
        if self.mcm_mode and self.enable_spurious_invlpg:
            self.enable_spurious_invlpg = False
        if self.mcm_mode and self.enable_tlb_flush:
            self.enable_tlb_flush = False

    @property
    def write_cost(self) -> int:
        """Instructions a user-facing Write contributes before its walk:
        W + Wdb normally; W + dirty-Read + dirty-Write under the §III-A2
        RMW ablation; bare W in MCM mode."""
        if self.mcm_mode:
            return 1
        return 3 if self.dirty_bit_as_rmw else 2
