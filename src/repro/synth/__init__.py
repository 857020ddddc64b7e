"""The ELT synthesis engine (paper Fig 7, §IV-§V).

Public surface:

* :class:`SynthesisConfig` — knobs (bound, model, target axiom, modes).
* :func:`synthesize` — one per-axiom suite at one bound.
* :func:`synthesize_sweep` — the Fig 9 bound sweep.
* :func:`enumerate_programs` / :func:`enumerate_witnesses` — the stages.
* :func:`is_minimal`, :func:`removal_groups` — §IV-B minimality.
* :func:`canonical_program_key`, :func:`canonical_execution_key` — §IV-C
  deduplication.
"""

from .canon import (
    canonical_execution_key,
    canonical_program_key,
    is_canonical_thread_order,
)
from .config import SynthesisConfig
from .explore import Outcome, ProgramExploration, explore_program
from .engine import (
    PipelineOutcome,
    SuiteResult,
    SuiteStats,
    SweepPoint,
    SweepResult,
    SynthesizedElt,
    default_config,
    finalize_result,
    run_pipeline,
    synthesize,
    synthesize_sweep,
    witness_stream_factory,
)
from .relax import (
    is_minimal,
    relaxation_becomes_permitted,
    relaxations,
    relaxed_program,
    removal_groups,
    without_rmw_pair,
)
from .skeletons import (
    enumerate_programs,
    enumerate_programs_with_order,
    enumerate_skeletons,
    program_cost,
)
from .witnesses import enumerate_witnesses, enumerate_witnesses_constrained


def __getattr__(name: str):
    """Lazy re-exports of the SAT witness backend, so the explicit path
    does not load the relational translator or the SAT solver."""
    if name == "WitnessSession":
        from . import sat_backend

        return getattr(sat_backend, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SynthesisConfig",
    "explore_program",
    "ProgramExploration",
    "Outcome",
    "synthesize",
    "synthesize_sweep",
    "default_config",
    "SuiteResult",
    "SuiteStats",
    "SweepPoint",
    "SweepResult",
    "SynthesizedElt",
    "PipelineOutcome",
    "run_pipeline",
    "finalize_result",
    "witness_stream_factory",
    "enumerate_programs",
    "enumerate_programs_with_order",
    "enumerate_skeletons",
    "enumerate_witnesses",
    "enumerate_witnesses_constrained",
    "program_cost",
    "is_minimal",
    "WitnessSession",
    "relaxations",
    "relaxation_becomes_permitted",
    "relaxed_program",
    "removal_groups",
    "without_rmw_pair",
    "canonical_program_key",
    "canonical_execution_key",
    "is_canonical_thread_order",
]
