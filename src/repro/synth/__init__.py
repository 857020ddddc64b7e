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

from .._lazy import lazy_exports

# Every name loads on first use.  Importing one submodule therefore
# runs none of the others: :mod:`repro.symmetry` imports ``canon`` while
# ``engine``, which imports :mod:`repro.symmetry`, is not loaded yet.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "canon": (
            "canonical_execution_key",
            "canonical_program_key",
            "is_canonical_thread_order",
        ),
        "config": ("SynthesisConfig",),
        "explore": ("Outcome", "ProgramExploration", "explore_program"),
        "engine": (
            "PipelineOutcome",
            "SuiteResult",
            "SuiteStats",
            "SweepPoint",
            "SweepResult",
            "SynthesizedElt",
            "default_config",
            "finalize_result",
            "run_pipeline",
            "synthesize",
            "synthesize_sweep",
            "witness_stream_factory",
        ),
        "relax": (
            "is_minimal",
            "relaxation_becomes_permitted",
            "relaxations",
            "relaxed_program",
            "removal_groups",
            "without_rmw_pair",
        ),
        "skeletons": (
            "enumerate_programs",
            "enumerate_programs_with_order",
            "enumerate_skeletons",
            "program_cost",
        ),
        "witnesses": ("enumerate_witnesses", "enumerate_witnesses_constrained"),
        "sat_backend": ("WitnessSession",),
    },
)

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
