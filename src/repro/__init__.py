"""repro — a reproduction of TransForm (ISCA 2020).

TransForm formally specifies *memory transistency models* (MTMs — memory
consistency extended with virtual-memory behaviors) and synthesizes
*enhanced litmus tests* (ELTs) from such specifications.

Subpackages
-----------
``repro.sat``
    Pure-Python CDCL SAT solver (MiniSat stand-in).
``repro.relational``
    Alloy/Kodkod-lite bounded relational model finder.
``repro.mtm``
    The MTM vocabulary of Table I: events, locations, programs, candidate
    executions, and derived relations.
``repro.models``
    Axiomatic memory models: SC, x86-TSO, and the paper's ``x86t_elt``.
``repro.synth``
    The ELT synthesis engine (Fig 7 pipeline): bounded enumeration,
    interestingness pruning, minimality, deduplication.
``repro.symmetry``
    Symmetry-aware enumeration: program automorphism groups,
    witness-orbit pruning with exact weights, SAT-level lex-leader
    breaking, orbit-level program dedup.
``repro.litmus``
    ELT text formats, the reconstructed COATCheck suite, and the §VI-B
    comparison tool.
``repro.orchestrate``
    Sharded parallel synthesis: deterministic work partitioning, a
    spawn-safe worker pool, serial-equivalent merging, and the persistent
    whole-result store (``--jobs``/``--cache-dir``).
``repro.conformance``
    Differential conformance: single-pass classification of a bounded
    candidate space under a model pair, discriminating-ELT synthesis,
    and the all-pairs conformance matrix (``repro diff``).
``repro.fuzz``
    Coverage-guided differential fuzzing beyond the enumeration bound:
    seeded random well-formed programs, the shared differential oracle,
    greedy shrinking to §IV-B-minimal ELTs, and a deterministic
    replayable regression corpus (``repro fuzz``).
``repro.reporting``
    ASCII tables/plots and the experiment drivers behind EXPERIMENTS.md.
"""

from __future__ import annotations

__version__ = "1.1.0"


def __getattr__(name: str):
    """Lazy re-exports of the headline API, so ``from repro import
    ProgramBuilder, x86t_elt, synthesize`` works without importing every
    subsystem at package-import time."""
    surface = {
        "ProgramBuilder": ("repro.mtm", "ProgramBuilder"),
        "Program": ("repro.mtm", "Program"),
        "Execution": ("repro.mtm", "Execution"),
        "Event": ("repro.mtm", "Event"),
        "EventKind": ("repro.mtm", "EventKind"),
        "MemoryModel": ("repro.models", "MemoryModel"),
        "x86tso": ("repro.models", "x86tso"),
        "x86t_elt": ("repro.models", "x86t_elt"),
        "sequential_consistency": ("repro.models", "sequential_consistency"),
        "SynthesisConfig": ("repro.synth", "SynthesisConfig"),
        "synthesize": ("repro.synth", "synthesize"),
        "run_sharded": ("repro.orchestrate", "run_sharded"),
        "run_sweep_sharded": ("repro.orchestrate", "run_sweep_sharded"),
        "SuiteStore": ("repro.orchestrate", "SuiteStore"),
        "DiffConfig": ("repro.conformance", "DiffConfig"),
        "diff_models": ("repro.conformance", "diff_models"),
        "run_diff": ("repro.conformance", "run_diff"),
        "run_all_pairs": ("repro.conformance", "run_all_pairs"),
        "ConformanceMatrix": ("repro.conformance", "ConformanceMatrix"),
        "explore_program": ("repro.synth", "explore_program"),
        "format_execution": ("repro.litmus", "format_execution"),
        "parse_elt": ("repro.litmus", "parse_elt"),
        "serialize_elt": ("repro.litmus", "serialize_elt"),
    }
    if name in surface:
        import importlib

        module_name, attribute = surface[name]
        return getattr(importlib.import_module(module_name), attribute)
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "__version__",
    "ProgramBuilder",
    "Program",
    "Execution",
    "Event",
    "EventKind",
    "MemoryModel",
    "x86tso",
    "x86t_elt",
    "sequential_consistency",
    "SynthesisConfig",
    "synthesize",
    "DiffConfig",
    "diff_models",
    "run_diff",
    "run_all_pairs",
    "ConformanceMatrix",
    "explore_program",
    "format_execution",
    "parse_elt",
    "serialize_elt",
]
