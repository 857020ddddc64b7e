"""Symmetry-aware enumeration: groups, orbits, and SAT-level breaking.

TransForm's search space is riddled with symmetries — permutations of
structurally identical threads, virtual/physical address renamings, and
interchangeable ghost slots — and the cheapest place to break them is
*before* work happens, not after decoding (cf. Akgün, Hoffmann & Sarkar,
"Memory Consistency Models using Constraints").  This package is the one
home for that machinery, layered bottom-up:

* :func:`program_symmetry` (:mod:`.groups`) computes a program's
  symmetry facts in one pass over thread permutations: its canonical
  class key, its identity-arrangement rank (the deterministic
  representative order used by orbit-level dedup), and its automorphism
  group as concrete event bijections;
* :func:`witness_sort_key`, :func:`witness_orbit` and
  :func:`prune_weighted` (:mod:`.witnesses`) quotient a program's
  candidate-execution stream by its automorphism group: one
  deterministic representative per orbit, tagged with the orbit size so
  weighted counters reproduce the full enumeration's numbers exactly;
* :func:`witness_relation_permutation` (:mod:`.lex`) turns an
  automorphism into the tuple permutation
  :meth:`repro.relational.Problem.add_symmetry` compiles into static
  lex-leader clauses — so the CDCL enumeration never *visits* the
  pruned orbit members in the first place.

The engine's one program loop (:func:`repro.synth.engine.run_queries`,
behind both synthesis and differential conformance) consumes all three
layers behind ``SynthesisConfig.symmetry`` (default on);
``--no-symmetry`` is the differential oracle that runs the same loop
unpruned.  Canonical suite bytes and conformance matrices are
identical either way — the representative tie-breaks are defined in
terms of :func:`witness_sort_key`, the same total order the lex-leader
clauses enforce.
"""

from .groups import ProgramSymmetry, execution_key_via, program_symmetry
from .lex import witness_relation_permutation
from .witnesses import (
    apply_automorphism,
    prune_weighted,
    witness_orbit,
    witness_sort_key,
)

__all__ = [
    "ProgramSymmetry",
    "apply_automorphism",
    "execution_key_via",
    "program_symmetry",
    "prune_weighted",
    "witness_orbit",
    "witness_relation_permutation",
    "witness_sort_key",
]
