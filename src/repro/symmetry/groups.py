"""Program symmetry groups: automorphisms and canonical ranks.

A thread-permutation *automorphism* of an ELT program is a bijection of
its events that maps thread ``k`` onto thread ``π(k)`` slot by slot while
preserving every piece of structure the witness space can see: event
kinds, program order, ghost attachment, remap/rmw pairing, VA equality
classes, and PA equality classes (including the initial mapping).  Two
candidate executions related by an automorphism are isomorphic — same
canonical key, same verdict under every memory model — so enumerating
both is pure waste.

:func:`program_symmetry` derives everything from the canonicalization
machinery in :mod:`repro.synth.canon`: serializing the program under a
thread permutation produces the same token stream as the identity
serialization *iff* that permutation induces an automorphism, and the
two serializations' event-index maps compose into the concrete event
bijection.  The same pass yields the canonical class key (minimum over
all permutations) and the identity-arrangement key, which doubles as the
deterministic *rank* representative selection uses to pick one program
per isomorphism class no matter which class members a configuration
happens to enumerate.

``co_pa`` caveat: witness-orbit pruning (and the lex-leader clauses built
from these automorphisms) additionally requires the program's ``co_pa``
space to be trivial — no two PTE writes sharing a target PA — because the
explicit backend enumerates only a canonical ``co_pa`` completion, which
is not automorphism-closed.  :attr:`ProgramSymmetry.prunable` folds that
check in; programs failing it keep their class key and rank, but get no
witness-level pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations
from typing import Optional

from ..mtm import EventKind, Program, program_memo
from ..synth.canon import ProgramKey, _serialize


@dataclass(frozen=True)
class ProgramSymmetry:
    """One program's symmetry facts, computed in a single pass."""

    #: Serialization under the identity thread order — the deterministic
    #: rank used to pick one representative per isomorphism class (the
    #: generation-time canonical arrangement is exactly the generable
    #: member with the smallest identity key).
    identity_key: ProgramKey
    #: Minimum serialization over all thread permutations — the class
    #: key, equal to :func:`repro.synth.canon.canonical_program_key`.
    canonical_key: ProgramKey
    #: Non-identity automorphisms as concrete eid bijections.  Because
    #: every thread permutation is tested, this is the full group minus
    #: the identity (closed under composition by construction).
    automorphisms: tuple[dict, ...]
    #: The eid→scan-index maps of exactly the permutations whose
    #: serialization achieves ``canonical_key`` (one per member of the
    #: automorphism group).  Canonical *execution* keys lexicographically
    #: lead with the program key, so only these permutations can realize
    #: the minimum — :func:`execution_key_via` exploits that to
    #: canonicalize each witness with |G| index lookups instead of n!
    #: fresh serializations.
    canonical_index_maps: tuple[dict, ...] = ()
    #: False when the program's ``co_pa`` space is non-trivial (two PTE
    #: writes share a target PA) — witness-orbit pruning must stand down
    #: there; see the module docstring.
    co_pa_trivial: bool = True
    #: Whether the identity arrangement is the canonical one *among the
    #: arrangements the generator can emit* (exactly
    #: :func:`repro.synth.canon.is_canonical_thread_order`) — the
    #: generation-time pruning verdict, extracted from the same
    #: serialization pass so the generator and the engine split one
    #: computation.
    arrangement_canonical: bool = True

    @property
    def prunable(self) -> bool:
        """Whether witness-orbit pruning (and lex-leader breaking) may be
        applied to this program's candidate enumeration."""
        return bool(self.automorphisms) and self.co_pa_trivial


def execution_key_via(symmetry: ProgramSymmetry, execution) -> tuple:
    """:func:`repro.synth.canon.canonical_execution_key`, computed from a
    precomputed :class:`ProgramSymmetry` instead of fresh serializations.

    The canonical execution key is the minimum over thread permutations
    of ``(program serialization, witness edge indices)``; the first
    component dominates the lexicographic comparison, so only the
    permutations achieving the canonical *program* key — whose index
    maps ``program_symmetry`` already extracted — can realize the
    minimum.  For the typical asymmetric program that is a single map,
    turning per-witness canonicalization from O(n! · serialize) into one
    pass over the witness edges.  Exactly equal to the from-scratch key
    by construction.
    """
    best = None
    for index in symmetry.canonical_index_maps:
        witness = (
            tuple(sorted((index[a], index[b]) for a, b in execution._rf)),
            tuple(sorted((index[a], index[b]) for a, b in execution.co)),
            tuple(sorted((index[a], index[b]) for a, b in execution.co_pa)),
        )
        if best is None or witness < best:
            best = witness
    return (symmetry.canonical_key, best)


def _co_pa_trivial(program: Program) -> bool:
    seen: set[Optional[str]] = set()
    for event in program.events.values():
        if event.kind is EventKind.PTE_WRITE:
            if event.pa in seen:
                return False
            seen.add(event.pa)
    return True


def program_symmetry(program: Program) -> ProgramSymmetry:
    """Compute :class:`ProgramSymmetry` for one program, kept in its
    :class:`~repro.mtm.program.ProgramMemo`: generation-time pruning and
    the program loop both need it, and one serialization pass serves
    both.

    Cost is one canonical serialization per thread permutation — the
    same work :func:`~repro.synth.canon.canonical_program_key` already
    performs, reused here to also extract the automorphism group: when
    ``serialize(P, π) == serialize(P, identity)``, the event at identity
    scan position ``i`` maps to the event at ``π``-scan position ``i``,
    and that bijection preserves all structure (the serialization is
    faithful up to isomorphism — the property the canonical-key tests
    pin down).
    """
    memo = program_memo(program)
    if memo.symmetry is not None:
        return memo.symmetry
    cores = range(program.num_cores)
    identity = tuple(cores)
    identity_key, identity_index, _ = _serialize(program, identity)
    canonical_key = identity_key
    arrangement_canonical = True
    autos: list[dict] = []
    serialized = [(identity_key, identity_index)]
    for perm in permutations(cores):
        if perm == identity:
            continue
        key, index, backward = _serialize(program, perm)
        serialized.append((key, index))
        if key < canonical_key:
            canonical_key = key
        if backward and key < identity_key:
            # A generable arrangement serializes smaller: the identity
            # arrangement is not the generation-time canonical member.
            arrangement_canonical = False
        if key == identity_key:
            by_position = {i: eid for eid, i in index.items()}
            autos.append(
                {eid: by_position[i] for eid, i in identity_index.items()}
            )
    symmetry = ProgramSymmetry(
        identity_key=identity_key,
        canonical_key=canonical_key,
        automorphisms=tuple(autos),
        canonical_index_maps=tuple(
            index for key, index in serialized if key == canonical_key
        ),
        co_pa_trivial=_co_pa_trivial(program),
        arrangement_canonical=arrangement_canonical,
    )
    memo.symmetry = symmetry
    return symmetry
