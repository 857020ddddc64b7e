"""Canonical forms for ELT programs and executions (§IV-C deduplication).

Two ELT programs are duplicates when one maps onto the other under

* a permutation of threads (cores are interchangeable),
* a renaming of virtual addresses,
* a renaming of physical addresses (consistent with the initial mapping),
* a renaming of event ids preserving all structure.

The canonical key serializes a program under every thread permutation with
first-use VA/PA naming and keeps the lexicographically smallest form; the
engine uses the same machinery both for *output* dedup and as generation-
time symmetry reduction (the optimization the paper credits with making
10+-instruction bounds practical, Fig 9b discussion).

Three consumers share the serialization core:

* :func:`canonical_program_key` / :func:`canonical_execution_key` — the
  class keys the pipelines deduplicate on;
* :func:`identity_program_key` — the fixed-arrangement serialization,
  used as the deterministic *rank* that picks one representative program
  per isomorphism class (generation-time pruning keeps exactly the
  generable member with the smallest identity key, and the orbit-level
  dedup in :func:`repro.synth.engine.run_queries` re-derives that
  choice when pruning is ablated);
* :func:`repro.symmetry.program_symmetry` — reuses ``_serialize``'s
  per-permutation index maps to extract automorphism groups alongside
  both keys in one pass.
"""

from __future__ import annotations

from itertools import permutations
from typing import Iterable, Optional

from ..mtm import EventKind, Execution, Program

Token = tuple
ProgramKey = tuple
ExecutionKey = tuple

# Stable kind order for ghosts within one parent.
_GHOST_ORDER = {EventKind.DIRTY_BIT_WRITE: 0, EventKind.PT_WALK: 1}


def _scan_order(program: Program, perm: tuple[int, ...]) -> list[str]:
    """Canonical event order: threads in ``perm`` order, slots in order,
    each parent immediately followed by its ghosts (Wdb before walk)."""
    order: list[str] = []
    for core in perm:
        for eid in program.threads[core]:
            order.append(eid)
            ghosts = sorted(
                program.ghosts.get(eid, ()),
                key=lambda g: _GHOST_ORDER[program.events[g].kind],
            )
            order.extend(ghosts)
    return order


def _serialize(
    program: Program, perm: tuple[int, ...]
) -> tuple[ProgramKey, dict[str, int], bool]:
    """Serialize under one thread permutation.

    Returns (key, eid->index, backward_aliases): the flag is False when
    some WPTE alias-target VA is referenced before its first appearance in
    this scan order — an arrangement the skeleton generator never emits
    (it only aliases already-introduced VAs), which the generation-time
    symmetry filter must therefore not compare against.
    """
    events = program.events
    reverse_init = {pa: va for va, pa in program.initial_map.items()}
    va_index: dict[str, int] = {}
    fresh_index: dict[str, int] = {}
    # VAs introduced by generator *specs* (user accesses, WPTE's own VA,
    # spurious INVLPGs) in this scan order.  Remote IPI INVLPGs are
    # inserted by the generator, not generated as specs, so they do not
    # count — the backward-alias flag must mirror the generator exactly.
    spec_introduced: set[str] = set()
    backward = True

    def va_token(va: str) -> int:
        if va not in va_index:
            va_index[va] = len(va_index)
        return va_index[va]

    def pa_token(pa: str) -> Token:
        nonlocal backward
        owner = reverse_init.get(pa)
        if owner is not None:
            if owner not in spec_introduced:
                backward = False
            return ("alias", va_token(owner))
        if pa not in fresh_index:
            fresh_index[pa] = len(fresh_index)
        return ("fresh", fresh_index[pa])

    # Pass 1: global orders for cross-references.
    scan = _scan_order(program, perm)
    eid_to_index = {eid: i for i, eid in enumerate(scan)}
    wpte_order = [
        eid for eid in scan if events[eid].kind is EventKind.PTE_WRITE
    ]
    wpte_index = {eid: i for i, eid in enumerate(wpte_order)}
    remap_of_invlpg = {inv: pte for pte, inv in program.remap}
    rmw_reads = {r for r, _w in program.rmw}
    rmw_writes = {w for _r, w in program.rmw}

    threads_out: list[tuple[Token, ...]] = []
    for core in perm:
        tokens: list[Token] = []
        for eid in program.threads[core]:
            event = events[eid]
            misses = any(
                events[g].kind is EventKind.PT_WALK
                for g in program.ghosts.get(eid, ())
            )
            if event.kind is EventKind.READ:
                spec_introduced.add(event.va)
                tokens.append(
                    ("R", va_token(event.va), misses, eid in rmw_reads)
                )
            elif event.kind is EventKind.WRITE:
                spec_introduced.add(event.va)
                tokens.append(
                    ("W", va_token(event.va), misses, eid in rmw_writes)
                )
            elif event.kind is EventKind.PTE_WRITE:
                spec_introduced.add(event.va)
                tokens.append(
                    ("WPTE", va_token(event.va), pa_token(event.pa))
                )
            elif event.kind is EventKind.INVLPG:
                source = remap_of_invlpg.get(eid)
                # Spurious INVLPGs encode ref -1 (ints keep every key
                # comparable; None would break lexicographic minimization).
                ref = -1 if source is None else wpte_index[source]
                if source is None:
                    spec_introduced.add(event.va)
                tokens.append(("INV", va_token(event.va), ref))
            elif event.kind is EventKind.FENCE:
                tokens.append(("F",))
            elif event.kind is EventKind.TLB_FLUSH:
                tokens.append(("FLUSH",))
            else:  # pragma: no cover - ghosts are not in threads
                raise AssertionError(f"ghost {eid} in thread")
        threads_out.append(tuple(tokens))
    # Empty threads carry no behavior: a reduced 2-core test must match the
    # 1-core synthesized program it collapses to.
    key: ProgramKey = (
        program.mcm_mode,
        tuple(t for t in threads_out if t),
    )
    return key, eid_to_index, backward


def _perms(program: Program) -> Iterable[tuple[int, ...]]:
    return permutations(range(program.num_cores))


def canonical_program_key(program: Program) -> ProgramKey:
    """Lexicographically-least serialization over thread permutations."""
    return min(_serialize(program, perm)[0] for perm in _perms(program))


def identity_program_key(program: Program) -> ProgramKey:
    """Serialization under the identity thread order — a faithful,
    comparable fingerprint of the *concrete* program (two generated
    programs share it iff they are the same program), used to rank class
    members when selecting representatives."""
    return _serialize(program, tuple(range(program.num_cores)))[0]


def canonical_execution_key(execution: Execution) -> ExecutionKey:
    """Canonical key for a candidate execution: program form + witness edges
    under the same renaming (minimized jointly)."""
    program = execution.program
    best: Optional[ExecutionKey] = None
    for perm in _perms(program):
        program_key, index, _backward = _serialize(program, perm)
        witness = (
            tuple(
                sorted((index[a], index[b]) for a, b in execution._rf)
            ),
            tuple(sorted((index[a], index[b]) for a, b in execution.co)),
            tuple(sorted((index[a], index[b]) for a, b in execution.co_pa)),
        )
        key: ExecutionKey = (program_key, witness)
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def is_canonical_thread_order(program: Program) -> bool:
    """Generation-time symmetry filter: keep a program only if the identity
    permutation yields the minimal serialization *among arrangements the
    generator can emit* (backward alias references only).  Comparing
    against non-generable arrangements would drop whole program classes:
    the identity form would lose to a permutation no other generated
    duplicate corresponds to."""
    identity = tuple(range(program.num_cores))
    identity_key = _serialize(program, identity)[0]
    for perm in _perms(program):
        if perm == identity:
            continue
        key, _index, backward = _serialize(program, perm)
        if backward and key < identity_key:
            return False
    return True
