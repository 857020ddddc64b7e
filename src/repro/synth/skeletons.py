"""Bounded-exhaustive enumeration of ELT programs (§IV-A).

Programs are generated in three stages:

1. **Base skeletons** — per-thread sequences of user/support instruction
   specs (R, W, RMW, WPTE, spurious INVLPG, MFENCE) with canonical
   first-use VA naming, under an optimistic cost bound.
2. **Remap fan-out** — each PTE write gets its same-core INVLPG immediately
   after it (as in every paper figure) and one IPI INVLPG per remote core,
   inserted at every possible slot (the position matters: Fig 11 vs the
   same program with the INVLPG after the read).
3. **TLB choices** — every user access either hits the live TLB entry or
   misses and invokes a fresh walk; first uses and post-INVLPG accesses
   are forced misses, anything else may capacity-evict (§III-B2 explores
   all three TLB-miss causes).  Dirty-bit ghosts attach to every Write.

Stage 1 is :func:`indexed_skeletons` and stages 2 and 3 are
:func:`expand_skeletons`: a sharded run (:mod:`repro.orchestrate`)
enumerates the skeletons once and expands disjoint slices of them in
separate workers.

Placement rules enforced here (Fig 7 "relation placement rules"):

* spurious INVLPGs appear only between two same-thread accesses of their
  VA (otherwise they cannot affect the thread's execution, §III-B2);
* base threads are non-empty (a core participates by running something);
* the program contains at least one write-like event (spanning-set
  criterion 1, §IV-B).

Cost accounting charges ``config.write_cost`` per user Write (2 normally —
the §III-A2 design choice; 3 under the dirty-bit-as-RMW ablation) plus one
per walk, one per INVLPG/read/fence, and ``1 + num_threads`` per PTE write.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Iterator, Optional

from ..mtm import Event, EventKind, Program
from ..symmetry import program_symmetry
from .canon import is_canonical_thread_order
from .config import SynthesisConfig


@dataclass(frozen=True)
class Spec:
    """One base (pre-ghost) instruction in a skeleton."""

    op: str  # 'R' | 'W' | 'RMW' | 'WPTE' | 'INV' | 'F'
    va: int = 0
    alias: Optional[int] = None  # WPTE target: alias of va index, None=fresh

    def is_user_access(self) -> bool:
        return self.op in ("R", "W", "RMW")


#: One base skeleton: a spec sequence per thread.
Skeleton = tuple[tuple[Spec, ...], ...]
#: A base skeleton with its global index across all thread counts.
IndexedSkeleton = tuple[int, Skeleton]


def _spec_cost(spec: Spec, config: SynthesisConfig, num_threads: int) -> int:
    if spec.op == "R":
        return 1
    if spec.op == "W":
        return config.write_cost
    if spec.op == "RMW":
        return 1 + config.write_cost
    if spec.op == "WPTE":
        return 1 + num_threads  # itself + one INVLPG per core
    return 1  # INV, F


def _candidate_specs(
    config: SynthesisConfig, used_vas: int, num_threads: int
) -> list[Spec]:
    """All specs legal at the current point, with canonical VA first-use
    (a new VA must take the next free index)."""
    max_va = min(used_vas, config.max_vas - 1)
    vas = range(max_va + 1)
    out: list[Spec] = []
    for va in vas:
        out.append(Spec("R", va))
        out.append(Spec("W", va))
        if config.enable_rmw:
            out.append(Spec("RMW", va))
        if config.enable_spurious_invlpg:
            out.append(Spec("INV", va))
        if config.enable_pte_writes:
            out.append(Spec("WPTE", va, alias=None))  # fresh PA target
            for target in range(used_vas):
                if target != va:
                    out.append(Spec("WPTE", va, alias=target))
    if config.enable_fences:
        out.append(Spec("F"))
    if config.enable_tlb_flush:
        out.append(Spec("FLUSH"))
    return out


def _min_extra_walks(threads: list[list[Spec]]) -> int:
    """Lower bound on walks: forced TLB misses assuming remap INVLPGs are
    placed as late as possible (they can only add misses)."""
    total = 0
    for thread in threads:
        live: set[int] = set()
        for spec in thread:
            if spec.op == "INV":
                live.discard(spec.va)
            elif spec.op == "FLUSH":
                live.clear()
            elif spec.op == "WPTE":
                # The same-core INVLPG inserted right after evicts va.
                live.discard(spec.va)
            elif spec.is_user_access():
                if spec.va not in live:
                    total += 1
                    live.add(spec.va)
    return total


def _spurious_invlpgs_effective(thread: list[Spec]) -> bool:
    """Placement rule: every spurious INVLPG needs a same-thread user access
    to its VA both before and after it."""
    for index, spec in enumerate(thread):
        if spec.op == "FLUSH":
            # A whole-TLB flush affects the execution only with a cached
            # entry before it and an access after it.
            if not (
                any(s.is_user_access() for s in thread[:index])
                and any(s.is_user_access() for s in thread[index + 1 :])
            ):
                return False
            continue
        if spec.op != "INV":
            continue
        before = any(
            s.is_user_access() and s.va == spec.va for s in thread[:index]
        )
        after = any(
            s.is_user_access() and s.va == spec.va for s in thread[index + 1 :]
        )
        if not (before and after):
            return False
    return True


def _has_write(threads: list[list[Spec]]) -> bool:
    return any(
        spec.op in ("W", "RMW", "WPTE") for thread in threads for spec in thread
    )


def enumerate_skeletons(
    config: SynthesisConfig, num_threads: int
) -> Iterator[Skeleton]:
    """Yield base skeletons (per-thread spec sequences) within budget."""
    threads: list[list[Spec]] = [[] for _ in range(num_threads)]
    # The legal specs, their costs and the VA count after each depend
    # only on how many VAs are in use: each list is built once, on first
    # use, into ``candidates``.
    yield from _extend_skeleton(config, threads, {}, 0, 0, 0)


def _extend_skeleton(
    config: SynthesisConfig,
    threads: list[list[Spec]],
    candidates: dict[int, list[tuple[Spec, int, int]]],
    thread_index: int,
    used_vas: int,
    base_cost: int,
) -> Iterator[Skeleton]:
    """Every completion of the partial skeleton ``threads``, in
    generation order.  A module-level generator, not a closure inside
    :func:`enumerate_skeletons`: a nested function that calls itself
    would sit in a reference cycle holding the specs and the config."""
    walks = 0 if config.mcm_mode else _min_extra_walks(threads)
    if base_cost + walks > config.bound:
        return
    num_threads = len(threads)
    current = threads[thread_index]
    complete_here = bool(current) and _spurious_invlpgs_effective(current)
    if complete_here:
        if thread_index + 1 == num_threads:
            if _has_write(threads):
                yield tuple(tuple(t) for t in threads)
        else:
            yield from _extend_skeleton(
                config, threads, candidates, thread_index + 1, used_vas, base_cost
            )
    found = candidates.get(used_vas)
    if found is None:
        found = candidates[used_vas] = [
            (
                spec,
                _spec_cost(spec, config, num_threads),
                max(used_vas, spec.va + 1),
            )
            for spec in _candidate_specs(config, used_vas, num_threads)
        ]
    for spec, cost, new_used in found:
        if base_cost + cost + walks > config.bound:
            continue
        current.append(spec)
        yield from _extend_skeleton(
            config, threads, candidates, thread_index, new_used, base_cost + cost
        )
        current.pop()


def indexed_skeletons(config: SynthesisConfig) -> Iterator[IndexedSkeleton]:
    """Every base skeleton within the bound, across all thread counts,
    with its global skeleton index (the first half of every order key)."""
    index = 0
    for num_threads in range(1, config.max_threads + 1):
        for skeleton in enumerate_skeletons(config, num_threads):
            yield index, skeleton
            index += 1


# ----------------------------------------------------------------------
# Stage 2 + 3: remap fan-out insertion and TLB (ghost) choices
# ----------------------------------------------------------------------
@dataclass
class _Item:
    """One materialized slot of a thread before ghost attachment."""

    op: str  # 'R' | 'W' | 'INV' | 'WPTE' | 'F'
    va: Optional[int]
    alias: Optional[int] = None
    remap_ref: Optional[int] = None  # index of the WPTE this INVLPG serves
    rmw_start: bool = False  # R of an RMW pair
    rmw_end: bool = False  # W of an RMW pair


def _materialize_base(threads: Skeleton) -> tuple[list[list[_Item]], int]:
    """Expand RMW pairs and number the PTE writes; returns items + count."""
    out: list[list[_Item]] = []
    wpte_counter = 0
    for thread in threads:
        items: list[_Item] = []
        for spec in thread:
            if spec.op == "RMW":
                items.append(_Item("R", spec.va, rmw_start=True))
                items.append(_Item("W", spec.va, rmw_end=True))
            elif spec.op == "WPTE":
                items.append(
                    _Item("WPTE", spec.va, alias=spec.alias, remap_ref=wpte_counter)
                )
                # Same-core INVLPG immediately follows (paper figures).
                items.append(_Item("INV", spec.va, remap_ref=wpte_counter))
                wpte_counter += 1
            else:
                items.append(
                    _Item(
                        spec.op,
                        spec.va if spec.op not in ("F", "FLUSH") else None,
                    )
                )
        out.append(items)
    return out, wpte_counter


def _insert_remote_invlpgs(
    base: list[list[_Item]],
) -> Iterator[list[list[_Item]]]:
    """For every PTE write, place its IPI INVLPG at each possible slot of
    every *other* thread (positions matter for the invlpg axiom)."""
    remaps: list[tuple[int, int, int]] = []  # (remap_ref, va, home_thread)
    for core, items in enumerate(base):
        for item in items:
            if item.op == "WPTE":
                assert item.remap_ref is not None and item.va is not None
                remaps.append((item.remap_ref, item.va, core))
    targets: list[tuple[int, int, int]] = []  # (remap_ref, va, remote_core)
    for ref, va, home in remaps:
        for core in range(len(base)):
            if core != home:
                targets.append((ref, va, core))
    if not targets:
        yield [list(items) for items in base]
        return

    def valid_slots(core: int) -> list[int]:
        # An IPI may not land between the Read and Write of an atomic RMW.
        return [
            s
            for s in range(len(base[core]) + 1)
            if not (s > 0 and base[core][s - 1].rmw_start)
        ]

    slot_ranges = [valid_slots(core) for (_r, _v, core) in targets]
    for slots in product(*slot_ranges):
        result = [list(items) for items in base]
        # Insert later slots first so earlier indices stay valid; for equal
        # slots, keep remap_ref order deterministic.
        order = sorted(
            range(len(targets)), key=lambda i: (targets[i][2], -slots[i], targets[i][0])
        )
        for i in order:
            ref, va, core = targets[i]
            result[core].insert(slots[i], _Item("INV", va, remap_ref=ref))
        yield result


def _tlb_choice_vectors(
    threads: list[list[_Item]], budget: int, mcm_mode: bool = False
) -> Iterator[list[list[bool]]]:
    """Per-thread, per-user-access miss flags.  Forced misses are fixed;
    optional ones (capacity evictions) enumerate within the walk budget."""
    if mcm_mode:
        yield [[False] * len(items) for items in threads]
        return
    forced: list[list[Optional[bool]]] = []
    optional_positions: list[tuple[int, int]] = []
    base_walks = 0
    for core, items in enumerate(threads):
        flags: list[Optional[bool]] = []
        live: set[int] = set()
        for index, item in enumerate(items):
            if item.op == "INV":
                assert item.va is not None
                live.discard(item.va)
                flags.append(None)
            elif item.op == "FLUSH":
                live.clear()
                flags.append(None)
            elif item.op in ("R", "W"):
                assert item.va is not None
                if item.rmw_end:
                    flags.append(False)  # RMW write shares the read's entry
                elif item.va not in live:
                    flags.append(True)
                    base_walks += 1
                    live.add(item.va)
                else:
                    flags.append(None)  # optional capacity miss
                    optional_positions.append((core, index))
                    live.add(item.va)
            else:
                flags.append(None)
        forced.append(flags)
    if base_walks > budget:
        return
    spare = budget - base_walks
    for choice in product([False, True], repeat=len(optional_positions)):
        if sum(choice) > spare:
            continue
        result = [
            [bool(f) if f is not None else False for f in flags]
            for flags in forced
        ]
        for (core, index), miss in zip(optional_positions, choice):
            if miss:
                result[core][index] = True
        yield result


def _assemble(
    threads: list[list[_Item]],
    miss_flags: list[list[bool]],
    config: SynthesisConfig,
) -> Program:
    """Build a Program from materialized items + TLB miss choices."""
    events: dict[str, Event] = {}
    thread_eids: list[list[str]] = []
    ghosts: dict[str, tuple[str, ...]] = {}
    remap: list[tuple[str, str]] = []
    rmw: list[tuple[str, str]] = []
    wpte_eid: dict[int, str] = {}
    pending_invlpgs: list[tuple[int, str]] = []  # (remap_ref, invlpg eid)
    counter = 0

    def fresh(prefix: str = "e") -> str:
        nonlocal counter
        eid = f"{prefix}{counter}"
        counter += 1
        return eid

    def va_name(index: int) -> str:
        return f"v{index}"

    initial_map = {
        va_name(i): f"pa{i}" for i in range(config.max_vas)
    }
    fresh_pa_counter = 0

    for core, items in enumerate(threads):
        eids: list[str] = []
        pending_rmw_read: Optional[str] = None
        for index, item in enumerate(items):
            if item.op == "F":
                eid = fresh()
                events[eid] = Event(eid, EventKind.FENCE, core)
                eids.append(eid)
                continue
            if item.op == "FLUSH":
                eid = fresh()
                events[eid] = Event(eid, EventKind.TLB_FLUSH, core)
                eids.append(eid)
                continue
            assert item.va is not None
            va = va_name(item.va)
            if item.op == "INV":
                eid = fresh()
                events[eid] = Event(eid, EventKind.INVLPG, core, va)
                eids.append(eid)
                if item.remap_ref is not None:
                    pending_invlpgs.append((item.remap_ref, eid))
                continue
            if item.op == "WPTE":
                if item.alias is not None:
                    target = f"pa{item.alias}"
                else:
                    target = f"paf{fresh_pa_counter}"
                    fresh_pa_counter += 1
                eid = fresh()
                events[eid] = Event(eid, EventKind.PTE_WRITE, core, va, pa=target)
                eids.append(eid)
                assert item.remap_ref is not None
                wpte_eid[item.remap_ref] = eid
                continue
            # User access (R or W).
            kind = EventKind.READ if item.op == "R" else EventKind.WRITE
            eid = fresh()
            events[eid] = Event(eid, kind, core, va)
            eids.append(eid)
            ghost_list: list[str] = []
            if kind is EventKind.WRITE and not config.mcm_mode:
                dirty = fresh()
                events[dirty] = Event(dirty, EventKind.DIRTY_BIT_WRITE, core, va)
                ghost_list.append(dirty)
            if miss_flags[core][index] and not config.mcm_mode:
                walk = fresh()
                events[walk] = Event(walk, EventKind.PT_WALK, core, va)
                ghost_list.append(walk)
            if ghost_list:
                ghosts[eid] = tuple(ghost_list)
            if item.rmw_start:
                pending_rmw_read = eid
            if item.rmw_end:
                assert pending_rmw_read is not None
                rmw.append((pending_rmw_read, eid))
                pending_rmw_read = None
        thread_eids.append(eids)

    for ref, inv_eid in pending_invlpgs:
        remap.append((wpte_eid[ref], inv_eid))

    # Only keep mappings for VAs the program actually uses.
    used_vas = {
        e.va for e in events.values() if e.va is not None
    }
    return Program(
        events=events,
        threads=tuple(tuple(t) for t in thread_eids),
        ghosts=ghosts,
        remap=frozenset(remap),
        rmw=frozenset(rmw),
        initial_map={va: pa for va, pa in initial_map.items() if va in used_vas},
        mcm_mode=config.mcm_mode,
    )


def program_cost(program: Program, config: SynthesisConfig) -> int:
    """Bound consumption of a program (== event count, except under the
    dirty-bit-as-RMW ablation where each Write charges one extra)."""
    cost = len(program.events)
    if config.dirty_bit_as_rmw and not config.mcm_mode:
        cost += len(program.events_of_kind(EventKind.WRITE))
    return cost


def expand_skeletons(
    config: SynthesisConfig, skeletons: Iterable[IndexedSkeleton]
) -> Iterator[tuple[tuple[int, int], Program]]:
    """Stages 2 and 3 over indexed base skeletons: every well-formed
    program each one expands to, tagged with its order key
    ``(skeleton_index, fanout_index)``.

    ``fanout_index`` counts a skeleton's (remap placement × TLB vector)
    expansions before any filtering, so a program's order key depends
    only on its skeleton, never on which other skeletons are expanded
    with it: the invariant :mod:`repro.orchestrate` relies on to expand
    disjoint skeleton slices in separate shards and merge the results
    back into serial enumeration order.
    """
    for skeleton_index, skeleton in skeletons:
        num_threads = len(skeleton)
        base, _count = _materialize_base(skeleton)
        base_cost = sum(
            _spec_cost(s, config, num_threads)
            for thread in skeleton
            for s in thread
        )
        walk_budget = config.bound - base_cost
        if walk_budget < 0:
            continue
        fanout_index = -1
        for placed in _insert_remote_invlpgs(base):
            for flags in _tlb_choice_vectors(
                placed, walk_budget, config.mcm_mode
            ):
                fanout_index += 1
                program = _assemble(placed, flags, config)
                if program_cost(program, config) > config.bound:
                    continue
                if config.canonical_pruning:
                    if config.symmetry:
                        # One serialization pass serves both the
                        # arrangement check here and the engine's
                        # orbit machinery (kept in the program's memo
                        # until the engine releases it).
                        if not program_symmetry(program).arrangement_canonical:
                            continue
                    elif not is_canonical_thread_order(program):
                        continue
                yield (skeleton_index, fanout_index), program


def enumerate_programs_with_order(
    config: SynthesisConfig,
) -> Iterator[tuple[tuple[int, int], Program]]:
    """All well-formed programs within the bound, each tagged with its
    position ``(skeleton_index, fanout_index)`` in the global
    enumeration: the expansion of every indexed base skeleton."""
    return expand_skeletons(config, indexed_skeletons(config))


def enumerate_programs(config: SynthesisConfig) -> Iterator[Program]:
    """All well-formed programs within the bound, one per thread-symmetry
    class (when canonical pruning is on)."""
    for _order, program in enumerate_programs_with_order(config):
        yield program
