"""Candidate ELT executions: a program plus a communication witness.

A candidate execution (paper §II-A, §III) is a program together with the
dynamic choices that distinguish one run from another:

* ``rf``    — reads-from edges, both at data locations (Write -> Read) and
  at PTE locations (PTE_WRITE/DIRTY_BIT_WRITE -> PT_WALK);
* ``co``    — per-location coherence order over write-like events;
* ``co_pa`` — the alias-creation order: per *target PA*, a total order on
  the PTE_WRITEs mapping some VA at that PA (§III-B1).

Everything else of Table I is **derived** here:

* ``rf_ptw`` falls out of the ghost structure and program positions — a
  user-facing access reads the most recent same-core walk of its VA, and it
  is ill-formed if an INVLPG intervened (the access would have re-walked);
* walk *values* (which mapping a walk loads) flow along PTE ``rf`` edges,
  through dirty-bit writes (which carry their parent's full PTE value —
  DESIGN.md decision 4), bottoming out at the initial mapping;
* effective PAs of user-facing accesses follow from their walk's mapping,
  which then fixes data locations, making ``com`` same-PA by construction;
* ``fr``, ``rf_pa``, ``fr_pa``, ``fr_va``, ``ptw_source``, ``po_loc`` ...
  are computed per their Table I definitions.

Structural violations raise :class:`WellFormednessError`; whether the
execution is *forbidden* is a question for a memory model's predicate
(:mod:`repro.models`), never for this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..errors import WellFormednessError
from ..relational import Instance, TupleSet
from . import names
from .events import Event, EventKind
from .program import Program

Pair = tuple[str, str]

#: A location is ('data', pa) or ('pte', va).
Location = tuple[str, str]


def derive_rf_ptw(program: Program) -> frozenset[Pair]:
    """walk -> user-facing events sourced by the TLB entry it loaded.

    Fully determined by the program's ghost structure and positions: each
    access uses the most recent same-core walk of its VA, invalidated by
    intervening INVLPGs and replaced by newer walks (one TLB entry per VA
    per core).  Raises if an access has no live entry and no walk of its
    own — such a program is ill-formed (§III-A1).

    Cached on the program (one Execution is built per witness per
    relaxation; the relation never changes).
    """
    cached = getattr(program, "_rf_ptw_cache", None)
    if cached is not None:
        return cached
    result = _derive_rf_ptw_uncached(program)
    object.__setattr__(program, "_rf_ptw_cache", result)
    return result


def _derive_rf_ptw_uncached(program: Program) -> frozenset[Pair]:
    if program.mcm_mode:
        return frozenset()
    pairs: set[Pair] = set()
    for core, thread in enumerate(program.threads):
        tlb: dict[str, str] = {}
        for eid in thread:
            event = program.events[eid]
            if event.kind is EventKind.INVLPG:
                assert event.va is not None
                tlb.pop(event.va, None)
                continue
            if event.kind is EventKind.TLB_FLUSH:
                tlb.clear()
                continue
            if not (event.is_user and event.is_memory_event):
                continue
            assert event.va is not None
            own_walks = [
                g
                for g in program.ghosts.get(eid, ())
                if program.events[g].kind is EventKind.PT_WALK
            ]
            if own_walks:
                tlb[event.va] = own_walks[0]
            walk = tlb.get(event.va)
            if walk is None:
                raise WellFormednessError(
                    f"{eid}: no TLB entry for VA {event.va} on core {core} "
                    "and no PT walk invoked — every access needs a "
                    "translation (§III-A1)"
                )
            pairs.add((walk, eid))
    return frozenset(pairs)


def location_of(event: Event, pa_of: Mapping[str, str]) -> Optional[Location]:
    """The shared-memory location an event accesses (None for INVLPG/FENCE)."""
    if event.accesses_pte:
        assert event.va is not None
        return ("pte", event.va)
    if event.kind in (EventKind.READ, EventKind.WRITE):
        return ("data", pa_of[event.eid])
    return None


def resolve_pte_values(
    program: Program,
    walk_source: Mapping[str, str],
    rf_ptw: frozenset[Pair],
) -> tuple[dict[str, tuple[str, str]], dict[str, Optional[str]]]:
    """Resolve the (va, pa) mapping each walk loads and the PTE_WRITE each
    mapping (transitively) originates from.

    ``walk_source`` maps a walk to its PTE-location rf source (PTE_WRITE or
    DIRTY_BIT_WRITE); walks absent from it read the initial mapping.
    Raises on circular value flow (a walk transitively feeding itself
    through dirty-bit forwarding).
    """
    user_walk = {user: walk for walk, user in rf_ptw}
    mapping: dict[str, tuple[str, str]] = {}
    origin: dict[str, Optional[str]] = {}
    in_progress: set[str] = set()

    def resolve(walk_eid: str) -> tuple[tuple[str, str], Optional[str]]:
        if walk_eid in mapping:
            return mapping[walk_eid], origin[walk_eid]
        if walk_eid in in_progress:
            raise WellFormednessError(
                f"{walk_eid}: circular PTE value flow (a walk transitively "
                "reads a dirty-bit write that depends on it)"
            )
        in_progress.add(walk_eid)
        walk = program.events[walk_eid]
        assert walk.va is not None
        source_eid = walk_source.get(walk_eid)
        if source_eid is None:
            value = (walk.va, program.initial_pa(walk.va))
            source_origin: Optional[str] = None
        else:
            source = program.events[source_eid]
            if source.kind is EventKind.PTE_WRITE:
                assert source.va is not None and source.pa is not None
                value = (source.va, source.pa)
                source_origin = source_eid
            else:  # DIRTY_BIT_WRITE: forwards its parent's mapping
                parent = program.parent_of(source_eid)
                parent_walk = user_walk.get(parent)
                if parent_walk is None:
                    raise WellFormednessError(
                        f"{source_eid}: dirty-bit write with untranslated parent"
                    )
                value, source_origin = resolve(parent_walk)
        in_progress.discard(walk_eid)
        mapping[walk_eid] = value
        origin[walk_eid] = source_origin
        return value, source_origin

    for eid, event in program.events.items():
        if event.kind is EventKind.PT_WALK:
            resolve(eid)
    return mapping, origin


class Execution:
    """An immutable candidate execution with all Table I relations derived.

    Raises :class:`WellFormednessError` if the witness violates a placement
    rule (bad rf typing, non-total co, unreachable TLB entries, circular
    PTE value flow, ...).
    """

    def __init__(
        self,
        program: Program,
        rf: Iterable[Pair] = (),
        co: Iterable[Pair] = (),
        co_pa: Iterable[Pair] = (),
    ) -> None:
        self.program = program
        self._rf = frozenset((a, b) for a, b in rf)
        self._co_input = frozenset((a, b) for a, b in co)
        self._co_pa_input = frozenset((a, b) for a, b in co_pa)
        self._derive()

    # ------------------------------------------------------------------
    # Derivation pipeline
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        program = self.program
        events = program.events

        for a, b in self._rf | self._co_input | self._co_pa_input:
            if a not in events or b not in events:
                raise WellFormednessError(f"witness edge ({a},{b}) names unknown events")

        self.rf_ptw = self._derive_rf_ptw()
        self._walk_source = self._split_pte_rf()
        self.mapping_of_walk, self.origin_of_walk = self._resolve_walk_values()
        self.pa_of = self._derive_pas()
        self.locations = {
            eid: location_of(event, self.pa_of) for eid, event in events.items()
        }
        self._writers_cache = self._writers_by_location()
        self.co = self._close_and_validate_co()
        self.co_pa = self._close_and_validate_co_pa()
        self._validate_rf()
        self.relations = self._build_relations()

    # -- rf_ptw ---------------------------------------------------------
    def _derive_rf_ptw(self) -> frozenset[Pair]:
        return derive_rf_ptw(self.program)

    def _walk_of_user(self, eid: str) -> str:
        for walk, user in self.rf_ptw:
            if user == eid:
                return walk
        raise WellFormednessError(f"{eid}: no sourcing PT walk")

    # -- PTE value flow --------------------------------------------------
    def _split_pte_rf(self) -> dict[str, str]:
        """Map each PT walk to its rf source (a PTE-location writer)."""
        program = self.program
        sources: dict[str, str] = {}
        for src, dst in self._rf:
            dst_event = program.events[dst]
            if dst_event.kind is not EventKind.PT_WALK:
                continue
            src_event = program.events[src]
            if src_event.kind not in (
                EventKind.PTE_WRITE,
                EventKind.DIRTY_BIT_WRITE,
            ):
                raise WellFormednessError(
                    f"rf ({src},{dst}): a PT walk reads a PTE location; its "
                    "source must be a PTE write or dirty-bit write"
                )
            if src_event.va != dst_event.va:
                raise WellFormednessError(
                    f"rf ({src},{dst}): different PTE locations "
                    f"({src_event.va} vs {dst_event.va})"
                )
            if dst in sources:
                raise WellFormednessError(f"{dst}: walk with two rf sources")
            sources[dst] = src
        return sources

    def _resolve_walk_values(
        self,
    ) -> tuple[dict[str, tuple[str, str]], dict[str, Optional[str]]]:
        """For each walk: the (va, pa) mapping it loads and the PTE_WRITE it
        (transitively) originates from (None = initial mapping)."""
        return resolve_pte_values(self.program, self._walk_source, self.rf_ptw)

    def _derive_pas(self) -> dict[str, str]:
        """Effective PA accessed by each user-facing memory event."""
        pas: dict[str, str] = {}
        if self.program.mcm_mode:
            for eid, event in self.program.events.items():
                if event.is_user and event.is_memory_event:
                    assert event.va is not None
                    pas[eid] = self.program.initial_pa(event.va)
            return pas
        for walk, user in self.rf_ptw:
            pas[user] = self.mapping_of_walk[walk][1]
        return pas

    # -- coherence orders -------------------------------------------------
    def _writers_by_location(self) -> dict[Location, list[str]]:
        out: dict[Location, list[str]] = {}
        for eid, event in self.program.events.items():
            if not event.is_write_like:
                continue
            loc = self.locations[eid]
            assert loc is not None
            out.setdefault(loc, []).append(eid)
        return out

    def _close_and_validate_co(self) -> frozenset[Pair]:
        program = self.program
        for a, b in self._co_input:
            ea, eb = program.events[a], program.events[b]
            if not (ea.is_write_like and eb.is_write_like):
                raise WellFormednessError(f"co ({a},{b}): both ends must be writes")
            if self.locations[a] != self.locations[b]:
                raise WellFormednessError(
                    f"co ({a},{b}): coherence order relates same-location "
                    f"writes, got {self.locations[a]} vs {self.locations[b]}"
                )
        closed = TupleSet.pairs(self._co_input).plus()
        if not closed.is_irreflexive():
            raise WellFormednessError("co contains a cycle")
        for loc, writers in self._writers_cache.items():
            for i, a in enumerate(writers):
                for b in writers[i + 1 :]:
                    if (a, b) not in closed and (b, a) not in closed:
                        raise WellFormednessError(
                            f"co is not total at {loc}: {a} and {b} unordered"
                        )
        return frozenset(closed.tuples)

    def _close_and_validate_co_pa(self) -> frozenset[Pair]:
        program = self.program
        by_target: dict[str, list[str]] = {}
        for eid, event in program.events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.pa is not None
                by_target.setdefault(event.pa, []).append(eid)
        for a, b in self._co_pa_input:
            ea, eb = program.events[a], program.events[b]
            if ea.kind is not EventKind.PTE_WRITE or eb.kind is not EventKind.PTE_WRITE:
                raise WellFormednessError(
                    f"co_pa ({a},{b}): both ends must be PTE writes"
                )
            if ea.pa != eb.pa:
                raise WellFormednessError(
                    f"co_pa ({a},{b}): alias-creation order relates remaps to "
                    f"the same PA, got {ea.pa} vs {eb.pa}"
                )
        closed = TupleSet.pairs(self._co_pa_input).plus()
        if not closed.is_irreflexive():
            raise WellFormednessError("co_pa contains a cycle")
        for pa, writers in by_target.items():
            for i, a in enumerate(writers):
                for b in writers[i + 1 :]:
                    if (a, b) not in closed and (b, a) not in closed:
                        raise WellFormednessError(
                            f"co_pa is not total for PA {pa}: {a}, {b} unordered"
                        )
        # Consistency with co where both apply (same PTE location).
        for a, b in closed:
            if self.locations[a] == self.locations[b] and (b, a) in self.co:
                raise WellFormednessError(
                    f"co_pa ({a},{b}) contradicts co at {self.locations[a]}"
                )
        return frozenset(closed.tuples)

    # -- rf validation -----------------------------------------------------
    def _validate_rf(self) -> None:
        program = self.program
        seen_readers: set[str] = set()
        for src, dst in self._rf:
            src_event = program.events[src]
            dst_event = program.events[dst]
            if dst_event.kind is EventKind.PT_WALK:
                continue  # validated in _split_pte_rf
            if dst_event.kind is not EventKind.READ:
                raise WellFormednessError(
                    f"rf ({src},{dst}): target must be a Read or PT walk"
                )
            if src_event.kind is not EventKind.WRITE:
                raise WellFormednessError(
                    f"rf ({src},{dst}): a data Read reads from a user-facing "
                    "Write"
                )
            if self.locations[src] != self.locations[dst]:
                raise WellFormednessError(
                    f"rf ({src},{dst}): source and target access different "
                    f"locations ({self.locations[src]} vs {self.locations[dst]})"
                )
            if dst in seen_readers:
                raise WellFormednessError(f"{dst}: read with two rf sources")
            seen_readers.add(dst)

    # ------------------------------------------------------------------
    # Relation construction (Table I + derived helpers)
    # ------------------------------------------------------------------
    def _build_relations(self) -> dict[str, TupleSet]:
        program = self.program
        events = program.events

        # Grouping by location beats the quadratic all-pairs scan.
        sloc_pairs: set[Pair] = set()
        by_location: dict[Location, list[str]] = {}
        for eid, loc in self.locations.items():
            if loc is not None:
                by_location.setdefault(loc, []).append(eid)
        for members in by_location.values():
            for a in members:
                for b in members:
                    if a != b:
                        sloc_pairs.add((a, b))

        raw = TupleSet._raw
        rf = raw(2, frozenset(self._rf))
        co = raw(2, frozenset(self.co))
        fr = raw(2, frozenset(self._derive_fr()))
        sloc = raw(2, frozenset(sloc_pairs))

        relations: dict[str, TupleSet] = dict(program.static_relations())
        apo = relations[names.APO]
        relations[names.SLOC] = sloc
        relations[names.PO_LOC] = apo & sloc
        relations[names.RF] = rf
        relations[names.CO] = co
        relations[names.FR] = fr
        relations[names.COM] = rf + co + fr
        relations[names.RFE] = raw(
            2,
            frozenset(
                (a, b)
                for a, b in self._rf
                if events[a].core != events[b].core
            ),
        )
        relations[names.RF_PTW] = raw(2, frozenset(self.rf_ptw))
        relations[names.PTW_SOURCE] = raw(
            2, frozenset(self._derive_ptw_source())
        )
        relations[names.RF_PA] = raw(2, frozenset(self._derive_rf_pa()))
        relations[names.CO_PA] = raw(2, frozenset(self.co_pa))
        relations[names.FR_PA] = raw(2, frozenset(self._derive_fr_pa()))
        relations[names.FR_VA] = raw(2, frozenset(self._derive_fr_va()))
        return relations

    def _derive_fr(self) -> set[Pair]:
        """Read -> co-successors of the write it read from; reads of the
        initial value precede every same-location write (applies at data
        locations and, for walks, at PTE locations)."""
        program = self.program
        writers = self._writers_cache
        rf_source: dict[str, str] = {}
        for src, dst in self._rf:
            rf_source[dst] = src
        out: set[Pair] = set()
        for eid, event in program.events.items():
            if not event.is_read_like:
                continue
            loc = self.locations[eid]
            assert loc is not None
            source = rf_source.get(eid)
            for writer in writers.get(loc, ()):
                if writer == eid:
                    continue
                if source is None:
                    out.add((eid, writer))
                elif (source, writer) in self.co:
                    out.add((eid, writer))
        return out

    def _derive_ptw_source(self) -> set[Pair]:
        """Walk invoker -> every other user of the same TLB entry (§V-A2)."""
        program = self.program
        out: set[Pair] = set()
        for walk, user in self.rf_ptw:
            invoker = program.walk_invoker(walk)
            if user != invoker:
                out.add((invoker, user))
        return out

    def _derive_rf_pa(self) -> set[Pair]:
        """PTE write -> user-facing events that access the mapping it wrote
        (transitively, through dirty-bit forwarding)."""
        out: set[Pair] = set()
        for walk, user in self.rf_ptw:
            origin = self.origin_of_walk[walk]
            if origin is not None:
                out.add((origin, user))
        return out

    def _derive_fr_va(self) -> set[Pair]:
        """User-facing event -> PTE writes that remap its VA after the PTE
        value it read (Table I; initial-mapping readers precede every remap
        of their VA)."""
        program = self.program
        pte_writes_by_va: dict[str, list[str]] = {}
        for eid, event in program.events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.va is not None
                pte_writes_by_va.setdefault(event.va, []).append(eid)
        out: set[Pair] = set()
        for walk, user in self.rf_ptw:
            source = self._walk_source.get(walk)
            va = program.events[user].va
            assert va is not None
            for pte_eid in pte_writes_by_va.get(va, ()):
                if source is None:
                    out.add((user, pte_eid))
                elif (source, pte_eid) in self.co:
                    out.add((user, pte_eid))
        return out

    def _derive_fr_pa(self) -> set[Pair]:
        """User-facing event accessing PA p -> co_pa-successors of the remap
        it read its mapping from (initial readers precede every alias
        creation for their PA)."""
        program = self.program
        pte_writes_by_target: dict[str, list[str]] = {}
        for eid, event in program.events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.pa is not None
                pte_writes_by_target.setdefault(event.pa, []).append(eid)
        out: set[Pair] = set()
        for walk, user in self.rf_ptw:
            origin = self.origin_of_walk[walk]
            pa = self.pa_of[user]
            for pte_eid in pte_writes_by_target.get(pa, ()):
                if origin is None:
                    out.add((user, pte_eid))
                elif (origin, pte_eid) in self.co_pa:
                    out.add((user, pte_eid))
        return out

    # ------------------------------------------------------------------
    # Views and export
    # ------------------------------------------------------------------
    def relation(self, name: str) -> TupleSet:
        try:
            return self.relations[name]
        except KeyError as exc:
            raise WellFormednessError(f"unknown relation {name!r}") from exc

    def restricted(
        self, removed: frozenset[str], dropped_rmw: Optional[Pair] = None
    ) -> "Execution":
        """A view of this execution's relations without the ``removed``
        events (every tuple mentioning one is dropped) and without the
        ``dropped_rmw`` pair.

        The view is for predicate evaluation (:meth:`MemoryModel.permits
        <repro.models.MemoryModel.permits>`): it carries ``relations``
        only — no program and no witness are rebuilt.  The restriction
        lemma in :mod:`repro.synth.relax` says when these are the
        relations of the execution a relaxation rebuilds.
        """
        raw = TupleSet._raw
        relations = dict(self.relations)
        if removed:
            # Every tuple that mentions a removed event, per arity, so the
            # filtering is set algebra.
            outgoing = {(a, b) for a in removed for b in self.program.events}
            dropped = {
                1: {(a,) for a in removed},
                2: outgoing | {(b, a) for a, b in outgoing},
            }
            for name, relation in relations.items():
                tuples, arity = relation.tuples, relation.arity
                if not tuples.isdisjoint(dropped[arity]):
                    relations[name] = raw(arity, tuples - dropped[arity])
        if dropped_rmw is not None:
            rmw = relations[names.RMW]
            relations[names.RMW] = raw(2, rmw.tuples - {dropped_rmw})
        view = object.__new__(Execution)
        view.relations = relations
        return view

    def to_instance(self) -> Instance:
        """Export as a relational :class:`Instance` (atoms = event ids) for
        the evaluator / SAT backend."""
        return Instance(self.program.eids, self.relations)

    def __repr__(self) -> str:
        return (
            f"Execution(events={len(self.program.events)}, "
            f"rf={sorted(self._rf)}, co={sorted(self.co)})"
        )
