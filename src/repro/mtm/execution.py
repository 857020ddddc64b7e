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

Everything that depends only on the program and the walk -> source
assignment (each PT walk's PTE rf source) — mappings, PAs, locations,
``sloc``, ``po_loc``, ``rf_ptw``, ``ptw_source``, ``rf_pa`` — is derived
once per assignment in a :class:`WalkSourceContext` and shared by every
witness that has it; only rf, co, co_pa and what they decide are
derived per witness, and every per-witness check still runs per
witness.  The contexts live in the program's
:class:`~repro.mtm.program.ProgramMemo`.

Structural violations raise :class:`WellFormednessError`; whether the
execution is *forbidden* is a question for a memory model's predicate
(:mod:`repro.models`, whose compiled plan reads each execution's
relations once), never for this module.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from ..errors import WellFormednessError
from ..relational import Instance, TupleSet
from . import names
from .events import Event, EventKind
from .program import Program, program_memo

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


class WalkSourceContext:
    """Everything a candidate execution derives from its program and its
    walk -> source assignment alone: walk mappings and origins, PAs,
    locations, writers per location, ``sloc``, ``po_loc``, ``rf_ptw``,
    ``ptw_source``, ``rf_pa`` and the per-read indexes of ``fr``,
    ``fr_va`` and ``fr_pa``.

    One context serves every witness of the program with that assignment
    (:func:`walk_source_context`); its dicts are shared by those
    executions and never mutated.  ``error`` is the assignment's
    well-formedness violation (circular value flow, a dirty-bit write
    with an untranslated parent), or None.
    """

    __slots__ = (
        "error",
        "walk_source",
        "mapping_of_walk",
        "origin_of_walk",
        "pa_of",
        "locations",
        "writers",
        "remaps_by_target",
        "read_writers",
        "fr_va_rows",
        "fr_pa_rows",
        "relations",
    )

    def __init__(
        self,
        program: Program,
        walk_source: dict[str, str],
        rf_ptw: frozenset[Pair],
    ) -> None:
        self.walk_source = walk_source
        try:
            mapping, origin = resolve_pte_values(program, walk_source, rf_ptw)
        except WellFormednessError as exc:
            self.error = str(exc)
            return
        self.error = None
        self.mapping_of_walk = mapping
        self.origin_of_walk = origin
        events = program.events

        # Effective PA of each user-facing memory event.
        pa_of: dict[str, str] = {}
        if program.mcm_mode:
            for eid, event in events.items():
                if event.is_user and event.is_memory_event:
                    assert event.va is not None
                    pa_of[eid] = program.initial_pa(event.va)
        else:
            for walk, user in rf_ptw:
                pa_of[user] = mapping[walk][1]
        self.pa_of = pa_of
        locations = {
            eid: location_of(event, pa_of) for eid, event in events.items()
        }
        self.locations = locations
        writers: dict[Location, list[str]] = {}
        by_location: dict[Location, list[str]] = {}
        for eid, event in events.items():
            loc = locations[eid]
            if loc is not None:
                by_location.setdefault(loc, []).append(eid)
            if event.is_write_like:
                assert loc is not None
                writers.setdefault(loc, []).append(eid)
        self.writers = writers
        pte_writes_by_va: dict[str, list[str]] = {}
        remaps_by_target: dict[str, list[str]] = {}
        for eid, event in events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.va is not None and event.pa is not None
                pte_writes_by_va.setdefault(event.va, []).append(eid)
                remaps_by_target.setdefault(event.pa, []).append(eid)
        self.remaps_by_target = remaps_by_target

        # fr: each read-like event against the other writers of its
        # location; fr_va / fr_pa: each user against the remaps of its VA
        # / PA.  A witness keeps the pairs its co / co_pa admits.
        self.read_writers = [
            (eid, tuple(w for w in writers.get(locations[eid], ()) if w != eid))
            for eid, event in events.items()
            if event.is_read_like
        ]
        self.fr_va_rows = []
        self.fr_pa_rows = []
        ptw_source: set[Pair] = set()
        rf_pa: set[Pair] = set()
        for walk, user in rf_ptw:
            va = events[user].va
            assert va is not None
            remaps = pte_writes_by_va.get(va)
            if remaps:
                self.fr_va_rows.append((user, walk_source.get(walk), remaps))
            walk_origin = origin[walk]
            aliases = remaps_by_target.get(pa_of[user])
            if aliases:
                self.fr_pa_rows.append((user, walk_origin, aliases))
            if walk_origin is not None:
                rf_pa.add((walk_origin, user))
            # ptw_source: walk invoker -> every other user of the same TLB
            # entry (§V-A2).
            invoker = program.walk_invoker(walk)
            if user != invoker:
                ptw_source.add((invoker, user))

        # sloc by grouping on location beats the quadratic all-pairs scan.
        sloc_pairs: set[Pair] = set()
        for members in by_location.values():
            for a in members:
                for b in members:
                    if a != b:
                        sloc_pairs.add((a, b))
        raw = TupleSet._raw
        sloc = raw(2, frozenset(sloc_pairs))
        # The template of every witness's relations, in Table I order;
        # the witness fills the None slots.
        relations: dict[str, Optional[TupleSet]] = dict(
            program.static_relations()
        )
        relations[names.SLOC] = sloc
        relations[names.PO_LOC] = relations[names.APO] & sloc
        for name in (names.RF, names.CO, names.FR, names.COM, names.RFE):
            relations[name] = None
        relations[names.RF_PTW] = raw(2, rf_ptw)
        relations[names.PTW_SOURCE] = raw(2, frozenset(ptw_source))
        relations[names.RF_PA] = raw(2, frozenset(rf_pa))
        for name in (names.CO_PA, names.FR_PA, names.FR_VA):
            relations[name] = None
        self.relations = relations


def walk_source_context(
    program: Program, walk_source: dict[str, str], rf_ptw: frozenset[Pair]
) -> WalkSourceContext:
    """The program's :class:`WalkSourceContext` for one walk -> source
    assignment, derived on first use and memoized in its
    :func:`~repro.mtm.program.program_memo`.  Raises the assignment's
    :class:`WellFormednessError` for every witness that has it."""
    contexts = program_memo(program).contexts
    key = frozenset(walk_source.items())
    context = contexts.get(key)
    if context is None:
        context = contexts[key] = WalkSourceContext(program, walk_source, rf_ptw)
    if context.error is not None:
        raise WellFormednessError(context.error)
    return context


class Execution:
    """An immutable candidate execution with all Table I relations derived.

    Raises :class:`WellFormednessError` if the witness violates a placement
    rule (bad rf typing, non-total co, unreachable TLB entries, circular
    PTE value flow, ...).
    """

    #: Restricted views only: their relaxation ``(removed, dropped_rmw)``.
    _relaxation: Optional[tuple] = None

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

        self.rf_ptw = derive_rf_ptw(program)
        context = walk_source_context(program, self._split_pte_rf(), self.rf_ptw)
        self._walk_source = context.walk_source
        self.mapping_of_walk = context.mapping_of_walk
        self.origin_of_walk = context.origin_of_walk
        self.pa_of = context.pa_of
        self.locations = context.locations
        self._writers_cache = context.writers
        self.co = self._close_and_validate_co()
        self.co_pa = self._close_and_validate_co_pa(context.remaps_by_target)
        self._validate_rf()
        self.relations = self._build_relations(context)

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

    # -- coherence orders -------------------------------------------------
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
        closed = TupleSet._raw(2, self._co_input).plus()
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

    def _close_and_validate_co_pa(
        self, by_target: Mapping[str, list[str]]
    ) -> frozenset[Pair]:
        program = self.program
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
        closed = TupleSet._raw(2, self._co_pa_input).plus()
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
    def _build_relations(self, context: WalkSourceContext) -> dict[str, TupleSet]:
        """The context's relations plus the witness's own: rf, co, fr,
        com, rfe, co_pa and the fr_pa / fr_va pairs its orders admit."""
        events = self.program.events
        co = self.co
        co_pa = self.co_pa
        rf_source = {dst: src for src, dst in self._rf}

        # fr: a read precedes the co-successors of the write it read from;
        # reads of the initial value precede every same-location write
        # (at data locations and, for walks, at PTE locations).
        fr: set[Pair] = set()
        for reader, writers in context.read_writers:
            source = rf_source.get(reader)
            for writer in writers:
                if source is None or (source, writer) in co:
                    fr.add((reader, writer))
        # fr_va: user-facing event -> PTE writes that remap its VA after
        # the PTE value it read (initial-mapping readers precede every
        # remap of their VA).
        fr_va: set[Pair] = set()
        for user, source, remaps in context.fr_va_rows:
            for pte in remaps:
                if source is None or (source, pte) in co:
                    fr_va.add((user, pte))
        # fr_pa: user-facing event accessing PA p -> co_pa-successors of
        # the remap it read its mapping from (initial readers precede
        # every alias creation for their PA).
        fr_pa: set[Pair] = set()
        for user, origin, aliases in context.fr_pa_rows:
            for pte in aliases:
                if origin is None or (origin, pte) in co_pa:
                    fr_pa.add((user, pte))

        raw = TupleSet._raw
        rf_relation = raw(2, self._rf)
        co_relation = raw(2, co)
        fr_relation = raw(2, frozenset(fr))
        relations = dict(context.relations)
        relations[names.RF] = rf_relation
        relations[names.CO] = co_relation
        relations[names.FR] = fr_relation
        relations[names.COM] = rf_relation + co_relation + fr_relation
        relations[names.RFE] = raw(
            2,
            frozenset(
                (a, b) for a, b in self._rf if events[a].core != events[b].core
            ),
        )
        relations[names.CO_PA] = raw(2, co_pa)
        relations[names.FR_PA] = raw(2, frozenset(fr_pa))
        relations[names.FR_VA] = raw(2, frozenset(fr_va))
        return relations

    # ------------------------------------------------------------------
    # Views and export
    # ------------------------------------------------------------------
    def relation(self, name: str) -> TupleSet:
        try:
            return self.relations[name]
        except KeyError as exc:
            raise WellFormednessError(f"unknown relation {name!r}") from exc

    def static_memo(self) -> dict:
        """The memo of compiled subterms over program relations
        (:mod:`repro.models.plan`): one per program, shared by all its
        executions; for a restricted view, one per relaxation, shared by
        every view of it."""
        memo = program_memo(self.program)
        relaxation = self._relaxation
        if relaxation is None:
            return memo.static
        view = memo.views.get(relaxation)
        if view is None:
            view = memo.views[relaxation] = {}
        return view

    def restricted(
        self, removed: frozenset[str], dropped_rmw: Optional[Pair] = None
    ) -> "Execution":
        """A view of this execution's relations without the ``removed``
        events (every tuple mentioning one is dropped) and without the
        ``dropped_rmw`` pair.

        The view is for predicate evaluation (:meth:`MemoryModel.permits
        <repro.models.MemoryModel.permits>`): it carries its program,
        ``relations`` and its relaxation only — no witness is rebuilt,
        and its program relations and static memo are the relaxation's
        (:meth:`static_memo`).  The restriction
        lemma in :mod:`repro.synth.relax` says when these are the
        relations of the execution a relaxation rebuilds.  Program
        relations restrict the same way for every execution of the
        program, so they are restricted once per relaxation.
        """
        program = self.program
        relaxation = (removed, dropped_rmw)
        restrictions = program_memo(program).restrictions
        restriction = restrictions.get(relaxation)
        if restriction is None:
            restriction = restrictions[relaxation] = self._restriction(
                removed, dropped_rmw
            )
        program_relations, dropped = restriction
        relations = dict(self.relations)
        relations.update(program_relations)
        if dropped:
            raw = TupleSet._raw
            for name in names.WITNESS_RELATIONS:
                tuples = relations[name].tuples
                if not tuples.isdisjoint(dropped):
                    relations[name] = raw(2, tuples - dropped)
        view = object.__new__(Execution)
        view.program = program
        view.relations = relations
        view._relaxation = relaxation
        return view

    def _restriction(
        self, removed: frozenset[str], dropped_rmw: Optional[Pair]
    ) -> tuple[dict[str, TupleSet], frozenset[Pair]]:
        """The restricted program relations of one relaxation, and every
        pair that mentions a removed event, so filtering the witness
        relations (all binary) is set algebra."""
        raw = TupleSet._raw
        outgoing = {(a, b) for a in removed for b in self.program.events}
        dropped = {
            1: frozenset((a,) for a in removed),
            2: frozenset(outgoing | {(b, a) for a, b in outgoing}),
        }
        program_relations: dict[str, TupleSet] = {}
        for name, relation in self.relations.items():
            if name not in names.PROGRAM_RELATIONS:
                continue
            tuples, arity = relation.tuples, relation.arity
            if not tuples.isdisjoint(dropped[arity]):
                relation = raw(arity, tuples - dropped[arity])
            if name == names.RMW and dropped_rmw is not None:
                relation = raw(2, relation.tuples - {dropped_rmw})
            program_relations[name] = relation
        return program_relations, dropped[2]

    def to_instance(self) -> Instance:
        """Export as a relational :class:`Instance` (atoms = event ids) for
        the evaluator / SAT backend."""
        return Instance(self.program.eids, self.relations)

    def __repr__(self) -> str:
        return (
            f"Execution(events={len(self.program.events)}, "
            f"rf={sorted(self._rf)}, co={sorted(self.co)})"
        )
