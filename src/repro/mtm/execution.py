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
  docs/ARCHITECTURE.md, "Modelling decisions"), bottoming out at the
  initial mapping;
* effective PAs of user-facing accesses follow from their walk's mapping,
  which then fixes data locations, making ``com`` same-PA by construction;
* ``fr``, ``rf_pa``, ``fr_pa``, ``fr_va``, ``ptw_source``, ``po_loc`` ...
  are computed per their Table I definitions.

Everything that depends only on the program and the walk -> source
assignment (each PT walk's PTE rf source) — mappings, PAs, locations,
``sloc``, ``po_loc``, ``rf_ptw``, ``ptw_source``, ``rf_pa`` — is derived
once per assignment in a :class:`WalkSourceContext` and shared by every
witness that has it; only rf, co, co_pa and what they decide are
derived per witness.  The contexts live in the program's
:class:`~repro.mtm.program.ProgramMemo`.

:class:`Execution` has two entries.  The validating one takes any rf,
co and co_pa pair sets — parsed, SAT-decoded or hand-built witnesses —
and checks every pair of every witness.  The structured one is the
explicit enumerator's (:mod:`repro.synth.witnesses`): it passes the
context, one writer sequence per multi-writer location, its rf edges
and its co_pa choice; each distinct order and rf edge is checked
once per context, and each co_pa choice once per program.  Both run the
same checks with the same messages and derive the same execution.

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
    for eid, event in program.events.items():
        if event.kind is not EventKind.PT_WALK:
            continue
        # Follow dirty-bit forwarding back to a walk whose mapping is
        # known, or that loads a PTE write or the initial mapping; every
        # walk on the way loads that mapping.  A loop, not a recursive
        # closure: the closure's own cell would hold it in a reference
        # cycle with the program until the cyclic collector ran.
        chain: list[str] = []
        walk_eid = eid
        while walk_eid not in mapping:
            if walk_eid in chain:
                raise WellFormednessError(
                    f"{walk_eid}: circular PTE value flow (a walk transitively "
                    "reads a dirty-bit write that depends on it)"
                )
            chain.append(walk_eid)
            source_eid = walk_source.get(walk_eid)
            if source_eid is None:
                walk = program.events[walk_eid]
                assert walk.va is not None
                value = (walk.va, program.initial_pa(walk.va))
                source_origin: Optional[str] = None
                break
            source = program.events[source_eid]
            if source.kind is EventKind.PTE_WRITE:
                assert source.va is not None and source.pa is not None
                value = (source.va, source.pa)
                source_origin = source_eid
                break
            # DIRTY_BIT_WRITE: forwards its parent's mapping
            walk_eid = user_walk.get(program.parent_of(source_eid))
            if walk_eid is None:
                raise WellFormednessError(
                    f"{source_eid}: dirty-bit write with untranslated parent"
                )
        else:
            value, source_origin = mapping[walk_eid], origin[walk_eid]
        for walk_eid in reversed(chain):
            mapping[walk_eid] = value
            origin[walk_eid] = source_origin
    return mapping, origin


def scan_order(program: Program) -> list[str]:
    """The program's events in scan order: each thread in program order,
    every event followed by its ghosts.  The explicit witness enumerator
    (:mod:`repro.synth.witnesses`) makes its choices in this order."""
    order: list[str] = []
    for thread in program.threads:
        for eid in thread:
            order.append(eid)
            order.extend(program.ghosts.get(eid, ()))
    return order


class WalkSourceContext:
    """Everything a candidate execution derives from its program and its
    walk -> source assignment alone: walk mappings and origins, PAs,
    locations, writers per location, ``sloc``, ``po_loc``, ``rf_ptw``,
    ``ptw_source``, ``rf_pa`` and the per-read indexes of ``fr``,
    ``fr_va`` and ``fr_pa``.

    One context serves every witness of the program with that assignment
    (:func:`walk_source_context`); the dicts its executions share are
    never mutated.  ``error`` is the assignment's
    well-formedness violation (circular value flow, a dirty-bit write
    with an untranslated parent), or None.

    The enumerator derives a context for every walk -> source
    combination it tries and reads its scan-ordered writers and readers
    (:meth:`scan_views`).  Many combinations yield no witness, so the
    witness template — the ``fr`` rows and the relations every witness
    starts from — is derived when the first witness is built
    (:meth:`template`).

    The structured entry of :class:`Execution` checks each distinct
    input once and memoizes it: ``orders`` maps a location order checked
    in this context to its (location, adjacent pairs, closure), and
    ``rf_edges`` a checked rf edge to whether it crosses cores.  A co_pa
    choice's checks do not depend on the assignment, so
    ``co_pa_choices`` — a checked choice to its closure and the
    closure's pairs at one PTE location — is the program's, as are the
    order closures themselves (:class:`~repro.mtm.program.ProgramMemo`).
    A failing check caches nothing, so the next witness with that input
    raises again.
    """

    __slots__ = (
        "error",
        "walk_source",
        "walk_edges",
        "mapping_of_walk",
        "origin_of_walk",
        "pa_of",
        "locations",
        "writers",
        "multi_writer_locations",
        "remaps_by_target",
        "scan_writers",
        "scan_readers",
        "read_writers",
        "fr_va_rows",
        "fr_pa_rows",
        "relations",
        "orders",
        "order_closures",
        "rf_edges",
        "co_pa_choices",
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
        self.walk_edges = frozenset(
            (src, walk) for walk, src in walk_source.items()
        )
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
        for eid, event in events.items():
            if event.is_write_like:
                writers.setdefault(locations[eid], []).append(eid)
        self.writers = writers
        self.multi_writer_locations = tuple(
            loc for loc, members in writers.items() if len(members) >= 2
        )
        remaps_by_target: dict[str, list[str]] = {}
        for eid, event in events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.pa is not None
                remaps_by_target.setdefault(event.pa, []).append(eid)
        self.remaps_by_target = remaps_by_target

        self.scan_writers = None
        self.relations = None
        self.orders: dict[tuple[str, ...], tuple] = {}
        self.rf_edges: dict[Pair, bool] = {}
        memo = program_memo(program)
        self.order_closures = memo.order_closures
        self.co_pa_choices = memo.co_pa_choices

    def scan_views(self, program: Program) -> tuple[dict, tuple]:
        """The enumerator's view, derived on first use: the writers of
        each location, and each data read with its location and
        candidate sources (same-location Writes), in scan order."""
        if self.scan_writers is None:
            events = program.events
            writers: dict[Location, list[str]] = {}
            reads: list[tuple[str, Location]] = []
            for eid in scan_order(program):
                loc = self.locations[eid]
                if loc is None:
                    continue
                if events[eid].is_write_like:
                    writers.setdefault(loc, []).append(eid)
                elif events[eid].kind is EventKind.READ:
                    reads.append((eid, loc))
            self.scan_writers = {
                loc: tuple(members) for loc, members in writers.items()
            }
            self.scan_readers = tuple(
                (
                    eid,
                    loc,
                    tuple(
                        w
                        for w in writers.get(loc, ())
                        if events[w].kind is EventKind.WRITE
                    ),
                )
                for eid, loc in reads
            )
        return self.scan_writers, self.scan_readers

    def template(
        self, program: Program, rf_ptw: frozenset[Pair]
    ) -> dict[str, Optional[TupleSet]]:
        """The relations every witness of the context starts from, in
        Table I order, with None in the slots the witness fills; derived
        with the ``fr``, ``fr_va`` and ``fr_pa`` rows on first use."""
        if self.relations is None:
            self._derive_template(program, rf_ptw)
        return self.relations

    def _derive_template(self, program: Program, rf_ptw: frozenset[Pair]) -> None:
        events = program.events
        locations = self.locations
        writers = self.writers
        pte_writes_by_va: dict[str, list[str]] = {}
        for eid, event in events.items():
            if event.kind is EventKind.PTE_WRITE:
                assert event.va is not None
                pte_writes_by_va.setdefault(event.va, []).append(eid)

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
                self.fr_va_rows.append((user, self.walk_source.get(walk), remaps))
            walk_origin = self.origin_of_walk[walk]
            aliases = self.remaps_by_target.get(self.pa_of[user])
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
        by_location: dict[Location, list[str]] = {}
        for eid, loc in locations.items():
            if loc is not None:
                by_location.setdefault(loc, []).append(eid)
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

    # -- checked witness inputs (the structured entry of Execution) -------
    def check_order(
        self, events: Mapping[str, Event], order: tuple[str, ...]
    ) -> tuple:
        """Check one location order — a writer sequence — and memoize its
        (location, adjacent pairs, closure).  Every member must be a
        write at the order's location, the closure irreflexive and total
        on the location's writers.  An order of fewer than two writers
        orders nothing; its location is None."""
        pairs = tuple(zip(order, order[1:]))
        _check_known(events, pairs)
        _check_co_pairs(events, self.locations, pairs)
        if not pairs:
            entry: tuple = (None, frozenset(), frozenset())
        else:
            if len(set(order)) != len(order):
                raise WellFormednessError("co contains a cycle")
            closed = self.order_closures.get(order)
            if closed is None:
                closed = self.order_closures[order] = (
                    frozenset(pairs),
                    frozenset(
                        (a, b) for i, a in enumerate(order) for b in order[i + 1 :]
                    ),
                )
            location = self.locations[order[0]]
            # The members are distinct writers of the location, so the
            # closure is total iff it orders all of them.
            if len(order) != len(self.writers[location]):
                _check_co_total({location: self.writers[location]}, closed[1])
            entry = (location, *closed)
        self.orders[order] = entry
        return entry

    def check_rf_edge(self, events: Mapping[str, Event], edge: Pair) -> bool:
        """Check one rf edge and memoize whether it crosses cores: a
        walk reads the context's source for it, which must be a PTE or
        dirty-bit write of its VA; a read reads a same-location Write."""
        src, dst = edge
        _check_known(events, (edge,))
        if events[dst].kind is EventKind.PT_WALK:
            _check_walk_edges(events, (edge,))
            source = self.walk_source.get(dst)
            if source != src:
                raise WellFormednessError(
                    f"rf ({src},{dst}): the walk-source context has {dst} "
                    f"read {source or 'the initial mapping'}"
                )
        else:
            _check_read_edges(events, self.locations, (edge,))
        external = events[src].core != events[dst].core
        self.rf_edges[edge] = external
        return external

    def check_co_pa(
        self, events: Mapping[str, Event], choice: frozenset[Pair]
    ) -> tuple[frozenset[Pair], tuple[Pair, ...]]:
        """Check one co_pa choice (:func:`_check_co_pa`) and memoize its
        closure and the closure's pairs at one PTE location.  PTE
        writes' PAs and locations are static, so the verdict holds in
        every context of the program."""
        _check_known(events, choice)
        entry = _check_co_pa(events, self.locations, self.remaps_by_target, choice)
        self.co_pa_choices[choice] = entry
        return entry


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


def _check_known(events: Mapping[str, Event], pairs: Iterable[Pair]) -> None:
    for a, b in pairs:
        if a not in events or b not in events:
            raise WellFormednessError(f"witness edge ({a},{b}) names unknown events")


def _check_walk_edges(events: Mapping[str, Event], edges: Iterable[Pair]) -> None:
    """A PT walk reads a PTE or dirty-bit write of its own VA."""
    for src, dst in edges:
        src_event, dst_event = events[src], events[dst]
        if src_event.kind not in (EventKind.PTE_WRITE, EventKind.DIRTY_BIT_WRITE):
            raise WellFormednessError(
                f"rf ({src},{dst}): a PT walk reads a PTE location; its "
                "source must be a PTE write or dirty-bit write"
            )
        if src_event.va != dst_event.va:
            raise WellFormednessError(
                f"rf ({src},{dst}): different PTE locations "
                f"({src_event.va} vs {dst_event.va})"
            )


def _check_read_edges(
    events: Mapping[str, Event],
    locations: Mapping[str, Optional[Location]],
    edges: Iterable[Pair],
) -> None:
    """A data Read reads a user-facing Write of its own location."""
    for src, dst in edges:
        if events[dst].kind is not EventKind.READ:
            raise WellFormednessError(
                f"rf ({src},{dst}): target must be a Read or PT walk"
            )
        if events[src].kind is not EventKind.WRITE:
            raise WellFormednessError(
                f"rf ({src},{dst}): a data Read reads from a user-facing Write"
            )
        if locations[src] != locations[dst]:
            raise WellFormednessError(
                f"rf ({src},{dst}): source and target access different "
                f"locations ({locations[src]} vs {locations[dst]})"
            )


def _check_co_pairs(
    events: Mapping[str, Event],
    locations: Mapping[str, Optional[Location]],
    pairs: Iterable[Pair],
) -> None:
    for a, b in pairs:
        if not (events[a].is_write_like and events[b].is_write_like):
            raise WellFormednessError(f"co ({a},{b}): both ends must be writes")
        if locations[a] != locations[b]:
            raise WellFormednessError(
                f"co ({a},{b}): coherence order relates same-location "
                f"writes, got {locations[a]} vs {locations[b]}"
            )


def _first_unordered(
    groups: Mapping[str, list[str]], closed: frozenset[Pair]
) -> Optional[tuple]:
    """The first group, and pair of its members, that ``closed`` leaves
    unordered, or None."""
    for key, members in groups.items():
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if (a, b) not in closed and (b, a) not in closed:
                    return key, a, b
    return None


def _check_co_total(
    writers: Mapping[Location, list[str]], closed: frozenset[Pair]
) -> None:
    """co is total on the writers of each location."""
    unordered = _first_unordered(writers, closed)
    if unordered is not None:
        raise WellFormednessError(
            "co is not total at {}: {} and {} unordered".format(*unordered)
        )


def _check_co_pa(
    events: Mapping[str, Event],
    locations: Mapping[str, Optional[Location]],
    by_target: Mapping[str, list[str]],
    pairs: frozenset[Pair],
) -> tuple[frozenset[Pair], tuple[Pair, ...]]:
    """Check co_pa pairs — both ends PTE writes to one PA, the closure
    irreflexive and total per target PA — and return the closure and
    its pairs at one PTE location, which co must not contradict."""
    for a, b in pairs:
        ea, eb = events[a], events[b]
        if ea.kind is not EventKind.PTE_WRITE or eb.kind is not EventKind.PTE_WRITE:
            raise WellFormednessError(
                f"co_pa ({a},{b}): both ends must be PTE writes"
            )
        if ea.pa != eb.pa:
            raise WellFormednessError(
                f"co_pa ({a},{b}): alias-creation order relates remaps to "
                f"the same PA, got {ea.pa} vs {eb.pa}"
            )
    closed = TupleSet._raw(2, pairs).plus().tuples
    if any(a == b for a, b in closed):
        raise WellFormednessError("co_pa contains a cycle")
    unordered = _first_unordered(by_target, closed)
    if unordered is not None:
        raise WellFormednessError(
            "co_pa is not total for PA {}: {}, {} unordered".format(*unordered)
        )
    shared = tuple((a, b) for a, b in closed if locations[a] == locations[b])
    return frozenset(closed), shared


class Execution:
    """An immutable candidate execution with all Table I relations derived.

    Raises :class:`WellFormednessError` if the witness violates a placement
    rule (bad rf typing, non-total co, unreachable TLB entries, circular
    PTE value flow, ...).

    Two entries derive the same execution.  The validating one takes
    ``rf``, ``co`` and ``co_pa`` as arbitrary pair sets (parsed, decoded
    or hand-built witnesses) and checks all of them.  The structured one
    is the explicit enumerator's: it passes the program's ``context``
    for the witness's walk -> source assignment
    (:func:`walk_source_context`), ``co_orders`` — one writer sequence
    per multi-writer location, instead of ``co`` — its ``rf`` edges and
    its ``co_pa`` choice.  Every check still runs, but on each distinct
    order and rf edge once per context and each co_pa choice once per
    program (:class:`WalkSourceContext`); what relates them — one order per
    multi-writer location, one rf source per reader and walk, the walk
    edges being the context's, co_pa not contradicting co — is checked
    per witness.
    """

    #: Restricted views only: their relaxation ``(removed, dropped_rmw)``.
    _relaxation: Optional[tuple] = None

    def __init__(
        self,
        program: Program,
        rf: Iterable[Pair] = (),
        co: Iterable[Pair] = (),
        co_pa: Iterable[Pair] = (),
        *,
        context: Optional[WalkSourceContext] = None,
        co_orders: Iterable[tuple[str, ...]] = (),
    ) -> None:
        self.program = program
        if context is None:
            self._rf = frozenset((a, b) for a, b in rf)
            self._co_input = frozenset((a, b) for a, b in co)
            self._co_pa_input = frozenset((a, b) for a, b in co_pa)
            self._derive()
        else:
            if co:
                raise TypeError("the structured entry takes co_orders, not co")
            self._derive_structured(context, frozenset(rf), co_orders, co_pa)

    # ------------------------------------------------------------------
    # Derivation pipeline
    # ------------------------------------------------------------------
    def _derive(self) -> None:
        program = self.program
        events = program.events
        _check_known(events, self._rf | self._co_input | self._co_pa_input)

        self.rf_ptw = derive_rf_ptw(program)
        context = walk_source_context(program, self._split_pte_rf(), self.rf_ptw)
        self._adopt(context)
        self.co = self._close_and_validate_co()
        self.co_pa, shared = _check_co_pa(
            events, self.locations, context.remaps_by_target, self._co_pa_input
        )
        self._check_co_pa_against_co(shared)
        self._validate_rf()
        rfe = frozenset(
            (a, b) for a, b in self._rf if events[a].core != events[b].core
        )
        self.relations = self._build_relations(context, rfe)

    def _derive_structured(
        self,
        context: WalkSourceContext,
        rf: frozenset[Pair],
        co_orders: Iterable[tuple[str, ...]],
        co_pa: Iterable[Pair],
    ) -> None:
        """The enumerator's entry: ``context`` must be the program's
        context for the walk -> source assignment of ``rf``."""
        events = self.program.events
        self._rf = rf
        co_input, co = self._co_from_orders(context, co_orders)
        self._co_input = co_input
        self._co_pa_input = choice = frozenset(co_pa)
        self.rf_ptw = derive_rf_ptw(self.program)
        self._adopt(context)
        self.co = co
        checked = context.co_pa_choices.get(choice)
        if checked is None:
            checked = context.check_co_pa(events, choice)
        self.co_pa, shared = checked
        self._check_co_pa_against_co(shared)
        # rf: each distinct edge once per context, then per witness one
        # source per reader and every walk edge of the context present.
        external = context.rf_edges
        for edge in rf:
            if edge not in external:
                context.check_rf_edge(events, edge)
        if len({dst for _src, dst in rf}) != len(rf):
            # Only a read can repeat: a walk's one edge is its context source.
            targets = sorted(dst for _src, dst in rf)
            dst = next(a for a, b in zip(targets, targets[1:]) if a == b)
            raise WellFormednessError(f"{dst}: read with two rf sources")
        if not context.walk_edges <= rf:
            src, walk = min(context.walk_edges - rf)
            raise WellFormednessError(
                f"{walk}: the walk-source context has it read {src}, but "
                "the witness has no rf edge into it"
            )
        rfe = frozenset([edge for edge in rf if external[edge]])
        self.relations = self._build_relations(context, rfe)

    def _adopt(self, context: WalkSourceContext) -> None:
        """Share what the walk -> source assignment decides."""
        self._walk_source = context.walk_source
        self.mapping_of_walk = context.mapping_of_walk
        self.origin_of_walk = context.origin_of_walk
        self.pa_of = context.pa_of
        self.locations = context.locations
        self._writers_cache = context.writers

    # -- PTE value flow --------------------------------------------------
    def _split_pte_rf(self) -> dict[str, str]:
        """Map each PT walk to its rf source (a PTE-location writer)."""
        events = self.program.events
        edges = [
            (src, dst)
            for src, dst in self._rf
            if events[dst].kind is EventKind.PT_WALK
        ]
        _check_walk_edges(events, edges)
        sources: dict[str, str] = {}
        for src, dst in edges:
            if dst in sources:
                raise WellFormednessError(f"{dst}: walk with two rf sources")
            sources[dst] = src
        return sources

    # -- coherence orders -------------------------------------------------
    def _close_and_validate_co(self) -> frozenset[Pair]:
        events = self.program.events
        _check_co_pairs(events, self.locations, self._co_input)
        closed = TupleSet._raw(2, self._co_input).plus()
        if not closed.is_irreflexive():
            raise WellFormednessError("co contains a cycle")
        tuples = closed.tuples
        _check_co_total(self._writers_cache, tuples)
        return frozenset(tuples)

    def _co_from_orders(
        self, context: WalkSourceContext, co_orders: Iterable[tuple[str, ...]]
    ) -> tuple[frozenset[Pair], frozenset[Pair]]:
        """The co input pairs and co of a witness given as location
        orders: each order checked and closed once per context
        (:meth:`WalkSourceContext.check_order`), then one order per
        multi-writer location, and co the union of their closures."""
        memo = context.orders
        chosen: dict[Location, tuple[str, ...]] = {}
        inputs = []
        closures = []
        for order in co_orders:
            entry = memo.get(order)
            if entry is None:
                entry = context.check_order(self.program.events, order)
            location, pairs, closure = entry
            if location is None:
                continue
            if chosen.setdefault(location, order) != order:
                # Two total orders of one location disagree on a pair.
                raise WellFormednessError("co contains a cycle")
            inputs.append(pairs)
            closures.append(closure)
        if len(chosen) != len(context.multi_writer_locations):
            missing = {
                location: context.writers[location]
                for location in context.multi_writer_locations
                if location not in chosen
            }
            _check_co_total(missing, frozenset())
        return frozenset().union(*inputs), frozenset().union(*closures)

    def _check_co_pa_against_co(self, shared: tuple[Pair, ...]) -> None:
        """co_pa must not contradict co where both apply: on ``shared``,
        the co_pa pairs at one PTE location."""
        co = self.co
        for a, b in shared:
            if (b, a) in co:
                raise WellFormednessError(
                    f"co_pa ({a},{b}) contradicts co at {self.locations[a]}"
                )

    # -- rf validation -----------------------------------------------------
    def _validate_rf(self) -> None:
        events = self.program.events
        # Walk edges were validated in _split_pte_rf.
        edges = [
            (src, dst)
            for src, dst in self._rf
            if events[dst].kind is not EventKind.PT_WALK
        ]
        _check_read_edges(events, self.locations, edges)
        seen_readers: set[str] = set()
        for _src, dst in edges:
            if dst in seen_readers:
                raise WellFormednessError(f"{dst}: read with two rf sources")
            seen_readers.add(dst)

    # ------------------------------------------------------------------
    # Relation construction (Table I + derived helpers)
    # ------------------------------------------------------------------
    def _build_relations(
        self, context: WalkSourceContext, rfe: frozenset[Pair]
    ) -> dict[str, TupleSet]:
        """The context's relations plus the witness's own: rf, co, fr,
        com, rfe, co_pa and the fr_pa / fr_va pairs its orders admit."""
        template = context.template(self.program, self.rf_ptw)
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
        relations = dict(template)
        relations[names.RF] = rf_relation
        relations[names.CO] = co_relation
        relations[names.FR] = fr_relation
        relations[names.COM] = rf_relation + co_relation + fr_relation
        relations[names.RFE] = raw(2, rfe)
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
        if self._relaxation is not None:
            removed, dropped_rmw = self._relaxation
            return (
                f"Execution(view of {len(self.program.events)} events, "
                f"removed={sorted(removed)}, dropped_rmw={dropped_rmw})"
            )
        return (
            f"Execution(events={len(self.program.events)}, "
            f"rf={sorted(self._rf)}, co={sorted(self.co)})"
        )
