"""ELT programs: events + static structure (po, ghost, remap, rmw).

A :class:`Program` is the *static* part of an enhanced litmus test — what
the paper calls an "ELT program" as opposed to an ELT execution (§VI-B,
which adds communication relations; see :mod:`repro.mtm.execution`).

Structure invariants are validated eagerly: threads partition the non-ghost
events, ghosts hang off user-facing memory events on the same core with
the same VA, each user-facing WRITE owns exactly one dirty-bit ghost,
every PTE_WRITE remap-targets exactly one INVLPG per core, RMW pairs are
po-adjacent on the same VA, and so on.  These are the paper's *placement
rules* (Fig 7 "relation placement rules") — violating them makes a program
ill-formed, which is different from an execution being *forbidden*.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Iterable, Mapping, Optional, Sequence

from ..errors import WellFormednessError
from . import names
from .events import Event, EventKind


#: The unary set of each event kind that has one (static_relations).
_KIND_SETS = {
    EventKind.READ: names.READ,
    EventKind.WRITE: names.WRITE,
    EventKind.PTE_WRITE: names.PTE_WRITE,
    EventKind.INVLPG: names.INVLPG,
    EventKind.PT_WALK: names.PT_WALK,
    EventKind.DIRTY_BIT_WRITE: names.DIRTY_BIT,
    EventKind.FENCE: names.FENCE,
    EventKind.TLB_FLUSH: names.TLB_FLUSH,
}


@dataclass(frozen=True)
class Program:
    """An immutable ELT program.

    ``events``
        All events keyed by eid.
    ``threads``
        Per-core program order over non-ghost events (eids).  Thread index
        == core index.
    ``ghosts``
        Parent eid -> ordered ghost eids invoked on its behalf.
    ``remap``
        (pte_write_eid, invlpg_eid) pairs: the IPI fan-out of a remap.
    ``rmw``
        (read_eid, write_eid) pairs: atomic read-modify-write dependencies.
    ``initial_map``
        Initial VA -> PA mapping (each VA maps to a unique PA before the
        test starts — paper §III-C.2).
    ``mcm_mode``
        Plain memory-consistency mode: no VM events at all (no ghosts,
        PTE writes or INVLPGs); addresses translate through the identity
        initial mapping.  Used to reproduce the user-level litmus-test
        synthesis baseline the paper compares against (§VI-A, [30]).
    """

    events: Mapping[str, Event]
    threads: tuple[tuple[str, ...], ...]
    ghosts: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    remap: frozenset[tuple[str, str]] = frozenset()
    rmw: frozenset[tuple[str, str]] = frozenset()
    initial_map: Mapping[str, str] = field(default_factory=dict)
    mcm_mode: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "events", dict(self.events))
        object.__setattr__(self, "ghosts", dict(self.ghosts))
        object.__setattr__(self, "initial_map", dict(self.initial_map))
        object.__setattr__(self, "remap", frozenset(self.remap))
        object.__setattr__(self, "rmw", frozenset(self.rmw))
        self._validate()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def event(self, eid: str) -> Event:
        try:
            return self.events[eid]
        except KeyError as exc:
            raise WellFormednessError(f"unknown event: {eid!r}") from exc

    @property
    def eids(self) -> list[str]:
        return list(self.events)

    @property
    def size(self) -> int:
        """Instruction count — the synthesis bound counts *all* events,
        ghosts included (docs/ARCHITECTURE.md, "Modelling decisions")."""
        return len(self.events)

    @property
    def num_cores(self) -> int:
        return len(self.threads)

    def user_events(self) -> list[Event]:
        return [e for e in self.events.values() if e.is_user]

    def events_of_kind(self, kind: EventKind) -> list[Event]:
        return [e for e in self.events.values() if e.kind is kind]

    def parent_of(self, ghost_eid: str) -> str:
        for parent, ghost_ids in self.ghosts.items():
            if ghost_eid in ghost_ids:
                return parent
        raise WellFormednessError(f"{ghost_eid!r} is not a ghost event")

    def walk_invoker(self, walk_eid: str) -> str:
        """The user-facing event whose TLB miss triggered this walk."""
        return self.parent_of(walk_eid)

    def __getstate__(self):
        """The structural fields plus the program positions, and nothing
        else: the :class:`ProgramMemo`, which holds every cache derived
        from the program, is left out, so pickled programs — shard
        results, suite-store payloads — carry no derived state.
        ``_positions`` stays because validation sets it and unpickling
        does not validate."""
        state = {f.name: self.__dict__[f.name] for f in fields(self)}
        state["_positions"] = self._positions
        return state

    def position(self, eid: str) -> tuple[int, int]:
        """(core, slot) program position; ghosts inherit their parent's
        slot (docs/ARCHITECTURE.md, "Modelling decisions")."""
        return self._positions[eid]

    def vas(self) -> list[str]:
        return sorted(
            {e.va for e in self.events.values() if e.va is not None}
        )

    def pas(self) -> list[str]:
        named = {e.pa for e in self.events.values() if e.pa is not None}
        named.update(self.initial_map.values())
        return sorted(named)

    def initial_pa(self, va: str) -> str:
        try:
            return self.initial_map[va]
        except KeyError as exc:
            raise WellFormednessError(
                f"VA {va!r} has no initial mapping"
            ) from exc

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def _validate(self) -> None:
        events = self.events
        if self.mcm_mode:
            vm_kinds = {
                EventKind.PT_WALK,
                EventKind.DIRTY_BIT_WRITE,
                EventKind.PTE_WRITE,
                EventKind.INVLPG,
                EventKind.TLB_FLUSH,
            }
            for eid, event in events.items():
                if event.kind in vm_kinds:
                    raise WellFormednessError(
                        f"{eid}: {event.kind} not allowed in MCM mode"
                    )
        placed: list[str] = [eid for thread in self.threads for eid in thread]
        if len(placed) != len(set(placed)):
            raise WellFormednessError("an event appears twice in program order")
        for eid in placed:
            event = self.event(eid)
            if event.is_ghost:
                raise WellFormednessError(
                    f"{eid}: ghost instructions are not related by po (§III-A)"
                )
        for core, thread in enumerate(self.threads):
            for eid in thread:
                if events[eid].core != core:
                    raise WellFormednessError(
                        f"{eid}: placed on thread {core} but declares core "
                        f"{events[eid].core}"
                    )

        ghost_ids = [g for gs in self.ghosts.values() for g in gs]
        if len(ghost_ids) != len(set(ghost_ids)):
            raise WellFormednessError("a ghost event has two parents")
        for eid, event in events.items():
            if event.is_ghost:
                if eid not in ghost_ids:
                    raise WellFormednessError(
                        f"{eid}: ghost instruction without an invoking parent"
                    )
            else:
                if eid not in placed:
                    raise WellFormednessError(f"{eid}: event not placed in any thread")

        dirty_counts: dict[str, int] = {}
        for parent_eid, ghost_eids in self.ghosts.items():
            parent = self.event(parent_eid)
            if not (parent.is_user and parent.is_memory_event):
                raise WellFormednessError(
                    f"{parent_eid}: only user-facing memory events invoke ghosts"
                )
            for geid in ghost_eids:
                ghost = self.event(geid)
                if not ghost.is_ghost:
                    raise WellFormednessError(f"{geid}: not a ghost instruction")
                if ghost.core != parent.core:
                    raise WellFormednessError(
                        f"{geid}: ghost on core {ghost.core} but parent "
                        f"{parent_eid} on core {parent.core}"
                    )
                if ghost.va != parent.va:
                    raise WellFormednessError(
                        f"{geid}: ghost translates VA {ghost.va} but parent "
                        f"accesses VA {parent.va}"
                    )
                if ghost.kind is EventKind.DIRTY_BIT_WRITE:
                    if parent.kind is not EventKind.WRITE:
                        raise WellFormednessError(
                            f"{geid}: dirty-bit updates are invoked by Writes "
                            "(§III-A2)"
                        )
                    dirty_counts[parent_eid] = dirty_counts.get(parent_eid, 0) + 1
        if not self.mcm_mode:
            for eid, event in events.items():
                if event.kind is EventKind.WRITE and dirty_counts.get(eid, 0) != 1:
                    raise WellFormednessError(
                        f"{eid}: each user-facing Write invokes exactly one "
                        "dirty-bit update (§III-A2)"
                    )
        walk_counts: dict[str, int] = {}
        for parent_eid, ghost_eids in self.ghosts.items():
            walks = [
                g for g in ghost_eids if events[g].kind is EventKind.PT_WALK
            ]
            if len(walks) > 1:
                raise WellFormednessError(
                    f"{parent_eid}: a memory event invokes at most one PT walk"
                )
            walk_counts[parent_eid] = len(walks)

        self._validate_remap()
        self._validate_rmw()
        for va in self.vas_needing_mapping():
            if va not in self.initial_map:
                raise WellFormednessError(
                    f"VA {va!r} accessed but has no initial mapping"
                )
        pa_targets = list(self.initial_map.values())
        if len(pa_targets) != len(set(pa_targets)):
            raise WellFormednessError(
                "initial mappings must be injective: each VA maps to a unique "
                "PA before the test (§III-C.2)"
            )
        object.__setattr__(self, "_positions", self._compute_positions())

    def vas_needing_mapping(self) -> set[str]:
        return {e.va for e in self.events.values() if e.va is not None}

    def _validate_remap(self) -> None:
        events = self.events
        by_pte: dict[str, list[str]] = {}
        seen_invlpg: set[str] = set()
        for pte_eid, inv_eid in self.remap:
            pte = self.event(pte_eid)
            inv = self.event(inv_eid)
            if pte.kind is not EventKind.PTE_WRITE:
                raise WellFormednessError(
                    f"remap source {pte_eid} is not a PTE_WRITE"
                )
            if inv.kind is not EventKind.INVLPG:
                raise WellFormednessError(
                    f"remap target {inv_eid} is not an INVLPG"
                )
            if inv.va != pte.va:
                raise WellFormednessError(
                    f"remap {pte_eid}->{inv_eid}: INVLPG invalidates {inv.va} "
                    f"but the remap changes {pte.va}"
                )
            if inv_eid in seen_invlpg:
                raise WellFormednessError(
                    f"{inv_eid}: INVLPG induced by two remaps"
                )
            seen_invlpg.add(inv_eid)
            if inv.core == pte.core:
                thread = self.threads[pte.core]
                if thread.index(inv_eid) < thread.index(pte_eid):
                    raise WellFormednessError(
                        f"remap {pte_eid}->{inv_eid}: the same-core INVLPG "
                        "follows its PTE write in po (§III-B2)"
                    )
            by_pte.setdefault(pte_eid, []).append(inv_eid)
        for eid, event in events.items():
            if event.kind is EventKind.PTE_WRITE:
                cores = sorted(events[i].core for i in by_pte.get(eid, []))
                if cores != list(range(self.num_cores)):
                    raise WellFormednessError(
                        f"{eid}: a PTE_WRITE induces exactly one INVLPG on "
                        f"each core (§III-B2); got cores {cores} of "
                        f"{self.num_cores}"
                    )

    def _validate_rmw(self) -> None:
        for r_eid, w_eid in self.rmw:
            read = self.event(r_eid)
            write = self.event(w_eid)
            if read.kind is not EventKind.READ or write.kind is not EventKind.WRITE:
                raise WellFormednessError(
                    f"rmw ({r_eid},{w_eid}) must pair a Read with a Write"
                )
            if read.core != write.core or read.va != write.va:
                raise WellFormednessError(
                    f"rmw ({r_eid},{w_eid}) must be same-core and same-VA"
                )
            thread = self.threads[read.core]
            r_index = thread.index(r_eid)
            if r_index + 1 >= len(thread) or thread[r_index + 1] != w_eid:
                raise WellFormednessError(
                    f"rmw ({r_eid},{w_eid}): the Write must immediately "
                    "follow the Read in po"
                )
            write_ghosts = self.ghosts.get(w_eid, ())
            if any(
                self.events[g].kind is EventKind.PT_WALK for g in write_ghosts
            ):
                raise WellFormednessError(
                    f"rmw ({r_eid},{w_eid}): the Write shares the Read's TLB "
                    "entry atomically and must not invoke its own walk"
                )

    def _compute_positions(self) -> dict[str, tuple[int, int]]:
        positions: dict[str, tuple[int, int]] = {}
        for core, thread in enumerate(self.threads):
            for slot, eid in enumerate(thread):
                positions[eid] = (core, slot)
        for parent_eid, ghost_eids in self.ghosts.items():
            for geid in ghost_eids:
                positions[geid] = positions[parent_eid]
        return positions

    def static_relations(self) -> dict[str, "object"]:
        """Relations determined by the program alone (no witness), kept in
        its :class:`ProgramMemo`: candidate-execution construction is the
        synthesis engine's hot loop (one Execution per witness per
        relaxation)."""
        memo = program_memo(self)
        if memo.static_relations is not None:
            return memo.static_relations
        from ..relational import TupleSet

        # One pass sorts the events into the unary sets; everything is
        # built from eids, so well-formed: skip TupleSet's validation.
        raw = TupleSet._raw
        members: dict[str, list[tuple[str]]] = {
            name: [] for name in names.UNARY_SETS
        }
        for eid, event in self.events.items():
            atom = (eid,)
            members[names.EVENT].append(atom)
            kind_set = _KIND_SETS.get(event.kind)
            if kind_set is not None:
                members[kind_set].append(atom)
            if event.is_memory_event:
                members[names.MEMORY].append(atom)
                if event.is_user:
                    members[names.USER].append(atom)
            if event.is_write_like:
                members[names.WRITE_LIKE].append(atom)
            if event.is_read_like:
                members[names.READ_LIKE].append(atom)

        po_pairs: set[tuple[str, str]] = set()
        for thread in self.threads:
            for i in range(len(thread)):
                for j in range(i + 1, len(thread)):
                    po_pairs.add((thread[i], thread[j]))
        apo_pairs: set[tuple[str, str]] = set()
        positions = self._positions
        by_core: dict[int, list[str]] = {}
        for eid in self.events:
            by_core.setdefault(positions[eid][0], []).append(eid)
        for core_members in by_core.values():
            for a in core_members:
                slot_a = positions[a][1]
                for b in core_members:
                    if a != b and slot_a < positions[b][1]:
                        apo_pairs.add((a, b))
        # Event first, then the kind sets: the order relations always had.
        static: dict[str, object] = {
            name: raw(1, frozenset(members[name]))
            for name in (
                names.EVENT,
                names.READ,
                names.WRITE,
                names.USER,
                names.MEMORY,
                names.WRITE_LIKE,
                names.READ_LIKE,
                names.PTE_WRITE,
                names.INVLPG,
                names.PT_WALK,
                names.DIRTY_BIT,
                names.FENCE,
                names.TLB_FLUSH,
            )
        }
        static.update(
            {
                names.PO: raw(2, frozenset(po_pairs)),
                names.APO: raw(2, frozenset(apo_pairs)),
                names.GHOST: raw(
                    2,
                    frozenset(
                        (parent, g)
                        for parent, ghosts in self.ghosts.items()
                        for g in ghosts
                    ),
                ),
                names.REMAP: TupleSet.pairs(self.remap),
                names.RMW: TupleSet.pairs(self.rmw),
            }
        )
        memo.static_relations = static
        return static


class ProgramMemo:
    """Every cache derived from one program: what all its candidate
    executions share, memoized once per program (see
    docs/ARCHITECTURE.md, "Per-execution evaluation").

    ``static_relations``
        :meth:`Program.static_relations`.
    ``rf_ptw``
        :func:`repro.mtm.execution.derive_rf_ptw`.
    ``removal_groups``
        :func:`repro.synth.relax.removal_groups`.
    ``symmetry``
        :func:`repro.symmetry.program_symmetry`: generation-time pruning
        computes it, and the program loop reads it.
    ``static``
        Values of the compiled axiom subterms that read program
        relations only (:mod:`repro.models.plan`), by global node id.
    ``views``
        The same, per relaxation ``(removed, dropped_rmw)``, for the
        restricted views of :meth:`Execution.restricted
        <repro.mtm.Execution.restricted>`.
    ``restrictions``
        Per relaxation: the restricted program relations and the tuples
        a restriction drops.
    ``contexts``
        Walk-source contexts by walk -> source assignment
        (:func:`repro.mtm.execution.walk_source_context`).
    ``order_closures`` / ``co_pa_choices``
        What the contexts share of the structured witness inputs they
        check: each writer sequence's adjacent pairs and closure, and
        each checked co_pa choice (neither depends on the assignment).

    Lives from the program's first derived value until the pass finishes
    the program (:func:`release_program_memo`); never pickled.
    """

    __slots__ = (
        "static_relations",
        "rf_ptw",
        "removal_groups",
        "symmetry",
        "static",
        "views",
        "restrictions",
        "contexts",
        "order_closures",
        "co_pa_choices",
    )

    def __init__(self) -> None:
        self.static_relations: Optional[dict] = None
        self.rf_ptw: Optional[frozenset] = None
        self.removal_groups: Optional[tuple] = None
        self.symmetry = None
        self.static: dict = {}
        self.views: dict = {}
        self.restrictions: dict = {}
        self.contexts: dict = {}
        self.order_closures: dict = {}
        self.co_pa_choices: dict = {}


def program_memo(program: Program) -> ProgramMemo:
    """The program's :class:`ProgramMemo`, created on first use."""
    memo = program.__dict__.get("_memo")
    if memo is None:
        memo = ProgramMemo()
        object.__setattr__(program, "_memo", memo)
    return memo


def release_program_memo(program: Program) -> None:
    """Drop the program's :class:`ProgramMemo`, and with it every cache
    derived from the program: called when a pass is done with the
    program, so the programs a result keeps hold nothing derived."""
    program.__dict__.pop("_memo", None)


# ----------------------------------------------------------------------
# Fluent builder
# ----------------------------------------------------------------------
class ThreadBuilder:
    """Accumulates one thread's instructions for :class:`ProgramBuilder`."""

    def __init__(self, program_builder: "ProgramBuilder", core: int) -> None:
        self._builder = program_builder
        self.core = core

    def read(self, va: str, walk: Optional[Event] = None) -> Event:
        """Append a user-facing Read of ``va``.

        ``walk=None`` makes the read TLB-miss and invoke a fresh PT walk;
        passing a previous event's walk makes it a TLB hit on that entry.
        """
        return self._builder._add_user(self.core, EventKind.READ, va, walk)

    def write(self, va: str, walk: Optional[Event] = None) -> Event:
        """Append a user-facing Write of ``va`` (dirty-bit ghost included)."""
        return self._builder._add_user(self.core, EventKind.WRITE, va, walk)

    def rmw(self, va: str, walk: Optional[Event] = None) -> tuple[Event, Event]:
        """Append an atomic read-modify-write to ``va``; the pair shares one
        TLB entry."""
        read = self._builder._add_user(self.core, EventKind.READ, va, walk)
        read_walk = (
            None if self._builder.mcm_mode else self._builder._walk_of(read)
        )
        write = self._builder._add_user(self.core, EventKind.WRITE, va, read_walk)
        self._builder._rmw.append((read.eid, write.eid))
        return read, write

    def pte_write(self, va: str, new_pa: str) -> Event:
        """Append a PTE_WRITE remapping ``va`` to ``new_pa``; the same-core
        INVLPG it induces is appended immediately after, and remote INVLPGs
        are delivered via :meth:`invlpg_for` on the other threads."""
        return self._builder._add_pte_write(self.core, va, new_pa)

    def invlpg_for(self, pte_write: Event) -> Event:
        """Append the IPI-delivered INVLPG induced by ``pte_write`` on this
        thread."""
        return self._builder._add_remap_invlpg(self.core, pte_write)

    def invlpg(self, va: str) -> Event:
        """Append a *spurious* INVLPG of ``va`` (no PTE change — §III-B2)."""
        return self._builder._add_spurious_invlpg(self.core, va)

    def fence(self) -> Event:
        return self._builder._add_fence(self.core)

    def tlb_flush(self) -> Event:
        """Append a whole-TLB flush (spurious IPI extension, §III-B2):
        every cached translation on this core is evicted."""
        return self._builder._add_tlb_flush(self.core)


class ProgramBuilder:
    """Fluent construction of ELT programs.

    >>> b = ProgramBuilder()
    >>> b.map("x", "pa_a")
    ProgramBuilder(...)
    >>> c0 = b.thread()
    >>> r0 = c0.read("x")
    >>> program = b.build()
    >>> program.size   # R + its PT walk
    2
    """

    def __init__(
        self,
        initial_map: Optional[Mapping[str, str]] = None,
        mcm_mode: bool = False,
    ) -> None:
        self.mcm_mode = mcm_mode
        self._events: dict[str, Event] = {}
        self._threads: list[list[str]] = []
        self._ghosts: dict[str, list[str]] = {}
        self._remap: list[tuple[str, str]] = []
        self._rmw: list[tuple[str, str]] = []
        self._initial_map: dict[str, str] = dict(initial_map or {})
        self._counter = 0
        self._walk_by_parent: dict[str, str] = {}
        # Builder-time TLB mirror: (core, va) -> currently-loaded walk eid.
        # Used to reject "hits" on entries that a later INVLPG evicted or a
        # newer walk replaced, catching mis-encoded tests at build time.
        self._tlb: dict[tuple[int, str], str] = {}

    def __repr__(self) -> str:
        return "ProgramBuilder(...)"

    # ------------------------------------------------------------------
    def map(self, va: str, pa: str) -> "ProgramBuilder":
        """Declare the initial mapping VA -> PA."""
        self._initial_map[va] = pa
        return self

    def thread(self) -> ThreadBuilder:
        core = len(self._threads)
        self._threads.append([])
        return ThreadBuilder(self, core)

    def build(self) -> Program:
        self._autofill_mappings()
        return Program(
            events=dict(self._events),
            threads=tuple(tuple(t) for t in self._threads),
            ghosts={k: tuple(v) for k, v in self._ghosts.items()},
            remap=frozenset(self._remap),
            rmw=frozenset(self._rmw),
            initial_map=dict(self._initial_map),
            mcm_mode=self.mcm_mode,
        )

    def _autofill_mappings(self) -> None:
        """Give every accessed-but-unmapped VA a fresh unique PA."""
        used_pas = set(self._initial_map.values())
        for event in self._events.values():
            if event.va is None or event.va in self._initial_map:
                continue
            index = 0
            while f"pa{index}" in used_pas:
                index += 1
            self._initial_map[event.va] = f"pa{index}"
            used_pas.add(f"pa{index}")

    # ------------------------------------------------------------------
    # Internal append operations
    # ------------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        eid = f"{prefix}{self._counter}"
        self._counter += 1
        return eid

    def _append(self, event: Event) -> Event:
        self._events[event.eid] = event
        if not event.is_ghost:
            self._threads[event.core].append(event.eid)
        return event

    def _walk_of(self, user_event: Event) -> Event:
        """The walk that sources ``user_event`` (its own ghost walk, or the
        shared walk it was built with)."""
        walk_eid = self._walk_by_parent.get(user_event.eid)
        if walk_eid is None:
            raise WellFormednessError(
                f"{user_event.eid} has no associated PT walk"
            )
        return self._events[walk_eid]

    def _add_user(
        self, core: int, kind: EventKind, va: str, walk: Optional[Event]
    ) -> Event:
        event = self._append(Event(self._fresh("e"), kind, core, va))
        if self.mcm_mode:
            if walk is not None:
                raise WellFormednessError("MCM mode has no PT walks to hit")
            return event
        ghost_list = self._ghosts.setdefault(event.eid, [])
        if kind is EventKind.WRITE:
            dirty = Event(self._fresh("e"), EventKind.DIRTY_BIT_WRITE, core, va)
            self._events[dirty.eid] = dirty
            ghost_list.append(dirty.eid)
        if walk is None:
            fresh_walk = Event(self._fresh("e"), EventKind.PT_WALK, core, va)
            self._events[fresh_walk.eid] = fresh_walk
            ghost_list.append(fresh_walk.eid)
            self._tlb[(core, va)] = fresh_walk.eid
            self._walk_by_parent[event.eid] = fresh_walk.eid
        else:
            if walk.kind is not EventKind.PT_WALK:
                raise WellFormednessError(
                    f"walk argument must be a PT walk, got {walk.kind}"
                )
            if walk.core != core or walk.va != va:
                raise WellFormednessError(
                    f"cannot hit walk {walk.eid}: wrong core or VA"
                )
            current = self._tlb.get((core, va))
            if current != walk.eid:
                state = "empty (evicted)" if current is None else f"now {current}"
                raise WellFormednessError(
                    f"cannot hit walk {walk.eid}: the TLB entry for {va} on "
                    f"core {core} is {state}"
                )
            self._walk_by_parent[event.eid] = walk.eid
        return event

    def walk_of(self, user_event: Event) -> Event:
        """Public accessor for the walk sourcing a user event (for TLB-hit
        chaining and execution witnesses)."""
        return self._walk_of(user_event)

    def dirty_of(self, write_event: Event) -> Event:
        """The dirty-bit ghost invoked by a user-facing Write."""
        for geid in self._ghosts.get(write_event.eid, ()):
            ghost = self._events[geid]
            if ghost.kind is EventKind.DIRTY_BIT_WRITE:
                return ghost
        raise WellFormednessError(f"{write_event.eid} has no dirty-bit ghost")

    def _add_pte_write(self, core: int, va: str, new_pa: str) -> Event:
        pte = self._append(
            Event(self._fresh("e"), EventKind.PTE_WRITE, core, va, pa=new_pa)
        )
        local_inv = self._append(Event(self._fresh("e"), EventKind.INVLPG, core, va))
        self._remap.append((pte.eid, local_inv.eid))
        self._tlb.pop((core, va), None)
        return pte

    def _add_remap_invlpg(self, core: int, pte_write: Event) -> Event:
        if pte_write.kind is not EventKind.PTE_WRITE:
            raise WellFormednessError("invlpg_for expects a PTE_WRITE event")
        inv = self._append(
            Event(self._fresh("e"), EventKind.INVLPG, core, pte_write.va)
        )
        self._remap.append((pte_write.eid, inv.eid))
        assert pte_write.va is not None
        self._tlb.pop((core, pte_write.va), None)
        return inv

    def _add_spurious_invlpg(self, core: int, va: str) -> Event:
        inv = self._append(Event(self._fresh("e"), EventKind.INVLPG, core, va))
        self._tlb.pop((core, va), None)
        return inv

    def _add_fence(self, core: int) -> Event:
        return self._append(Event(self._fresh("e"), EventKind.FENCE, core))

    def _add_tlb_flush(self, core: int) -> Event:
        flush = self._append(Event(self._fresh("e"), EventKind.TLB_FLUSH, core))
        for key in [k for k in self._tlb if k[0] == core]:
            del self._tlb[key]
        return flush
