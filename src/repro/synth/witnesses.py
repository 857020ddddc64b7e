"""Communication-witness enumeration: program -> candidate executions.

For a fixed program, the dynamic degrees of freedom are (§IV-A):

* each PT walk's rf source — the initial PTE value, any same-location PTE
  write, or any same-location dirty-bit write (value forwarding);
* the per-location coherence order over write-like events (PTE locations
  first; data locations after, because walk sources determine effective
  PAs and thus data locations);
* each data read's rf source — a same-PA user Write or the initial value.

``co_pa`` is *not* enumerated: it only feeds ``fr_pa``/``co_pa``, which no
x86t_elt axiom mentions, so executions differing only in alias-creation
order are verdict-equivalent.  A canonical linear extension consistent
with ``co`` is used instead (documented deviation; DESIGN.md).

The constrained variant re-enumerates completions of a *relaxed* witness
for the minimality check (§IV-B): surviving rf edges are kept where still
expressible, dropped reads read the initial value, and partial coherence
orders are completed in every linear extension.

This module is the *explicit* backend of the engine's witness streams
(:func:`repro.synth.engine.witness_stream_factory`); the SAT backend's
incremental witness sessions (:mod:`repro.synth.sat_backend`) enumerate
the same streams through the relational pipeline, translated once per
program and replayed from cache.  Both backends feed the same consumers:
under either one, the program loop
(:func:`repro.synth.engine.run_queries`) iterates a program's witnesses
once for every query in flight — one per model pair in a fused
conformance run, and the §IV-B minimality
verdicts computed from :func:`enumerate_witnesses_constrained` are
shared across suites and pairs through the cache in
:mod:`repro.synth.relax`.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterable, Iterator, Mapping, Optional

from ..errors import WellFormednessError
from ..mtm import EventKind, Execution, Program
from ..mtm.execution import derive_rf_ptw, location_of, resolve_pte_values

Pair = tuple[str, str]


def _pte_writers_by_va(program: Program) -> dict[str, list[str]]:
    """PTE-location writers (PTE_WRITE + DIRTY_BIT_WRITE) per VA, in a
    stable program-scan order."""
    out: dict[str, list[str]] = {}
    for eid in _scan(program):
        event = program.events[eid]
        if event.kind in (EventKind.PTE_WRITE, EventKind.DIRTY_BIT_WRITE):
            assert event.va is not None
            out.setdefault(event.va, []).append(eid)
    return out


def _scan(program: Program) -> list[str]:
    order: list[str] = []
    for thread in program.threads:
        for eid in thread:
            order.append(eid)
            order.extend(program.ghosts.get(eid, ()))
    return order


def _walks(program: Program) -> list[str]:
    return [
        eid
        for eid in _scan(program)
        if program.events[eid].kind is EventKind.PT_WALK
    ]


def _linear_extensions(
    items: list[str], base: set[Pair]
) -> Iterator[tuple[str, ...]]:
    """All total orders of ``items`` consistent with ``base`` pairs."""
    for perm in permutations(items):
        index = {eid: i for i, eid in enumerate(perm)}
        if all(index[a] < index[b] for a, b in base if a in index and b in index):
            yield perm


def _order_pairs(sequence: Iterable[str]) -> list[Pair]:
    items = list(sequence)
    return [(items[i], items[i + 1]) for i in range(len(items) - 1)]


def _canonical_co_pa(
    program: Program, co_pairs: set[Pair], must: set[Pair]
) -> Optional[list[Pair]]:
    """One co_pa consistent with co (same-location remaps must agree) and
    with any surviving constraints; None if impossible."""
    by_target: dict[str, list[str]] = {}
    for eid in _scan(program):
        event = program.events[eid]
        if event.kind is EventKind.PTE_WRITE:
            assert event.pa is not None
            by_target.setdefault(event.pa, []).append(eid)
    out: list[Pair] = []
    for _pa, writers in by_target.items():
        if len(writers) < 2:
            continue
        constraints = {
            (a, b)
            for a, b in co_pairs | must
            if a in writers and b in writers
        }
        found = None
        for perm in _linear_extensions(writers, constraints):
            found = perm
            break
        if found is None:
            return None
        out.extend(_order_pairs(found))
    return out


def enumerate_witnesses(program: Program) -> Iterator[Execution]:
    """All candidate executions of a program (up to co_pa equivalence)."""
    yield from enumerate_witnesses_constrained(program)


def enumerate_witnesses_constrained(
    program: Program,
    walk_sources: Optional[Mapping[str, Optional[str]]] = None,
    data_rf: Optional[set[Pair]] = None,
    co_must: Optional[set[Pair]] = None,
    co_pa_must: Optional[set[Pair]] = None,
) -> Iterator[Execution]:
    """Witness enumeration with optional constraints (minimality checks).

    ``walk_sources``: exact source per walk (None value = initial mapping);
    walks not listed default to every choice.
    ``data_rf``: exact surviving data rf edges — edges that are no longer
    same-location are silently dropped (the read takes the initial value).
    ``co_must`` / ``co_pa_must``: pairs every enumerated order must contain.
    """
    co_must = co_must or set()
    co_pa_must = co_pa_must or set()
    rf_ptw = derive_rf_ptw(program)
    pte_writers = _pte_writers_by_va(program)
    walks = _walks(program)

    source_choices: list[list[Optional[str]]] = []
    for walk in walks:
        if walk_sources is not None and walk in walk_sources:
            source_choices.append([walk_sources[walk]])
        else:
            va = program.events[walk].va
            assert va is not None
            source_choices.append([None] + pte_writers.get(va, []))

    for combo in product(*source_choices):
        walk_source = {
            walk: src for walk, src in zip(walks, combo) if src is not None
        }
        try:
            mapping, _origin = resolve_pte_values(program, walk_source, rf_ptw)
        except WellFormednessError:
            continue
        pa_of: dict[str, str] = {}
        if program.mcm_mode:
            for eid, event in program.events.items():
                if event.is_user and event.is_memory_event:
                    assert event.va is not None
                    pa_of[eid] = program.initial_pa(event.va)
        else:
            for walk, user in rf_ptw:
                pa_of[user] = mapping[walk][1]

        # Locations, writers and readers per location.
        writers: dict[tuple[str, str], list[str]] = {}
        readers: dict[str, tuple[str, str]] = {}
        for eid in _scan(program):
            event = program.events[eid]
            loc = location_of(event, pa_of)
            if loc is None:
                continue
            if event.is_write_like:
                writers.setdefault(loc, []).append(eid)
            elif event.kind is EventKind.READ:
                readers[eid] = loc

        pte_rf = [(src, walk) for walk, src in walk_source.items()]

        # Coherence orders: enumerate linear extensions per location.
        # Surviving co constraints whose endpoints no longer share a
        # location (a relaxation changed the value flow) are dropped.
        multi_writer_locs = [
            loc for loc, ws in writers.items() if len(ws) >= 2
        ]
        co_options: list[list[tuple[Pair, ...]]] = []
        for loc in multi_writer_locs:
            constraints = {
                (a, b)
                for a, b in co_must
                if a in writers[loc] and b in writers[loc]
            }
            orders = [
                tuple(_order_pairs(perm))
                for perm in _linear_extensions(writers[loc], constraints)
            ]
            if not orders:
                break
            co_options.append(orders)
        if len(co_options) != len(multi_writer_locs):
            continue  # some co_must constraint is unsatisfiable here

        # Data rf choices per read.
        read_ids = list(readers)
        rf_choices: list[list[Optional[str]]] = []
        if data_rf is not None:
            fixed_source: dict[str, Optional[str]] = {r: None for r in read_ids}
            for src, dst in data_rf:
                if dst in readers and src in writers.get(readers[dst], ()):
                    fixed_source[dst] = src
            rf_choices = [[fixed_source[r]] for r in read_ids]
        else:
            for r in read_ids:
                loc = readers[r]
                user_writers = [
                    w
                    for w in writers.get(loc, ())
                    if program.events[w].kind is EventKind.WRITE
                ]
                rf_choices.append([None] + user_writers)

        for co_combo in product(*co_options):
            co_pairs: set[Pair] = set()
            for pairs in co_combo:
                co_pairs.update(pairs)
            co_pa = _canonical_co_pa(program, co_pairs, set(co_pa_must))
            if co_pa is None:
                continue
            for rf_combo in product(*rf_choices):
                rf = list(pte_rf)
                rf.extend(
                    (src, r)
                    for r, src in zip(read_ids, rf_combo)
                    if src is not None
                )
                try:
                    yield Execution(
                        program, rf=rf, co=co_pairs, co_pa=co_pa
                    )
                except WellFormednessError:
                    continue
