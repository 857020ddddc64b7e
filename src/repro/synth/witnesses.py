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
order are verdict-equivalent.  A canonical linear extension is used
instead, consistent with the *adjacent* pairs of ``co`` only, so it can
contradict ``co`` and drop the witness (docs/ARCHITECTURE.md, "Modelling
decisions").

The constrained variant re-enumerates completions of a *relaxed* witness
for the minimality check (§IV-B): surviving rf edges are kept where still
expressible, dropped reads read the initial value, and partial coherence
orders are completed in every linear extension.

Each walk -> source combination is one
:class:`~repro.mtm.execution.WalkSourceContext` of the program: the
enumerator iterates its scan-ordered writers and readers, and hands every
witness to :class:`~repro.mtm.Execution`'s structured entry as the
context, one writer sequence per multi-writer location, its rf edges and
its co_pa choice.  Coherence holds by construction of the sequences; the
entry still checks each distinct sequence and rf edge once per context,
and each co_pa choice once per program.

This module is the *explicit* backend of the engine's witness streams
(:func:`repro.synth.engine.witness_stream_factory`); the SAT backend's
witness sessions (:mod:`repro.synth.sat_backend`) enumerate the same
streams through the relational pipeline, translating and enumerating
each program once.  Both backends feed the same consumers:
under either one, the program loop
(:func:`repro.synth.engine.run_queries`) iterates a program's witnesses
once for every query in flight — one per model pair in a fused
conformance run — and decides each candidate's §IV-B minimality
(:mod:`repro.synth.relax`, whose rebuilt relaxations
:func:`enumerate_witnesses_constrained` completes) once per witness and
judging model, so pairs with a common reference share one verdict.
"""

from __future__ import annotations

from itertools import permutations, product
from typing import Iterator, Mapping, Optional

from ..errors import WellFormednessError
from ..mtm import EventKind, Execution, Program
from ..mtm.execution import derive_rf_ptw, scan_order, walk_source_context

Pair = tuple[str, str]


def _linear_extensions(
    items: tuple[str, ...], base: set[Pair]
) -> Iterator[tuple[str, ...]]:
    """All total orders of ``items`` consistent with ``base`` pairs."""
    for perm in permutations(items):
        index = {eid: i for i, eid in enumerate(perm)}
        if all(index[a] < index[b] for a, b in base if a in index and b in index):
            yield perm


def _remap_targets(
    program: Program, scan: list[str]
) -> list[tuple[tuple[str, ...], frozenset[str]]]:
    """The PTE writes of each target PA remapped more than once, in scan
    order, as (sequence, member set): the lists :func:`_canonical_co_pa`
    orders, built once per program."""
    by_target: dict[str, list[str]] = {}
    for eid in scan:
        event = program.events[eid]
        if event.kind is EventKind.PTE_WRITE:
            assert event.pa is not None
            by_target.setdefault(event.pa, []).append(eid)
    return [
        (tuple(writers), frozenset(writers))
        for writers in by_target.values()
        if len(writers) >= 2
    ]


def _canonical_co_pa(
    remap_targets: list[tuple[tuple[str, ...], frozenset[str]]],
    ordered: set[Pair],
) -> Optional[frozenset[Pair]]:
    """One co_pa: per target PA, the first linear extension (in
    permutation order of the scan-ordered remaps) of the ``ordered``
    pairs between its remaps — co's adjacent pairs plus any surviving
    constraints.  None if some PA has no such extension."""
    out: list[Pair] = []
    for writers, members in remap_targets:
        constraints = {
            (a, b) for a, b in ordered if a in members and b in members
        }
        found = next(_linear_extensions(writers, constraints), None)
        if found is None:
            return None
        out.extend(zip(found, found[1:]))
    return frozenset(out)


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

    Each walk -> source combination reads its
    :class:`~repro.mtm.execution.WalkSourceContext`, and each witness
    enters :class:`Execution` through its structured entry.
    """
    co_must = co_must or set()
    co_pa_must = set(co_pa_must or ())
    rf_ptw = derive_rf_ptw(program)
    events = program.events
    scan = scan_order(program)
    remap_targets = _remap_targets(program, scan)
    pte_writers: dict[str, list[str]] = {}
    walks: list[str] = []
    for eid in scan:
        event = events[eid]
        if event.kind in (EventKind.PTE_WRITE, EventKind.DIRTY_BIT_WRITE):
            assert event.va is not None
            pte_writers.setdefault(event.va, []).append(eid)
        elif event.kind is EventKind.PT_WALK:
            walks.append(eid)

    source_choices: list[list[Optional[str]]] = []
    for walk in walks:
        if walk_sources is not None and walk in walk_sources:
            source_choices.append([walk_sources[walk]])
        else:
            va = events[walk].va
            assert va is not None
            source_choices.append([None] + pte_writers.get(va, []))

    for combo in product(*source_choices):
        walk_source = {
            walk: src for walk, src in zip(walks, combo) if src is not None
        }
        try:
            context = walk_source_context(program, walk_source, rf_ptw)
        except WellFormednessError:
            continue
        writers, readers = context.scan_views(program)
        pte_rf = [(src, walk) for walk, src in walk_source.items()]

        # Coherence orders: enumerate linear extensions per location.
        # Surviving co constraints whose endpoints no longer share a
        # location (a relaxation changed the value flow) are dropped.
        co_options: list[list[tuple[str, ...]]] = []
        satisfiable = True
        for members in writers.values():
            if len(members) < 2:
                continue
            constraints = {
                (a, b) for a, b in co_must if a in members and b in members
            }
            orders = list(_linear_extensions(members, constraints))
            if not orders:
                satisfiable = False  # some co_must constraint is unsatisfiable here
                break
            co_options.append(orders)
        if not satisfiable:
            continue

        # Data rf choices per read.
        read_ids = [read for read, _loc, _sources in readers]
        if data_rf is not None:
            location_of_read = {read: loc for read, loc, _sources in readers}
            fixed_source: dict[str, Optional[str]] = dict.fromkeys(read_ids)
            for src, dst in data_rf:
                loc = location_of_read.get(dst)
                if loc is not None and src in writers.get(loc, ()):
                    fixed_source[dst] = src
            rf_choices = [[fixed_source[read]] for read in read_ids]
        else:
            rf_choices = [[None, *sources] for _read, _loc, sources in readers]

        for co_orders in product(*co_options):
            co_pa: Optional[frozenset[Pair]] = frozenset()
            if remap_targets:
                ordered = {
                    pair for order in co_orders for pair in zip(order, order[1:])
                }
                co_pa = _canonical_co_pa(remap_targets, ordered | co_pa_must)
                if co_pa is None:
                    continue
            for rf_combo in product(*rf_choices):
                rf = list(pte_rf)
                rf.extend(
                    (src, read)
                    for read, src in zip(read_ids, rf_combo)
                    if src is not None
                )
                try:
                    yield Execution(
                        program,
                        rf,
                        co_pa=co_pa,
                        context=context,
                        co_orders=co_orders,
                    )
                except WellFormednessError:
                    continue
