"""Textual rendering and serialization of ELTs.

Two formats:

* :func:`format_execution` — a human-readable, paper-figure-like listing
  (per-core columns, ghost instructions indented, witness and key derived
  edges listed below);
* :func:`serialize_elt` — a compact line-oriented machine format that
  round-trips through :mod:`repro.litmus.parser`.

Both read an ELT's program and witness — ``program``, ``rf``, ``co`` and
``co_pa`` — so they take an :class:`~repro.mtm.Execution` or a
synthesized ELT (:class:`~repro.synth.SynthesizedElt`), which keeps only
its witness.  Only the derived lines of :func:`format_execution` need an
execution; a synthesized ELT rebuilds one for them.

Events are addressed positionally in the machine format: ``T.S`` is the
non-ghost instruction at slot S of thread T; ``walk:T.S`` / ``wdb:T.S``
name its ghost page-table walk / dirty-bit write.
"""

from __future__ import annotations

from typing import Mapping

from ..mtm import Event, EventKind, Execution, Program, names


def _position_names(program: Program) -> Mapping[str, str]:
    """eid -> positional reference (T.S, walk:T.S, wdb:T.S)."""
    out: dict[str, str] = {}
    for core, thread in enumerate(program.threads):
        for slot, eid in enumerate(thread):
            out[eid] = f"{core}.{slot}"
            for ghost in program.ghosts.get(eid, ()):
                kind = program.events[ghost].kind
                prefix = "walk" if kind is EventKind.PT_WALK else "wdb"
                out[ghost] = f"{prefix}:{core}.{slot}"
    return out


def _instruction_text(event: Event, program: Program) -> str:
    if event.kind is EventKind.FENCE:
        return "MFENCE"
    if event.kind is EventKind.TLB_FLUSH:
        return "TLBFLUSH"
    if event.kind is EventKind.PTE_WRITE:
        return f"WPTE {event.va} -> {event.pa}"
    return f"{event.kind.value} {event.va}"


def format_program(program: Program) -> str:
    """Figure-style listing: one section per core, ghosts indented."""
    remap_sources = {inv: pte for pte, inv in program.remap}
    refs = _position_names(program)
    rmw_reads = {r for r, _ in program.rmw}
    lines: list[str] = []
    for core, thread in enumerate(program.threads):
        lines.append(f"C{core}:")
        for eid in thread:
            event = program.events[eid]
            note = ""
            if eid in remap_sources:
                note = f"   (remap of {refs[remap_sources[eid]]})"
            if eid in rmw_reads:
                note = "   (rmw with next)"
            lines.append(f"  [{refs[eid]}] {_instruction_text(event, program)}{note}")
            for ghost in program.ghosts.get(eid, ()):
                g = program.events[ghost]
                lines.append(f"      `- {g.kind.value} pte({g.va})")
    if not program.threads:
        lines.append("(empty)")
    return "\n".join(lines)


def format_execution(elt, show_derived: bool = True) -> str:
    """Program listing plus witness edges and key derived relations."""
    program = elt.program
    refs = _position_names(program)
    lines = [format_program(program)]

    def edge_lines(title: str, pairs) -> None:
        pairs = sorted(pairs, key=lambda ab: (refs[ab[0]], refs[ab[1]]))
        if pairs:
            rendered = ", ".join(f"{refs[a]} -> {refs[b]}" for a, b in pairs)
            lines.append(f"  {title}: {rendered}")

    lines.append("witness:")
    edge_lines("rf", elt.rf)
    edge_lines("co", elt.co)
    edge_lines("co_pa", elt.co_pa)
    if show_derived:
        execution = elt if isinstance(elt, Execution) else elt.execution
        lines.append("derived:")
        for name in (names.FR, names.RF_PTW, names.RF_PA, names.FR_VA):
            edge_lines(name, execution.relation(name).tuples)
        outcome = []
        for eid, event in program.events.items():
            if event.kind is EventKind.READ:
                sources = [a for a, b in elt.rf if b == eid]
                src = refs[sources[0]] if sources else "initial"
                outcome.append(f"{refs[eid]}={src}")
        if outcome:
            lines.append("  reads: " + ", ".join(sorted(outcome)))
    return "\n".join(lines)


def serialize_elt(elt) -> str:
    """Round-trippable machine format (see module docstring)."""
    program = elt.program
    refs = _position_names(program)
    wpte_order = [
        eid
        for thread in program.threads
        for eid in thread
        if program.events[eid].kind is EventKind.PTE_WRITE
    ]
    wpte_index = {eid: i for i, eid in enumerate(wpte_order)}
    remap_sources = {inv: pte for pte, inv in program.remap}

    lines = ["elt"]
    if program.mcm_mode:
        lines.append("mcm")
    for va in sorted(program.initial_map):
        lines.append(f"map {va} {program.initial_map[va]}")
    for core, thread in enumerate(program.threads):
        lines.append(f"thread {core}")
        for eid in thread:
            event = program.events[eid]
            if event.kind is EventKind.FENCE:
                lines.append("  fence")
                continue
            if event.kind is EventKind.TLB_FLUSH:
                lines.append("  tlbflush")
                continue
            if event.kind is EventKind.PTE_WRITE:
                lines.append(f"  wpte {event.va} {event.pa}")
                continue
            if event.kind is EventKind.INVLPG:
                source = remap_sources.get(eid)
                if source is None:
                    lines.append(f"  invlpg {event.va}")
                else:
                    lines.append(f"  ipi {wpte_index[source]}")
                continue
            has_walk = any(
                program.events[g].kind is EventKind.PT_WALK
                for g in program.ghosts.get(eid, ())
            )
            mode = "miss" if has_walk else "hit"
            if program.mcm_mode:
                mode = "plain"
            op = "r" if event.kind is EventKind.READ else "w"
            lines.append(f"  {op} {event.va} {mode}")
    for r, w in sorted(program.rmw, key=lambda p: refs[p[0]]):
        lines.append(f"rmw {refs[r]} {refs[w]}")
    for a, b in sorted(elt.rf, key=lambda p: (refs[p[0]], refs[p[1]])):
        lines.append(f"rf {refs[a]} {refs[b]}")
    for a, b in sorted(elt.co, key=lambda p: (refs[p[0]], refs[p[1]])):
        lines.append(f"co {refs[a]} {refs[b]}")
    for a, b in sorted(elt.co_pa, key=lambda p: (refs[p[0]], refs[p[1]])):
        lines.append(f"co_pa {refs[a]} {refs[b]}")
    return "\n".join(lines) + "\n"
