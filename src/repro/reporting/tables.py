"""Plain-text table rendering for experiment reports."""

from __future__ import annotations

from typing import Iterable, Sequence


def render_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    title: str = "",
) -> str:
    """Fixed-width ASCII table.

    >>> print(render_table(["a", "b"], [[1, 22]]))
    a | b
    --+---
    1 | 22
    """
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines: list[str] = []
    if title:
        lines.append(title)
        lines.append("=" * len(title))
    lines.append(
        " | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)).rstrip()
    )
    lines.append("-+-".join("-" * w for w in widths))
    for row in materialized:
        lines.append(
            " | ".join(
                cell.ljust(widths[i]) for i, cell in enumerate(row)
            ).rstrip()
        )
    return "\n".join(lines)


def render_sat_counters(stats) -> str:
    """The SAT backend's counter table for one run's
    :class:`~repro.synth.SuiteStats`: core (deterministic) solver
    counters plus the session counters — how many programs got a
    session, and how many translations ran vs were shared by the other
    queries of a fused run."""
    rows = [
        ("decisions", stats.sat_decisions),
        ("propagations", stats.sat_propagations),
        ("conflicts", stats.sat_conflicts),
        ("learned clauses", stats.sat_learned_clauses),
        ("sessions opened", stats.sat_sessions),
        ("translations", stats.sat_translations),
        ("translations avoided", stats.sat_translations_avoided),
    ]
    return render_table(["sat counter", "value"], rows)


def render_symmetry_counters(stats) -> str:
    """The symmetry subsystem's counter table for one run's
    :class:`~repro.synth.SuiteStats`: how many programs admitted
    witness-orbit pruning, how many witnesses a representative stood in
    for, and how many lex-leader clauses the SAT backend emitted (all
    deterministic for a fixed configuration)."""
    rows = [
        ("symmetric programs", stats.symmetric_programs),
        ("witnesses orbit-pruned", stats.orbit_witnesses_pruned),
        ("lex-leader clauses", stats.sat_symmetry_clauses),
    ]
    return render_table(["symmetry counter", "value"], rows)


def render_stage_profile(stats, runtime_s: float) -> str:
    """``--profile`` output: per-stage wall time as a JSON document.

    Stage semantics: the stages are disjoint, so a serial run's stages
    add up to at most ``runtime_s``.  ``generate`` is time pulling
    programs from the ordered stream; ``translate`` / ``solve`` /
    ``decode`` are the SAT witness session's breakdown of candidate
    production; ``enumerate`` is the rest of the time pulling witnesses
    in the program loop (explicit enumeration, orbit pruning — the
    session stages are subtracted from it);
    ``minimality`` is the §IV-B checks and ``classify`` the rest of
    consuming each witness (axiom verdicts, keys, representative
    selection).
    The document is rendered as a view over the unified metrics
    registry (:func:`repro.obs.registry_from_suite_stats` is the naming
    authority for the ``stage_s.*`` gauges), so ``--profile``, the run
    manifests, and trace exports all agree by construction.
    """
    import json

    from ..obs import registry_from_suite_stats

    prefix = "stage_s."
    gauges = registry_from_suite_stats(stats).gauges
    stages = {name[len(prefix):]: round(value, 6)
              for name, value in sorted(gauges.items())
              if name.startswith(prefix)}
    return json.dumps(
        {
            "kind": "stage-profile",
            "schema": 1,
            "stages": stages,
            "total_s": round(runtime_s, 6),
        },
        indent=2,
        sort_keys=True,
    )


def render_series_table(
    series: dict[str, dict[int, object]],
    x_label: str,
    title: str = "",
    missing: str = "-",
) -> str:
    """Table with one row per x value and one column per named series
    (the natural shape for the Fig 9 data)."""
    xs = sorted({x for values in series.values() for x in values})
    names = list(series)
    headers = [x_label] + names
    rows = []
    for x in xs:
        row: list[object] = [x]
        for name in names:
            value = series[name].get(x, None)
            if isinstance(value, float):
                row.append(f"{value:.3f}")
            else:
                row.append(missing if value is None else value)
        rows.append(row)
    return render_table(headers, rows, title=title)
