"""Shared experiment drivers behind the benchmarks, examples and
EXPERIMENTS.md.

Each function reproduces one evaluation artifact of the paper:

* :func:`fig9_sweep` — the per-axiom bound sweep behind Figs 9a/9b;
* :func:`render_fig9a` / :func:`render_fig9b` — the two figures;
* :func:`comparison_corpus` + :func:`run_coatcheck_comparison` — §VI-B;
* :func:`tlb_causality_attribution` — the "5 of 140 attributed to
  tlb_causality" diagnostic count (§V-A2), at our reachable bounds.

Sweeps are cached per parameter set so Fig 9a and Fig 9b (and the unique
ELT totals) share one synthesis run.
"""

from __future__ import annotations

import os
from typing import Mapping, Optional

from ..models import X86T_ELT_AXIOM_NAMES, x86t_elt
from ..synth import SweepResult, SynthesisConfig, synthesize, synthesize_sweep
from ..synth.canon import ProgramKey
from .figures import render_log_plot
from .tables import render_series_table, render_table

#: Default per-axiom maximum bounds: chosen so the full sweep finishes in
#: a few minutes of pure Python (the paper ran each point up to one week
#: on a server, reaching bounds 10-17).  Override via environment:
#: ``REPRO_FIG9_MAX_BOUND`` (single cap) or ``REPRO_FIG9_BUDGET_S``.
DEFAULT_MAX_BOUNDS: Mapping[str, int] = {
    "sc_per_loc": 8,
    "rmw_atomicity": 9,
    "causality": 8,
    "invlpg": 8,
    "tlb_causality": 8,
}

_SWEEP_CACHE: dict[tuple, SweepResult] = {}


def _env_int(name: str) -> Optional[int]:
    raw = os.environ.get(name)
    return int(raw) if raw else None


def _env_float(name: str) -> Optional[float]:
    raw = os.environ.get(name)
    return float(raw) if raw else None


def resolve_max_bounds(
    max_bounds: Optional[Mapping[str, int]] = None,
    axioms: Optional[list[str]] = None,
) -> Mapping[str, int]:
    """The per-axiom bound caps a sweep should use: explicit mapping,
    else ``REPRO_FIG9_MAX_BOUND``, else :data:`DEFAULT_MAX_BOUNDS`;
    optionally restricted to ``axioms``."""
    if max_bounds is None:
        cap = _env_int("REPRO_FIG9_MAX_BOUND")
        if cap is not None:
            max_bounds = {axiom: cap for axiom in X86T_ELT_AXIOM_NAMES}
        else:
            max_bounds = DEFAULT_MAX_BOUNDS
    if axioms is not None:
        max_bounds = {
            axiom: bound
            for axiom, bound in max_bounds.items()
            if axiom in axioms
        }
    return max_bounds


def resolve_sweep_budget(
    time_budget_per_run_s: Optional[float] = None,
) -> float:
    """The per-run time budget: explicit value, else
    ``REPRO_FIG9_BUDGET_S``, else 120 seconds."""
    if time_budget_per_run_s is not None:
        return time_budget_per_run_s
    return _env_float("REPRO_FIG9_BUDGET_S") or 120.0


def fig9_sweep(
    max_bounds: Optional[Mapping[str, int]] = None,
    time_budget_per_run_s: Optional[float] = None,
    witness_backend: str = "explicit",
    symmetry: bool = True,
) -> SweepResult:
    """Run (or fetch from cache) the Fig 9 per-axiom bound sweep."""
    max_bounds = resolve_max_bounds(max_bounds)
    time_budget_per_run_s = resolve_sweep_budget(time_budget_per_run_s)
    key = (
        tuple(sorted(max_bounds.items())),
        time_budget_per_run_s,
        witness_backend,
        symmetry,
    )
    if key in _SWEEP_CACHE:
        return _SWEEP_CACHE[key]
    sweep = SweepResult()
    for axiom in X86T_ELT_AXIOM_NAMES:
        if axiom not in max_bounds:
            continue
        base = SynthesisConfig(
            bound=max_bounds[axiom],
            model=x86t_elt(),
            witness_backend=witness_backend,
            symmetry=symmetry,
        )
        partial = synthesize_sweep(
            base,
            axioms=[axiom],
            min_bound=4,
            max_bound=max_bounds[axiom],
            time_budget_per_run_s=time_budget_per_run_s,
        )
        sweep.points.extend(partial.points)
        sweep.skipped.extend(partial.skipped)
    _SWEEP_CACHE[key] = sweep
    return sweep


def render_fig9a(sweep: SweepResult) -> str:
    counts = {
        axiom: {b: c for b, c in by_bound.items() if c > 0}
        for axiom, by_bound in sweep.counts().items()
    }
    table = render_series_table(
        sweep.counts(),
        x_label="bound",
        title="Fig 9a — synthesized ELTs per per-axiom suite",
    )
    plot = render_log_plot(
        counts, title="", y_label="number of ELTs (log)"
    )
    unique = len(sweep.unique_elts())
    return f"{table}\n\n{plot}\n\nunique ELT programs across all suites: {unique}"


def render_fig9b(sweep: SweepResult) -> str:
    table = render_series_table(
        sweep.runtimes(),
        x_label="bound",
        title="Fig 9b — synthesis runtime (s) per per-axiom suite",
    )
    plot = render_log_plot(
        sweep.runtimes(), title="", y_label="runtime seconds (log)"
    )
    return f"{table}\n\n{plot}"


def tlb_causality_attribution(sweep: SweepResult) -> tuple[int, int]:
    """(ELTs in the tlb_causality suite, unique ELTs overall) — the §V-A2
    diagnostic attribution (paper: 5 of 140)."""
    tlb_keys: set[ProgramKey] = set()
    for point in sweep.points:
        if point.axiom == "tlb_causality":
            tlb_keys |= point.result.keys()
    return len(tlb_keys), len(sweep.unique_elts())


# ----------------------------------------------------------------------
# §VI-B comparison
# ----------------------------------------------------------------------
DEFAULT_CORPUS_BOUNDS: Mapping[str, int] = {
    "sc_per_loc": 6,
    "rmw_atomicity": 7,
    "causality": 6,
    "invlpg": 5,
    "tlb_causality": 4,
}


def comparison_corpus(
    bounds: Optional[Mapping[str, int]] = None,
) -> set[ProgramKey]:
    """Union of per-axiom synthesized program keys for §VI-B."""
    bounds = bounds or DEFAULT_CORPUS_BOUNDS
    model = x86t_elt()
    keys: set[ProgramKey] = set()
    for axiom, bound in bounds.items():
        result = synthesize(
            SynthesisConfig(bound=bound, model=model, target_axiom=axiom)
        )
        keys |= result.keys()
    return keys


def run_coatcheck_comparison(
    corpus: Optional[set[ProgramKey]] = None,
):
    from ..litmus import coatcheck_suite, compare_suite

    corpus = corpus if corpus is not None else comparison_corpus()
    return compare_suite(coatcheck_suite(), corpus, x86t_elt())


def render_comparison(report) -> str:
    summary = render_table(
        ["metric", "reproduction", "paper"],
        [
            (name, value, paper)
            for (name, value), paper in zip(
                report.summary_rows(),
                [40, 9, 9, 22, 7, 4, 15, 0],
            )
        ],
        title="§VI-B — comparison against the hand-written COATCheck suite",
    )
    detail = render_table(
        ["test", "category", "removed events"],
        [
            (
                c.name,
                c.category.value,
                len(c.removed_events) if c.removed_events else "",
            )
            for c in report.classifications
        ],
    )
    return f"{summary}\n\n{detail}"
