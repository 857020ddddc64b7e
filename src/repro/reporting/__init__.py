"""Experiment drivers and plain-text reporting (tables, ASCII figures)."""

from .._lazy import lazy_exports
from .tables import (
    render_sat_counters,
    render_symmetry_counters,
    render_series_table,
    render_stage_profile,
    render_table,
)

# ``synthesize`` prints its counters through ``tables``; the experiment
# drivers and the other renderers load on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "experiments": (
            "DEFAULT_CORPUS_BOUNDS",
            "DEFAULT_MAX_BOUNDS",
            "comparison_corpus",
            "fig9_sweep",
            "render_comparison",
            "render_fig9a",
            "render_fig9b",
            "resolve_max_bounds",
            "resolve_sweep_budget",
            "run_coatcheck_comparison",
            "tlb_causality_attribution",
        ),
        "conformance": (
            "amd_bug_case_study",
            "render_amd_bug_report",
            "render_conformance_cell",
            "render_conformance_matrix",
            "render_pair_cache_summary",
        ),
        "figures": ("render_log_plot",),
        "orchestration": ("render_shard_runtimes", "render_sweep_cache_summary"),
    },
)

__all__ = [
    "render_table",
    "render_sat_counters",
    "render_symmetry_counters",
    "render_stage_profile",
    "render_series_table",
    "render_log_plot",
    "render_shard_runtimes",
    "render_sweep_cache_summary",
    "amd_bug_case_study",
    "render_amd_bug_report",
    "render_conformance_cell",
    "render_conformance_matrix",
    "render_pair_cache_summary",
    "fig9_sweep",
    "render_fig9a",
    "render_fig9b",
    "tlb_causality_attribution",
    "comparison_corpus",
    "run_coatcheck_comparison",
    "render_comparison",
    "DEFAULT_MAX_BOUNDS",
    "DEFAULT_CORPUS_BOUNDS",
    "resolve_max_bounds",
    "resolve_sweep_budget",
]
