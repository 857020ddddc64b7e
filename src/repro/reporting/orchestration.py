"""Reporting for orchestrated (sharded) synthesis runs.

Renders the per-shard runtime breakdown of one :class:`~repro.orchestrate.
runner.OrchestratedResult` and the cache summary of a sweep — the
operational counterpart to the paper-facing Fig 9 tables.
"""

from __future__ import annotations

from typing import Iterable

from .tables import render_table


def render_shard_runtimes(
    orchestrated, title: str = "", cached: bool = False
) -> str:
    """Per-shard table: work unit, programs, executions, ELTs, runtime.
    ``cached`` (a store was consulted) adds the suite's cache outcome to
    the footer."""
    rows = []
    for shard in orchestrated.shard_results:
        rows.append(
            (
                shard.spec.label,
                shard.stats.programs_enumerated,
                shard.stats.executions_enumerated,
                shard.stats.unique_programs,
                f"{shard.runtime_s:.3f}",
                "yes" if shard.timed_out else "",
            )
        )
    table = render_table(
        ["shard", "programs", "executions", "elts", "runtime_s", "timed_out"],
        rows,
        title=title
        or (
            f"per-shard runtimes ({orchestrated.jobs} worker(s), "
            f"{len(orchestrated.shard_specs)} shard(s))"
        ),
    )
    footer = (
        f"cross-shard duplicate ELTs merged: "
        f"{orchestrated.report.cross_shard_duplicates}"
    )
    if cached:
        footer = f"cache: suite_hit={orchestrated.suite_cache_hit}; " + footer
    return f"{table}\n{footer}"


def render_sweep_cache_summary(records: Iterable) -> str:
    """One row per sweep point: where its result came from."""
    rows = []
    for record in records:
        rows.append(
            (
                record.result.target_axiom or "any",
                record.result.bound,
                record.result.count,
                "cache" if record.suite_cache_hit else "computed",
                f"{record.result.stats.runtime_s:.3f}",
                "yes" if record.result.stats.timed_out else "",
            )
        )
    return render_table(
        ["axiom", "bound", "elts", "source", "runtime_s", "timed_out"],
        rows,
        title="sweep points (resume/cache summary)",
    )
