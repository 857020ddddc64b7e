"""The layer map of the traced run: where spans open, and how the span
trees of one traced invocation become the per-layer metrics.

Each wrap point names a function at the place its callers resolve it
(``module:attribute``).  Span names group wrap points into layers; a
layer metric ending in ``_s`` is the summed *self* time of its spans
except ``relax.minimality_s``, the total time of the outermost
minimality checks (the parent of the ``relax.*`` times).  Every
self-time metric plus ``unattributed_s`` adds up to the traced
process's wall time plus the time its pool workers spent, per process
tree (see :func:`layer_metrics`).
"""

from __future__ import annotations

from collections import Counter

from tracing import self_time, walk

#: Span names whose self time is not any layer's work: the process,
#: worker and CLI frames around the layers.  Their self time is
#: ``unattributed_s``.
STRUCTURAL = {
    "process",
    "main",
    "worker",
    "worker.task",
    "cli.main",
    "cli.command",
    "synth.finalize",
    "orchestrate.schedule",
}

MINIMALITY = {"relax.minimality", "relax.cached", "relax.is_minimal"}
MODELS = {"models.permits", "models.axiom", "models.evaluator", "models.verdicts"}

#: Span name -> the self-time metric it feeds (``models.*`` spans are
#: resolved by context in :func:`self_metric`).
SELF_METRIC = {
    "startup": "startup_s",
    "shutdown": "shutdown_s",
    "trace.install": "trace.install_s",
    "skeletons.generate": "skeletons.generate_s",
    "symmetry.analyze": "symmetry.analyze_s",
    "symmetry.key": "symmetry.key_s",
    "symmetry.prune": "symmetry.key_s",
    "witnesses.enumerate": "witnesses.enumerate_s",
    "sat.session": "sat.translate_s",
    "sat.translate": "sat.translate_s",
    "sat.solve": "sat.solve_s",
    "sat.decode": "sat.decode_s",
    "sat.enumerate": "sat.decode_s",
    "relax.minimality": "relax.self_s",
    "relax.cached": "relax.self_s",
    "relax.is_minimal": "relax.self_s",
    "relax.relaxed_program": "relax.relaxed_program_s",
    "relax.constrained_enum": "relax.constrained_enum_s",
    "mtm.derive": "mtm.derive_s",
    "canon.key": "canon.key_s",
    "conformance.pipeline": "conformance.classify_s",
    "conformance.classify": "conformance.classify_s",
    "conformance.merge": "conformance.merge_s",
    "fuzz.generate": "fuzz.generate_s",
    "fuzz.oracle": "fuzz.oracle_s",
    "fuzz.shrink": "fuzz.shrink_s",
    "orchestrate.pool": "orchestrate.pool_s",
    "cli.render": "cli.render_s",
}

#: Every per-layer metric, in report order, with its unit.
METRICS = {
    "startup_s": "s",
    "shutdown_s": "s",
    "trace.install_s": "s",
    "skeletons.generate_s": "s",
    "skeletons.programs": "count",
    "symmetry.analyze_s": "s",
    "symmetry.key_s": "s",
    "symmetry.prunable_programs": "count",
    "symmetry.witnesses_pruned": "count",
    "witnesses.enumerate_s": "s",
    "witnesses.executions": "count",
    "sat.translate_s": "s",
    "sat.solve_s": "s",
    "sat.decode_s": "s",
    "sat.sessions": "count",
    "sat.propagations": "count",
    "sat.conflicts": "count",
    "models.classify_s": "s",
    "models.classify_calls": "count",
    "models.interesting_ratio": "ratio",
    "relax.minimality_s": "s",
    "relax.relaxed_program_s": "s",
    "relax.constrained_enum_s": "s",
    "relax.permits_s": "s",
    "relax.self_s": "s",
    "relax.checks": "count",
    "relax.relaxations": "count",
    "relax.cache_hit_ratio": "ratio",
    "relax.minimal_ratio": "ratio",
    "mtm.derive_s": "s",
    "mtm.executions_built": "count",
    "canon.key_s": "s",
    "conformance.classify_s": "s",
    "conformance.merge_s": "s",
    "conformance.pairs": "count",
    "fuzz.generate_s": "s",
    "fuzz.oracle_s": "s",
    "fuzz.shrink_s": "s",
    "fuzz.oracle_calls": "count",
    "fuzz.memo_hit_ratio": "ratio",
    "fuzz.shrink_steps": "count",
    "fuzz.discriminating_ratio": "ratio",
    "orchestrate.pool_s": "s",
    "orchestrate.spawn_s": "s",
    "orchestrate.shards": "count",
    "resilience.retries": "count",
    "cli.render_s": "s",
    "unattributed_s": "s",
    "trace.overhead_s": "s",
    "profile.total_gap_s": "s",
}

#: Self-time metrics that, with ``unattributed_s``, add up to the trees.
ADDITIVE = sorted(set(SELF_METRIC.values()) | {"models.classify_s", "relax.permits_s"})


def wrap_points(tree) -> list:
    """``(target, span name, kind, hook)`` for one process (see
    :func:`tracing.install`); hooks record counts into ``tree``."""

    def prunable(node, result):
        node.hits += bool(result.prunable)

    def true(node, result):
        node.hits += bool(result)

    def false(node, result):
        node.hits += not result

    def orbit_weights(node, result):
        node.hits += sum(weight - 1 for _execution, weight in result)

    def orbit_weight(node, item):
        node.hits += item[1] - 1

    def suite_stats(node, result):
        tree.extra["suite_stats"] = _stats_fields(result.stats)

    def merged_cell(node, result):
        tree.extra.setdefault("cells", []).append(_stats_fields(result[0].stats))

    def retries(node, result):
        tree.extra["retries"] = tree.extra.get("retries", 0) + result.stats.retries

    points = [
        ("repro.cli:main", "cli.main", "call", None),
        ("repro.cli:synthesize", "cli.command", "call", None),
        ("repro.conformance:run_all_pairs", "cli.command", "call", None),
        ("repro.fuzz:run_fuzz", "cli.command", "call", None),
        ("repro.cli:format_execution", "cli.render", "call", None),
        ("repro.reporting:render_sat_counters", "cli.render", "call", None),
        ("repro.reporting:render_symmetry_counters", "cli.render", "call", None),
        ("repro.litmus:suite_from_synthesis", "cli.render", "call", None),
        ("repro.litmus.suitefile:EltSuite.save", "cli.render", "call", None),
        ("repro.conformance.matrix:ConformanceMatrix.to_json", "cli.render", "call", None),
        ("repro.synth.engine:finalize_result", "synth.finalize", "call", suite_stats),
        ("repro.synth.engine:enumerate_programs", "skeletons.generate", "gen", None),
        ("repro.conformance.worker:shard_programs", "skeletons.generate", "gen", None),
        ("repro.synth.engine:enumerate_witnesses", "witnesses.enumerate", "gen", None),
        ("repro.synth.relax:enumerate_witnesses_constrained", "relax.constrained_enum", "gen", None),
        ("repro.synth.relax:relaxed_program", "relax.relaxed_program", "call", None),
        ("repro.synth.relax:without_rmw_pair", "relax.relaxed_program", "call", None),
        ("repro.fuzz.shrink:relaxed_program", "relax.relaxed_program", "call", None),
        ("repro.fuzz.shrink:without_rmw_pair", "relax.relaxed_program", "call", None),
        ("repro.synth.relax:is_minimal", "relax.is_minimal", "call", true),
        ("repro.synth.engine:cached_is_minimal", "relax.cached", "call", true),
        ("repro.synth.engine:_uncached_is_minimal", "relax.minimality", "call", true),
        ("repro.conformance.diff:cached_is_minimal", "relax.cached", "call", true),
        ("repro.conformance.diff:is_minimal", "relax.minimality", "call", true),
        ("repro.fuzz.oracle:cached_is_minimal", "relax.cached", "call", true),
        ("repro.fuzz.oracle:is_minimal", "relax.minimality", "call", true),
        ("repro.models.base:MemoryModel.permits", "models.permits", "call", false),
        ("repro.models.base:Axiom.holds", "models.axiom", "call", None),
        ("repro.models.compare:AxiomTable.evaluator", "models.evaluator", "call", None),
        ("repro.models.compare:PairClassifier.verdicts", "models.verdicts", "call", None),
        ("repro.mtm.execution:Execution.__init__", "mtm.derive", "call", None),
        ("repro.synth.sat_backend:WitnessSession.__init__", "sat.session", "call", None),
        ("repro.synth.sat_backend:WitnessSession._ensure_psession", "sat.translate", "call", None),
        ("repro.synth.sat_backend:WitnessSession.weighted_witnesses", "sat.enumerate", "call", orbit_weights),
        ("repro.synth.sat_backend:WitnessProblem._decode", "sat.decode", "call", None),
        ("repro.relational.translate:ProblemSession.iter_base_instances", "sat.solve", "gen", None),
        ("repro.synth.sat_backend:witness_orbit", "symmetry.key", "call", None),
        ("repro.conformance.diff:_DiffAccumulator.observe", "conformance.classify", "call", None),
        ("repro.conformance.worker:run_multi_diff_pipeline", "conformance.pipeline", "call", None),
        ("repro.conformance.runner:merge_diff_shards", "conformance.merge", "call", merged_cell),
        ("repro.conformance.runner:run_resilient_tasks", "orchestrate.schedule", "call", retries),
        ("repro.resilience.scheduler:_run_pooled", "orchestrate.pool", "call", None),
        ("repro.fuzz.worker:build_program", "fuzz.generate", "call", None),
        ("repro.fuzz.worker:shrink", "fuzz.shrink", "call", None),
        ("repro.fuzz.oracle:DifferentialOracle.classify", "fuzz.oracle", "call", None),
        ("repro.fuzz.oracle:DifferentialOracle.judge", "fuzz.oracle", "call", None),
    ]
    for namespace in ("synth.engine", "conformance.diff", "fuzz.oracle"):
        module = f"repro.{namespace}"
        points += [
            (f"{module}:program_symmetry", "symmetry.analyze", "call", prunable),
            (f"{module}:execution_key_via", "symmetry.key", "call", None),
            (f"{module}:witness_sort_key", "symmetry.key", "call", None),
            (f"{module}:canonical_execution_key", "canon.key", "call", None),
            (f"{module}:canonical_program_key", "canon.key", "call", None),
            (f"{module}:identity_program_key", "canon.key", "call", None),
        ]
    points += [
        ("repro.synth.engine:prune_weighted", "symmetry.prune", "gen", orbit_weight),
        # Generation-time pruning computes (and memoizes on the program)
        # each program's symmetry; the canonical serialization behind it
        # and behind the canonical keys is the canon layer's work.
        ("repro.synth.skeletons:program_symmetry", "symmetry.analyze", "call", None),
        ("repro.symmetry.groups:_serialize", "canon.key", "call", None),
        ("repro.synth.canon:_serialize", "canon.key", "call", None),
    ]
    return points


#: Pool worker task entry points.  Wrapped only inside workers: the
#: parent pickles them by reference, so they must stay the originals there.
WORKER_ENTRIES = (
    "repro.conformance.worker:run_multi_diff_shard",
    "repro.conformance.worker:run_diff_shard",
    "repro.fuzz.worker:run_fuzz_shard",
    "repro.orchestrate.worker:run_shard",
)


_STATS_FIELDS = (
    "executions_enumerated",
    "interesting",
    "sat_propagations",
    "sat_conflicts",
)


def _stats_fields(stats) -> dict:
    return {name: getattr(stats, name, 0) for name in _STATS_FIELDS}


def self_metric(name: str, ancestors: tuple):
    """The self-time metric of a span, or None for structural spans."""
    if name in MODELS:
        return "relax.permits_s" if MINIMALITY & set(ancestors) else "models.classify_s"
    return SELF_METRIC.get(name)


def _leaf(name: str, seconds: float) -> dict:
    return {"name": name, "count": 1, "total_s": seconds, "items": 0, "hits": 0, "children": []}


def process_tree(main: dict, popen_started: float, wall_s: float) -> dict:
    """The traced process as one tree.  Its outside-measured wall time is
    the root.  The children are interpreter start-up (process start until
    the trace hook ran), the in-process spans, and shutdown (the CLI's
    return until the process was reaped: writing the span tree plus
    interpreter teardown).  The root's self time is what the clocks on
    either side of the process boundary do not cover."""
    extra = main["extra"]
    startup = _leaf("startup", extra["hook_started"] - popen_started)
    shutdown = _leaf("shutdown", popen_started + wall_s - extra["main_returned"])
    return {
        "name": "process",
        "count": 1,
        "total_s": wall_s,
        "items": 0,
        "hits": 0,
        "children": [startup] + main["root"]["children"] + [shutdown],
    }


def worker_tree(worker: dict) -> dict:
    """A pool worker's tree: its root is the sum of its spans (the
    worker's idle time between tasks is not work)."""
    root = dict(worker["root"])
    root["total_s"] = sum(child["total_s"] for child in root["children"])
    return root


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trees: list, main_extra: dict, worker_extras: list, outside: dict) -> dict:
    """Fold every process tree of one traced invocation into the
    per-layer metrics.  ``outside`` carries what the benchmark measured
    around the process: traced and untraced wall time, the program's own
    ``--profile`` total and its fuzz counters."""
    values = {name: 0.0 for name in METRICS}
    #: (span name, "count" | "items" | "hits") -> sum over every node.
    sums = Counter()
    #: Counts over the outermost minimality checks and classifications.
    outer = Counter()
    for tree in trees:
        for node, ancestors in walk(tree):
            name = node["name"]
            metric = self_metric(name, ancestors) or "unattributed_s"
            values[metric] += self_time(node)
            for key in ("count", "items", "hits"):
                sums[name, key] += node[key]
            in_minimality = bool(MINIMALITY & set(ancestors))
            if name in MINIMALITY and not in_minimality:
                values["relax.minimality_s"] += node["total_s"]
                outer["checks"] += node["count"]
                outer["minimal"] += node["hits"]
            if name == "relax.cached" and not in_minimality:
                outer["cached"] += node["count"]
            if name == "relax.is_minimal" and ancestors[-1:] == ("relax.cached",):
                outer["cache_misses"] += node["count"]
            if name in MODELS - {"models.axiom"} and not (
                in_minimality or MODELS & set(ancestors)
            ):
                outer["classify"] += node["count"]

    stats = main_extra.get("suite_stats") or {}
    cells = main_extra.get("cells") or ([stats] if stats else [])
    values["skeletons.programs"] = sums["skeletons.generate", "items"]
    values["symmetry.prunable_programs"] = sums["symmetry.analyze", "hits"]
    values["symmetry.witnesses_pruned"] = (
        sums["symmetry.prune", "hits"] + sums["sat.enumerate", "hits"]
    )
    values["witnesses.executions"] = sums["witnesses.enumerate", "items"]
    values["sat.sessions"] = sums["sat.session", "count"]
    values["sat.propagations"] = stats.get("sat_propagations", 0)
    values["sat.conflicts"] = stats.get("sat_conflicts", 0)
    values["models.classify_calls"] = outer["classify"]
    if cells:
        values["models.interesting_ratio"] = _ratio(
            sum(cell["interesting"] for cell in cells),
            sum(cell["executions_enumerated"] for cell in cells),
        )
    else:
        values["models.interesting_ratio"] = _ratio(
            sums["models.permits", "hits"], sums["models.permits", "count"]
        )
    values["relax.checks"] = outer["checks"]
    values["relax.minimal_ratio"] = _ratio(outer["minimal"], outer["checks"])
    values["relax.relaxations"] = sums["relax.relaxed_program", "count"]
    if outer["cached"]:
        values["relax.cache_hit_ratio"] = 1.0 - outer["cache_misses"] / outer["cached"]
    values["mtm.executions_built"] = sums["mtm.derive", "count"]
    values["conformance.pairs"] = sums["conformance.merge", "count"]
    fuzz = outside.get("fuzz_stats") or {}
    values["fuzz.oracle_calls"] = fuzz.get("oracle_calls", 0)
    values["fuzz.memo_hit_ratio"] = _ratio(
        fuzz.get("oracle_memo_hits", 0), fuzz.get("oracle_calls", 0)
    )
    values["fuzz.shrink_steps"] = fuzz.get("shrink_steps", 0)
    values["fuzz.discriminating_ratio"] = _ratio(
        fuzz.get("discriminating", 0), fuzz.get("programs_generated", 0)
    )
    # Pool start-up on the critical path: the parent's first worker spawn
    # until the first task began in any worker.
    starts = [extra["first_task_started"] for extra in worker_extras if "first_task_started" in extra]
    spawns = main_extra.get("spawn_calls") or []
    if starts and spawns:
        values["orchestrate.spawn_s"] = min(starts) - min(spawns)
    values["orchestrate.shards"] = sums["worker.task", "count"]
    values["resilience.retries"] = main_extra.get("retries", 0)
    values["trace.overhead_s"] = outside["traced_wall_s"] - outside["untraced_wall_s"]
    profile_total = outside.get("profile_total_s")
    if profile_total is not None:
        values["profile.total_gap_s"] = abs(profile_total - total_time(trees, "cli.command"))
    return values


def total_time(trees: list, name: str) -> float:
    """Summed total time of the outermost spans called ``name``."""
    seconds = 0.0
    for tree in trees:
        for node, ancestors in walk(tree):
            if node["name"] == name and name not in ancestors:
                seconds += node["total_s"]
    return seconds


def check_additivity(trees: list, values: dict, tolerance: float = 1e-6) -> list:
    """Self-tests of the budget: no span overlaps its siblings (self
    time never negative) and the additive metrics plus
    ``unattributed_s`` equal the summed root totals."""
    failures = []
    for tree in trees:
        for node, ancestors in walk(tree):
            if node["name"] not in STRUCTURAL and self_metric(node["name"], ancestors) is None:
                failures.append(f"span {node['name']!r} feeds no metric")
            own = self_time(node)
            if own < -1e-4:
                path = "/".join(ancestors + (node["name"],))
                failures.append(f"children exceed parent at {path} by {-own:.6f}s")
    roots = sum(tree["total_s"] for tree in trees)
    budget = sum(values[name] for name in ADDITIVE) + values["unattributed_s"]
    if abs(budget - roots) > tolerance * max(1.0, roots):
        failures.append(f"layer budget {budget:.6f}s != tree total {roots:.6f}s")
    return failures
