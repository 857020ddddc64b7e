"""Self-tests of the benchmark's tracer and layer budget.

    python3 -m pytest bench_e2e/test_bench.py -q
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _leaf(name, total, children=()):
    return {
        "name": name,
        "count": 1,
        "total_s": total,
        "items": 0,
        "hits": 0,
        "children": list(children),
    }


def test_nested_spans_aggregate_by_path():
    tree = tracing.SpanTree("main")
    inner = tree.span("inner", lambda x: x + 1)
    outer = tree.span("outer", lambda: inner(1) + inner(2))
    assert outer() == 5
    document = tree.root.to_json()
    (outer_node,) = document["children"]
    (inner_node,) = outer_node["children"]
    assert (outer_node["name"], outer_node["count"]) == ("outer", 1)
    assert (inner_node["name"], inner_node["count"]) == ("inner", 2)
    assert tracing.self_time(outer_node) >= 0.0
    assert tree.stack == [tree.root]


def test_span_closes_when_the_call_raises():
    tree = tracing.SpanTree("main")

    def boom():
        raise ValueError("boom")

    traced = tree.span("boom", boom)
    try:
        traced()
    except ValueError:
        pass
    assert tree.stack == [tree.root]
    assert tree.root.children["boom"].count == 1


def test_generator_segments_follow_the_resuming_span():
    tree = tracing.SpanTree("main")
    weights = []
    produce = tree.generator_span(
        "gen", lambda: iter([("a", 1), ("b", 3)]), lambda node, item: weights.append(item[1])
    )
    stream = produce()
    consume = tree.span("consume", lambda: next(stream))
    assert consume() == ("a", 1)
    assert list(stream) == [("b", 3)]
    consumed = tree.root.children["consume"].children["gen"]
    direct = tree.root.children["gen"]
    assert (consumed.count, consumed.items) == (1, 1)
    # The second item plus the exhausting resumption ran at the root.
    assert (direct.count, direct.items) == (2, 1)
    assert weights == [1, 3]


def test_install_records_unresolvable_targets():
    tree = tracing.SpanTree("main")
    module = types.ModuleType("bench_e2e_probe")
    module.work = lambda: 7
    sys.modules["bench_e2e_probe"] = module
    try:
        tracing.install(
            tree,
            [
                ("bench_e2e_probe:work", "probe", "call", None),
                ("bench_e2e_probe:gone", "probe", "call", None),
                ("bench_e2e_no_such_module:work", "probe", "call", None),
            ],
        )
        assert module.work() == 7
    finally:
        del sys.modules["bench_e2e_probe"]
    assert tree.root.children["probe"].count == 1
    assert tree.missing == ["bench_e2e_probe:gone", "bench_e2e_no_such_module:work"]


def test_models_spans_are_attributed_by_context():
    assert layers.self_metric("models.axiom", ("process", "relax.cached")) == "relax.permits_s"
    assert layers.self_metric("models.axiom", ("process", "cli.main")) == "models.classify_s"
    assert layers.self_metric("cli.main", ("process",)) is None


def _metrics(trees):
    outside = {"traced_wall_s": 2.0, "untraced_wall_s": 1.5, "profile_total_s": None}
    return layers.layer_metrics(trees, {}, [], outside)


def test_budget_adds_up_and_parents_are_totals():
    minimality = _leaf(
        "relax.cached",
        0.5,
        [_leaf("relax.relaxed_program", 0.1), _leaf("models.permits", 0.3)],
    )
    cli = _leaf("cli.main", 1.6, [minimality, _leaf("skeletons.generate", 0.4)])
    tree = _leaf("process", 2.0, [_leaf("startup", 0.1), cli, _leaf("shutdown", 0.2)])
    values = _metrics([tree])
    assert layers.check_additivity([tree], values) == []
    assert abs(values["relax.minimality_s"] - 0.5) < 1e-9
    assert abs(values["relax.self_s"] - 0.1) < 1e-9
    assert abs(values["relax.permits_s"] - 0.3) < 1e-9
    assert abs(values["unattributed_s"] - 0.8) < 1e-9
    assert abs(values["trace.overhead_s"] - 0.5) < 1e-9


def test_overlapping_and_unmapped_spans_fail_the_self_test():
    overlapping = _leaf("process", 1.0, [_leaf("skeletons.generate", 1.5)])
    unmapped = _leaf("process", 1.0, [_leaf("mystery", 0.5)])
    assert any("exceed" in f for f in layers.check_additivity([overlapping], _metrics([overlapping])))
    assert any("mystery" in f for f in layers.check_additivity([unmapped], _metrics([unmapped])))


def test_json_digest_ignores_timings_only():
    workload = run.WORKLOADS["fuzz-b12"]
    base = '{"stats": {"runtime_s": 1.0, "findings": 3}, "pairs": [{"runtime_s": 2}]}'
    slower = '{"pairs": [{"runtime_s": 9}], "stats": {"findings": 3, "runtime_s": 5.0}}'
    other = '{"stats": {"runtime_s": 1.0, "findings": 4}, "pairs": [{"runtime_s": 2}]}'
    digest = run.output_digest(workload, base, Path("unused"))
    assert digest == run.output_digest(workload, slower, Path("unused"))
    assert digest != run.output_digest(workload, other, Path("unused"))


def test_workload_expectations_name_real_metrics():
    for workload in run.WORKLOADS.values():
        assert set(workload.works) <= set(layers.METRICS)
    assert set(layers.ADDITIVE) <= set(layers.METRICS)
