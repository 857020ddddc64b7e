"""Observability overhead micro-benchmark: tracing **off** must be free.

Every instrumentation point in the hot path (per-program spans in the
pipeline loop, translate/enumerate spans in the SAT backend, store
get/put spans, registry counter/histogram updates) executes
unconditionally — what makes the disabled path cheap is that it runs
against the shared :data:`repro.obs.NULL_TRACER` /
:data:`repro.obs.NULL_REGISTRY` singletons, whose methods do nothing.

Wall-clock A/B runs of a whole synthesis cannot resolve sub-percent
differences above scheduler noise, so the gate is computed analytically,
and conservatively, from two deterministic measurements:

1. the **per-call cost of every disabled primitive**, measured in a
   tight loop (null span context manager, null begin/end, registry
   lookup + no-op inc/observe) — tens of nanoseconds each;
2. the **number of instrumentation hits** the workload performs,
   counted by running the same workload once under a live tracer and
   registry (span count, histogram observation count, informational
   counter totals are exactly the number of calls).

``overhead = hits x worst-case-per-hit-cost`` is an upper bound on what
the disabled instrumentation can add to the untraced wall time; the
``--check`` gate asserts it stays under 2%% of the measured workload
wall (the ISSUE's zero-overhead budget).  The enabled-path wall time is
reported for information but never gated (collecting real spans is
allowed to cost something).

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --quick --check
    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --out after.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

#: The zero-overhead budget: disabled instrumentation must stay under
#: this fraction of the workload's untraced wall time.
OVERHEAD_BUDGET = 0.02


# ----------------------------------------------------------------------
# Per-call cost of the disabled primitives
# ----------------------------------------------------------------------
def _time_per_call(fn, iterations: int) -> float:
    started = time.perf_counter()
    for _ in range(iterations):
        fn()
    return (time.perf_counter() - started) / iterations


def measure_null_costs(iterations: int) -> dict:
    from repro.obs import NULL_REGISTRY, NULL_TRACER, current_registry, current_tracer

    def span_cm() -> None:
        with NULL_TRACER.span("x", category="bench"):
            pass

    def begin_end() -> None:
        NULL_TRACER.end(NULL_TRACER.begin("x", category="bench"))

    def lookup_and_test() -> None:
        if current_tracer():  # pragma: no cover - never taken
            raise AssertionError
        if current_registry():  # pragma: no cover - never taken
            raise AssertionError

    def registry_ops() -> None:
        NULL_REGISTRY.inc("c", informational=True)
        NULL_REGISTRY.observe("h", 7)

    return {
        "span_cm_s": _time_per_call(span_cm, iterations),
        "begin_end_s": _time_per_call(begin_end, iterations),
        "lookup_s": _time_per_call(lookup_and_test, iterations),
        "registry_ops_s": _time_per_call(registry_ops, iterations),
    }


# ----------------------------------------------------------------------
# Workload: one serial synthesis, untraced wall + instrumented hit count
# ----------------------------------------------------------------------
def run_workload(quick: bool, backend: str) -> dict:
    from repro.models import x86t_elt
    from repro.obs import Observation
    from repro.synth import SynthesisConfig, synthesize

    config = SynthesisConfig(
        bound=5 if quick else 6,
        model=x86t_elt(),
        witness_backend=backend,
    )

    # Untraced wall: best of three runs (the quantity overhead is
    # charged against; min suppresses scheduler noise).
    walls = []
    for _ in range(3):
        started = time.perf_counter()
        result = synthesize(config)
        walls.append(time.perf_counter() - started)
    untraced_wall = min(walls)

    # Instrumented run: spans recorded + registry updates performed are
    # exactly the number of instrumentation hits the disabled path pays
    # a null call for.
    obs = Observation(enabled=True)
    started = time.perf_counter()
    with obs:
        traced = synthesize(config)
    enabled_wall = time.perf_counter() - started
    assert traced.count == result.count

    spans = obs.tracer.span_count
    snapshot = obs.registry.snapshot()
    histogram_observations = sum(
        h["count"] for h in snapshot["histograms"].values()
    )
    informational_incs = sum(
        snapshot["informational"]["counters"].values()
    )
    return {
        "config": {"bound": config.bound, "witness_backend": backend},
        "untraced_wall_s": round(untraced_wall, 6),
        "enabled_wall_s": round(enabled_wall, 6),
        "elts": result.count,
        "hits": {
            "spans": spans,
            "histogram_observations": histogram_observations,
            "informational_incs": informational_incs,
        },
    }


def overhead_estimate(entry: dict, costs: dict) -> dict:
    """Conservative disabled-path overhead: every span site charged the
    *worst* null-span cost plus a tracer/registry lookup; every registry
    update charged a lookup plus the no-op update pair."""
    hits = entry["hits"]
    per_span = max(costs["span_cm_s"], costs["begin_end_s"]) + costs["lookup_s"]
    per_registry_hit = costs["registry_ops_s"] + costs["lookup_s"]
    seconds = hits["spans"] * per_span + (
        hits["histogram_observations"] + hits["informational_incs"]
    ) * per_registry_hit
    ratio = seconds / max(1e-9, entry["untraced_wall_s"])
    return {
        "estimated_overhead_s": round(seconds, 9),
        "estimated_overhead_ratio": round(ratio, 6),
        "budget_ratio": OVERHEAD_BUDGET,
    }


def check(results: dict) -> list:
    from repro.obs import NULL_REGISTRY, NULL_TRACER, NullRegistry, NullTracer

    failures = []
    if not isinstance(NULL_TRACER, NullTracer) or NULL_TRACER:
        failures.append("NULL_TRACER must be a falsy NullTracer singleton")
    if not isinstance(NULL_REGISTRY, NullRegistry) or NULL_REGISTRY:
        failures.append("NULL_REGISTRY must be a falsy NullRegistry singleton")
    for name, entry in results["workloads"].items():
        ratio = entry["overhead"]["estimated_overhead_ratio"]
        if ratio >= OVERHEAD_BUDGET:
            failures.append(
                f"{name}: disabled-instrumentation overhead estimate "
                f"{ratio:.4%} exceeds the {OVERHEAD_BUDGET:.0%} budget"
            )
        if entry["hits"]["spans"] == 0:
            failures.append(f"{name}: instrumentation never engaged")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller bound")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--check",
        action="store_true",
        help=f"fail unless estimated disabled overhead < {OVERHEAD_BUDGET:.0%}",
    )
    parser.add_argument(
        "--calibration-iterations",
        type=int,
        default=200_000,
        help="tight-loop iterations for per-call null costs",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

    costs = measure_null_costs(args.calibration_iterations)
    print("disabled primitive costs (per call):")
    for name, value in costs.items():
        print(f"  {name:16s} {value * 1e9:8.1f} ns")

    results: dict = {
        "benchmark": "obs_overhead",
        "quick": args.quick,
        "python": platform.python_version(),
        "null_costs": {k: round(v, 12) for k, v in costs.items()},
        "workloads": {},
    }
    for name, backend in (
        ("synthesize_explicit", "explicit"),
        ("synthesize_sat", "sat"),
    ):
        entry = run_workload(args.quick, backend)
        entry["overhead"] = overhead_estimate(entry, costs)
        results["workloads"][name] = entry
        print(
            f"  {name:20s} wall={entry['untraced_wall_s']:.3f}s "
            f"traced={entry['enabled_wall_s']:.3f}s "
            f"spans={entry['hits']['spans']} "
            f"overhead~{entry['overhead']['estimated_overhead_ratio']:.4%}"
        )

    if args.out:
        Path(args.out).write_text(
            json.dumps(results, indent=2, sort_keys=True) + "\n"
        )
        print(f"results written to {args.out}")

    if args.check:
        failures = check(results)
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}", file=sys.stderr)
            return 1
        print(
            f"check passed: disabled overhead under {OVERHEAD_BUDGET:.0%} "
            "on every workload"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
