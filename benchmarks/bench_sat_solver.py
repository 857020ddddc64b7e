"""End-to-end SAT-substrate benchmark with JSON recording and regression gating.

Unlike the pytest-benchmark files next to it, this is a plain script: it
runs a fixed, deterministic workload suite through the CDCL solver and the
Kodkod-style relational translation, records wall times *and* solver
counters to JSON, and can compare itself against a previously committed
baseline.

Usage::

    PYTHONPATH=src python benchmarks/bench_sat_solver.py --out after.json
    PYTHONPATH=src python benchmarks/bench_sat_solver.py --quick \
        --baseline benchmarks/baseline_sat_quick.json --max-regression 2.0

Gating semantics (used by the CI smoke job):

* solver *counters* (decisions + propagations + conflicts) are
  deterministic and machine-independent, so they are always gated: a
  workload whose counter total exceeds ``max_regression`` times the
  baseline fails the run;
* *wall times* vary with hardware, so they are reported (and a speedup
  table is printed) but only gated when ``--check-wall`` is passed.

The committed ``BENCH_sat_substrate.json`` at the repo root pairs a
pre-optimization run (``before``) with a post-optimization run
(``after``); build it with ``--merge-before``.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Optional

from repro.sat import CdclSolver, iter_models, solve_cnf

Counters = dict


def _has_stats_hook() -> bool:
    # True on trees where iter_models grew its `stats` parameter (the
    # pre-optimization seed lacks it; feature-detected rather than caught
    # as TypeError so real TypeErrors are never masked).
    import inspect

    return "stats" in inspect.signature(iter_models).parameters


def _has_witness_backend() -> bool:
    from repro.synth import SynthesisConfig

    return "witness_backend" in SynthesisConfig.__dataclass_fields__


def _merge_stats(total: dict, stats) -> None:
    for key in ("decisions", "propagations", "conflicts", "learned_clauses"):
        total[key] = total.get(key, 0) + getattr(stats, key, 0)


# ----------------------------------------------------------------------
# Workload definitions (all deterministic)
# ----------------------------------------------------------------------
# The CNF generators are shared with the pytest-benchmark suite so both
# harnesses measure literally the same formulas (this script runs with
# benchmarks/ on sys.path).
from bench_substrate_sat import pigeonhole, random_3sat  # noqa: E402


def wl_pigeonhole(quick: bool) -> tuple[Counters, object]:
    holes = 6 if quick else 7
    result = solve_cnf(pigeonhole(holes))
    assert not result.satisfiable
    counters: Counters = {}
    _merge_stats(counters, result.stats)
    return counters, f"php({holes}) UNSAT"


def wl_random_3sat(quick: bool) -> tuple[Counters, object]:
    counters: Counters = {}
    instances = 4 if quick else 12
    sat_count = 0
    for seed in range(instances):
        cnf = random_3sat(60, 255, seed=seed + 7)  # ratio 4.25: hard region
        result = CdclSolver(cnf).solve()
        if result.satisfiable:
            assert cnf.evaluate(result.model)
            sat_count += 1
        _merge_stats(counters, result.stats)
    return counters, f"{sat_count}/{instances} sat"


def wl_allsat_blocking(quick: bool) -> tuple[Counters, object]:
    """The AllSAT blocking-clause loop that iter_instances relies on: the
    clause database keeps absorbing blocking clauses and learned clauses."""
    cnf = random_3sat(20, 46, seed=3) if quick else random_3sat(24, 55, seed=3)
    counters: Counters = {}
    if _has_stats_hook():
        from repro.sat import SolverStats

        stats = SolverStats()
        count = sum(1 for _ in iter_models(cnf, stats=stats))
        _merge_stats(counters, stats)
    else:  # pre-optimization tree: plain enumeration, no counters
        count = sum(1 for _ in iter_models(cnf))
    return counters, f"{count} models"


def wl_allsat_projected(quick: bool) -> tuple[Counters, object]:
    cnf = random_3sat(18, 40, seed=9) if quick else random_3sat(22, 50, seed=9)
    projection = list(range(1, cnf.num_vars // 2 + 1))
    counters: Counters = {}
    if _has_stats_hook():
        from repro.sat import SolverStats

        stats = SolverStats()
        count = sum(
            1 for _ in iter_models(cnf, projection=projection, stats=stats)
        )
        _merge_stats(counters, stats)
    else:  # pre-optimization tree: no stats hook
        count = sum(1 for _ in iter_models(cnf, projection=projection))
    return counters, f"{count} projected models"


def wl_relational_orders(quick: bool) -> tuple[Counters, object]:
    """Total-order counting through the full relational translation
    (bench_substrate_sat's sibling workload in bench_substrate_relational)."""
    from repro.relational import Problem, TupleSet, acyclic, some, subset

    atoms = ["a", "b", "c", "d"] if quick else ["a", "b", "c", "d", "e"]
    problem = Problem(atoms)
    r = problem.declare("ord", 2)
    problem.constrain(acyclic(r))
    problem.constrain(subset(r.dot(r), r))
    for i, x in enumerate(atoms):
        for y in atoms[i + 1 :]:
            pair = TupleSet.pairs([(x, y)])
            rev = TupleSet.pairs([(y, x)])
            problem.constrain(some((r & pair) + (r & rev)))
    count = sum(1 for _ in problem.iter_instances())
    expected = 24 if quick else 120
    assert count == expected, (count, expected)
    counters: Counters = {}
    stats = getattr(problem, "last_solver_stats", None)
    if stats is not None:
        _merge_stats(counters, stats)
    return counters, f"{count} orders"


def wl_synthesize_sat(quick: bool) -> tuple[Counters, object]:
    """A serial transform-synthesize run with SAT-backed witness
    enumeration (paper bounds; the §IV-C pipeline end to end)."""
    from repro.synth.engine import default_config

    bound = 5 if quick else 6
    config_kwargs = dict(target_axiom="sc_per_loc")
    counters: Counters = {}
    if _has_witness_backend():
        from repro.synth import synthesize

        config = default_config(bound, witness_backend="sat", **config_kwargs)
        result = synthesize(config)
        for key in ("decisions", "propagations", "conflicts", "learned_clauses"):
            value = getattr(result.stats, "sat_" + key, 0)
            if value:
                counters[key] = value
    else:
        # Pre-optimization tree: no witness_backend knob yet.  Route the
        # shared pipeline through the SAT enumerator by hand so before and
        # after time the same computation.
        from repro.synth import engine as engine_module
        from repro.synth.engine import default_config as dc
        from repro.synth.sat_backend import enumerate_witnesses_sat

        config = dc(bound, **config_kwargs)
        saved = engine_module.enumerate_witnesses
        engine_module.enumerate_witnesses = enumerate_witnesses_sat
        try:
            result = engine_module.synthesize(config)
        finally:
            engine_module.enumerate_witnesses = saved
    return counters, f"bound={bound}: {result.count} ELTs"


def wl_synthesize_explicit(quick: bool) -> tuple[Counters, object]:
    """The default explicit-enumerator synthesize run, for context (not a
    SAT workload; excluded from the speedup aggregate)."""
    from repro.synth import synthesize
    from repro.synth.engine import default_config

    bound = 5 if quick else 6
    result = synthesize(default_config(bound, target_axiom="sc_per_loc"))
    return {}, f"bound={bound}: {result.count} ELTs"


WORKLOADS: list[tuple[str, Callable[[bool], tuple[Counters, object]], bool]] = [
    # (name, fn, counts_toward_speedup_aggregate)
    ("pigeonhole_unsat", wl_pigeonhole, True),
    ("random_3sat_threshold", wl_random_3sat, True),
    ("allsat_blocking_loop", wl_allsat_blocking, True),
    ("allsat_projected", wl_allsat_projected, True),
    ("relational_total_orders", wl_relational_orders, True),
    ("synthesize_serial_sat_backend", wl_synthesize_sat, True),
    ("synthesize_serial_explicit", wl_synthesize_explicit, False),
]


# ----------------------------------------------------------------------
# Harness
# ----------------------------------------------------------------------
def run_suite(quick: bool) -> dict:
    results: dict = {}
    for name, fn, gated in WORKLOADS:
        started = time.perf_counter()
        counters, note = fn(quick)
        wall = time.perf_counter() - started
        counter_total = sum(
            counters.get(k, 0) for k in ("decisions", "propagations", "conflicts")
        )
        results[name] = {
            "wall_s": round(wall, 6),
            "counters": counters,
            "counter_total": counter_total,
            "gated": gated,
            "note": str(note),
        }
        print(f"  {name:32s} {wall:9.3f}s  {note}")
    return results


def compare(
    current: dict,
    baseline: dict,
    max_regression: float,
    check_wall: bool,
    exact_counters: bool = False,
) -> tuple[dict, list[str]]:
    failures: list[str] = []
    speedups: dict = {}
    for name, entry in current.items():
        base = baseline.get(name)
        if base is None:
            continue
        ratio = base["wall_s"] / entry["wall_s"] if entry["wall_s"] > 0 else None
        speedups[name] = {
            "wall_speedup": round(ratio, 3) if ratio is not None else None,
        }
        if exact_counters and entry.get("gated") and base.get("counter_total"):
            if entry["counter_total"] != base["counter_total"]:
                failures.append(
                    f"{name}: counter total {entry['counter_total']} != "
                    f"baseline {base['counter_total']} (--check requires "
                    "exact deterministic-counter reproduction)"
                )
        if entry.get("gated") and base.get("counter_total"):
            counter_ratio = entry["counter_total"] / base["counter_total"]
            speedups[name]["counter_ratio"] = round(counter_ratio, 3)
            if counter_ratio > max_regression:
                failures.append(
                    f"{name}: counter total {entry['counter_total']} is "
                    f"{counter_ratio:.2f}x the baseline {base['counter_total']} "
                    f"(limit {max_regression}x)"
                )
        if check_wall and entry.get("gated") and base["wall_s"] > 0:
            wall_ratio = entry["wall_s"] / base["wall_s"]
            if wall_ratio > max_regression:
                failures.append(
                    f"{name}: wall time {entry['wall_s']:.3f}s is "
                    f"{wall_ratio:.2f}x the baseline {base['wall_s']:.3f}s "
                    f"(limit {max_regression}x)"
                )
    return speedups, failures


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller workloads")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--baseline", default=None, help="baseline JSON to compare/gate against"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=2.0,
        help="fail if counters (or wall with --check-wall) regress past this",
    )
    parser.add_argument(
        "--check-wall",
        action="store_true",
        help="also gate on wall time (only meaningful on comparable hardware)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="with --baseline: require EXACT counter reproduction for "
        "gated workloads (counters are deterministic and "
        "machine-independent, so any drift is a semantic change)",
    )
    parser.add_argument(
        "--merge-before",
        default=None,
        help="emit a {before, after, speedup} document using this JSON as 'before'",
    )
    args = parser.parse_args(argv)

    print(f"SAT substrate benchmark ({'quick' if args.quick else 'full'} mode)")
    results = run_suite(args.quick)
    document: dict = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": results,
    }

    status = 0
    if args.baseline:
        baseline_doc = json.loads(Path(args.baseline).read_text())
        baseline = baseline_doc.get("workloads", baseline_doc)
        speedups, failures = compare(
            results,
            baseline,
            args.max_regression,
            args.check_wall,
            exact_counters=args.check,
        )
        document["speedup_vs_baseline"] = speedups
        for name, entry in speedups.items():
            if entry.get("wall_speedup") is not None:
                print(f"  {name:32s} speedup {entry['wall_speedup']:.2f}x")
        for failure in failures:
            print(f"REGRESSION: {failure}", file=sys.stderr)
        if failures:
            status = 1

    if args.merge_before:
        before_doc = json.loads(Path(args.merge_before).read_text())
        before = before_doc.get("workloads", before_doc)
        speedups, _ = compare(results, before, float("inf"), False)
        gated = [
            entry["wall_speedup"]
            for name, entry in speedups.items()
            if results[name].get("gated") and entry.get("wall_speedup")
        ]
        document = {
            "meta": document["meta"],
            "before": before,
            "after": results,
            "speedup": speedups,
            "aggregate_wall_speedup": (
                round(
                    sum(before[n]["wall_s"] for n in speedups if results[n]["gated"])
                    / max(
                        1e-9,
                        sum(
                            results[n]["wall_s"]
                            for n in speedups
                            if results[n]["gated"]
                        ),
                    ),
                    3,
                )
                if gated
                else None
            ),
        }
        print(f"aggregate wall speedup: {document['aggregate_wall_speedup']}x")

    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"[results written to {args.out}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
