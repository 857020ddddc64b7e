"""Symmetry-aware enumeration: wall-time and orbit-counter benchmark.

Measures the symmetry subsystem (:mod:`repro.symmetry` — generation-time
arrangement canonicalization, orbit-level program dedup, witness-orbit
pruning, SAT lex-leader clauses) against the **no-symmetry-breaking
baseline**: ``symmetry=False`` *and* ``canonical_pruning=False``, i.e.
the bounded-exhaustive search exploring every thread arrangement of
every isomorphism class and every member of every witness orbit, with
only the downstream canonical dedup keeping the output correct (the
paper's Fig 9b ablation).  The *artifacts* — synthesized suites,
conformance verdicts and discriminating tests — are contractually
byte-identical across the two paths, and the benchmark verifies that
before reporting any speedup (the naive path's enumeration counters are
genuinely larger: they describe the redundant space it walks).

Workloads (full mode; ``--quick`` shrinks the bounds for CI):

* ``synthesize_elt_default`` — the paper-default 2-thread x86t_elt
  whole-predicate suite.  Thread symmetry is scarce here (two non-empty
  ELT threads barely fit the bound), so this workload is the honest
  low end of the range.
* ``synthesize_mcm_explicit`` — user-level MCM synthesis ([30]-baseline
  mode) at 4 threads, explicit backend: isomorphism classes have up to
  4! members, the regime the subsystem targets.
* ``synthesize_mcm_sat`` — the same space through the relational SAT
  backend, where every duplicate program the naive path explores costs
  a full translation.
* ``diff_all_pairs_mcm_sat`` — the catalog conformance matrix over the
  4-thread MCM space: one fused enumeration for all 20 pairs, so
  per-program costs (translation, orbit pruning) dominate.

Wall times vary with hardware, so CI gates only the *deterministic*
orbit counters (``--check``) against the committed quick baseline
(``benchmarks/baseline_symmetry_quick.json``): programs enumerated per
path, symmetric programs seen, witnesses orbit-pruned, lex-leader
clauses emitted, SAT translations — plus artifact equality between the
two paths.

Usage::

    PYTHONPATH=src python benchmarks/bench_symmetry.py --out after.json
    PYTHONPATH=src python benchmarks/bench_symmetry.py --quick --check \
        --baseline benchmarks/baseline_symmetry_quick.json

The committed ``BENCH_symmetry.json`` at the repo root is a full-mode
run of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path


def _suite_digest(result, prefix: str) -> str:
    from repro.litmus import suite_from_synthesis

    text = suite_from_synthesis(result, prefix=prefix).dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _naive(config_kwargs: dict) -> dict:
    """The no-symmetry-breaking oracle configuration."""
    return {**config_kwargs, "symmetry": False, "canonical_pruning": False}


def _counters(stats) -> dict:
    return {
        "programs": stats.programs_enumerated,
        "executions": stats.executions_enumerated,
        "symmetric_programs": stats.symmetric_programs,
        "orbit_witnesses_pruned": stats.orbit_witnesses_pruned,
        "orbit_replays": stats.orbit_replays,
        "symmetry_clauses": stats.sat_symmetry_clauses,
        "translations": stats.sat_translations,
    }


# ----------------------------------------------------------------------
# Workloads: each returns (wall_s, counters, artifact) per path
# ----------------------------------------------------------------------
def _synthesize_workload(config_kwargs: dict, prefix: str):
    def run(symmetric: bool):
        from repro.synth import SynthesisConfig, synthesize

        kwargs = config_kwargs if symmetric else _naive(config_kwargs)
        started = time.perf_counter()
        result = synthesize(SynthesisConfig(**kwargs))
        wall = time.perf_counter() - started
        artifact = {
            "elts": result.count,
            "digest": _suite_digest(result, prefix),
        }
        return wall, _counters(result.stats), artifact

    return run


def wl_synthesize_elt_default(quick: bool):
    # Bound 6 in both modes: it is CI-cheap, and it is the smallest
    # default-config bound with auto-symmetric programs (8 of 203), so
    # the gates can require the machinery to engage.
    return _synthesize_workload({"bound": 6}, "elt")


def wl_synthesize_mcm_explicit(quick: bool):
    return _synthesize_workload(
        {"bound": 4 if quick else 5, "mcm_mode": True, "max_threads": 4},
        "mcm",
    )


def wl_synthesize_mcm_sat(quick: bool):
    return _synthesize_workload(
        {
            "bound": 4 if quick else 5,
            "mcm_mode": True,
            "max_threads": 4,
            "witness_backend": "sat",
        },
        "mcm",
    )


def wl_diff_all_pairs_mcm_sat(quick: bool):
    def run(symmetric: bool):
        from repro.conformance import run_all_pairs
        from repro.models import catalog_models, x86t_elt
        from repro.synth import SuiteStats, SynthesisConfig

        kwargs = {
            "bound": 4,
            "mcm_mode": True,
            "max_threads": 3 if quick else 4,
            "witness_backend": "sat",
        }
        if not symmetric:
            kwargs = _naive(kwargs)
        started = time.perf_counter()
        matrix, _records = run_all_pairs(
            SynthesisConfig(model=x86t_elt(), **kwargs),
            models=catalog_models(),
            jobs=1,
        )
        wall = time.perf_counter() - started
        aggregate = SuiteStats()
        for cell in matrix.cells.values():
            aggregate.absorb(cell.stats)
        payload = matrix.to_json()
        for cell_json in payload["pairs"]:
            # The semantic artifact must be identical across paths:
            # verdicts and discriminating suites.  Wall clock is never
            # byte-stable, and the naive path's counts/stats describe a
            # genuinely larger explored space (it re-walks every thread
            # arrangement of every class), so they are reported but not
            # compared.
            cell_json.pop("stats")
            cell_json.pop("counts")
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode("utf-8")
        ).hexdigest()
        counters = _counters(aggregate)
        counters["programs"] = next(
            iter(matrix.cells.values())
        ).stats.programs_enumerated
        artifact = {
            "discriminating": matrix.discriminating_total,
            "digest": digest,
        }
        return wall, counters, artifact

    return run


WORKLOADS = [
    ("synthesize_elt_default", wl_synthesize_elt_default),
    ("synthesize_mcm_explicit", wl_synthesize_mcm_explicit),
    ("synthesize_mcm_sat", wl_synthesize_mcm_sat),
    ("diff_all_pairs_mcm_sat", wl_diff_all_pairs_mcm_sat),
]

#: Counters gated against the committed baseline (deterministic for a
#: fixed configuration; wall times are not).
GATED_COUNTERS = (
    "programs",
    "executions",
    "symmetric_programs",
    "orbit_witnesses_pruned",
    "orbit_replays",
    "symmetry_clauses",
    "translations",
)


# ----------------------------------------------------------------------
# Deterministic gates (--check)
# ----------------------------------------------------------------------
def check_workload(name: str, entry: dict, baseline) -> list:
    failures = []
    if entry["artifact_symmetry"] != entry["artifact_naive"]:
        failures.append(
            f"{name}: symmetry and --no-symmetry paths disagree on artifacts"
        )
    sym = entry["symmetry"]["counters"]
    naive = entry["naive"]["counters"]
    if naive["programs"] <= sym["programs"]:
        failures.append(
            f"{name}: naive path should explore strictly more programs "
            f"({naive['programs']} vs {sym['programs']})"
        )
    if sym["symmetric_programs"] == 0:
        failures.append(f"{name}: symmetry machinery never engaged")
    if baseline is not None:
        expected = baseline.get(name)
        if expected is None:
            failures.append(f"{name}: missing from baseline")
        else:
            for key in GATED_COUNTERS:
                for path in ("symmetry", "naive"):
                    got = entry[path]["counters"][key]
                    want = expected[path][key]
                    if got != want:
                        failures.append(
                            f"{name}: {path} counter {key} = {got}, "
                            f"baseline says {want}"
                        )
    return failures


def run_suite(quick: bool) -> dict:
    results: dict = {}
    for name, factory in WORKLOADS:
        run = factory(quick)
        entry: dict = {}
        for label, symmetric in (("naive", False), ("symmetry", True)):
            wall, counters, artifact = run(symmetric)
            entry[label] = {"wall_s": round(wall, 6), "counters": counters}
            entry[f"artifact_{label}"] = artifact
            print(
                f"  {name:26s} {label:9s} {wall:8.3f}s  "
                f"programs={counters['programs']} "
                f"pruned={counters['orbit_witnesses_pruned']}"
            )
        entry["speedup"] = round(
            entry["naive"]["wall_s"] / max(1e-9, entry["symmetry"]["wall_s"]),
            3,
        )
        print(f"  {name:26s} speedup   {entry['speedup']:.2f}x")
        results[name] = entry
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller bounds")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--baseline",
        default=None,
        help="committed quick-baseline JSON to gate counters against",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate on the deterministic orbit counters and on artifact "
        "equality between the symmetry and --no-symmetry paths",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="also gate on aggregate wall speedup (only meaningful on "
        "quiet, comparable hardware)",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        help="write the gated counters of this run as a baseline JSON",
    )
    args = parser.parse_args(argv)

    print(
        "symmetry-aware enumeration benchmark "
        f"({'quick' if args.quick else 'full'} mode)"
    )
    results = run_suite(args.quick)
    naive_total = sum(e["naive"]["wall_s"] for e in results.values())
    sym_total = sum(e["symmetry"]["wall_s"] for e in results.values())
    aggregate = round(naive_total / max(1e-9, sym_total), 3)
    print(f"aggregate wall speedup: {aggregate}x")

    document = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
            "baseline_config": "symmetry=False, canonical_pruning=False "
            "(no symmetry breaking anywhere)",
        },
        "workloads": results,
        "aggregate_wall_speedup": aggregate,
    }

    status = 0
    if args.check:
        baseline = None
        if args.baseline:
            baseline = json.loads(Path(args.baseline).read_text())
        failures = []
        for name, entry in results.items():
            failures.extend(check_workload(name, entry, baseline))
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        if failures:
            status = 1
    if args.min_speedup is not None and aggregate < args.min_speedup:
        print(
            f"GATE FAILURE: aggregate speedup {aggregate}x below "
            f"{args.min_speedup}x",
            file=sys.stderr,
        )
        status = 1

    if args.write_baseline:
        baseline_doc = {
            name: {
                path: {
                    key: entry[path]["counters"][key]
                    for key in GATED_COUNTERS
                }
                for path in ("symmetry", "naive")
            }
            for name, entry in results.items()
        }
        Path(args.write_baseline).write_text(
            json.dumps(baseline_doc, indent=2, sort_keys=True) + "\n"
        )
        print(f"[baseline written to {args.write_baseline}]")
    if args.out:
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"[results written to {args.out}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
