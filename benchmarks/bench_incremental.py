"""Incremental witness sessions: wall-time and counter benchmark.

Measures the three workloads the session machinery accelerates, each
against its fresh-solver baseline (``SynthesisConfig.incremental=False``
and, for the all-pairs workload, the pre-fusion per-pair shape):

* ``synthesize_axiom_suites`` — all five per-axiom ELT suites plus the
  any-axiom suite at one bound (the per-bound slice of a ``sweep``).
  The fresh path translates and enumerates every program once *per
  suite*; the session path once *total*, replaying cached witness lists.
* ``diff_all_pairs`` — the catalog conformance matrix.  Baseline: one
  dedicated fresh differential run per ordered pair (the pre-fusion
  cost).  Session path: the fused ``run_all_pairs`` driver — every
  program translated/enumerated once for all 20 pairs, axiom verdicts
  shared through one slot table.
* ``assumption_queries`` — the session API itself: per program, seven
  model/axiom questions ("violates axiom A?" ×5, "any permitted
  witness?", "reference forbids ∧ subject permits?") posed as
  activation-literal assumptions against one persistent solver, vs seven
  fresh ``WitnessProblem`` builds + cold solves.

Wall times vary with hardware, so CI gates only the *deterministic*
counters (``--check``):

* session paths must translate each program exactly once
  (``translations == programs``, ``translations_avoided`` covering the
  rest);
* both paths must produce identical results (suite digests, matrix
  verdicts, query answers).

Usage::

    PYTHONPATH=src python benchmarks/bench_incremental.py --out after.json
    PYTHONPATH=src python benchmarks/bench_incremental.py --quick --check

The committed ``BENCH_incremental_sessions.json`` at the repo root is a
full-mode run of this script.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path


def _reset_caches() -> None:
    from repro.synth import shared_session_cache

    shared_session_cache().clear()


def _suite_digest(result, prefix: str) -> str:
    from repro.litmus import suite_from_synthesis

    text = suite_from_synthesis(result, prefix=prefix).dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Workloads: each returns (wall_s, counters, artifact) per path
# ----------------------------------------------------------------------
def wl_synthesize_suites(quick: bool, incremental: bool):
    from repro.models import X86T_ELT_AXIOM_NAMES, x86t_elt
    from repro.synth import SuiteStats, SynthesisConfig, synthesize

    bound = 5 if quick else 6
    targets = list(X86T_ELT_AXIOM_NAMES) + [None]
    _reset_caches()
    started = time.perf_counter()
    aggregate = SuiteStats()
    digests = []
    programs = 0
    for target in targets:
        result = synthesize(
            SynthesisConfig(
                bound=bound,
                model=x86t_elt(),
                target_axiom=target,
                witness_backend="sat",
                incremental=incremental,
            )
        )
        aggregate.absorb(result.stats)
        programs = result.stats.programs_enumerated
        digests.append(_suite_digest(result, target or "elt"))
    wall = time.perf_counter() - started
    counters = {
        "programs": programs,
        "suites": len(targets),
        "translations": aggregate.sat_translations,
        "translations_avoided": aggregate.sat_translations_avoided,
        "sessions": aggregate.sat_sessions,
        "decisions": aggregate.sat_decisions,
        "propagations": aggregate.sat_propagations,
    }
    return wall, counters, {"bound": bound, "digests": digests}


def wl_diff_all_pairs(quick: bool, incremental: bool):
    from repro.conformance import (
        DiffConfig,
        catalog_pairs,
        diff_models,
        run_all_pairs,
    )
    from repro.models import catalog_models, x86t_elt
    from repro.synth import SuiteStats, SynthesisConfig

    bound = 4 if quick else 5
    models = catalog_models()
    _reset_caches()
    started = time.perf_counter()
    aggregate = SuiteStats()
    verdicts = {}
    programs = 0
    if incremental:
        matrix, _records = run_all_pairs(
            SynthesisConfig(
                bound=bound,
                model=x86t_elt(),
                witness_backend="sat",
                incremental=True,
            ),
            models=models,
            jobs=1,
        )
        cells = matrix.cells
    else:
        # The pre-fusion shape: one dedicated fresh pass per pair.
        cells = {}
        for ref, sub in catalog_pairs(models):
            cell = diff_models(
                DiffConfig(
                    base=SynthesisConfig(
                        bound=bound,
                        model=models[ref],
                        witness_backend="sat",
                        incremental=False,
                    ),
                    subject=models[sub],
                )
            )
            cells[(ref, sub)] = cell
    for pair, cell in cells.items():
        aggregate.absorb(cell.stats)
        programs = cell.stats.programs_enumerated
        verdicts["/".join(pair)] = (cell.verdict.value, cell.count)
    wall = time.perf_counter() - started
    counters = {
        "programs": programs,
        "pairs": len(cells),
        "translations": aggregate.sat_translations,
        "translations_avoided": aggregate.sat_translations_avoided,
        "decisions": aggregate.sat_decisions,
        "propagations": aggregate.sat_propagations,
    }
    return wall, counters, {"bound": bound, "verdicts": verdicts}


def wl_assumption_queries(quick: bool, incremental: bool):
    from repro.models import x86t_amd_bug, x86t_elt
    from repro.synth import SynthesisConfig, WitnessSession
    from repro.synth.sat_backend import WitnessProblem
    from repro.synth.skeletons import enumerate_programs

    bound = 4 if quick else 5
    model = x86t_elt()
    subject = x86t_amd_bug()
    programs = list(
        enumerate_programs(
            SynthesisConfig(bound=bound, model=x86t_elt())
        )
    )
    _reset_caches()
    started = time.perf_counter()
    answers = []
    translations = 0
    incremental_solves = 0
    retained = 0
    for program in programs:
        if incremental:
            session = WitnessSession(program)
            for axiom in model.axiom_names:
                answers.append(
                    session.has_witness(model=model, violated_axiom=axiom)
                )
            answers.append(session.has_witness(model=model))
            answers.append(
                session.has_discriminating_witness(model, subject)
            )
            translations += session.stats.translations
            incremental_solves += session.stats.incremental_solves
            retained += session.stats.retained_learned_clauses
        else:

            def fresh_query(constrain):
                nonlocal translations
                encoded = WitnessProblem(program)
                constrain(encoded)
                translations += 1
                return encoded.problem.solve() is not None

            for axiom in model.axiom_names:
                answers.append(
                    fresh_query(
                        lambda p, a=axiom: p.constrain_axiom_violated(
                            model, a
                        )
                    )
                )
            answers.append(
                fresh_query(lambda p: p.constrain_model(model, violated=False))
            )

            def both(p):
                p.constrain_model(model, violated=True)
                p.constrain_model(subject, violated=False)

            answers.append(fresh_query(both))
    wall = time.perf_counter() - started
    counters = {
        "programs": len(programs),
        "queries": len(answers),
        "translations": translations,
        "incremental_solves": incremental_solves,
        "retained_learned_clauses": retained,
    }
    return wall, counters, {
        "bound": bound,
        "answers": "".join("1" if a else "0" for a in answers),
    }


WORKLOADS = [
    ("synthesize_axiom_suites", wl_synthesize_suites),
    ("diff_all_pairs", wl_diff_all_pairs),
    ("assumption_queries", wl_assumption_queries),
]


# ----------------------------------------------------------------------
# Deterministic gates (--check)
# ----------------------------------------------------------------------
def check_workload(name: str, entry: dict) -> list:
    failures = []
    fresh, incr = entry["fresh"], entry["incremental"]
    if entry["artifact_fresh"] != entry["artifact_incremental"]:
        failures.append(f"{name}: paths disagree on results")
    translations = incr["counters"]["translations"]
    programs = incr["counters"]["programs"]
    if translations != programs:
        failures.append(
            f"{name}: session path ran {translations} translations for "
            f"{programs} programs (must be exactly one per program)"
        )
    if fresh["counters"]["translations"] <= translations:
        failures.append(
            f"{name}: fresh path should translate strictly more "
            f"({fresh['counters']['translations']} vs {translations})"
        )
    return failures


def run_suite(quick: bool) -> dict:
    results: dict = {}
    for name, fn in WORKLOADS:
        entry: dict = {}
        for label, incremental in (("fresh", False), ("incremental", True)):
            wall, counters, artifact = fn(quick, incremental)
            entry[label] = {"wall_s": round(wall, 6), "counters": counters}
            entry[f"artifact_{label}"] = artifact
            print(
                f"  {name:28s} {label:11s} {wall:8.3f}s  "
                f"translations={counters['translations']}"
            )
        entry["speedup"] = round(
            entry["fresh"]["wall_s"]
            / max(1e-9, entry["incremental"]["wall_s"]),
            3,
        )
        print(f"  {name:28s} speedup     {entry['speedup']:.2f}x")
        results[name] = entry
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="smaller bounds")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate on the deterministic counters: one translation per "
        "program on the session path, identical results on both paths",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=None,
        help="also gate on aggregate wall speedup (only meaningful on "
        "quiet, comparable hardware)",
    )
    args = parser.parse_args(argv)

    print(
        "incremental-session benchmark "
        f"({'quick' if args.quick else 'full'} mode)"
    )
    results = run_suite(args.quick)
    fresh_total = sum(e["fresh"]["wall_s"] for e in results.values())
    incr_total = sum(e["incremental"]["wall_s"] for e in results.values())
    aggregate = round(fresh_total / max(1e-9, incr_total), 3)
    print(f"aggregate wall speedup: {aggregate}x")

    document = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": results,
        "aggregate_wall_speedup": aggregate,
    }

    status = 0
    if args.check:
        failures = []
        for name, entry in results.items():
            failures.extend(check_workload(name, entry))
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

    if args.out:
        Path(args.out).write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n"
        )
        print(f"[results written to {args.out}]")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
