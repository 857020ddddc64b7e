"""Fuzz pipeline benchmark: deterministic counters, cross-jobs bytes,
and corpus replay cost.

Three workloads:

* ``serial_determinism`` — the pinned-seed campaign (seed 0, bound 8,
  2 rounds x 64 attempts) at ``--jobs 1``.  Every counter in
  :class:`repro.fuzz.FuzzStats` is serial-deterministic, and the suite
  bytes are content-addressed, so ``--check`` gates them *exactly*
  against the committed baseline — any drift in generation, the oracle,
  shrinking, or dedup shows up as a counter or digest mismatch.
* ``jobs_equivalence`` — the same campaign at ``--jobs 2`` and a
  5-way shard split.  The determinism contract says the findings (and
  the suite bytes serialized from them) are byte-identical whatever the
  schedule; the gate compares digests against the serial run.
* ``replay_corpus`` — re-judging the committed regression corpus from
  scratch (the CI regression check); the gate requires a green replay.

Wall times are printed for context and recorded, never gated.

Usage::

    PYTHONPATH=src python benchmarks/bench_fuzz.py --quick --check \
        --baseline benchmarks/baseline_fuzz_quick.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import platform
import sys
import time
from pathlib import Path

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"

#: Stats fields gated exactly (all serial-deterministic at --jobs 1).
GATED_COUNTERS = (
    "programs_generated",
    "oracle_calls",
    "oracle_memo_hits",
    "witnesses_classified",
    "discriminating",
    "shrink_steps",
    "shrink_failed",
    "truncated",
    "class_replays",
    "novel_classes",
    "novel_behaviors",
    "findings",
)


def _pinned_config(quick: bool):
    from repro.fuzz import FuzzConfig

    return FuzzConfig(
        seed=0,
        bound=8,
        rounds=2 if quick else 3,
        attempts_per_round=64 if quick else 128,
    )


def _suite_digest(result) -> str:
    from repro.litmus import suite_from_fuzz

    text = suite_from_fuzz(result).dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def bench_serial_determinism(quick: bool) -> dict:
    from repro.fuzz import run_fuzz

    started = time.monotonic()
    result = run_fuzz(_pinned_config(quick), jobs=1)
    wall_s = time.monotonic() - started
    stats = result.stats.to_json()
    return {
        "wall_s": round(wall_s, 3),
        "counters": {name: stats[name] for name in GATED_COUNTERS},
        "suite_digest": _suite_digest(result),
        "coverage_digest": hashlib.sha256(
            json.dumps(result.coverage.snapshot(), sort_keys=True).encode()
        ).hexdigest(),
        "note": f"{stats['findings']} findings / "
        f"{stats['programs_generated']} programs",
    }


def bench_jobs_equivalence(quick: bool) -> dict:
    from repro.fuzz import run_fuzz

    started = time.monotonic()
    sharded = run_fuzz(_pinned_config(quick), jobs=2)
    jobs2_s = time.monotonic() - started
    fine = run_fuzz(_pinned_config(quick), jobs=2, shard_count=5)
    return {
        "wall_s": round(jobs2_s, 3),
        "jobs2_digest": _suite_digest(sharded),
        "shard5_digest": _suite_digest(fine),
        "findings": len(sharded.findings),
    }


def bench_replay_corpus() -> dict:
    from repro.fuzz import replay_corpus

    started = time.monotonic()
    report = replay_corpus(CORPUS_DIR)
    wall_s = time.monotonic() - started
    return {
        "wall_s": round(wall_s, 3),
        "entries": report.entries,
        "ok": report.ok,
        "failures": len(report.failures),
    }


def run_suite(quick: bool) -> dict:
    results = {}
    print("-- pinned-seed serial campaign ...")
    results["serial_determinism"] = bench_serial_determinism(quick)
    print("-- cross-jobs byte equivalence ...")
    results["jobs_equivalence"] = bench_jobs_equivalence(quick)
    print("-- committed corpus replay ...")
    results["replay_corpus"] = bench_replay_corpus()
    return results


def check_suite(results: dict, baseline: dict) -> list:
    failures = []

    serial = results["serial_determinism"]
    jobs = results["jobs_equivalence"]
    replay = results["replay_corpus"]

    for name, digest in (
        ("jobs2", jobs["jobs2_digest"]),
        ("shard5", jobs["shard5_digest"]),
    ):
        if digest != serial["suite_digest"]:
            failures.append(
                f"{name} suite bytes diverged from the serial run "
                "(cross-jobs determinism contract broken)"
            )
    if replay["entries"] < 1:
        failures.append("committed corpus is empty")
    if not replay["ok"]:
        failures.append(
            f"corpus replay failed {replay['failures']} check(s)"
        )

    base = (baseline or {}).get("workloads", {}).get("serial_determinism")
    if base is None:
        failures.append(
            "no baseline serial_determinism workload to gate against "
            "(pass --baseline benchmarks/baseline_fuzz_quick.json)"
        )
        return failures
    for name in GATED_COUNTERS:
        got = serial["counters"].get(name)
        want = base["counters"].get(name)
        if got != want:
            failures.append(
                f"serial counter {name} drifted: got {got}, baseline {want}"
            )
    if serial["suite_digest"] != base["suite_digest"]:
        failures.append("serial suite digest drifted from the baseline")
    if serial["coverage_digest"] != base["coverage_digest"]:
        failures.append("coverage snapshot digest drifted from the baseline")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI schedule")
    parser.add_argument("--out", default=None, help="write results JSON here")
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline JSON to gate counters/digests against (--check)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="gate on exact serial counters + digests vs the baseline, "
        "cross-jobs byte identity, and a green corpus replay",
    )
    args = parser.parse_args(argv)

    print(f"fuzz benchmark ({'quick' if args.quick else 'full'} mode)")
    results = run_suite(args.quick)

    document = {
        "meta": {
            "mode": "quick" if args.quick else "full",
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "workloads": results,
    }

    status = 0
    if args.check:
        baseline = {}
        if args.baseline:
            baseline = json.loads(Path(args.baseline).read_text())
        failures = check_suite(results, baseline)
        for failure in failures:
            print(f"GATE FAILURE: {failure}", file=sys.stderr)
        if failures:
            status = 1
        else:
            print(
                "all fuzz gates passed: exact serial counters, "
                "byte-identical cross-jobs suites, green corpus replay"
            )

    if args.out:
        Path(args.out).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"results written to {args.out}")
    else:
        print(json.dumps(document, indent=2, sort_keys=True))
    return status


if __name__ == "__main__":
    raise SystemExit(main())
