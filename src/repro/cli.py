"""Command-line interface: ``transform-synth`` (alias ``repro``).

Subcommands mirror the framework's workflow:

* ``synthesize`` — run one per-axiom suite at a bound and print the ELTs;
* ``sweep``      — the Fig 9 per-axiom bound sweep (counts + runtimes);
* ``check``      — evaluate an ELT file (machine format) against a model;
* ``compare``    — the §VI-B comparison against the hand-written suite;
* ``diff``       — differential conformance: synthesize the ELTs that
  *distinguish* a subject model from a reference (the paper's x86t vs
  AMD-erratum case study), or the whole catalog's conformance matrix
  with ``--all-pairs``.  Exit status: 0 when the pair(s) are equivalent
  at the bound, 1 when discriminating tests exist, 2 on usage errors.
* ``fuzz``       — coverage-guided differential fuzzing *beyond* the
  enumeration bound: seeded random well-formed programs judged by the
  same differential oracle, findings shrunk to §IV-B-minimal ELTs and
  landed in the standard suite format, with a replayable regression
  corpus (``--corpus`` / ``--replay``).  Same exit convention as
  ``diff``: 1 when findings exist, 0 when none, 2 on usage errors.

``synthesize``, ``sweep``, ``diff`` and ``fuzz`` scale across cores and
invocations through the :mod:`repro.orchestrate` subsystem: ``--jobs N``
shards the search over N worker processes (the output is identical to
the serial path's, byte for byte), and ``--cache-dir`` persists whole
results (suites, diff cells, fuzz runs) and reuses them on reruns.

Every subcommand exits 2 on a configuration error (a bad flag value,
an unknown axiom) and 3 when a shard fails; a failed run prints and
writes no result.  When the reader of stdout goes away (``... | head``)
the CLI stops quietly with 141, the status of a process killed by
SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Optional, Sequence

from .errors import ShardFailure, SynthesisError
from .litmus import format_execution, parse_elt
from .models import CATALOG, MemoryModel, x86t_elt
from .reporting import (
    comparison_corpus,
    fig9_sweep,
    render_comparison,
    render_fig9a,
    render_fig9b,
    run_coatcheck_comparison,
)
from .synth import SynthesisConfig, synthesize

MODELS = dict(CATALOG)

#: The smallest bound at which the paper's case study discriminates:
#: x86t_elt vs x86t_amd_bug yields the fig 11-style stale-read ELT.
DEFAULT_DIFF_BOUND = 5

#: Default fuzz generation bound: just past the exhaustive enumeration's
#: practical ceiling (the beyond-the-bound regime starts here).
DEFAULT_FUZZ_BOUND = 8


def _model(name: str) -> MemoryModel:
    try:
        return MODELS[name]()
    except KeyError:
        raise SystemExit(
            f"unknown model {name!r}; choose from {sorted(MODELS)}"
        )


def _usage_error(message: str) -> "SystemExit":
    """Usage errors exit with status 2 (argparse convention), leaving 1
    free to mean "discriminating tests exist" for ``diff``."""
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _diff_model(name: str) -> MemoryModel:
    try:
        return MODELS[name]()
    except KeyError:
        raise _usage_error(
            f"unknown model {name!r}; choose from {sorted(MODELS)}"
        )


def _emit_profile(
    args: argparse.Namespace,
    stats,
    runtime_s: float,
    stream=None,
    leading_blank: bool = True,
) -> None:
    """The one ``--profile`` emitter (synthesize, sweep, and both diff
    paths all route here): renders the stage-profile JSON document as a
    view over the unified metrics registry."""
    if not getattr(args, "profile", False) or stats is None:
        return
    from .reporting import render_stage_profile

    out = sys.stdout if stream is None else stream
    if leading_blank:
        print(file=out)
    print(render_stage_profile(stats, runtime_s), file=out)


def _observation(args: argparse.Namespace):
    """The run's :class:`~repro.obs.Observation` (a no-op unless
    ``--trace`` asked for one)."""
    from .obs import Observation

    return Observation(trace_path=getattr(args, "trace", None))


def _finish_observation(
    obs,
    args: argparse.Namespace,
    command: str,
    identity: dict,
    stats,
    artifacts=None,
    extra=None,
) -> None:
    """Export the trace + write the run manifest (store-side too when a
    cache dir is in play).  No-op when observation is disabled."""
    if not obs.enabled:
        return
    from .orchestrate.store import identity_key

    obs.finish(
        command=command,
        identity=identity,
        identity_key=identity_key(identity),
        stats=stats,
        artifacts=artifacts,
        cache_dir=getattr(args, "cache_dir", None),
        extra=extra,
    )
    if args.trace:
        print(f"trace written to {args.trace}", file=sys.stderr)


def _orchestration(args: argparse.Namespace):
    """Validate the orchestration arguments and return the suite store
    requested by --cache-dir (or None).

    Every orchestrating subcommand calls this once; a bad argument is a
    usage error (exit 2), which keeps exit 1 free for the subcommands
    that give it a meaning."""
    if args.jobs < 1:
        raise _usage_error(f"--jobs must be positive, got {args.jobs}")
    if not args.cache_dir:
        return None
    from .orchestrate import SuiteStore

    return SuiteStore(args.cache_dir)


def cmd_synthesize(args: argparse.Namespace) -> int:
    model = _model(args.model)
    config = SynthesisConfig(
        bound=args.bound,
        model=model,
        target_axiom=args.axiom,
        max_threads=args.threads,
        mcm_mode=args.mcm,
        time_budget_s=args.budget,
        witness_backend=args.witness_backend,
        symmetry=not args.no_symmetry,
    )
    store = _orchestration(args)
    orchestrated = None
    obs = _observation(args)
    with obs:
        if args.jobs > 1 or store is not None:
            from .orchestrate import run_sharded

            orchestrated = run_sharded(config, jobs=args.jobs, store=store)
            result = orchestrated.result
        else:
            result = synthesize(config)
    stats = result.stats
    print(
        f"suite[{args.axiom or 'any-axiom'} @ bound {args.bound}]: "
        f"{result.count} unique ELTs "
        f"({stats.programs_enumerated} programs, "
        f"{stats.executions_enumerated} executions, "
        f"{stats.runtime_s:.2f}s"
        f"{', TIMED OUT' if stats.timed_out else ''})"
    )
    if args.witness_backend == "sat":
        from .reporting import render_sat_counters

        print()
        print(render_sat_counters(stats))
    if not args.no_symmetry:
        from .reporting import render_symmetry_counters

        print()
        print(render_symmetry_counters(stats))
    _emit_profile(args, stats, stats.runtime_s)
    if orchestrated is not None and (
        orchestrated.shard_results or orchestrated.suite_cache_hit
    ):
        from .reporting import render_shard_runtimes

        print()
        print(render_shard_runtimes(orchestrated, cached=store is not None))
    for index, elt in enumerate(result.elts):
        print(f"\n--- ELT {index + 1} (violates: {', '.join(elt.violated_axioms)}) ---")
        print(format_execution(elt.execution, show_derived=args.verbose))
    artifacts = None
    if args.save:
        from .litmus import suite_from_synthesis

        prefix = args.axiom or "elt"
        path = suite_from_synthesis(result, prefix=prefix).save(args.save)
        print(f"\nsuite written to {path}")
        artifacts = {"suite": path}
    if obs.enabled:
        from .orchestrate.store import config_identity

        _finish_observation(
            obs,
            args,
            "synthesize",
            config_identity(config),
            stats,
            artifacts=artifacts,
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .models import X86T_ELT_AXIOM_NAMES
    from .reporting import resolve_max_bounds, resolve_sweep_budget

    store = _orchestration(args)
    for axiom in args.axiom or ():
        if axiom not in X86T_ELT_AXIOM_NAMES:
            raise SystemExit(
                f"unknown axiom {axiom!r}; choose from "
                f"{sorted(X86T_ELT_AXIOM_NAMES)}"
            )
    explicit = (
        None
        if args.max_bound is None
        else {axiom: args.max_bound for axiom in X86T_ELT_AXIOM_NAMES}
    )
    bounds = resolve_max_bounds(explicit, axioms=args.axiom or None)
    budget = resolve_sweep_budget(args.budget)
    obs = _observation(args)
    with obs:
        if args.jobs > 1 or store is not None:
            from .orchestrate import run_sweep_sharded
            from .reporting import render_sweep_cache_summary

            sweep, records = run_sweep_sharded(
                SynthesisConfig(
                    bound=4,
                    model=x86t_elt(),
                    witness_backend=args.witness_backend,
                    symmetry=not args.no_symmetry,
                ),
                axioms=sorted(bounds, key=list(X86T_ELT_AXIOM_NAMES).index),
                min_bound=4,
                max_bound=bounds,
                time_budget_per_run_s=budget,
                jobs=args.jobs,
                store=store,
            )
            cache_summary = render_sweep_cache_summary(records)
        else:
            sweep = fig9_sweep(
                max_bounds=bounds,
                time_budget_per_run_s=budget,
                witness_backend=args.witness_backend,
                symmetry=not args.no_symmetry,
            )
            cache_summary = None
    if cache_summary is not None:
        print(cache_summary)
        print()
    print(render_fig9a(sweep))
    print()
    print(render_fig9b(sweep))
    if sweep.skipped:
        print()
        skipped = ", ".join(f"{a}@{b}" for a, b in sweep.skipped)
        print(f"bounds skipped after timeout: {skipped}")
    if args.profile or obs.enabled:
        from .synth import SuiteStats

        aggregate = SuiteStats()
        total = 0.0
        for point in sweep.points:
            aggregate.absorb(point.result.stats)
            total += point.result.stats.runtime_s
        aggregate.runtime_s = total
        _emit_profile(args, aggregate, total)
        _finish_observation(
            obs,
            args,
            "sweep",
            {
                "kind": "sweep",
                "max_bounds": dict(sorted(bounds.items())),
                "budget_s": budget,
                "witness_backend": args.witness_backend,
                "symmetry": not args.no_symmetry,
            },
            aggregate,
        )
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    model = _model(args.model)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    execution = parse_elt(text)
    print(format_execution(execution))
    verdict = model.check(execution)
    if args.explain and verdict.forbidden:
        from .models import render_explanations

        print()
        print(render_explanations(execution, model))
    else:
        print(f"\n{verdict}")
    return 0 if verdict.permitted else 1


def cmd_compare(args: argparse.Namespace) -> int:
    corpus = comparison_corpus()
    report = run_coatcheck_comparison(corpus)
    print(render_comparison(report))
    return 0


def cmd_diff(args: argparse.Namespace) -> int:
    from .conformance import DiffConfig, cell_to_json, diff_models, run_diff

    if args.all_pairs and (args.reference or args.subject):
        raise _usage_error("--all-pairs excludes --reference/--subject")
    if not args.all_pairs and not (args.reference and args.subject):
        raise _usage_error(
            "diff needs --reference and --subject (or --all-pairs)"
        )
    if args.all_pairs and args.save:
        raise _usage_error(
            "--save applies to a single pair's discriminating suite; "
            "use --json to capture an --all-pairs run"
        )
    store = _orchestration(args)

    if args.all_pairs:
        from .conformance import run_all_pairs
        from .models import catalog_models
        from .reporting import (
            render_conformance_matrix,
            render_pair_cache_summary,
        )

        models = catalog_models()
        base = SynthesisConfig(
            bound=args.bound,
            model=x86t_elt(),
            max_threads=args.threads,
            time_budget_s=args.budget,
            witness_backend=args.witness_backend,
            symmetry=not args.no_symmetry,
        )
        obs = _observation(args)
        with obs:
            started = time.monotonic()
            matrix, records = run_all_pairs(
                base, models=models, jobs=args.jobs, store=store
            )
            elapsed = time.monotonic() - started
        aggregate = None
        if args.witness_backend == "sat" or args.profile or obs.enabled:
            from .synth import SuiteStats

            aggregate = SuiteStats()
            for cell in matrix.cells.values():
                aggregate.absorb(cell.stats)
            # Every cell's runtime_s is the whole fused run, so summing
            # them would count the shared enumeration once per pair.
            aggregate.runtime_s = elapsed
        if args.json:
            print(json.dumps(matrix.to_json(), indent=2, sort_keys=True))
        else:
            print(render_conformance_matrix(matrix, models=models))
            if store is not None:
                print()
                print(render_pair_cache_summary(records))
            if args.witness_backend == "sat":
                from .reporting import render_sat_counters

                print()
                print(render_sat_counters(aggregate))
            violations = matrix.inclusion_violations(models)
            if violations:
                rendered = ", ".join(f"{r}⊑{s}" for r, s in violations)
                print(f"\nWARNING: axiom-subset inclusions violated: {rendered}")
        _emit_profile(
            args,
            aggregate,
            aggregate.runtime_s if aggregate is not None else 0.0,
            stream=sys.stderr if args.json else sys.stdout,
            leading_blank=False,
        )
        if obs.enabled:
            from .orchestrate.store import config_identity

            identity = config_identity(base)
            identity["kind"] = "diff-all-pairs"
            identity["models"] = sorted(models)
            _finish_observation(obs, args, "diff --all-pairs", identity, aggregate)
        return 1 if matrix.discriminating_total else 0

    reference = _diff_model(args.reference)
    subject = _diff_model(args.subject)
    diff = DiffConfig(
        base=SynthesisConfig(
            bound=args.bound,
            model=reference,
            max_threads=args.threads,
            time_budget_s=args.budget,
            witness_backend=args.witness_backend,
            symmetry=not args.no_symmetry,
        ),
        subject=subject,
    )
    run_record = None
    obs = _observation(args)
    with obs:
        if args.jobs > 1 or store is not None:
            run_record = run_diff(diff, jobs=args.jobs, store=store)
            cell = run_record.cell
        else:
            cell = diff_models(diff)

    if args.json:
        print(json.dumps(cell_to_json(cell), indent=2, sort_keys=True))
    else:
        from .reporting import render_conformance_cell

        print(render_conformance_cell(cell))
        if run_record is not None and store is not None:
            print(f"cache: cell_hit={run_record.cell_cache_hit}")
        if args.witness_backend == "sat":
            from .reporting import render_sat_counters

            print()
            print(render_sat_counters(cell.stats))
        for index, elt in enumerate(cell.elts, start=1):
            print(
                f"\n--- discriminating ELT {index} "
                f"(violates: {', '.join(elt.violated_axioms)}) ---"
            )
            print(format_execution(elt.execution, show_derived=args.verbose))
    _emit_profile(
        args,
        cell.stats,
        cell.stats.runtime_s,
        stream=sys.stderr if args.json else sys.stdout,
        leading_blank=False,
    )
    artifacts = None
    if args.save:
        from .litmus import suite_from_diff

        path = suite_from_diff(cell).save(args.save)
        if not args.json:
            print(f"\ndiff suite written to {path}")
        artifacts = {"suite": path}
    if obs.enabled:
        from .conformance import diff_identity

        _finish_observation(
            obs, args, "diff", diff_identity(diff), cell.stats,
            artifacts=artifacts,
        )
    return 1 if cell.discriminating else 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .fuzz import FuzzConfig, fuzz_identity, replay_corpus, run_fuzz, write_corpus

    if args.replay:
        if not args.corpus:
            raise _usage_error("--replay needs --corpus DIR to replay from")
        report = replay_corpus(args.corpus)
        if args.json:
            print(json.dumps(report.to_json(), indent=2, sort_keys=True))
        else:
            print(
                f"corpus replay: {report.entries} entr"
                f"{'y' if report.entries == 1 else 'ies'} in "
                f"{report.directory}: {'OK' if report.ok else 'FAILED'}"
            )
            for file, test, reason in report.failures:
                print(f"  {file} [{test}]: {reason}")
        return 0 if report.ok else 1

    if args.bound < 1:
        raise _usage_error(f"--bound must be positive, got {args.bound}")
    if args.rounds < 1:
        raise _usage_error(f"--rounds must be positive, got {args.rounds}")
    if args.attempts < 1:
        raise _usage_error(f"--attempts must be positive, got {args.attempts}")
    store = _orchestration(args)

    config = FuzzConfig(
        seed=args.seed,
        bound=args.bound,
        reference=_diff_model(args.reference),
        subject=_diff_model(args.subject),
        rounds=args.rounds,
        attempts_per_round=args.attempts,
        max_threads=args.threads,
        max_witnesses=args.max_witnesses,
        time_budget_s=args.budget,
        witness_backend=args.witness_backend,
        symmetry=not args.no_symmetry,
    )
    obs = _observation(args)
    with obs:
        result = run_fuzz(config, jobs=args.jobs, store=store)

    snapshot = result.coverage.snapshot()
    if args.json:
        document = {
            "identity": fuzz_identity(config),
            "stats": result.stats.to_json(),
            "coverage": snapshot,
            "rounds_run": result.rounds_run,
            "findings": [
                {
                    "class": finding.digest,
                    "violates": list(finding.violated_axioms),
                    "size": finding.program.size,
                    "shrink_steps": finding.shrink_steps,
                    "occurrences": finding.occurrences,
                    "source": list(finding.source),
                }
                for finding in result.findings
            ],
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        stats = result.stats
        print(
            f"fuzz {result.reference} vs {result.subject}: seed={result.seed} "
            f"bound={result.bound} rounds={result.rounds_run}"
        )
        print(
            f"attempts={stats.programs_generated} "
            f"classes={snapshot['classes']} behaviors={snapshot['behaviors']} "
            f"saturated={'yes' if snapshot['saturated'] else 'no'}"
        )
        print(
            f"discriminating={stats.discriminating} "
            f"findings={stats.findings} shrink_steps={stats.shrink_steps} "
            f"shrink_failed={stats.shrink_failed} truncated={stats.truncated}"
        )
        if stats.timed_out:
            print("NOTE: run hit --budget; coverage and findings are partial")
        if store is not None:
            print(f"cache: run_hit={result.run_cache_hit}")
        for index, finding in enumerate(result.findings, start=1):
            print(
                f"\n--- finding {index} (class {finding.digest}, violates: "
                f"{', '.join(finding.violated_axioms)}, size "
                f"{finding.program.size}, shrink steps "
                f"{finding.shrink_steps}) ---"
            )
            print(
                format_execution(finding.execution, show_derived=args.verbose)
            )
    if getattr(args, "profile", False):
        out = sys.stderr if args.json else sys.stdout
        print(
            json.dumps(
                {"fuzz_stats": result.stats.to_json()}, sort_keys=True
            ),
            file=out,
        )
    artifacts = {}
    if args.save:
        from .litmus import suite_from_fuzz

        path = suite_from_fuzz(result).save(args.save)
        if not args.json:
            print(f"\nfuzz suite written to {path}")
        artifacts["suite"] = path
    if args.corpus:
        paths = write_corpus(result, args.corpus)
        if not args.json:
            print(f"corpus: {len(paths)} finding(s) written to {args.corpus}")
        artifacts["corpus"] = args.corpus
    if obs.enabled:
        identity = fuzz_identity(config)
        identity["kind"] = "fuzz"
        # FuzzStats is not a SuiteStats (no stage times); ship the fuzz
        # counters and coverage through the manifest's extra block.
        _finish_observation(
            obs, args, "fuzz", identity, None,
            artifacts=artifacts or None,
            extra={"fuzz_stats": result.stats.to_json(), "coverage": snapshot},
        )
    return 1 if result.findings else 0


def cmd_stats(args: argparse.Namespace) -> int:
    from .obs import list_manifests

    manifests = list_manifests(args.cache_dir)
    if args.key:
        manifests = [
            manifest
            for manifest in manifests
            if manifest.get("identity_key", "").startswith(args.key)
        ]
    if args.json:
        print(json.dumps(manifests, indent=2, sort_keys=True))
        return 0
    if not manifests:
        print(f"no run manifests under {args.cache_dir}/manifests")
        return 0
    from .reporting import render_table

    rows = []
    for manifest in manifests:
        counters = manifest.get("counters", {}).get("counters", {})
        timing = manifest.get("timing", {})
        rows.append(
            [
                manifest.get("command", "?"),
                manifest.get("identity_key", "")[:12],
                counters.get("suite.programs_enumerated", 0),
                counters.get("suite.executions_enumerated", 0),
                counters.get("suite.interesting", 0),
                f"{timing.get('wall_s', 0.0):.2f}",
            ]
        )
    print(
        render_table(
            ["command", "key", "programs", "executions", "interesting", "wall_s"],
            rows,
            title=f"run manifests ({args.cache_dir})",
        )
    )
    if args.verbose:
        for manifest in manifests:
            print()
            print(f"-- {manifest.get('identity_key', '')} --")
            counters = manifest.get("counters", {}).get("counters", {})
            for name, value in sorted(counters.items()):
                print(f"  {name} = {value}")
            stage_s = manifest.get("timing", {}).get("stage_s", {})
            for name, value in sorted(stage_s.items()):
                print(f"  stage_s.{name} = {value}")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    from .synth import explore_program

    model = _model(args.model)
    if args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as handle:
            text = handle.read()
    execution = parse_elt(text)
    exploration = explore_program(
        execution.program, model, limit=args.limit
    )
    print(exploration.summary())
    if args.verbose:
        for index, outcome in enumerate(exploration.outcomes, start=1):
            print(f"\n--- outcome {index}: {outcome.verdict} ---")
            print(format_execution(outcome.execution, show_derived=False))
    return 0


def _add_orchestration_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--witness-backend",
        choices=("explicit", "sat"),
        default="explicit",
        help="candidate-execution enumerator: the explicit Python "
        "enumerator or the relational SAT (Alloy-port) pipeline; both "
        "yield the same canonical ELT suite (representative witness "
        "details may differ), and each is byte-reproducible",
    )
    # Accepted and ignored: every program is now translated and solved
    # afresh.  Kept, hidden, because the end-to-end benchmark's --pin
    # cross-check still passes it.
    parser.add_argument(
        "--fresh-solver", action="store_true", help=argparse.SUPPRESS
    )
    parser.add_argument(
        "--no-symmetry",
        action="store_true",
        help="disable symmetry-aware enumeration (witness-orbit pruning, "
        "SAT lex-leader clauses, orbit-level program dedup) — the "
        "differential oracle path; output is byte-identical either way",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print per-stage wall-time JSON (translate / solve / decode / "
        "classify / minimality) after the report",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="write a structured run trace here: Chrome trace_event JSON "
        "(load it in Perfetto or chrome://tracing), or a JSONL event log "
        "when FILE ends in .jsonl; the export embeds the metrics snapshot "
        "and the run manifest, and the run's output stays byte-identical "
        "to an untraced one",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (shards the search; output stays identical)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="persist whole results (suites, diff cells, fuzz runs) here "
        "and reuse them on reruns",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="transform-synth",
        description="TransForm reproduction: formal MTMs and ELT synthesis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synthesize", help="synthesize a per-axiom ELT suite")
    synth.add_argument("--bound", type=int, required=True)
    synth.add_argument("--axiom", default=None, help="axiom to violate")
    synth.add_argument("--model", default="x86t_elt", choices=sorted(MODELS))
    synth.add_argument("--threads", type=int, default=2)
    synth.add_argument("--mcm", action="store_true", help="user-level MCM mode")
    synth.add_argument("--budget", type=float, default=None, help="seconds")
    synth.add_argument("--verbose", action="store_true")
    synth.add_argument("--save", default=None, help="write an .elts suite file")
    _add_orchestration_arguments(synth)
    synth.set_defaults(func=cmd_synthesize)

    sweep = sub.add_parser("sweep", help="Fig 9 per-axiom bound sweep")
    sweep.add_argument("--max-bound", type=int, default=None)
    sweep.add_argument("--budget", type=float, default=None, help="seconds/run")
    sweep.add_argument(
        "--axiom",
        action="append",
        default=None,
        help="restrict to this axiom (repeatable)",
    )
    _add_orchestration_arguments(sweep)
    sweep.set_defaults(func=cmd_sweep)

    diff = sub.add_parser(
        "diff",
        help="differential conformance: synthesize the ELTs distinguishing "
        "a subject model from a reference (exit 1 when any exist)",
    )
    diff.add_argument(
        "--reference",
        default=None,
        help="the spec model (forbids the discriminating tests)",
    )
    diff.add_argument(
        "--subject",
        default=None,
        help="the model under comparison (permits them)",
    )
    diff.add_argument(
        "--all-pairs",
        action="store_true",
        help="run every ordered pair of the model catalog and print the "
        "conformance matrix",
    )
    diff.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_DIFF_BOUND,
        help=f"instruction bound (default {DEFAULT_DIFF_BOUND}, the "
        "smallest at which the x86t-vs-AMD-erratum pair discriminates)",
    )
    diff.add_argument("--threads", type=int, default=2)
    diff.add_argument("--budget", type=float, default=None, help="seconds/pair")
    diff.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (stable schema, version field inside)",
    )
    diff.add_argument("--verbose", action="store_true")
    diff.add_argument("--save", default=None, help="write the discriminating "
                      "suite as an .elts file (pair mode only)")
    _add_orchestration_arguments(diff)
    diff.set_defaults(func=cmd_diff)

    fuzz = sub.add_parser(
        "fuzz",
        help="coverage-guided differential fuzzing beyond the enumeration "
        "bound: random well-formed programs, shrunk findings, replayable "
        "corpus (exit 1 when findings exist)",
    )
    fuzz.add_argument(
        "--reference",
        default="x86t_elt",
        help="the spec model (forbids the findings; default x86t_elt)",
    )
    fuzz.add_argument(
        "--subject",
        default="x86t_amd_bug",
        help="the model under comparison (permits them; default "
        "x86t_amd_bug, the AMD INVLPG erratum)",
    )
    fuzz.add_argument(
        "--seed",
        type=int,
        default=0,
        help="run seed: the only entropy source; a fixed seed makes the "
        "findings byte-identical across --jobs (default 0)",
    )
    fuzz.add_argument(
        "--bound",
        type=int,
        default=DEFAULT_FUZZ_BOUND,
        help=f"max events per random program (default {DEFAULT_FUZZ_BOUND}; "
        "8-12 is the beyond-the-enumeration regime)",
    )
    fuzz.add_argument(
        "--rounds",
        type=int,
        default=2,
        help="coverage-feedback rounds: generation profiles re-weight at "
        "each round barrier toward profiles that found novelty (default 2)",
    )
    fuzz.add_argument(
        "--attempts",
        type=int,
        default=64,
        help="programs generated per round (default 64)",
    )
    fuzz.add_argument("--threads", type=int, default=2)
    fuzz.add_argument(
        "--max-witnesses",
        type=int,
        default=20000,
        help="abandon a program whose candidate-execution count exceeds "
        "this (counted as truncated; default 20000)",
    )
    fuzz.add_argument(
        "--budget", type=float, default=None, help="seconds for the whole run"
    )
    fuzz.add_argument(
        "--json",
        action="store_true",
        help="machine-readable output (stable schema, version field inside)",
    )
    fuzz.add_argument("--verbose", action="store_true")
    fuzz.add_argument(
        "--save",
        default=None,
        help="write the shrunk findings as a standard .elts suite file",
    )
    fuzz.add_argument(
        "--corpus",
        default=None,
        metavar="DIR",
        help="write one .elts file per finding into DIR (content-addressed "
        "by orbit-class digest); with --replay, the directory to re-judge",
    )
    fuzz.add_argument(
        "--replay",
        action="store_true",
        help="replay --corpus DIR instead of fuzzing: re-judge every "
        "committed finding from scratch (exit 1 on any regression)",
    )
    _add_orchestration_arguments(fuzz)
    fuzz.set_defaults(func=cmd_fuzz)

    check = sub.add_parser("check", help="check an ELT file against a model")
    check.add_argument("file", help="ELT machine-format file, or - for stdin")
    check.add_argument("--model", default="x86t_elt", choices=sorted(MODELS))
    check.add_argument(
        "--explain",
        action="store_true",
        help="print the labeled cycle witnessing each violated axiom",
    )
    check.set_defaults(func=cmd_check)

    compare = sub.add_parser(
        "compare", help="§VI-B comparison vs the hand-written COATCheck suite"
    )
    compare.set_defaults(func=cmd_compare)

    stats = sub.add_parser(
        "stats",
        help="render the run manifests recorded in a cache dir "
        "(counters, stage times, artifact digests)",
    )
    stats.add_argument(
        "--cache-dir",
        required=True,
        help="the store whose manifests/ tree to read",
    )
    stats.add_argument(
        "--key",
        default=None,
        help="only manifests whose identity key starts with this prefix",
    )
    stats.add_argument(
        "--json",
        action="store_true",
        help="dump the matching manifests as a JSON array",
    )
    stats.add_argument(
        "--verbose",
        action="store_true",
        help="also print every deterministic counter and stage time",
    )
    stats.set_defaults(func=cmd_stats)

    explore = sub.add_parser(
        "explore", help="enumerate all outcomes of an ELT program"
    )
    explore.add_argument("file", help="ELT machine-format file, or - for stdin")
    explore.add_argument("--model", default="x86t_elt", choices=sorted(MODELS))
    explore.add_argument("--limit", type=int, default=None)
    explore.add_argument("--verbose", action="store_true")
    explore.set_defaults(func=cmd_explore)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        # Flush inside the try, so a reader that left early is handled
        # here rather than by the interpreter's flush at exit.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the interpreter's final flush of
        # what is still buffered stays quiet, and exit as SIGPIPE would.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except SynthesisError as error:
        # A bad configuration is a usage error, like a bad flag value.
        raise _usage_error(str(error)) from None
    except ShardFailure as error:
        print(f"error: {error}", file=sys.stderr)
        raise SystemExit(3) from None


if __name__ == "__main__":
    raise SystemExit(main())
