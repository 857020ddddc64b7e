"""The documented top-level API surface must stay importable."""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.synth


def test_version() -> None:
    assert repro.__version__


@pytest.mark.parametrize("name", sorted(set(repro.__all__) - {"__version__"}))
def test_top_level_exports(name: str) -> None:
    assert getattr(repro, name) is not None


def test_unknown_attribute_raises() -> None:
    with pytest.raises(AttributeError):
        repro.not_a_thing


def test_readme_quickstart_snippet_runs() -> None:
    from repro import Execution, ProgramBuilder, SynthesisConfig, synthesize, x86t_elt

    b = ProgramBuilder()
    b.map("x", "pa_a")
    core = b.thread()
    core.pte_write("x", "pa_b")
    core.read("x")
    stale = Execution(b.build())

    model = x86t_elt()
    verdict = model.check(stale)
    assert verdict.forbidden
    assert set(verdict.violated) == {"sc_per_loc", "invlpg"}

    suite = synthesize(
        SynthesisConfig(bound=5, model=model, target_axiom="invlpg")
    )
    assert suite.count == 3


#: Modules a plain ``import repro.cli`` must not load.  Every spawned
#: pool worker repeats that import as ``__mp_main__``.
HEAVY_MODULES = (
    "repro.sat",
    "repro.relational.translate",
    "repro.synth.sat_backend",
    "repro.resilience.scheduler",
    "concurrent.futures",
    # OpenSSL, which only digests need.
    "hashlib",
    "_hashlib",
    # Modules that serve only other subcommands or flags.
    "repro.litmus.classics",
    "repro.litmus.coatcheck",
    "repro.litmus.compare",
    "repro.litmus.figures",
    "repro.litmus.parser",
    "repro.litmus.suitefile",
    "repro.models.diagnostics",
    "repro.obs.export",
    "repro.obs.manifest",
    "repro.obs.progress",
    "repro.relational.eval",
    "repro.reporting.conformance",
    "repro.reporting.experiments",
    "repro.reporting.figures",
    "repro.reporting.orchestration",
    "repro.resilience.lock",
    "repro.symmetry.lex",
    "repro.synth.explore",
)

#: Lazily re-exported names, by package.
LAZY_NAMES = {
    "repro": tuple(sorted(set(repro.__all__) - {"__version__"})),
    "repro.litmus": (
        "ALL_CLASSICS",
        "SC_VERDICTS",
        "TSO_VERDICTS",
        "CoatCheckTest",
        "coatcheck_suite",
        "Category",
        "Classification",
        "ComparisonReport",
        "classify_test",
        "compare_suite",
        "ALL_FIGURES",
        "PaperExample",
        "parse_elt",
        "EltSuite",
        "SuiteEntry",
        "suite_from_diff",
        "suite_from_fuzz",
        "suite_from_synthesis",
    ),
    "repro.models": (
        "CycleExplanation",
        "LabeledEdge",
        "explain_axiom_violation",
        "explain_verdict",
        "render_explanations",
    ),
    "repro.obs": (
        "MANIFEST_KIND",
        "MANIFEST_SCHEMA",
        "build_manifest",
        "list_manifests",
        "load_manifest",
        "manifest_path",
        "sha256_digest",
        "store_manifest",
        "write_manifest",
        "ProgressReporter",
        "progress_enabled",
        "chrome_trace",
        "jsonl_records",
        "validate_chrome_trace",
        "write_trace",
    ),
    "repro.relational": (
        "Problem",
        "ProblemSession",
        "RelationBound",
        "eval_expr",
        "eval_formula",
    ),
    "repro.reporting": (
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
        "amd_bug_case_study",
        "render_amd_bug_report",
        "render_conformance_cell",
        "render_conformance_matrix",
        "render_pair_cache_summary",
        "render_log_plot",
        "render_shard_runtimes",
        "render_sweep_cache_summary",
    ),
    "repro.resilience": ("FileLock",),
    "repro.symmetry": ("witness_relation_permutation",),
    # Every name: importing one submodule runs none of the others.
    "repro.synth": tuple(sorted(repro.synth.__all__)),
}

#: Submodules each facade re-exports lazily: importing the facade
#: must not load them.
LAZY_SUBMODULES = {
    "repro": ("conformance", "litmus", "models", "mtm", "orchestrate", "synth"),
    "repro.litmus": (
        "classics",
        "coatcheck",
        "compare",
        "figures",
        "parser",
        "suitefile",
    ),
    "repro.models": ("diagnostics",),
    "repro.obs": ("export", "manifest", "progress"),
    "repro.relational": ("eval", "translate"),
    "repro.reporting": ("conformance", "experiments", "figures", "orchestration"),
    "repro.resilience": ("lock",),
    "repro.symmetry": ("lex",),
    "repro.synth": tuple(
        info.name for info in pkgutil.iter_modules(repro.synth.__path__)
    ),
}

#: Every package, and the one module that once could not be the first
#: ``repro`` import of a process: ``repro.symmetry.groups`` imports
#: ``repro.synth.canon``, whose package then loaded the engine, which
#: imports the half-built ``repro.symmetry``.
FIRST_IMPORTS = (
    "repro",
    *(
        f"repro.{info.name}"
        for info in pkgutil.iter_modules(repro.__path__)
        if info.ispkg
    ),
    "repro.symmetry.groups",
)

#: Modules only a worker pool needs: a serial sharded run (inline
#: ``--cache-dir``, ``fuzz --jobs 1``) must not load them.
POOL_MODULES = ("concurrent.futures", "multiprocessing")

SRC = Path(repro.__file__).parents[1]


def _loaded_after(statement: str, modules) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after
    running ``statement``."""
    code = (
        f"import json, sys; {statement}; "
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_cli_import_leaves_the_heavy_modules_unloaded() -> None:
    assert _loaded_after("import repro.cli", HEAVY_MODULES) == []


@pytest.mark.parametrize("module", FIRST_IMPORTS)
def test_first_import_of_a_fresh_interpreter(module: str) -> None:
    lazy = [f"{module}.{name}" for name in LAZY_SUBMODULES.get(module, ())]
    assert _loaded_after(f"import {module}", lazy) == []


def _run_cli(argv, cwd: Path, *options: str) -> subprocess.CompletedProcess:
    """``python [options] -m repro.cli argv`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *options, "-m", "repro.cli", *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


#: Default synthesis and diff runs, with their exit status and how many
#: processes import the package (the run and its pool workers).  They
#: take no digest, so none of those processes may load OpenSSL.
DIGEST_FREE_RUNS = {
    "synthesize": (("synthesize", "--bound", "5"), 0, 1),
    "synthesize-mcm-sat": (
        (
            "synthesize",
            "--bound",
            "4",
            "--mcm",
            "--threads",
            "3",
            "--witness-backend",
            "sat",
        ),
        0,
        1,
    ),
    "diff-all-pairs": (("diff", "--all-pairs", "--bound", "5", "--json"), 1, 1),
    "diff-all-pairs-jobs-2": (
        ("diff", "--all-pairs", "--bound", "5", "--json", "--jobs", "2"),
        1,
        3,
    ),
}


@pytest.mark.parametrize(
    "argv, status, processes",
    DIGEST_FREE_RUNS.values(),
    ids=list(DIGEST_FREE_RUNS),
)
def test_default_runs_leave_openssl_unloaded(
    argv, status: int, processes: int, tmp_path: Path
) -> None:
    # ``-X importtime`` logs every import to stderr, and spawned pool
    # workers inherit the option and the stream.
    completed = _run_cli(argv, tmp_path, "-X", "importtime")
    assert completed.returncode == status, completed.stderr[-2000:]
    imported = [
        line.rpartition("|")[2].strip()
        for line in completed.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert imported.count("repro.synth.engine") == processes
    assert not set(imported) & {"hashlib", "_hashlib"}


PTWALK2_ELT = "elt\nmap x pa_a\nthread 0\n  wpte x pa_b\n  ipi 0\n  r x miss\n"

#: Paths that load their modules on first use: the arguments (``{tmp}``
#: is a scratch directory, ``{elt}`` a one-ELT file, ``{store}`` a cache
#: directory holding a traced run's manifest), the exit status, and a
#: line the run prints.
LAZY_PATHS = {
    "synthesize --trace": (
        "synthesize --bound 4 --trace {tmp}/trace.json",
        0,
        "unique ELTs",
    ),
    "synthesize --profile": ("synthesize --bound 4 --profile", 0, '"stages"'),
    "synthesize --cache-dir": (
        "synthesize --bound 4 --cache-dir {tmp}/cache",
        0,
        "suite_hit=False",
    ),
    "stats --cache-dir": ("stats --cache-dir {store}", 0, "run manifests"),
    "check --explain": ("check --explain {elt}", 1, "invlpg cycle:"),
    "explore": ("explore {elt} --verbose", 0, "candidate executions"),
    "compare": ("compare", 0, "COATCheck"),
    "sweep": ("sweep --max-bound 4", 0, "Fig 9a"),
}


@pytest.mark.parametrize(
    "template, status, shows", LAZY_PATHS.values(), ids=list(LAZY_PATHS)
)
def test_lazy_path_runs_in_a_fresh_interpreter(
    template: str, status: int, shows: str, tmp_path: Path
) -> None:
    """Each path runs in its own interpreter, so no other path has
    loaded a module it reads as a global."""
    paths = {
        "tmp": tmp_path,
        "elt": tmp_path / "ptwalk2.elt",
        "store": tmp_path / "store",
    }
    paths["elt"].write_text(PTWALK2_ELT)
    if "{store}" in template:
        from repro.cli import main

        traced = ["synthesize", "--bound", "4", "--trace", str(tmp_path / "t.json")]
        assert main(traced + ["--cache-dir", str(paths["store"])]) == 0
    argv = [token.format(**paths) for token in template.split()]
    completed = _run_cli(argv, tmp_path)
    assert completed.returncode == status, completed.stderr[-2000:]
    assert "Traceback" not in completed.stderr
    assert shows in completed.stdout


def test_orchestration_import_leaves_the_pool_modules_unloaded() -> None:
    statement = "import repro.fuzz, repro.conformance, repro.orchestrate"
    assert _loaded_after(statement, POOL_MODULES) == []


def test_inline_task_run_leaves_the_pool_modules_unloaded() -> None:
    statement = (
        "from types import SimpleNamespace; "
        "from repro.orchestrate.shards import plan_shards; "
        "from repro.resilience.scheduler import PoolManager, run_tasks; "
        "PoolManager(2); "
        "tasks = [SimpleNamespace(spec=spec) for spec in plan_shards(1, 3)]; "
        "assert run_tasks(tasks, lambda task: task.spec.label) "
        "== ['s0/3', 's1/3', 's2/3']"
    )
    assert _loaded_after(statement, POOL_MODULES) == []


def test_deadline_api_leaves_the_task_runner_unloaded() -> None:
    """The SAT solver imports ``repro.resilience`` for its deadline
    channel; that import must not pull in the task runner."""
    assert _loaded_after("import repro.resilience", HEAVY_MODULES) == []


def test_resilience_exports_only_the_deadline_api_and_the_lock() -> None:
    import repro.resilience

    assert sorted(repro.resilience.__all__) == [
        "FileLock",
        "current_deadline",
        "deadline_exceeded",
        "deadline_scope",
        "install_deadline",
    ]


#: Names of the retired retry/chaos envelope: none may come back.
RETIRED_NAMES = (
    "FailureRecord",
    "FaultPlan",
    "ResilienceStats",
    "RetryPolicy",
    "SchedulerOutcome",
)

#: Modules the retired names were, or could plausibly be, exported from.
RETIRED_NAME_HOMES = (
    "repro",
    "repro.errors",
    "repro.orchestrate",
    "repro.resilience",
    "repro.resilience.scheduler",
)


@pytest.mark.parametrize("name", RETIRED_NAMES)
def test_retired_names_are_gone(name: str) -> None:
    for package in RETIRED_NAME_HOMES:
        assert not hasattr(importlib.import_module(package), name), package


def test_sat_session_cache_and_query_layer_are_gone() -> None:
    """The SAT path translates and enumerates each program once: no
    process-wide session cache, no assumption-scoped queries, no
    constraint groups, and no knob selecting them may come back."""
    from dataclasses import fields

    from repro.fuzz import FuzzConfig
    from repro.relational import Problem, ProblemSession
    from repro.sat import SolverStats
    from repro.synth import SynthesisConfig, sat_backend

    for name in (
        "WitnessSessionCache",
        "shared_session_cache",
        "program_identity_key",
        "DEFAULT_SESSION_CACHE_SIZE",
    ):
        assert not hasattr(sat_backend, name), name
    for owner, names in (
        (
            sat_backend.WitnessSession,
            ("has_witness", "has_discriminating_witness", "query_executions"),
        ),
        (ProblemSession, ("solve", "iter_instances", "add_group")),
        (Problem, ("groups",)),
    ):
        for name in names:
            assert not hasattr(owner, name), (owner.__name__, name)
    for config in (SynthesisConfig, FuzzConfig):
        assert "incremental" not in {spec.name for spec in fields(config)}
    counters = {spec.name for spec in fields(SolverStats)}
    assert not counters & {"incremental_solves", "retained_learned_clauses"}


#: Every sharded driver, and the executor they share.
SHARDED_ENTRY_POINTS = (
    ("repro.orchestrate", "execute_plan"),
    ("repro.orchestrate", "run_sharded"),
    ("repro.orchestrate", "run_sweep_sharded"),
    ("repro.conformance", "run_all_pairs"),
    ("repro.conformance", "run_diff"),
    ("repro.conformance.runner", "run_diffs"),
    ("repro.fuzz", "run_fuzz"),
)


@pytest.mark.parametrize(
    "module, name",
    SHARDED_ENTRY_POINTS,
    ids=[name for _, name in SHARDED_ENTRY_POINTS],
)
def test_sharded_entry_points_take_no_retry_or_fault_plan(
    module: str, name: str
) -> None:
    import inspect

    parameters = inspect.signature(
        getattr(importlib.import_module(module), name)
    ).parameters
    assert "retry" not in parameters
    assert "faults" not in parameters


@pytest.mark.parametrize(
    "package, name",
    [(package, name) for package, names in LAZY_NAMES.items() for name in names],
)
def test_lazy_names_resolve(package: str, name: str) -> None:
    module = importlib.import_module(package)
    assert name in module.__all__
    value = getattr(module, name)
    assert value is not None
    # The first read caches the name in the facade's globals.
    assert vars(module)[name] is value
    assert name in dir(module)


@pytest.mark.parametrize("package", sorted(LAZY_NAMES))
def test_star_import_binds_every_exported_name(package: str) -> None:
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    assert set(importlib.import_module(package).__all__) <= set(namespace)


@pytest.mark.parametrize("package", sorted(LAZY_NAMES))
def test_lazy_packages_reject_unknown_names(package: str) -> None:
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(package), "not_a_thing")
