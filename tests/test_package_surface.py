"""The documented top-level API surface must stay importable."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro


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
)

#: Lazily re-exported names, by package.
LAZY_NAMES = {
    "repro.relational": ("Problem", "ProblemSession", "RelationBound"),
    "repro.synth": ("WitnessSession",),
}

#: Modules only a worker pool needs: a serial sharded run (inline
#: ``--cache-dir``, ``fuzz --jobs 1``) must not load them.
POOL_MODULES = ("concurrent.futures", "multiprocessing")


def _loaded_after(statement: str, modules) -> list:
    """Which of ``modules`` a fresh interpreter has loaded after
    running ``statement``."""
    code = (
        f"import json, sys; {statement}; "
        f"print(json.dumps([m for m in {list(modules)!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def test_cli_import_leaves_the_heavy_modules_unloaded() -> None:
    assert _loaded_after("import repro.cli", HEAVY_MODULES) == []


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
    assert getattr(module, name) is not None


@pytest.mark.parametrize("package", sorted(LAZY_NAMES))
def test_lazy_packages_reject_unknown_names(package: str) -> None:
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(package), "not_a_thing")
