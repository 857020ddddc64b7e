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
    "repro.synth": ("WitnessSession", "WitnessSessionCache", "shared_session_cache"),
    "repro.resilience": (
        "FailureRecord",
        "PoolManager",
        "ResilienceStats",
        "SchedulerOutcome",
        "run_resilient_tasks",
    ),
}


def test_cli_import_leaves_the_heavy_modules_unloaded() -> None:
    code = (
        "import json, sys; import repro.cli; "
        f"print(json.dumps([m for m in {list(HEAVY_MODULES)!r} if m in sys.modules]))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    assert json.loads(completed.stdout) == []


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
