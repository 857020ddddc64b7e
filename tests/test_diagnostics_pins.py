"""Pinned ``check --explain`` cycles.

The labeled cycle :func:`repro.models.explain_axiom_violation` reports is
the first one a depth-first search meets, walking each axiom component's
edges in sorted order.  These digests freeze that choice over every paper
figure, every classic litmus test, every ``corpus/`` entry and a bound-5
synthesized suite, under every catalog model and every axiom with
registered components.  The search matches networkx ``find_cycle`` fed
the same edges in the same order.

Sorting makes the cycle independent of the string hash: the pins are
measured in children under different ``PYTHONHASHSEED`` values and must
agree.

It also checks that ``repro.cli`` imports without networkx installed.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.litmus.classics import ALL_CLASSICS
from repro.litmus.figures import ALL_FIGURES
from repro.litmus.suitefile import EltSuite
from repro.models import (
    catalog_models,
    explain_axiom_violation,
    explain_verdict,
    x86t_elt,
)
from repro.models.diagnostics import AXIOM_COMPONENTS
from repro.synth import SynthesisConfig, synthesize

ROOT = Path(__file__).resolve().parents[1]

HASH_SEEDS = ("0", "3")

#: source -> (number of rendered lines, SHA-256 of the rendering).
PINS = {
    "figures": [
        79,
        "2d9d3919f4e15b3b5643ebbd277b90b42982b519df7bc5dccdcbef1080ca21bf",
    ],
    "classics": [
        97,
        "84a57047d4636568c454e0b834b6b93be7d83d8b6de0f59ed7a42deecbf1e3a1",
    ],
    "corpus": [
        21,
        "056b485b288f31f7a4a7a21264d0d0539e8d51c45b84669c1be39e7030ff8659",
    ],
    "bound5": [
        142,
        "7baffe1a72161556561d63bb024e7a479e00ab7c1ad001774e60ec0a6452ab64",
    ],
}

SOURCES = ("figures", "classics", "corpus", "bound5")


def _executions(source: str):
    if source == "figures":
        for name, build in ALL_FIGURES.items():
            yield name, build().execution
    elif source == "classics":
        for name, build in ALL_CLASSICS.items():
            yield name, build().execution
    elif source == "corpus":
        for path in sorted((ROOT / "corpus").glob("*.elts")):
            for entry in EltSuite.load(path):
                yield f"{path.stem}/{entry.name}", entry.execution
    else:
        result = synthesize(SynthesisConfig(bound=5, model=x86t_elt()))
        for index, elt in enumerate(result.elts):
            yield f"elt{index}", elt.execution


def _render(source: str) -> list[str]:
    models = catalog_models()
    lines = []
    for name, execution in _executions(source):
        for model_name, model in models.items():
            for explanation in explain_verdict(execution, model):
                lines.append(f"{name} {model_name} {explanation}")
        for axiom in AXIOM_COMPONENTS:
            explanation = explain_axiom_violation(execution, axiom)
            lines.append(f"{name} {axiom} {explanation}")
    return lines


def measure() -> dict:
    observed = {}
    for source in SOURCES:
        lines = _render(source)
        digest = hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
        observed[source] = [len(lines), digest]
    return observed


def _measure_in_child(hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, __file__], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


@pytest.mark.parametrize("hash_seed", HASH_SEEDS)
def test_explanations_are_pinned(hash_seed: str) -> None:
    assert _measure_in_child(hash_seed) == PINS


def test_cli_imports_without_networkx() -> None:
    code = (
        "import sys; sys.modules['networkx'] = None; "
        "import repro.cli, repro.models.diagnostics"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert completed.returncode == 0, completed.stderr


if __name__ == "__main__":
    print(json.dumps(measure()))
