"""The restriction lemma behind the fast path of §IV-B minimality.

:func:`repro.synth.relax.relaxation_becomes_permitted` decides a
relaxation that keeps every survivor's rf source (data or PTE) on the
parent execution's relations restricted to the survivors
(:meth:`repro.mtm.Execution.restricted`) instead of rebuilding the
program and re-completing its witness.  Each test here compares the two
on every relaxation of a set of executions — every enumerated execution
at bound 6 (which includes the smaller programs) and in MCM mode with
three threads at bound 3, the committed fuzz corpus, and random
transistency and MCM programs:

* where the condition holds, the rebuild
  (:func:`repro.synth.relax.relaxed_completions`) yields exactly one
  completion, its relations equal the restricted view's, and the verdict
  agrees under every catalog model;
* where it does not hold, the fast path is not taken.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from unittest import mock

from hypothesis import given, settings

from repro.litmus.suitefile import EltSuite
from repro.models import catalog_models
from repro.mtm import Execution
from repro.synth import SynthesisConfig, enumerate_programs, enumerate_witnesses
from repro.synth.relax import (
    keeps_value_flow,
    relaxation_becomes_permitted,
    relaxations,
    relaxed_completions,
)

from .strategies import executions

MODELS = tuple(catalog_models().values())

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def check_relaxations(execution: Execution, tally: Counter) -> None:
    """Check the lemma on every relaxation of one execution, counting in
    ``tally`` how many take each path."""
    program = execution.program
    restricted = Execution.restricted
    views = []

    def spy(self, *args):
        views.append(args)
        return restricted(self, *args)

    for removed, dropped in relaxations(program):
        if len(removed) == len(program.events):
            continue  # the empty execution, decided before either path
        relaxation = (sorted(removed), dropped)
        completions = list(relaxed_completions(execution, removed, dropped))
        verdicts = [any(model.permits(c) for c in completions) for model in MODELS]
        fast = keeps_value_flow(execution, removed)
        tally["restricted" if fast else "rebuilt"] += 1
        if fast:
            assert len(completions) == 1, relaxation
            view = execution.restricted(removed, dropped)
            rebuilt = completions[0].relations
            assert view.relations.keys() == rebuilt.keys(), relaxation
            differing = sorted(
                name
                for name, relation in view.relations.items()
                if relation != rebuilt[name]
            )
            assert not differing, (relaxation, differing)
            assert [model.permits(view) for model in MODELS] == verdicts
        # The function under test restricts exactly when the condition
        # holds, and decides as the rebuild does.
        views.clear()
        with mock.patch.object(Execution, "restricted", spy):
            decided = relaxation_becomes_permitted(
                execution, MODELS[0], removed, dropped
            )
        assert decided == verdicts[0], relaxation
        assert views == ([(removed, dropped)] if fast else []), relaxation


def check_enumerated(config: SynthesisConfig) -> Counter:
    tally: Counter = Counter()
    for program in enumerate_programs(config):
        for execution in enumerate_witnesses(program):
            check_relaxations(execution, tally)
    return tally


def test_every_relaxation_of_every_execution_at_bound_6() -> None:
    tally = check_enumerated(SynthesisConfig(bound=6))
    # Both paths are exercised, the restriction on most relaxations.
    assert 0 < tally["rebuilt"] < tally["restricted"]


def test_every_relaxation_in_mcm_mode_with_three_threads() -> None:
    # Bound 4 has 14k relaxations (about 14 s on a 2-core machine), too
    # slow for the tier-1 run; the MCM property below samples the larger
    # programs.
    tally = check_enumerated(
        SynthesisConfig(bound=3, mcm_mode=True, max_threads=3)
    )
    assert 0 < tally["rebuilt"] < tally["restricted"]


def test_every_relaxation_of_the_committed_corpus() -> None:
    tally: Counter = Counter()
    paths = sorted(CORPUS_DIR.glob("*.elts"))
    assert paths
    for path in paths:
        for entry in EltSuite.load(path):
            check_relaxations(entry.execution, tally)
    assert tally["restricted"] > 0


@given(executions(max_events=8))
@settings(max_examples=60, deadline=None)
def test_every_relaxation_of_random_executions(execution) -> None:
    check_relaxations(execution, Counter())


@given(executions(max_events=6, mcm=True, max_threads=3))
@settings(max_examples=60, deadline=None)
def test_every_relaxation_of_random_mcm_executions(execution) -> None:
    check_relaxations(execution, Counter())

