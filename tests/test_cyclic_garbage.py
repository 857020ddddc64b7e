"""Synthesis, differencing and fuzzing free their per-program state by
reference counting.

A walk-source context, a rebuilt relaxation's program with its memo,
contexts and template relations, every candidate execution, the SAT
backend's Boolean circuits and CNF, and the skeleton generator's specs
must be freed as soon as the pass is done with them.  One of them caught
in a reference cycle stays alive, with everything it references, until
the cyclic collector runs, and every collection until then scans it.
Each run below goes with the collector off; a collection that saves what
it frees (``gc.DEBUG_SAVEALL``) must then find none of these types.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro.conformance import DiffConfig, diff_models
from repro.fuzz import FuzzConfig, run_fuzz
from repro.models import x86t_amd_bug, x86t_elt
from repro.mtm import Execution, Program
from repro.mtm.execution import WalkSourceContext
from repro.mtm.program import ProgramMemo
from repro.relational.boolean import BAnd, BNot, BOr, BVar
from repro.relational.tuples import TupleSet
from repro.sat import Cnf
from repro.synth import SynthesisConfig, synthesize
from repro.synth.skeletons import Spec

PER_PROGRAM_STATE = (
    Program,
    ProgramMemo,
    WalkSourceContext,
    TupleSet,
    Execution,
    BAnd,
    BOr,
    BNot,
    BVar,
    Cnf,
    Spec,
)

RUNS = {
    "synthesize": lambda: synthesize(SynthesisConfig(bound=5)),
    "synthesize-sat-mcm": lambda: synthesize(
        SynthesisConfig(
            bound=3, mcm_mode=True, max_threads=3, witness_backend="sat"
        )
    ),
    "diff": lambda: diff_models(
        DiffConfig(
            base=SynthesisConfig(bound=5, model=x86t_elt()), subject=x86t_amd_bug()
        )
    ),
    "fuzz": lambda: run_fuzz(FuzzConfig(seed=0, bound=8)),
}


@pytest.mark.parametrize("run", sorted(RUNS))
def test_run_leaves_no_cyclic_garbage(run: str) -> None:
    gc.collect()
    was_enabled, flags = gc.isenabled(), gc.get_debug()
    gc.disable()
    try:
        RUNS[run]()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        cyclic = Counter(
            type(item).__name__
            for item in gc.garbage
            if isinstance(item, PER_PROGRAM_STATE)
        )
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == Counter()


def test_sat_suite_keeps_only_its_representatives_alive() -> None:
    """Once a SAT suite returns, the only candidate executions still
    alive are the representatives its ELTs hold: no witness list
    outlives its program."""
    gc.collect()
    earlier = [item for item in gc.get_objects() if isinstance(item, Execution)]
    known = {id(item) for item in earlier}
    result = synthesize(
        SynthesisConfig(
            bound=4, mcm_mode=True, max_threads=3, witness_backend="sat"
        )
    )
    gc.collect()
    alive = {
        id(item)
        for item in gc.get_objects()
        if isinstance(item, Execution) and id(item) not in known
    }
    assert result.count == 10
    assert alive == {id(elt.execution) for elt in result.elts}
