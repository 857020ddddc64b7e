"""Synthesis, differencing and fuzzing free their per-program state by
reference counting, and a pass keeps only its output.

A walk-source context, a rebuilt relaxation's program with its memo,
contexts and template relations, every candidate execution, the SAT
backend's Boolean circuits and CNF, and the skeleton generator's specs
must be freed as soon as the pass is done with them.  One of them caught
in a reference cycle stays alive, with everything it references, until
the cyclic collector runs, and every collection until then scans it.
Each run below goes with the collector off; a collection that saves what
it frees (``gc.DEBUG_SAVEALL``) must then find none of these types.

A finished pass holds what it outputs and nothing else: each ELT keeps
its program and its witness, not an execution, and every program a
result keeps has released its :class:`~repro.mtm.program.ProgramMemo`.
"""

from __future__ import annotations

import gc
import pickle
from collections import Counter

import pytest

from repro.conformance import DiffConfig, diff_models, run_all_pairs
from repro.fuzz import FuzzConfig, run_fuzz
from repro.litmus import format_execution, serialize_elt
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

SAT_MCM = SynthesisConfig(
    bound=4, mcm_mode=True, max_threads=3, witness_backend="sat"
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


def test_sat_suite_keeps_no_execution_alive() -> None:
    """Once a SAT suite returns, no candidate execution it built is
    alive: its ELTs keep their witnesses, and no witness list outlives
    its program."""
    gc.collect()
    known = {id(item) for item in gc.get_objects() if isinstance(item, Execution)}
    result = synthesize(SAT_MCM)
    gc.collect()
    alive = [
        item
        for item in gc.get_objects()
        if isinstance(item, Execution) and id(item) not in known
    ]
    assert result.count == 10
    assert alive == []


def _fused_all_pairs():
    """One fused all-pairs pass at bound 5 on an inline 4-shard plan."""
    matrix, _records = run_all_pairs(
        SynthesisConfig(bound=5), jobs=1, shard_count=4
    )
    return matrix


def test_results_keep_no_derived_program_state() -> None:
    """Every program a result holds has released its memo: its
    ``__dict__`` is exactly what :meth:`Program.__getstate__` keeps, with
    no static relations, symmetry, removal groups or rf_ptw left on it."""
    suite = synthesize(SynthesisConfig(bound=6))
    matrix = _fused_all_pairs()
    programs = [elt.program for elt in suite.elts]
    for cell in matrix.cells.values():
        programs += [elt.program for elt in cell.elts]
    assert len(programs) > len(suite.elts)
    for program in programs:
        assert set(program.__dict__) == set(program.__getstate__())


def test_elt_witness_rebuilds_its_execution() -> None:
    """An ELT's witness determines its representative execution: the
    rebuilt execution serializes to the witness's bytes and violates
    the axioms the ELT records."""
    suite = synthesize(SynthesisConfig(bound=6))
    sat_suite = synthesize(SAT_MCM)
    matrix = _fused_all_pairs()
    cell = matrix.cells[("x86t_elt", "x86t_amd_bug")]
    judged = [(suite.elts, x86t_elt()), (sat_suite.elts, SAT_MCM.model)]
    judged.append((cell.elts, x86t_elt()))
    assert all(elts for elts, _model in judged)
    for elts, model in judged:
        for elt in elts:
            execution = elt.execution
            assert serialize_elt(execution) == serialize_elt(elt)
            assert model.check(execution).violated == elt.violated_axioms


def test_rendering_reads_the_witness() -> None:
    """Serializing and rendering an ELT read its program and witness:
    the kept program gains no memo (rebuilding an execution would attach
    one), and the text equals the rebuilt execution's."""
    elts = synthesize(SynthesisConfig(bound=5)).elts
    assert elts
    for elt in elts:
        text = serialize_elt(elt), format_execution(elt, show_derived=False)
        assert set(elt.program.__dict__) == set(elt.program.__getstate__())
        execution = elt.execution
        rebuilt = (
            serialize_elt(execution),
            format_execution(execution, show_derived=False),
        )
        assert text == rebuilt
        assert format_execution(elt) == format_execution(execution)


def test_elt_pickles_as_its_witness() -> None:
    """A pickled ELT, as shard results and store payloads carry it,
    holds its program and witness only: no execution, relation or memo,
    and it loads to the same bytes and verdict."""
    elts = synthesize(SynthesisConfig(bound=5)).elts
    assert elts
    for elt in elts:
        payload = pickle.dumps(elt)
        for name in (b"Execution", b"TupleSet", b"ProgramMemo"):
            assert name not in payload
        restored = pickle.loads(payload)
        assert serialize_elt(restored) == serialize_elt(elt)
        assert restored.violated_axioms == elt.violated_axioms


def test_elt_execution_is_rebuilt_on_every_read() -> None:
    """``elt.execution`` is derived on demand and never kept: two reads
    give two equal executions, and the ELT holds neither."""
    elt = synthesize(SynthesisConfig(bound=5)).elts[0]
    first, second = elt.execution, elt.execution
    assert first is not second
    assert first.relations == second.relations
    assert not any(isinstance(value, Execution) for value in vars(elt).values())
