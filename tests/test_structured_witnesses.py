"""The structured entry of :class:`~repro.mtm.Execution` against the
validating one.

The explicit enumerator builds every witness through the structured
entry: its walk-source context, one writer sequence per multi-writer
location, its rf edges and its co_pa choice, each distinct input checked
once per context.  The validating entry — the one parsed and SAT-decoded
witnesses take — is the reference: rebuilt from a witness's own rf, co
and co_pa pairs on a memo-free copy of its program, it must derive the
same rf, co, co_pa and relations, for every enumerated witness at bound
7 (which includes the smaller programs), in MCM mode with three threads,
on the committed corpus, and for every completion the §IV-B rebuild
yields.  Malformed structured inputs raise what the validating entry
raises, and raise again when reused.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.errors import WellFormednessError
from repro.litmus.suitefile import EltSuite
from repro.mtm import Execution, Program, ProgramBuilder
from repro.mtm.execution import derive_rf_ptw, walk_source_context
from repro.synth import SynthesisConfig, enumerate_programs, enumerate_witnesses
from repro.synth.relax import keeps_value_flow, relaxations, relaxed_completions

from . import test_relax_completion

CORPUS_DIR = Path(__file__).resolve().parent.parent / "corpus"


def assert_matches_validating(execution: Execution, cold: Program) -> None:
    """``execution`` equals the validating entry's derivation of its own
    witness on ``cold``, a memo-free copy of its program."""
    reference = Execution(
        cold, execution._rf, execution._co_input, execution._co_pa_input
    )
    assert execution._rf == reference._rf
    assert execution.co == reference.co
    assert execution.co_pa == reference.co_pa
    assert execution.relations == reference.relations
    assert list(execution.relations) == list(reference.relations)
    assert list(execution.__dict__) == list(reference.__dict__)


def cold_copy(program: Program) -> Program:
    cold = pickle.loads(pickle.dumps(program))
    assert "_memo" not in cold.__dict__
    return cold


def check_enumerated(programs) -> int:
    count = 0
    for program in programs:
        cold = cold_copy(program)
        for execution in enumerate_witnesses(program):
            assert_matches_validating(execution, cold)
            count += 1
    return count


class TestEnumeratedWitnesses:
    def test_every_witness_at_bound_7(self) -> None:
        assert check_enumerated(enumerate_programs(SynthesisConfig(bound=7))) == 3645

    def test_every_witness_in_mcm_mode_with_three_threads(self) -> None:
        config = SynthesisConfig(bound=3, mcm_mode=True, max_threads=3)
        assert check_enumerated(enumerate_programs(config)) == 235

    def test_every_witness_of_the_committed_corpus(self) -> None:
        paths = sorted(CORPUS_DIR.glob("*.elts"))
        assert paths
        programs = [
            entry.execution.program for path in paths for entry in EltSuite.load(path)
        ]
        assert check_enumerated(programs) > 0


def check_completions(execution: Execution, removed, dropped) -> int:
    count = 0
    colds: dict[int, Program] = {}
    for completion in relaxed_completions(execution, removed, dropped):
        program = completion.program
        if id(program) not in colds:
            colds[id(program)] = cold_copy(program)
        assert_matches_validating(completion, colds[id(program)])
        count += 1
    return count


class TestRebuiltCompletions:
    def test_every_rebuilt_relaxation_at_bound_6(self) -> None:
        """The relaxations §IV-B minimality rebuilds: group removals that
        take away some survivor's rf source."""
        rebuilt = completions = 0
        for program in enumerate_programs(SynthesisConfig(bound=6)):
            for execution in enumerate_witnesses(program):
                for removed, dropped in relaxations(program):
                    if dropped is not None or len(removed) == len(program.events):
                        continue
                    if keeps_value_flow(execution, removed):
                        continue
                    rebuilt += 1
                    completions += check_completions(execution, removed, dropped)
        assert rebuilt == 349
        assert completions >= rebuilt

    def test_coherence_re_completed_after_removal_induced_aliasing(self) -> None:
        _, program, execution, wpte_x = test_relax_completion.build()
        completions = 0
        for removed, dropped in relaxations(program):
            completions += check_completions(execution, removed, dropped)
        group = next(
            removed for removed, _ in relaxations(program) if wpte_x.eid in removed
        )
        # Two newly aliased writes: both orders are completions.
        assert check_completions(execution, group, None) == 2
        assert completions > 2


# ----------------------------------------------------------------------
# Malformed structured inputs
# ----------------------------------------------------------------------
class DataProgram:
    """Core 0 writes x three times through one TLB entry, reads x, then
    reads and writes y; core 1 writes y."""

    def __init__(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a").map("y", "pa_b")
        c0, c1 = b.thread(), b.thread()
        w0 = c0.write("x")
        x_walk = b.walk_of(w0)
        w1 = c0.write("x", walk=x_walk)
        w2 = c0.write("x", walk=x_walk)
        rx = c0.read("x", walk=x_walk)
        ry = c0.read("y")
        wy = c0.write("y", walk=b.walk_of(ry))
        wy_remote = c1.write("y")
        self.program = b.build()
        self.writes_x = (w0.eid, w1.eid, w2.eid)
        self.rx, self.ry, self.wy = rx.eid, ry.eid, wy.eid
        self.y_walk = b.walk_of(ry).eid
        self.remote_dirty_y = b.dirty_of(wy_remote).eid
        self.orders = (
            self.writes_x,
            tuple(b.dirty_of(w).eid for w in (w0, w1, w2)),
            (wy.eid, wy_remote.eid),
            (b.dirty_of(wy).eid, self.remote_dirty_y),
        )

    def context(self, walk_source=None):
        program = self.program
        return walk_source_context(
            program, dict(walk_source or {}), derive_rf_ptw(program)
        )

    def co(self, orders) -> list:
        return [pair for order in orders for pair in zip(order, order[1:])]


def remap_program():
    """Two remaps of y to pa_c and one of x to pa_d."""
    b = ProgramBuilder()
    b.map("x", "pa_a").map("y", "pa_b")
    c0 = b.thread()
    p0 = c0.pte_write("y", "pa_c")
    p1 = c0.pte_write("y", "pa_c")
    p2 = c0.pte_write("x", "pa_d")
    program = b.build()
    context = walk_source_context(program, {}, derive_rf_ptw(program))
    return program, context, (p0.eid, p1.eid, p2.eid)


def raises_as_validating(program, rf=(), co=(), co_pa=(), **structured) -> str:
    """Build one malformed witness through the validating entry and,
    twice, through the structured one: all three raise the same
    message."""
    with pytest.raises(WellFormednessError) as reference:
        Execution(cold_copy(program), rf, co, co_pa)
    for _ in range(2):
        with pytest.raises(WellFormednessError) as error:
            Execution(program, rf, co_pa=co_pa, **structured)
        assert str(error.value) == str(reference.value)
    return str(reference.value)


class TestMalformedStructuredInputs:
    def test_the_well_formed_witness_builds(self) -> None:
        t = DataProgram()
        execution = Execution(
            t.program,
            [(t.writes_x[1], t.rx)],
            context=t.context(),
            co_orders=t.orders,
        )
        assert_matches_validating(execution, cold_copy(t.program))

    def test_an_order_containing_a_non_write(self) -> None:
        t = DataProgram()
        context = t.context()
        order = (t.writes_x[0], t.ry)
        message = raises_as_validating(
            t.program, co=[order], context=context, co_orders=(order,)
        )
        assert message == f"co ({order[0]},{order[1]}): both ends must be writes"
        assert order not in context.orders

    def test_an_order_containing_a_writer_of_another_location(self) -> None:
        t = DataProgram()
        context = t.context()
        order = (t.writes_x[0], t.wy)
        message = raises_as_validating(
            t.program, co=[order], context=context, co_orders=(order,)
        )
        assert "coherence order relates same-location writes" in message
        assert order not in context.orders

    def test_an_order_missing_a_writer_of_its_location(self) -> None:
        t = DataProgram()
        context = t.context()
        orders = (t.writes_x[:2],) + t.orders[1:]
        message = raises_as_validating(
            t.program, co=t.co(orders), context=context, co_orders=orders
        )
        w0, _w1, w2 = t.writes_x
        assert message == (
            f"co is not total at ('data', 'pa_a'): {w0} and {w2} unordered"
        )
        assert t.writes_x[:2] not in context.orders

    def test_a_multi_writer_location_without_an_order(self) -> None:
        t = DataProgram()
        orders = t.orders[1:]
        message = raises_as_validating(
            t.program, co=t.co(orders), context=t.context(), co_orders=orders
        )
        w0, w1, _w2 = t.writes_x
        assert message == (
            f"co is not total at ('data', 'pa_a'): {w0} and {w1} unordered"
        )

    def test_two_orders_of_one_location(self) -> None:
        t = DataProgram()
        orders = t.orders + (t.writes_x[::-1],)
        message = raises_as_validating(
            t.program, co=t.co(orders), context=t.context(), co_orders=orders
        )
        assert message == "co contains a cycle"

    def test_a_data_rf_edge_across_locations(self) -> None:
        t = DataProgram()
        context = t.context()
        edge = (t.writes_x[0], t.ry)
        message = raises_as_validating(
            t.program,
            rf=[edge],
            co=t.co(t.orders),
            context=context,
            co_orders=t.orders,
        )
        assert "source and target access different locations" in message
        assert edge not in context.rf_edges

    def test_a_read_with_two_rf_sources(self) -> None:
        t = DataProgram()
        rf = [(t.writes_x[0], t.rx), (t.writes_x[1], t.rx)]
        message = raises_as_validating(
            t.program, rf=rf, co=t.co(t.orders), context=t.context(), co_orders=t.orders
        )
        assert message == f"{t.rx}: read with two rf sources"

    def test_a_walk_rf_edge_that_is_not_the_contexts_source(self) -> None:
        t = DataProgram()
        edge = (t.remote_dirty_y, t.y_walk)
        # Well-typed: the validating entry derives its own context from it.
        Execution(cold_copy(t.program), [edge], t.co(t.orders))
        context = t.context()  # every walk reads the initial mapping
        for _ in range(2):
            with pytest.raises(
                WellFormednessError,
                match=(
                    f"the walk-source context has {t.y_walk} "
                    "read the initial mapping"
                ),
            ):
                Execution(t.program, [edge], context=context, co_orders=t.orders)
        assert edge not in context.rf_edges

    def test_a_context_source_without_its_walk_edge(self) -> None:
        t = DataProgram()
        context = t.context({t.y_walk: t.remote_dirty_y})
        with pytest.raises(WellFormednessError, match="no rf edge into it"):
            Execution(t.program, [], context=context, co_orders=t.orders)
        execution = Execution(
            t.program,
            [(t.remote_dirty_y, t.y_walk)],
            context=context,
            co_orders=t.orders,
        )
        assert_matches_validating(execution, cold_copy(t.program))

    def test_a_co_pa_choice_across_pas(self) -> None:
        program, context, (p0, p1, p2) = remap_program()
        message = raises_as_validating(
            program,
            co=[(p0, p1)],
            co_pa=[(p0, p1), (p1, p2)],
            context=context,
            co_orders=((p0, p1),),
        )
        assert message == (
            f"co_pa ({p1},{p2}): alias-creation order relates remaps to "
            "the same PA, got pa_c vs pa_d"
        )
        assert not context.co_pa_choices

    def test_a_co_pa_choice_that_contradicts_co(self) -> None:
        program, context, (p0, p1, p2) = remap_program()
        message = raises_as_validating(
            program,
            co=[(p0, p1)],
            co_pa=[(p1, p0)],
            context=context,
            co_orders=((p0, p1),),
        )
        assert message == f"co_pa ({p1},{p0}) contradicts co at ('pte', 'y')"
        # The choice alone is well formed, so it is memoized, and a
        # witness whose co agrees with it builds.
        assert frozenset([(p1, p0)]) in context.co_pa_choices
        execution = Execution(
            program, co_pa=[(p1, p0)], context=context, co_orders=((p1, p0),)
        )
        assert_matches_validating(execution, cold_copy(program))
