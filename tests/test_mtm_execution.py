"""Unit tests for candidate executions: witness validation and derived
relations, anchored on the paper's figures."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import WellFormednessError
from repro.litmus.figures import (
    fig2b_sb_elt,
    fig2c_sb_aliased,
    fig4b_remap_chain,
    fig5a_shared_walk,
    fig5b_invlpg_forces_rewalk,
    fig6d_remap_disambiguation,
    fig10a_ptwalk2,
    fig10b_dirtybit3,
    fig11_stale_mapping_after_ipi,
)
from repro.mtm import Execution, ProgramBuilder, names, program_memo


class TestRfPtwDerivation:
    def test_shared_walk_sources_both_reads(self) -> None:
        ex = fig5a_shared_walk()
        rf_ptw = ex.execution.relation(names.RF_PTW)
        assert (ex.eid("Rptw0"), ex.eid("R0")) in rf_ptw
        assert (ex.eid("Rptw0"), ex.eid("R1")) in rf_ptw
        ptw_source = ex.execution.relation(names.PTW_SOURCE)
        assert ptw_source.tuples == {(ex.eid("R0"), ex.eid("R1"))}

    def test_invlpg_forces_new_walk(self) -> None:
        ex = fig5b_invlpg_forces_rewalk()
        rf_ptw = ex.execution.relation(names.RF_PTW)
        assert (ex.eid("Rptw0"), ex.eid("R0")) in rf_ptw
        assert (ex.eid("Rptw2"), ex.eid("R2")) in rf_ptw
        assert (ex.eid("Rptw0"), ex.eid("R2")) not in rf_ptw
        # No sharing -> no ptw_source edges.
        assert ex.execution.relation(names.PTW_SOURCE).is_empty()

    def test_access_with_no_tlb_entry_rejected(self) -> None:
        # Hand-build: read after INVLPG without a re-walk.
        from repro.mtm import Event, EventKind, Program

        events = {
            "r0": Event("r0", EventKind.READ, 0, va="x"),
            "pw0": Event("pw0", EventKind.PT_WALK, 0, va="x"),
            "i1": Event("i1", EventKind.INVLPG, 0, va="x"),
            "r2": Event("r2", EventKind.READ, 0, va="x"),
        }
        program = Program(
            events=events,
            threads=(("r0", "i1", "r2"),),
            ghosts={"r0": ("pw0",)},
            initial_map={"x": "pa_a"},
        )
        with pytest.raises(WellFormednessError, match="no TLB entry"):
            Execution(program)


class TestValueFlow:
    def test_initial_mapping_used_without_rf(self) -> None:
        ex = fig2b_sb_elt()
        pa = ex.execution.pa_of
        assert pa[ex.eid("W0")] == "pa_a"
        assert pa[ex.eid("R1")] == "pa_b"

    def test_remap_changes_effective_pa(self) -> None:
        ex = fig2c_sb_aliased()
        pa = ex.execution.pa_of
        assert pa[ex.eid("R2")] == "pa_a"  # y remapped to pa_a
        assert pa[ex.eid("W5")] == "pa_a"
        assert pa[ex.eid("W0")] == "pa_a"

    def test_stale_walk_keeps_old_pa(self) -> None:
        ex = fig10a_ptwalk2()
        assert ex.execution.pa_of[ex.eid("R2")] == "pa_a"

    def test_fresh_walk_gets_new_pa(self) -> None:
        ex = fig10b_dirtybit3()
        assert ex.execution.pa_of[ex.eid("R2")] == "pa_b"
        assert ex.execution.pa_of[ex.eid("W3")] == "pa_b"

    def test_dirty_bit_forwards_parent_mapping(self) -> None:
        # A walk reading from a Wdb inherits the Wdb's parent's mapping.
        b = ProgramBuilder()
        b.map("x", "pa_a")
        c0 = b.thread()
        w0 = c0.write("x")
        r1 = c0.read("x")  # capacity eviction: new walk
        program = b.build()
        wdb0 = b.dirty_of(w0)
        execution = Execution(program, rf=[(wdb0.eid, b.walk_of(r1).eid)])
        assert execution.pa_of[r1.eid] == "pa_a"
        # Dirty-bit source is not a PTE write, so no rf_pa edge.
        assert execution.relation(names.RF_PA).is_empty()

    def test_circular_value_flow_rejected(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a")
        c0 = b.thread()
        w0 = c0.write("x")
        program = b.build()
        wdb0, walk0 = b.dirty_of(w0), b.walk_of(w0)
        with pytest.raises(WellFormednessError, match="circular"):
            Execution(program, rf=[(wdb0.eid, walk0.eid)])


class TestWitnessValidation:
    def test_rf_across_locations_rejected(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        w0 = c0.write("x")
        r1 = c0.read("y")
        program = b.build()
        with pytest.raises(WellFormednessError, match="different locations"):
            Execution(program, rf=[(w0.eid, r1.eid)])

    def test_two_rf_sources_rejected(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        w0 = c0.write("x")
        w1 = c1.write("x")
        r2 = c1.read("x", walk=b.walk_of(w1))
        program = b.build()
        wdb0, wdb1 = b.dirty_of(w0), b.dirty_of(w1)
        with pytest.raises(WellFormednessError, match="two rf sources"):
            Execution(
                program,
                rf=[(w0.eid, r2.eid), (w1.eid, r2.eid)],
                co=[(w0.eid, w1.eid), (wdb0.eid, wdb1.eid)],
            )

    def test_co_must_be_total(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        c0.write("x")
        c1.write("x")
        program = b.build()
        with pytest.raises(WellFormednessError, match="not total"):
            Execution(program)

    def test_co_cycle_rejected(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        w0 = c0.write("x")
        w1 = c1.write("x")
        program = b.build()
        with pytest.raises(WellFormednessError, match="cycle"):
            Execution(program, co=[(w0.eid, w1.eid), (w1.eid, w0.eid)])

    def test_co_across_locations_rejected(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        w0 = c0.write("x")
        w1 = c0.write("y")
        program = b.build()
        with pytest.raises(WellFormednessError, match="same-location"):
            Execution(program, co=[(w0.eid, w1.eid)])

    def test_aliased_writes_need_co(self) -> None:
        # After remapping y -> pa_a, writes to x and y hit the same PA and
        # must be coherence-ordered.
        ex = fig2c_sb_aliased()  # builds fine because co is provided
        co = ex.execution.relation(names.CO)
        assert (ex.eid("W0"), ex.eid("W5")) in co

    def test_walk_rf_from_wrong_pte_rejected(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a").map("y", "pa_b")
        c0 = b.thread()
        wpte = c0.pte_write("y", "pa_c")
        r1 = c0.read("x")
        program = b.build()
        with pytest.raises(WellFormednessError, match="different PTE locations"):
            Execution(program, rf=[(wpte.eid, b.walk_of(r1).eid)])


class TestDerivedRelations:
    def test_fig2b_rf_ptw_edges(self) -> None:
        ex = fig2b_sb_elt()
        rf_ptw = ex.execution.relation(names.RF_PTW)
        for user, walk in [
            ("W0", "Rptw0"),
            ("R1", "Rptw1"),
            ("W2", "Rptw2"),
            ("R3", "Rptw3"),
        ]:
            assert (ex.eid(walk), ex.eid(user)) in rf_ptw

    def test_fig2c_rf_pa(self) -> None:
        ex = fig2c_sb_aliased()
        rf_pa = ex.execution.relation(names.RF_PA)
        assert (ex.eid("WPTE3"), ex.eid("R2")) in rf_pa
        assert (ex.eid("WPTE3"), ex.eid("W5")) in rf_pa

    def test_fig4b_pa_edges(self) -> None:
        ex = fig4b_remap_chain()
        x = ex.execution
        assert (ex.eid("WPTE2"), ex.eid("R4")) in x.relation(names.RF_PA)
        assert (ex.eid("WPTE5"), ex.eid("R7")) in x.relation(names.RF_PA)
        assert (ex.eid("WPTE2"), ex.eid("WPTE5")) in x.relation(names.CO_PA)
        assert (ex.eid("R4"), ex.eid("WPTE5")) in x.relation(names.FR_PA)
        assert (ex.eid("R1"), ex.eid("WPTE2")) in x.relation(names.FR_VA)
        assert (ex.eid("R0"), ex.eid("WPTE5")) in x.relation(names.FR_VA)

    def test_fig6d_disambiguation(self) -> None:
        ex = fig6d_remap_disambiguation()
        x = ex.execution
        assert (ex.eid("W3"), ex.eid("R6")) in x.relation(names.RF)
        assert x.pa_of[ex.eid("W4")] == "pa_a"
        assert x.pa_of[ex.eid("R6")] == "pa_b"
        assert (ex.eid("R0"), ex.eid("WPTE1")) in x.relation(names.FR_VA)
        assert (ex.eid("W4"), ex.eid("WPTE1")) in x.relation(names.FR_VA)
        assert (ex.eid("R0"), ex.eid("W4")) in x.relation(names.FR)

    def test_fig10a_fr_and_fr_va(self) -> None:
        ex = fig10a_ptwalk2()
        x = ex.execution
        assert (ex.eid("Rptw2"), ex.eid("WPTE0")) in x.relation(names.FR)
        assert (ex.eid("R2"), ex.eid("WPTE0")) in x.relation(names.FR_VA)
        # po_loc puts the stale walk after the PTE write (ghosts inherit
        # their parent's slot).
        assert (ex.eid("WPTE0"), ex.eid("Rptw2")) in x.relation(names.PO_LOC)

    def test_fig11_invlpg_cycle_edges(self) -> None:
        ex = fig11_stale_mapping_after_ipi()
        x = ex.execution
        assert (ex.eid("WPTE0"), ex.eid("INVLPG2")) in x.relation(names.REMAP)
        assert (ex.eid("INVLPG2"), ex.eid("R3")) in x.relation(names.PO)
        assert (ex.eid("R3"), ex.eid("WPTE0")) in x.relation(names.FR_VA)

    def test_rfe_is_cross_core_rf(self) -> None:
        ex = fig2b_sb_elt()
        rfe = ex.execution.relation(names.RFE)
        assert (ex.eid("W2"), ex.eid("R1")) in rfe
        assert (ex.eid("W0"), ex.eid("R3")) in rfe

    def test_com_is_union(self) -> None:
        ex = fig2c_sb_aliased()
        x = ex.execution
        com = x.relation(names.COM)
        union = x.relation(names.RF) + x.relation(names.CO) + x.relation(names.FR)
        assert com == union

    def test_to_instance_roundtrip(self) -> None:
        ex = fig2b_sb_elt()
        instance = ex.execution.to_instance()
        assert instance.relation(names.RF) == ex.execution.relation(names.RF)
        assert set(instance.atoms) == set(ex.execution.program.eids)


class TestWalkSourceContext:
    """Every witness with one walk -> source assignment shares one
    derived context; the result must be what a fresh derivation gives."""

    @staticmethod
    def _configs():
        from repro.synth import SynthesisConfig

        yield from (SynthesisConfig(bound=bound) for bound in range(2, 7))
        yield SynthesisConfig(bound=3, mcm_mode=True, max_threads=3)

    def test_warm_derivation_equals_a_memo_free_one(self) -> None:
        from repro.synth import enumerate_programs, enumerate_witnesses

        count = 0
        for config in self._configs():
            for program in enumerate_programs(config):
                # Enumeration warms every context of the program.
                for witness in list(enumerate_witnesses(program)):
                    witness_args = (witness._rf, witness._co_input, witness._co_pa_input)
                    warm = Execution(program, *witness_args)
                    # A pickle round trip is a copy without memos.
                    cold_program = pickle.loads(pickle.dumps(program))
                    assert "_memo" not in cold_program.__dict__
                    cold = Execution(cold_program, *witness_args)
                    assert warm.relations == cold.relations
                    assert list(warm.relations) == list(cold.relations)
                    assert (warm.co, warm.co_pa) == (cold.co, cold.co_pa)
                    assert warm.pa_of == cold.pa_of
                    assert warm.locations == cold.locations
                    count += 1
        assert count > 800

    def test_cached_assignment_still_checks_each_witness(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        w0 = c0.write("x")
        w1 = c0.write("y")
        r2 = c0.read("y")
        program = b.build()
        Execution(program)  # warms the one context (no PTE rf edges)
        with pytest.raises(WellFormednessError, match="different locations"):
            Execution(program, rf=[(w0.eid, r2.eid)])
        with pytest.raises(WellFormednessError, match="same-location"):
            Execution(program, co=[(w0.eid, w1.eid)])
        assert len(program_memo(program).contexts) == 1

    def test_assignment_errors_raise_for_every_witness(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a")
        c0 = b.thread()
        w0 = c0.write("x")
        r1 = c0.read("x", walk=b.walk_of(w0))
        program = b.build()
        circular = (b.dirty_of(w0).eid, b.walk_of(w0).eid)
        for rf in ([circular], [circular, (w0.eid, r1.eid)]):
            with pytest.raises(WellFormednessError, match="circular"):
                Execution(program, rf=rf)
        assert len(program_memo(program).contexts) == 1
