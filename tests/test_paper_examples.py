"""The paper-figure oracle hub: every claim the paper makes about a
specific figure, asserted in one place.

(Verdict-level checks also appear in test_models.py; this module goes
deeper — per-figure edge inventories and the cycles the paper's prose
describes.)
"""

from __future__ import annotations

import pytest

from repro.litmus import ALL_FIGURES
from repro.litmus.figures import (
    fig2b_sb_elt,
    fig2c_sb_aliased,
    fig6d_remap_disambiguation,
    fig10a_ptwalk2,
    fig11_stale_mapping_after_ipi,
)
from repro.models import x86t_elt
from repro.mtm import names
from repro.relational import TupleSet


def closure_has_cycle(*edge_sets: TupleSet) -> bool:
    union = edge_sets[0]
    for edges in edge_sets[1:]:
        union = union + edges
    return not union.is_acyclic()


class TestFig2:
    """sb as an ELT: permitted without aliasing, forbidden with it."""

    def test_fig2b_every_access_translated(self) -> None:
        ex = fig2b_sb_elt()
        rf_ptw = ex.execution.relation(names.RF_PTW)
        users = {user for _walk, user in rf_ptw}
        expected = {ex.eid(k) for k in ("W0", "R1", "W2", "R3")}
        assert users == expected

    def test_fig2b_dirty_bits_write_pte_locations(self) -> None:
        ex = fig2b_sb_elt()
        x = ex.execution
        assert x.locations[ex.eid("Wdb0")] == ("pte", "x")
        assert x.locations[ex.eid("Wdb2")] == ("pte", "y")

    def test_fig2c_aliasing_creates_same_pa_com(self) -> None:
        # §II-B1: after the remap, x and y alias PA a, so com edges relate
        # accesses with different effective VAs.
        ex = fig2c_sb_aliased()
        x = ex.execution
        sloc = x.relation(names.SLOC)
        assert (ex.eid("W0"), ex.eid("R2")) in sloc  # W x vs R y — same PA!
        assert (ex.eid("W0"), ex.eid("W5")) in sloc

    def test_fig2c_coherence_cycle(self) -> None:
        # The forbidden outcome is a coherence (sc_per_loc) cycle.
        ex = fig2c_sb_aliased()
        x = ex.execution
        assert closure_has_cycle(
            x.relation(names.RF),
            x.relation(names.CO),
            x.relation(names.FR),
            x.relation(names.PO_LOC),
        )


class TestFig6:
    """The remap disambiguates an otherwise-ambiguous rf (§III-D)."""

    def test_r6_reads_w3_not_w4(self) -> None:
        ex = fig6d_remap_disambiguation()
        rf = ex.execution.relation(names.RF)
        assert (ex.eid("W3"), ex.eid("R6")) in rf
        assert (ex.eid("W4"), ex.eid("R6")) not in rf

    def test_w4_accesses_a_different_pa(self) -> None:
        ex = fig6d_remap_disambiguation()
        x = ex.execution
        assert x.pa_of[ex.eid("W4")] != x.pa_of[ex.eid("R6")]

    def test_all_four_rf_pa_and_fr_va_edges(self) -> None:
        # "there are rf_pa edges relating each to WPTE1. Similarly, R0 and
        # W4 read from the initial address mapping so there are fr_va edges"
        ex = fig6d_remap_disambiguation()
        x = ex.execution
        rf_pa = x.relation(names.RF_PA)
        fr_va = x.relation(names.FR_VA)
        assert (ex.eid("WPTE1"), ex.eid("W3")) in rf_pa
        assert (ex.eid("WPTE1"), ex.eid("R6")) in rf_pa
        assert (ex.eid("R0"), ex.eid("WPTE1")) in fr_va
        assert (ex.eid("W4"), ex.eid("WPTE1")) in fr_va

    def test_remap_fan_out_to_both_cores(self) -> None:
        ex = fig6d_remap_disambiguation()
        remap = ex.execution.relation(names.REMAP)
        targets = {inv for _pte, inv in remap}
        assert ex.eid("INVLPG2") in targets
        assert ex.eid("INVLPG5") in targets


class TestFig10a:
    """ptwalk2: the paper's category-1 poster child."""

    def test_violates_exactly_the_stated_axioms(self) -> None:
        verdict = x86t_elt().check(fig10a_ptwalk2().execution)
        assert set(verdict.violated) == {"sc_per_loc", "invlpg"}

    def test_sc_per_loc_cycle_goes_through_the_ghost_slot(self) -> None:
        # The coherence cycle needs po_loc(WPTE0 -> Rptw2): ghosts occupy
        # their parent's program slot (docs/ARCHITECTURE.md, "Modelling
        # decisions").
        ex = fig10a_ptwalk2()
        x = ex.execution
        assert (ex.eid("WPTE0"), ex.eid("Rptw2")) in x.relation(names.PO_LOC)
        assert (ex.eid("Rptw2"), ex.eid("WPTE0")) in x.relation(names.FR)

    def test_invlpg_cycle(self) -> None:
        ex = fig10a_ptwalk2()
        x = ex.execution
        assert closure_has_cycle(
            x.relation(names.FR_VA),
            x.relation(names.PO),
            x.relation(names.REMAP),
        )


class TestFig11:
    def test_cycle_uses_the_remote_invlpg(self) -> None:
        # remap(WPTE0 -> INVLPG2) + po(INVLPG2 -> R3) + fr_va(R3 -> WPTE0).
        ex = fig11_stale_mapping_after_ipi()
        x = ex.execution
        assert (ex.eid("WPTE0"), ex.eid("INVLPG2")) in x.relation(names.REMAP)
        assert (ex.eid("INVLPG2"), ex.eid("R3")) in x.relation(names.PO)
        assert (ex.eid("R3"), ex.eid("WPTE0")) in x.relation(names.FR_VA)

    def test_without_the_ipi_ordering_no_violation(self) -> None:
        # Move the read *before* the INVLPG in po and the same stale read
        # becomes permitted — position of the IPI is what matters.
        from repro.mtm import Execution, ProgramBuilder

        b = ProgramBuilder()
        b.map("x", "pa_a")
        c0, c1 = b.thread(), b.thread()
        wpte0 = b_thread_read = None
        wpte0 = c0.pte_write("x", "pa_b")
        c1.read("x")  # reads the (still-current) initial mapping
        c1.invlpg_for(wpte0)
        execution = Execution(b.build())
        assert x86t_elt().permits(execution)


class TestAllFiguresWellFormed:
    @pytest.mark.parametrize("name", sorted(ALL_FIGURES))
    def test_constructible_and_exportable(self, name: str) -> None:
        example = ALL_FIGURES[name]()
        instance = example.execution.to_instance()
        assert set(instance.atoms) == set(example.execution.program.eids)

    @pytest.mark.parametrize("name", sorted(ALL_FIGURES))
    def test_com_relates_same_location_events(self, name: str) -> None:
        x = ALL_FIGURES[name]().execution
        sloc = x.relation(names.SLOC)
        for a, b in x.relation(names.COM):
            assert (a, b) in sloc, (name, a, b)
