"""Tests for relaxations and the minimality criterion (§IV-B)."""

from __future__ import annotations

import pickle

from repro.litmus.classics import rmw_intervene
from repro.litmus.figures import (
    fig8_non_minimal_mp,
    fig10a_ptwalk2,
    fig11_stale_mapping_after_ipi,
)
from repro.models import x86t_elt
from repro.mtm import EventKind, Execution, ProgramBuilder
from repro.mtm.execution import derive_rf_ptw
from repro.synth import (
    is_minimal,
    relaxation_becomes_permitted,
    relaxed_program,
    removal_groups,
    without_rmw_pair,
)


class TestRemovalGroups:
    def test_ptwalk2_groups(self) -> None:
        ex = fig10a_ptwalk2()
        program = ex.execution.program
        groups = removal_groups(program)
        as_sets = {frozenset(g) for g in groups}
        # Removing R2 drags its walk; removing WPTE0 (or INVLPG1) drags the
        # remap pair.
        assert frozenset({ex.eid("R2"), ex.eid("Rptw2")}) in as_sets
        assert frozenset({ex.eid("WPTE0"), ex.eid("INVLPG1")}) in as_sets
        assert len(as_sets) == 2

    def test_removing_walk_invoker_drags_users(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        r0 = c0.read("x")
        r1 = c0.read("x", walk=b.walk_of(r0))
        program = b.build()
        groups = {frozenset(g) for g in removal_groups(program)}
        # Removing r0 removes its walk, stranding (and removing) r1.
        assert frozenset({r0.eid, b.walk_of(r0).eid, r1.eid}) in groups
        # Removing r1 alone is fine (it only hits the entry).
        assert frozenset({r1.eid}) in groups

    def test_rmw_pair_forms_single_group_via_shared_walk(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        read, write = c0.rmw("x")
        program = b.build()
        groups = {frozenset(g) for g in removal_groups(program)}
        walk = b.walk_of(read).eid
        dirty = b.dirty_of(write).eid
        assert frozenset({read.eid, walk, write.eid, dirty}) in groups
        assert frozenset({write.eid, dirty}) in groups

    def test_spurious_invlpg_removable_alone(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.read("x")
        inv = c0.invlpg("x")
        c0.read("x")
        program = b.build()
        groups = {frozenset(g) for g in removal_groups(program)}
        assert frozenset({inv.eid}) in groups

    def test_remote_invlpg_drags_whole_remap(self) -> None:
        ex = fig11_stale_mapping_after_ipi()
        program = ex.execution.program
        groups = {frozenset(g) for g in removal_groups(program)}
        remap_group = frozenset(
            {ex.eid("WPTE0"), ex.eid("INVLPG1"), ex.eid("INVLPG2")}
        )
        assert remap_group in groups

    def test_groups_are_memoized_but_not_pickled(self) -> None:
        program = fig10a_ptwalk2().execution.program
        derive_rf_ptw(program)
        payload = pickle.dumps(program)
        groups = removal_groups(program)
        assert removal_groups(program) is groups
        # Shard results and store payloads carry the same bytes as before.
        assert pickle.dumps(program) == payload
        assert removal_groups(pickle.loads(payload)) == groups


class TestRelaxedProgram:
    def test_threads_keep_cores(self) -> None:
        ex = fig11_stale_mapping_after_ipi()
        program = ex.execution.program
        group = frozenset({ex.eid("R3"), ex.eid("Rptw3")})
        relaxed = relaxed_program(program, group)
        assert relaxed.num_cores == program.num_cores
        assert ex.eid("R3") not in relaxed.events

    def test_without_rmw_pair(self) -> None:
        example = rmw_intervene()
        program = example.execution.program
        pair = next(iter(program.rmw))
        relaxed = without_rmw_pair(program, pair)
        assert not relaxed.rmw
        assert set(relaxed.events) == set(program.events)


class TestMinimality:
    def test_ptwalk2_is_minimal(self) -> None:
        # §VI-C: ptwalk2 is synthesized verbatim, hence minimal.
        assert is_minimal(fig10a_ptwalk2().execution, x86t_elt())

    def test_fig11_is_minimal(self) -> None:
        assert is_minimal(fig11_stale_mapping_after_ipi().execution, x86t_elt())

    def test_fig8_is_not_minimal(self) -> None:
        # Fig 8 caption: removing W4 leaves the mp cycle intact, so the test
        # fails the minimality criterion and must not be synthesized.
        assert not is_minimal(fig8_non_minimal_mp().execution, x86t_elt())

    def test_fig8_failing_relaxation_is_w4(self) -> None:
        ex = fig8_non_minimal_mp()
        execution = ex.execution
        program = execution.program
        model = x86t_elt()
        w4_group = next(
            g for g in removal_groups(program) if ex.eid("W4") in g
        )
        assert not relaxation_becomes_permitted(execution, model, removed=w4_group)

    def test_rmw_violation_minimal_via_dependency_relaxation(self) -> None:
        # Dropping the rmw dependency legalizes the intervening write.
        example = rmw_intervene()
        model = x86t_elt()
        execution = example.execution
        program = execution.program
        pair = next(iter(program.rmw))
        assert relaxation_becomes_permitted(execution, model, dropped_rmw=pair)

    def test_relaxing_everything_is_trivially_permitted(self) -> None:
        ex = fig10a_ptwalk2()
        program = ex.execution.program
        everything = frozenset(program.events)
        assert relaxation_becomes_permitted(
            ex.execution, x86t_elt(), removed=everything
        )

    def test_minimal_elt_stays_wellformed_under_all_relaxations(self) -> None:
        # Apply every relaxation of a minimal ELT; each relaxed program must
        # still be a valid Program (closure preserves placement rules).
        ex = fig11_stale_mapping_after_ipi()
        program = ex.execution.program
        for group in removal_groups(program):
            relaxed = relaxed_program(program, group)
            for eid, event in relaxed.events.items():
                if event.kind is EventKind.PT_WALK:
                    assert relaxed.parent_of(eid) in relaxed.events
