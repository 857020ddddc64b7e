"""Unit tests for ELT programs (structure + placement rules)."""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.errors import VocabularyError, WellFormednessError
from repro.mtm import Event, EventKind, Program, ProgramBuilder


class TestEvent:
    def test_fence_takes_no_address(self) -> None:
        with pytest.raises(VocabularyError):
            Event("e0", EventKind.FENCE, 0, va="x")

    def test_memory_event_requires_va(self) -> None:
        with pytest.raises(VocabularyError):
            Event("e0", EventKind.READ, 0)

    def test_pte_write_requires_target(self) -> None:
        with pytest.raises(VocabularyError):
            Event("e0", EventKind.PTE_WRITE, 0, va="x")

    def test_only_pte_write_carries_target(self) -> None:
        with pytest.raises(VocabularyError):
            Event("e0", EventKind.READ, 0, va="x", pa="pa_b")

    def test_classification(self) -> None:
        read = Event("e0", EventKind.READ, 0, va="x")
        walk = Event("e1", EventKind.PT_WALK, 0, va="x")
        inv = Event("e2", EventKind.INVLPG, 0, va="x")
        assert read.is_user and read.is_memory_event and read.is_read_like
        assert walk.is_ghost and walk.is_memory_event and walk.accesses_pte
        assert inv.is_support and not inv.is_memory_event


class TestBuilderBasics:
    def test_read_invokes_walk(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.read("x")
        program = b.build()
        assert program.size == 2
        kinds = sorted(e.kind.value for e in program.events.values())
        assert kinds == ["R", "Rptw"]

    def test_write_invokes_walk_and_dirty_bit(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.write("x")
        program = b.build()
        assert program.size == 3
        kinds = sorted(e.kind.value for e in program.events.values())
        assert kinds == ["Rptw", "W", "Wdb"]

    def test_autofill_gives_unique_pas(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.read("x")
        c0.read("y")
        program = b.build()
        pas = set(program.initial_map.values())
        assert len(pas) == 2

    def test_walk_sharing(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        r0 = c0.read("x")
        c0.read("x", walk=b.walk_of(r0))
        program = b.build()
        # 2 reads share 1 walk.
        assert program.size == 3

    def test_hit_on_evicted_entry_rejected(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        r0 = c0.read("x")
        walk = b.walk_of(r0)
        c0.invlpg("x")
        with pytest.raises(WellFormednessError):
            c0.read("x", walk=walk)

    def test_hit_on_replaced_entry_rejected(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        r0 = c0.read("x")
        old_walk = b.walk_of(r0)
        c0.read("x")  # capacity-evicts and re-walks
        with pytest.raises(WellFormednessError):
            c0.read("x", walk=old_walk)

    def test_cross_core_hit_rejected(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        r0 = c0.read("x")
        with pytest.raises(WellFormednessError):
            c1.read("x", walk=b.walk_of(r0))

    def test_pte_write_appends_local_invlpg(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        wpte = c0.pte_write("x", "pa_b")
        program = b.build()
        thread = program.threads[0]
        assert program.events[thread[0]].kind is EventKind.PTE_WRITE
        assert program.events[thread[1]].kind is EventKind.INVLPG
        assert (wpte.eid, thread[1]) in program.remap

    def test_remap_requires_invlpg_on_every_core(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        c0.pte_write("x", "pa_b")
        c1.read("y")
        # Missing invlpg_for on c1.
        with pytest.raises(WellFormednessError):
            b.build()

    def test_remap_complete_with_remote_invlpg(self) -> None:
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        wpte = c0.pte_write("x", "pa_b")
        c1.invlpg_for(wpte)
        program = b.build()
        assert len(program.remap) == 2

    def test_rmw_shares_walk(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        read, write = c0.rmw("x")
        program = b.build()
        assert (read.eid, write.eid) in program.rmw
        # R + W + Wdb + one shared walk.
        assert program.size == 4

    def test_positions_ghosts_inherit_parent_slot(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        w0 = c0.write("x")
        r1 = c0.read("y")
        program = b.build()
        assert program.position(b.walk_of(w0).eid) == program.position(w0.eid)
        assert program.position(w0.eid) < program.position(r1.eid)


class TestProgramValidation:
    def test_ghost_in_thread_rejected(self) -> None:
        events = {
            "r": Event("r", EventKind.READ, 0, va="x"),
            "w": Event("w", EventKind.PT_WALK, 0, va="x"),
        }
        with pytest.raises(WellFormednessError):
            Program(
                events=events,
                threads=(("r", "w"),),
                ghosts={"r": ("w",)},
                initial_map={"x": "pa_a"},
            )

    def test_orphan_ghost_rejected(self) -> None:
        events = {
            "r": Event("r", EventKind.READ, 0, va="x"),
            "w": Event("w", EventKind.PT_WALK, 0, va="x"),
            "w2": Event("w2", EventKind.PT_WALK, 0, va="x"),
        }
        with pytest.raises(WellFormednessError):
            Program(
                events=events,
                threads=(("r",),),
                ghosts={"r": ("w",)},
                initial_map={"x": "pa_a"},
            )

    def test_write_without_dirty_bit_rejected(self) -> None:
        events = {
            "w": Event("w", EventKind.WRITE, 0, va="x"),
            "pw": Event("pw", EventKind.PT_WALK, 0, va="x"),
        }
        with pytest.raises(WellFormednessError):
            Program(
                events=events,
                threads=(("w",),),
                ghosts={"w": ("pw",)},
                initial_map={"x": "pa_a"},
            )

    def test_ghost_wrong_core_rejected(self) -> None:
        events = {
            "r": Event("r", EventKind.READ, 0, va="x"),
            "pw": Event("pw", EventKind.PT_WALK, 1, va="x"),
        }
        with pytest.raises(WellFormednessError):
            Program(
                events=events,
                threads=(("r",), ()),
                ghosts={"r": ("pw",)},
                initial_map={"x": "pa_a"},
            )

    def test_non_injective_initial_map_rejected(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a").map("y", "pa_a")
        c0 = b.thread()
        c0.read("x")
        c0.read("y")
        with pytest.raises(WellFormednessError):
            b.build()

    def test_missing_mapping_autofilled_by_builder(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.read("x")
        program = b.build()
        assert "x" in program.initial_map

    def test_rmw_must_be_adjacent(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        r, w = c0.rmw("x")
        program = b.build()
        # Rebuild with an interloper between r and w.
        events = dict(program.events)
        inv = Event("spur", EventKind.INVLPG, 0, va="x")
        events["spur"] = inv
        thread = list(program.threads[0])
        thread.insert(thread.index(w.eid), "spur")
        with pytest.raises(WellFormednessError):
            Program(
                events=events,
                threads=(tuple(thread),),
                ghosts=program.ghosts,
                rmw=program.rmw,
                initial_map=program.initial_map,
            )

    def test_size_counts_ghosts(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.write("x")
        c0.read("x", walk=None)
        program = b.build()
        # W + Wdb + walk + R + walk = 5 (instruction bound counts ghosts).
        assert program.size == 5


class TestPickledPrograms:
    def test_pickles_carry_no_memos(self) -> None:
        """Shard results and suite-store payloads pickle programs and
        executions: after enumeration, evaluation and minimality fill
        every memo, an unpickled program holds only its dataclass
        fields plus ``_positions``, and an execution pickles no memo."""
        from repro.models import x86t_elt
        from repro.mtm import Execution
        from repro.synth import (
            SynthesisConfig,
            enumerate_programs,
            enumerate_witnesses,
            is_minimal,
        )
        from repro.symmetry import program_symmetry

        structural = {f.name for f in dataclasses.fields(Program)}
        structural.add("_positions")
        model = x86t_elt()
        checked = 0
        for program in enumerate_programs(SynthesisConfig(bound=5)):
            executions = list(enumerate_witnesses(program))
            for execution in executions:
                if model.forbids(execution):
                    is_minimal(execution, model)
            program_symmetry(program)
            assert set(program.__dict__) > structural  # memos were made
            assert set(pickle.loads(pickle.dumps(program)).__dict__) == structural
            for execution in executions:
                payload = pickle.dumps(execution)
                for memo_class in (b"ProgramMemo", b"WalkSourceContext"):
                    assert memo_class not in payload
                restored = pickle.loads(payload)
                assert set(restored.program.__dict__) == structural
                fresh = Execution(
                    pickle.loads(pickle.dumps(program)),
                    execution._rf,
                    execution._co_input,
                    execution._co_pa_input,
                )
                assert restored.__dict__.keys() == fresh.__dict__.keys()
                assert restored.relations == fresh.relations
                checked += 1
        assert checked > 50


def _two_core_program() -> Program:
    """Two identical cores, each writing x and reading it back."""
    b = ProgramBuilder()
    for core in (b.thread(), b.thread()):
        core.write("x")
        core.read("x")
    return b.build()


def _derive(cache: str):
    """The function that derives (and memoizes) one per-program cache."""
    from repro.mtm.execution import derive_rf_ptw
    from repro.synth.relax import removal_groups
    from repro.symmetry import program_symmetry  # after repro.synth

    return {
        "static_relations": Program.static_relations,
        "rf_ptw": derive_rf_ptw,
        "removal_groups": removal_groups,
        "symmetry": program_symmetry,
    }[cache]


class TestProgramMemo:
    @pytest.mark.parametrize(
        "cache", ["static_relations", "rf_ptw", "removal_groups", "symmetry"]
    )
    def test_release_frees_the_derived_cache(self, cache: str) -> None:
        """Each cache derived from a program is kept in its
        ``ProgramMemo`` and nowhere else on the program: a second read
        returns the memoized value, ``release_program_memo`` leaves the
        program holding only what ``__getstate__`` keeps, and the next
        read derives an equal value afresh."""
        from repro.mtm.program import program_memo, release_program_memo

        derive = _derive(cache)
        program = _two_core_program()
        kept = set(program.__getstate__())
        assert set(program.__dict__) == kept
        value = derive(program)
        assert value
        assert derive(program) is value
        assert getattr(program_memo(program), cache) is value
        assert set(program.__dict__) == kept | {"_memo"}
        release_program_memo(program)
        assert set(program.__dict__) == kept
        again = derive(program)
        assert again is not value
        assert again == value
