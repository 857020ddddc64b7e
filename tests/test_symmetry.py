"""Tests for :mod:`repro.symmetry`: group computation on hand-built
programs, witness-orbit pruning exactness, SAT-level lex-leader breaking,
and the symmetry-on vs ``--no-symmetry`` equivalence contracts."""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings

from repro.errors import RelationalError
from repro.litmus import suite_from_diff, suite_from_synthesis
from repro.models import x86t_amd_bug, x86t_elt
from repro.mtm import ProgramBuilder
from repro.relational import Problem
from repro.symmetry import (
    program_symmetry,
    prune_weighted,
    witness_orbit,
    witness_relation_permutation,
    witness_sort_key,
)
from repro.synth import (
    SynthesisConfig,
    canonical_program_key,
    enumerate_witnesses,
    synthesize,
)
from repro.synth.canon import identity_program_key
from repro.synth.sat_backend import WitnessProblem, enumerate_witnesses_sat

from .strategies import programs


def asymmetric_program():
    """W x | R y — structurally distinct threads, no automorphisms."""
    b = ProgramBuilder()
    c0, c1 = b.thread(), b.thread()
    c0.write("x")
    c1.read("y")
    return b.build()


def fully_symmetric_program():
    """R x | R x — the two threads are interchangeable."""
    b = ProgramBuilder()
    c0, c1 = b.thread(), b.thread()
    c0.read("x")
    c1.read("x")
    return b.build()


def symmetric_writer_program():
    """W x | W x — interchangeable threads with a non-trivial witness
    space (coherence order over the writes, dirty-bit sources)."""
    b = ProgramBuilder()
    c0, c1 = b.thread(), b.thread()
    c0.write("x")
    c1.write("x")
    return b.build()


def partially_symmetric_program():
    """R x | R x | W x — only the two reader threads are interchangeable."""
    b = ProgramBuilder()
    c0, c1, c2 = b.thread(), b.thread(), b.thread()
    c0.read("x")
    c1.read("x")
    c2.write("x")
    return b.build()


class TestProgramSymmetry:
    def test_asymmetric_program_has_trivial_group(self) -> None:
        sym = program_symmetry(asymmetric_program())
        assert sym.automorphisms == ()
        assert not sym.prunable
        assert sym.canonical_key == canonical_program_key(asymmetric_program())

    def test_fully_symmetric_two_threads(self) -> None:
        program = fully_symmetric_program()
        sym = program_symmetry(program)
        assert len(sym.automorphisms) == 1
        assert sym.prunable
        auto = sym.automorphisms[0]
        # The bijection is a true permutation of all events that maps
        # each thread's events onto the other thread's.
        assert set(auto) == set(auto.values()) == set(program.events)
        for eid, image in auto.items():
            assert program.events[eid].core != program.events[image].core
            assert program.events[eid].kind is program.events[image].kind
        # Identity arrangement already canonical for a symmetric program.
        assert sym.identity_key == sym.canonical_key

    def test_partially_symmetric_three_threads(self) -> None:
        program = partially_symmetric_program()
        sym = program_symmetry(program)
        # Exactly the reader-thread swap; the writer thread is fixed.
        assert len(sym.automorphisms) == 1
        auto = sym.automorphisms[0]
        for eid, image in auto.items():
            if program.events[eid].core == 2:
                assert eid == image

    def test_va_renaming_symmetry_detected(self) -> None:
        # R x | R y: distinct VAs, but the serialization renames by first
        # use, so the threads are interchangeable *up to VA renaming* —
        # and the witness space (no shared location) is too.
        b = ProgramBuilder()
        c0, c1 = b.thread(), b.thread()
        c0.read("x")
        c1.read("y")
        sym = program_symmetry(b.build())
        assert len(sym.automorphisms) == 1

    def test_shared_pa_target_blocks_pruning(self) -> None:
        # Two PTE writes aiming at the same PA open a non-trivial co_pa
        # space; pruning must stand down (the explicit backend's
        # canonical co_pa completion is not automorphism-closed).
        b = ProgramBuilder(initial_map={"x": "pa_x", "y": "pa_y"})
        c0, c1 = b.thread(), b.thread()
        w0 = c0.pte_write("x", "pa_shared")
        w1 = c1.pte_write("y", "pa_shared")
        c1.invlpg_for(w0)
        c0.invlpg_for(w1)
        sym = program_symmetry(b.build())
        assert not sym.co_pa_trivial
        assert not sym.prunable

    def test_identity_key_distinguishes_concrete_arrangements(self) -> None:
        b1 = ProgramBuilder()
        c0, c1 = b1.thread(), b1.thread()
        c0.write("x")
        c1.read("x")
        b2 = ProgramBuilder()
        c0, c1 = b2.thread(), b2.thread()
        c0.read("x")
        c1.write("x")
        p1, p2 = b1.build(), b2.build()
        assert canonical_program_key(p1) == canonical_program_key(p2)
        assert identity_program_key(p1) != identity_program_key(p2)


class TestWitnessOrbits:
    def test_orbit_partition_is_exact(self) -> None:
        """Pruned stream = one representative per orbit, weights summing
        to the full stream, each representative sort-key minimal."""
        program = fully_symmetric_program()
        sym = program_symmetry(program)
        full = list(enumerate_witnesses(program))
        pruned = list(
            prune_weighted(program, sym.automorphisms, iter(full))
        )
        assert sum(weight for _, weight in pruned) == len(full)
        full_keys = {
            witness_sort_key(program, e._rf, e.co, e.co_pa) for e in full
        }
        for execution, weight in pruned:
            size, minimal = witness_orbit(
                program,
                sym.automorphisms,
                execution._rf,
                execution.co,
                execution.co_pa,
            )
            assert minimal and size == weight
            # Every orbit member exists in the full stream.
            for auto in sym.automorphisms:
                image_rf = frozenset(
                    (auto[a], auto[b]) for a, b in execution._rf
                )
                image_co = frozenset(
                    (auto[a], auto[b]) for a, b in execution.co
                )
                assert (
                    witness_sort_key(program, image_rf, image_co, frozenset())
                    in full_keys
                )

    def test_empty_group_is_identity_stream(self) -> None:
        program = asymmetric_program()
        full = list(enumerate_witnesses(program))
        pruned = list(prune_weighted(program, (), iter(full)))
        assert [e for e, _ in pruned] == full
        assert all(weight == 1 for _, weight in pruned)

    @given(programs(max_events=6))
    @settings(max_examples=20, deadline=None)
    def test_weights_reproduce_full_enumeration(self, program) -> None:
        sym = program_symmetry(program)
        if not sym.prunable:
            return
        full = list(enumerate_witnesses(program))
        pruned = list(
            prune_weighted(program, sym.automorphisms, iter(full))
        )
        assert sum(w for _, w in pruned) == len(full)
        assert len(pruned) <= len(full)


class TestLexLeaderBreaking:
    def test_sat_stream_is_the_pruned_stream(self) -> None:
        """With lex-leader clauses, the SAT enumeration yields exactly
        the orbit representatives the decode filter would keep — no
        more (the clauses are exact for the full group) and no fewer
        (they never cut a representative)."""
        program = symmetric_writer_program()
        sym = program_symmetry(program)

        def keys(executions):
            return sorted(
                witness_sort_key(program, e._rf, e.co, e.co_pa)
                for e in executions
            )

        full = list(enumerate_witnesses_sat(program))
        pruned_by_filter = [
            e
            for e, _ in prune_weighted(
                program, sym.automorphisms, iter(full)
            )
        ]
        in_solver = list(enumerate_witnesses_sat(program, symmetry=sym))
        assert keys(in_solver) == keys(pruned_by_filter)
        assert len(in_solver) < len(full)

    def test_symmetry_clause_counter(self) -> None:
        program = symmetric_writer_program()
        sym = program_symmetry(program)
        encoded = WitnessProblem(program, symmetry=sym)
        list(encoded.executions())
        assert encoded.problem.last_symmetry_clauses > 0
        assert (
            encoded.solver_stats.symmetry_clauses
            == encoded.problem.last_symmetry_clauses
        )

    def test_witness_relation_permutation_maps_uppers(self) -> None:
        program = symmetric_writer_program()
        sym = program_symmetry(program)
        auto = sym.automorphisms[0]
        eids = list(program.events)
        uppers = {
            "r": [(a, b) for a in eids for b in eids if a != b],
            "empty": [],
        }
        perm = witness_relation_permutation(auto, uppers)
        assert "empty" not in perm  # empty relations contribute nothing
        mapping = perm["r"]
        assert set(mapping) == set(mapping.values())  # a true permutation
        assert any(edge != image for edge, image in mapping.items())

    def test_add_symmetry_rejects_unknown_relation(self) -> None:
        p = Problem(["a", "b"])
        with pytest.raises(RelationalError):
            p.add_symmetry({"nope": {("a", "b"): ("b", "a")}})

    def test_add_symmetry_rejects_non_permutation(self) -> None:
        p = Problem(["a", "b"])
        p.declare("r", 2)
        with pytest.raises(RelationalError):
            p.add_symmetry({"r": {("a", "b"): ("b", "a"), ("b", "a"): ("b", "a")}})

    def test_add_symmetry_rejects_out_of_bounds(self) -> None:
        p = Problem(["a", "b"])
        p.declare("r", 2, upper=[("a", "b")])
        with pytest.raises(RelationalError):
            p.add_symmetry({"r": {("a", "b"): ("b", "a")}})

    def test_lex_leader_prunes_plain_problem(self) -> None:
        """On a bare relational problem with a swap symmetry, the
        enumeration halves (up to fixed points) and every surviving
        instance is the lex-leader of its orbit."""
        swap = {"r": {("a",): ("b",), ("b",): ("a",)}}
        p2 = Problem(["a", "b"])
        p2.declare("r", 1)
        p2.add_symmetry(swap)
        pruned = [
            frozenset(i.relation("r").tuples) for i in p2.iter_instances()
        ]
        # Orbits: {}, {a,b} are fixed; {a} / {b} collapse to one member.
        assert len(pruned) == 3
        assert frozenset() in pruned and frozenset({("a",), ("b",)}) in pruned


def _suite_digest(axiom: str, bound: int, **kwargs) -> str:
    config = SynthesisConfig(
        bound=bound, model=x86t_elt(), target_axiom=axiom, **kwargs
    )
    result = synthesize(config)
    text = suite_from_synthesis(result, prefix=axiom).dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestOracleEquivalence:
    """``--no-symmetry`` (and the generation-pruning ablation) must be
    byte-identical to the symmetric path, with matching weighted
    counters — the differential contract the whole subsystem rests on.
    (The golden-digest suite additionally pins these bytes across
    backends and solver paths.)"""

    def test_counters_match_oracle(self) -> None:
        on = synthesize(SynthesisConfig(bound=6, target_axiom="sc_per_loc"))
        off = synthesize(
            SynthesisConfig(
                bound=6, target_axiom="sc_per_loc", symmetry=False
            )
        )
        assert on.stats.symmetric_programs > 0  # the knob actually bites
        assert on.stats.orbit_witnesses_pruned > 0
        for name in (
            "programs_enumerated",
            "executions_enumerated",
            "interesting",
            "minimal",
            "unique_programs",
        ):
            assert getattr(on.stats, name) == getattr(off.stats, name), name

    def test_generation_pruning_ablation_replays_orbits(self) -> None:
        """With generation-time arrangement pruning ablated, duplicate
        isomorphic programs reach the pipeline — and the orbit cache
        must skip them before translation while reproducing the default
        path's bytes."""
        default = _suite_digest("invlpg", 5)
        ablated = synthesize(
            SynthesisConfig(
                bound=5, target_axiom="invlpg", canonical_pruning=False
            )
        )
        text = suite_from_synthesis(ablated, prefix="invlpg").dumps()
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == default
        assert ablated.stats.orbit_replays > 0

    def test_ablation_skips_translations_on_sat_backend(self) -> None:
        ablated = synthesize(
            SynthesisConfig(
                bound=5,
                target_axiom="invlpg",
                canonical_pruning=False,
                witness_backend="sat",
            )
        )
        assert (
            ablated.stats.sat_translations
            == ablated.stats.programs_enumerated - ablated.stats.orbit_replays
        )

    def test_diff_ablation_replays_orbits(self) -> None:
        """With generation pruning ablated, the fused diff pipeline must
        replay duplicate classes from the orbit cache and still produce
        the identical discriminating suite."""
        from repro.conformance import DiffConfig, diff_models

        def cell(**kwargs):
            return diff_models(
                DiffConfig(
                    base=SynthesisConfig(
                        bound=5, model=x86t_elt(), **kwargs
                    ),
                    subject=x86t_amd_bug(),
                )
            )

        default = cell()
        ablated = cell(canonical_pruning=False)
        assert ablated.stats.orbit_replays > 0
        assert suite_from_diff(ablated).dumps() == suite_from_diff(default).dumps()

    @pytest.mark.parametrize("backend", ["explicit", "sat"])
    def test_diff_cells_match_oracle(self, backend) -> None:
        from repro.conformance import DiffConfig, cell_to_json, diff_models

        cells = {}
        for symmetry in (True, False):
            cell = diff_models(
                DiffConfig(
                    base=SynthesisConfig(
                        bound=5,
                        model=x86t_elt(),
                        witness_backend=backend,
                        symmetry=symmetry,
                    ),
                    subject=x86t_amd_bug(),
                )
            )
            payload = cell_to_json(cell)
            payload["stats"].pop("runtime_s")  # wall time is never stable
            cells[symmetry] = (payload, suite_from_diff(cell).dumps())
        assert cells[True] == cells[False]
