"""Incremental witness sessions: unit tests and differential fuzz.

Three layers, each checked against its fresh-path oracle:

* the CDCL solver's assumption-scoped ``iter_solutions`` (blocking
  clauses carry the activation tag and retract when it is retired);
* ``ProblemSession`` — constraint groups under activation literals vs
  the same groups hard-compiled by ``Problem.iter_instances(groups=…)``;
* ``WitnessSession`` / the process session cache — cached witness lists
  and model/axiom assumption queries vs fresh constrained
  ``WitnessProblem`` builds, plus the fused multi-pair diff pipeline vs
  per-pair runs, on Hypothesis-generated VM programs.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.models import CATALOG, x86t_amd_bug, x86t_elt
from repro.relational import Problem, TupleSet, acyclic, no, some, subset
from repro.sat import CdclSolver, Cnf
from repro.synth import SynthesisConfig, shared_session_cache
from repro.synth.sat_backend import (
    WitnessSession,
    WitnessSessionCache,
    enumerate_witnesses_sat,
    program_identity_key,
)

from .strategies import vm_programs


def witness_key(execution):
    return (
        frozenset(execution._rf),
        frozenset(execution.co),
        frozenset(execution.co_pa),
    )


# ----------------------------------------------------------------------
# Solver: assumption-scoped enumeration
# ----------------------------------------------------------------------
class TestAssumptionScopedAllSat:
    def _guarded_cnf(self):
        """x1 free, g1 -> x1, g2 -> ¬x1, one extra free var x2."""
        cnf = Cnf()
        x1, x2, g1, g2 = (cnf.new_var() for _ in range(4))
        cnf.add_clause([-g1, x1])
        cnf.add_clause([-g2, -x1])
        return cnf, x1, x2, g1, g2

    def test_enumeration_respects_assumptions(self) -> None:
        cnf, x1, x2, g1, g2 = self._guarded_cnf()
        solver = CdclSolver(cnf)
        tag = cnf.new_var()
        models = list(solver.iter_solutions(assumptions=[tag, g1, -g2]))
        assert len(models) == 2
        assert all(m[x1] for m in models)

    def test_blocking_clauses_retract_with_the_tag(self) -> None:
        cnf, x1, x2, g1, g2 = self._guarded_cnf()
        solver = CdclSolver(cnf)
        for selected in ([g1, -g2], [-g1, g2], [-g1, -g2], [g1, -g2]):
            tag = cnf.new_var()
            models = list(
                solver.iter_solutions(assumptions=[tag] + selected)
            )
            expected = 4 if selected == [-g1, -g2] else 2
            assert len(models) == expected, selected
            solver.add_clause([-tag])
        # The solver survives every enumeration and still answers solves.
        assert solver.solve([g1, g2]).satisfiable is False
        assert solver.solve([-g1, -g2]).satisfiable is True

    def test_unsat_under_assumptions_keeps_solver_usable(self) -> None:
        cnf, x1, x2, g1, g2 = self._guarded_cnf()
        solver = CdclSolver(cnf)
        tag = cnf.new_var()
        assert list(solver.iter_solutions(assumptions=[tag, g1, g2])) == []
        solver.add_clause([-tag])
        assert solver.solve([g1]).satisfiable is True


# ----------------------------------------------------------------------
# ProblemSession vs the hard-compiled fresh path
# ----------------------------------------------------------------------
def _order_problem():
    problem = Problem(["a", "b", "c"])
    r = problem.declare("r", 2)
    problem.constrain(acyclic(r))
    problem.constrain(subset(r.dot(r), r))
    problem.constrain(some(r), group="nonempty")
    problem.constrain(
        no(r & TupleSet.pairs([("a", "b")])), group="no_ab"
    )
    return problem


class TestProblemSession:
    @pytest.mark.parametrize(
        "selection",
        [(), ("nonempty",), ("no_ab",), ("nonempty", "no_ab")],
        ids=lambda s: "+".join(s) or "base",
    )
    def test_session_matches_fresh_oracle(self, selection) -> None:
        fresh = {
            frozenset(i.relation("r").tuples)
            for i in _order_problem().iter_instances(groups=selection)
        }
        session = _order_problem().session()
        # Interleave other selections first to dirty the solver state.
        session.solve(groups=["nonempty"])
        session.solve(groups=["no_ab"])
        via_session = {
            frozenset(i.relation("r").tuples)
            for i in session.iter_instances(groups=selection)
        }
        assert via_session == fresh

    def test_base_enumeration_is_bit_identical(self) -> None:
        fresh = [
            i.relation("r").tuples
            for i in _order_problem().iter_instances()
        ]
        session = _order_problem().session()
        via_session = [
            i.relation("r").tuples for i in session.iter_base_instances()
        ]
        assert via_session == fresh  # same instances, same ORDER

    def test_repeated_enumerations_converge(self) -> None:
        session = _order_problem().session()
        first = list(session.iter_instances(groups=["nonempty"]))
        second = list(session.iter_instances(groups=["nonempty"]))
        assert len(first) == len(second) == 18
        assert session.stats.incremental_solves == 2

    def test_dynamic_groups_and_conflicts(self) -> None:
        problem = _order_problem()
        assert problem.groups == ("nonempty", "no_ab")
        session = problem.session()
        r = __import__("repro.relational.ast", fromlist=["Rel"]).Rel("r", 2)
        session.add_group("empty", [no(r)])
        assert session.has_group("empty") and session.has_group("nonempty")
        assert not session.has_group("missing")
        instance = session.solve(groups=["empty"])
        assert instance is not None
        assert not instance.relation("r").tuples
        assert session.solve(groups=["empty", "nonempty"]) is None
        assert session.solve(groups=["nonempty"]) is not None

    def test_unknown_group_rejected(self) -> None:
        from repro.errors import RelationalError

        session = _order_problem().session()
        with pytest.raises(RelationalError):
            session.solve(groups=["missing"])
        with pytest.raises(RelationalError):
            list(_order_problem().iter_instances(groups=["missing"]))

    def test_bad_group_registrations_rejected(self) -> None:
        from repro.errors import RelationalError

        session = _order_problem().session()
        with pytest.raises(RelationalError):
            session.add_group("nonempty", [some(_order_problem()._bounds and __import__("repro.relational.ast", fromlist=["Rel"]).Rel("r", 2))])
        with pytest.raises(RelationalError):
            session.add_group("hollow", [])

    def test_limits_and_solver_stats(self) -> None:
        session = _order_problem().session()
        assert session.solver_stats is None
        assert list(session.iter_instances(groups=["nonempty"], limit=0)) == []
        assert len(list(session.iter_instances(groups=["nonempty"], limit=3))) == 3
        assert session.solver_stats is not None
        assert list(session.iter_base_instances(limit=0)) == []
        assert len(list(session.iter_base_instances(limit=2))) == 2


# ----------------------------------------------------------------------
# WitnessSession differential fuzz (Hypothesis vm_programs)
# ----------------------------------------------------------------------
MODEL = x86t_elt()
AMD = x86t_amd_bug()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=vm_programs(max_events=7))
def test_session_witness_stream_is_bit_identical(program) -> None:
    fresh = [witness_key(e) for e in enumerate_witnesses_sat(program)]
    session = WitnessSession(program)
    cached = [witness_key(e) for e in session.witnesses()]
    replay = [witness_key(e) for e in session.witnesses()]
    assert cached == fresh
    assert replay == fresh


@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=vm_programs(max_events=6), data=st.data())
def test_session_queries_match_fresh_constrained_problems(
    program, data
) -> None:
    session = WitnessSession(program)
    axiom = data.draw(
        st.sampled_from(MODEL.axiom_names), label="violated_axiom"
    )
    fresh_violating = {
        witness_key(e)
        for e in enumerate_witnesses_sat(
            program, model=MODEL, violated_axiom=axiom
        )
    }
    assert session.has_witness(model=MODEL, violated_axiom=axiom) == bool(
        fresh_violating
    )
    assert {
        witness_key(e)
        for e in session.query_executions(model=MODEL, violated_axiom=axiom)
    } == fresh_violating

    fresh_permitted = {
        witness_key(e)
        for e in enumerate_witnesses_sat(program, model=MODEL)
    }
    assert {
        witness_key(e) for e in session.query_executions(model=MODEL)
    } == fresh_permitted

    # "forbidden by reference ∧ permitted by subject" vs concrete verdicts.
    discriminating = any(
        (not MODEL.permits(e)) and AMD.permits(e)
        for e in session.witnesses()
    )
    assert session.has_discriminating_witness(MODEL, AMD) == discriminating
    # Queries left the cached full enumeration untouched.
    assert [witness_key(e) for e in session.witnesses()] == [
        witness_key(e) for e in enumerate_witnesses_sat(program)
    ]


@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=vm_programs(max_events=6))
def test_fused_multi_pair_diff_matches_per_pair(program) -> None:
    from repro.conformance import run_diff_pipeline, run_multi_diff_pipeline
    from repro.conformance.diff import DiffConfig
    from repro.litmus.format import serialize_elt

    names = list(CATALOG)
    pairs = [(r, s) for r in names for s in names if r != s][:6]
    diffs = [
        DiffConfig(
            base=SynthesisConfig(
                bound=4, model=CATALOG[ref](), witness_backend="sat"
            ),
            subject=CATALOG[sub](),
        )
        for ref, sub in pairs
    ]
    fused = run_multi_diff_pipeline(diffs, [((0,), program)])
    for diff, outcome in zip(diffs, fused):
        solo = run_diff_pipeline(diff, [((0,), program)])
        assert outcome.stats.executions_enumerated == (
            solo.stats.executions_enumerated
        )
        assert outcome.reference_only_keys == solo.reference_only_keys
        assert outcome.subject_only_keys == solo.subject_only_keys
        assert set(outcome.by_key) == set(solo.by_key)
        for key, entry in outcome.by_key.items():
            assert entry.execution_key == solo.by_key[key].execution_key
            assert serialize_elt(entry.execution) == serialize_elt(
                solo.by_key[key].execution
            )
            assert entry.outcome_count == solo.by_key[key].outcome_count
        for bucket in (
            "both_permit",
            "both_forbid",
            "only_reference_forbids",
            "only_subject_forbids",
            "interesting",
            "minimal",
        ):
            assert getattr(outcome.stats, bucket) == getattr(
                solo.stats, bucket
            ), bucket


# ----------------------------------------------------------------------
# Session cache mechanics
# ----------------------------------------------------------------------
class TestSessionCache:
    def _program(self):
        from repro.synth.skeletons import enumerate_programs

        config = SynthesisConfig(bound=4, model=x86t_elt())
        return next(iter(enumerate_programs(config)))

    def test_hit_returns_same_session_and_list(self) -> None:
        cache = WitnessSessionCache()
        program = self._program()
        first = cache.witnesses(program)
        second = cache.witnesses(program)
        assert first is second  # the very list, not a re-enumeration
        assert cache.hits == 1 and cache.misses == 1

    def test_release_policy_drops_problem_but_keeps_witnesses(self) -> None:
        cache = WitnessSessionCache()  # keep_problems=False
        program = self._program()
        cache.witnesses(program)
        session, cached = cache.get(program)
        assert cached
        assert session.problem is None  # shrunk to the witness list
        assert session._witnesses is not None
        # A later query transparently re-translates (and counts it).
        session.has_witness(model=MODEL)
        assert session.stats.translations == 2

    def test_counter_snapshot_is_cache_warmth_independent(self) -> None:
        from repro.sat import SolverStats

        cache = WitnessSessionCache()
        program = self._program()
        cold, warm = SolverStats(), SolverStats()
        cache.witnesses(program, sink=cold)
        cache.witnesses(program, sink=warm)
        assert warm.decisions == cold.decisions
        assert warm.propagations == cold.propagations
        assert cold.translations == 1 and cold.translations_avoided == 0
        assert warm.translations == 0 and warm.translations_avoided == 1

    def test_identity_key_is_exact_not_canonical(self) -> None:
        """Isomorphic programs (same canonical class, different event
        ids/cores) must NOT share sessions: their witness streams name
        different events."""
        from repro.mtm import Event, EventKind, Program
        from repro.synth.canon import canonical_program_key
        from repro.synth.skeletons import enumerate_programs

        config = SynthesisConfig(bound=5, model=x86t_elt())
        programs = list(enumerate_programs(config))
        keys = [program_identity_key(p) for p in programs]
        assert len(set(keys)) == len(programs)

        def two_reads(prefix):
            events = {
                f"{prefix}0": Event(f"{prefix}0", EventKind.READ, 0, va="x"),
                f"{prefix}0w": Event(
                    f"{prefix}0w", EventKind.PT_WALK, 0, va="x"
                ),
            }
            return Program(
                events=events,
                threads=((f"{prefix}0",),),
                ghosts={f"{prefix}0": (f"{prefix}0w",)},
                initial_map={"x": "pa_x"},
            )

        a, b = two_reads("e"), two_reads("f")
        assert canonical_program_key(a) == canonical_program_key(b)
        assert program_identity_key(a) != program_identity_key(b)

    def test_lru_eviction(self) -> None:
        from repro.synth.skeletons import enumerate_programs

        config = SynthesisConfig(bound=5, model=x86t_elt())
        programs = list(enumerate_programs(config))[:4]
        cache = WitnessSessionCache(max_entries=2)
        for program in programs:
            cache.witnesses(program)
        assert len(cache) == 2

    def test_shared_cache_is_process_singleton(self) -> None:
        assert shared_session_cache() is shared_session_cache()

    def test_selection_needs_a_model(self) -> None:
        from repro.errors import SynthesisError

        session = WitnessSession(self._program())
        with pytest.raises(SynthesisError):
            session.has_witness(violated_axiom="invlpg")
        with pytest.raises(SynthesisError):
            session.query_executions(violated=True)

    def test_query_limit_and_violated_model(self) -> None:
        program = self._program()
        session = WitnessSession(program)
        full = session.query_executions(model=MODEL, violated=True)
        limited = session.query_executions(model=MODEL, violated=True, limit=1)
        assert len(limited) <= 1
        assert {witness_key(e) for e in limited} <= {
            witness_key(e) for e in full
        }
        fresh_forbidden = {
            witness_key(e)
            for e in session.witnesses()
            if not MODEL.permits(e)
        }
        assert {witness_key(e) for e in full} == fresh_forbidden
        assert session.has_witness(model=MODEL, violated=True) == bool(
            fresh_forbidden
        )

    def test_bad_cache_capacity_rejected(self) -> None:
        from repro.errors import SynthesisError

        with pytest.raises(SynthesisError):
            WitnessSessionCache(max_entries=0)


# ----------------------------------------------------------------------
# CLI surface: --profile, --fresh-solver, session counter tables
# ----------------------------------------------------------------------
class TestCliSurface:
    def _run(self, capsys, argv):
        from repro.cli import main

        code = main(argv)
        return code, capsys.readouterr()

    def test_synthesize_sat_reports_sessions_and_profile(self, capsys) -> None:
        code, captured = self._run(
            capsys,
            [
                "synthesize",
                "--bound",
                "4",
                "--axiom",
                "invlpg",
                "--witness-backend",
                "sat",
                "--profile",
            ],
        )
        assert code == 0
        assert "sessions opened" in captured.out
        assert "translations avoided" in captured.out
        assert '"stage-profile"' in captured.out
        assert '"classify"' in captured.out

    def test_synthesize_fresh_solver_matches_incremental(self, capsys) -> None:
        code_fresh, fresh = self._run(
            capsys,
            [
                "synthesize",
                "--bound",
                "4",
                "--axiom",
                "invlpg",
                "--fresh-solver",
            ],
        )
        code_inc, incremental = self._run(
            capsys,
            ["synthesize", "--bound", "4", "--axiom", "invlpg"],
        )
        assert code_fresh == code_inc == 0

        def elts_only(text):
            return text[text.index("--- ELT") :]

        assert elts_only(fresh.out) == elts_only(incremental.out)

    def test_diff_profile_json_goes_to_stderr(self, capsys) -> None:
        shared_session_cache().clear()  # cold cache -> translate stage runs
        code, captured = self._run(
            capsys,
            [
                "diff",
                "--reference",
                "x86t_elt",
                "--subject",
                "x86t_amd_bug",
                "--bound",
                "4",
                "--witness-backend",
                "sat",
                "--json",
                "--profile",
            ],
        )
        assert code == 0  # bound 4 is not yet discriminating
        import json as json_module

        payload = json_module.loads(captured.out)
        assert payload["kind"] == "conformance-cell"
        profile = json_module.loads(captured.err)
        assert profile["kind"] == "stage-profile"
        assert "translate" in profile["stages"]

    def test_diff_all_pairs_sat_counter_table(self, capsys) -> None:
        code, captured = self._run(
            capsys,
            [
                "diff",
                "--all-pairs",
                "--bound",
                "4",
                "--witness-backend",
                "sat",
                "--profile",
            ],
        )
        assert code == 1  # discriminating pairs exist at bound 4
        assert "sessions opened" in captured.out
        assert '"stage-profile"' in captured.out

    @staticmethod
    def _stage_profile(text: str) -> dict:
        import json as json_module

        start = text.index('{\n  "kind": "stage-profile"')
        return json_module.JSONDecoder().raw_decode(text, start)[0]

    def test_all_pairs_profile_total_is_the_run_time(self, capsys) -> None:
        # Every cell's runtime_s is the whole fused run; the profile
        # total must not add them up once per pair.
        import time

        shared_session_cache().clear()
        started = time.perf_counter()
        code, captured = self._run(
            capsys,
            [
                "diff",
                "--all-pairs",
                "--bound",
                "4",
                "--witness-backend",
                "sat",
                "--json",
                "--profile",
            ],
        )
        wall_s = time.perf_counter() - started
        assert code == 1
        profile = self._stage_profile(captured.err)
        assert 0.0 < profile["total_s"] <= wall_s

    def test_sat_synthesis_profile_stages_add_up(self, capsys) -> None:
        # The session's translate/solve/decode run inside witness
        # production; "enumerate" excludes them, so no stage overlaps
        # another and together they fit in the run.
        shared_session_cache().clear()  # cold: the session stages run
        code, captured = self._run(
            capsys,
            [
                "synthesize",
                "--model",
                "x86tso",
                "--mcm",
                "--bound",
                "3",
                "--threads",
                "3",
                "--witness-backend",
                "sat",
                "--profile",
            ],
        )
        assert code == 0
        profile = self._stage_profile(captured.out)
        stages = profile["stages"]
        assert {"translate", "solve", "decode", "enumerate"} <= set(stages)
        # Rendering rounds each value to the microsecond.
        assert sum(stages.values()) <= profile["total_s"] + 1e-5
