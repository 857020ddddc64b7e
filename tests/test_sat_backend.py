"""Cross-validation of the SAT (Alloy-port) witness enumerator against the
explicit Python enumerator — the reproduction's deepest end-to-end check:
two independent implementations of the candidate-execution space must
produce identical sets.  Also: the witness session the engine streams
from, its decoder, the fused multi-pair diff on the SAT backend, and
the CLI's SAT counter table and stage profile."""

from __future__ import annotations

import json
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.litmus.figures import (
    fig5b_invlpg_forces_rewalk,
    fig10a_ptwalk2,
    fig11_stale_mapping_after_ipi,
)
from repro.models import CATALOG, x86t_elt, x86tso
from repro.mtm import Execution, ProgramBuilder
from repro.relational import (
    Instance,
    Problem,
    TupleSet,
    acyclic,
    eval_formula,
    subset,
)
from repro.symmetry import program_symmetry
from repro.synth import SynthesisConfig, enumerate_witnesses
from repro.synth.sat_backend import (
    WitnessProblem,
    WitnessSession,
    enumerate_witnesses_sat,
)

from .strategies import vm_programs


def project(execution: Execution):
    return (frozenset(execution._rf), frozenset(execution.co))


def assert_same_witness_space(program) -> None:
    explicit = {project(e) for e in enumerate_witnesses(program)}
    via_sat = {project(e) for e in enumerate_witnesses_sat(program)}
    assert explicit == via_sat


class TestAgreementWithExplicitEnumerator:
    @pytest.mark.parametrize(
        "make",
        [fig10a_ptwalk2, fig5b_invlpg_forces_rewalk, fig11_stale_mapping_after_ipi],
        ids=["ptwalk2", "fig5b", "fig11"],
    )
    def test_paper_figures(self, make) -> None:
        assert_same_witness_space(make().execution.program)

    def test_two_writes_one_read(self) -> None:
        b = ProgramBuilder()
        c0 = b.thread()
        c0.write("x")
        r1 = c0.read("x", walk=None)
        assert r1 is not None
        assert_same_witness_space(b.build())

    def test_remap_with_reader(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a").map("y", "pa_b")
        c0 = b.thread()
        c0.read("y")
        c0.pte_write("y", "pa_a")
        c0.read("y")
        assert_same_witness_space(b.build())

    def test_mcm_program(self) -> None:
        b = ProgramBuilder(mcm_mode=True)
        c0, c1 = b.thread(), b.thread()
        c0.write("x")
        c1.read("x")
        c1.read("x")
        assert_same_witness_space(b.build())


class TestModelConstraints:
    def test_forbidden_only_enumeration(self) -> None:
        program = fig10a_ptwalk2().execution.program
        model = x86t_elt()
        forbidden = list(
            enumerate_witnesses_sat(program, model=model, violated_axiom="invlpg")
        )
        assert len(forbidden) == 1
        assert "invlpg" in model.check(forbidden[0]).violated

    def test_permitted_only_enumeration(self) -> None:
        program = fig10a_ptwalk2().execution.program
        model = x86t_elt()
        permitted = list(enumerate_witnesses_sat(program, model=model))
        assert len(permitted) == 1
        assert model.permits(permitted[0])

    def test_partition(self) -> None:
        # permitted + forbidden = all witnesses.
        program = fig11_stale_mapping_after_ipi().execution.program
        model = x86t_elt()
        all_w = {project(e) for e in enumerate_witnesses_sat(program)}
        permitted = {
            project(e) for e in enumerate_witnesses_sat(program, model=model)
        }
        encoded = WitnessProblem(program)
        encoded.constrain_model(model, violated=True)
        forbidden = {project(e) for e in encoded.executions()}
        assert permitted | forbidden == all_w
        assert not permitted & forbidden


class TestInstanceLevelAgreement:
    @pytest.mark.parametrize(
        "make,symmetric",
        [
            (fig10a_ptwalk2, False),
            (fig11_stale_mapping_after_ipi, False),
            (fig11_stale_mapping_after_ipi, True),
        ],
        ids=["ptwalk2", "fig11", "fig11-symmetry"],
    )
    def test_decoded_instances_match_validating_constructors(
        self, make, symmetric
    ) -> None:
        # The decoder builds exact-bound relations once per translation
        # and every instance through trusted constructors; rebuilding each
        # instance through the validating ones must give an equal one,
        # with every declared relation inside its bounds.
        program = make().execution.program
        symmetry = program_symmetry(program) if symmetric else None
        problem = WitnessProblem(program, symmetry=symmetry).problem
        decoded = 0
        for instance in problem.iter_instances():
            rebuilt = Instance(
                list(instance.atoms),
                {
                    name: TupleSet(relation.arity, list(relation.tuples))
                    for name, relation in instance.relations.items()
                },
            )
            assert instance == rebuilt
            assert list(instance.relations) == list(problem._bounds)
            for name, bound in problem._bounds.items():
                relation = instance.relation(name)
                assert relation.arity == bound.arity
                assert bound.lower <= relation.tuples <= bound.upper
            decoded += 1
        assert decoded > 0

    def test_decoded_instances_satisfy_formula_by_evaluator(self) -> None:
        # Every instance the SAT backend accepts as TSO-consistent must also
        # satisfy the TSO formula under the reference evaluator when
        # re-exported from the decoded Execution.
        program = fig10a_ptwalk2().execution.program
        model = x86tso()
        for execution in enumerate_witnesses_sat(program, model=model):
            instance = execution.to_instance()
            assert eval_formula(model.formula(), instance)
            assert model.permits(execution)


class TestPrebuiltProblemReuse:
    def test_prebuilt_problem_enumerates_identically(self) -> None:
        """The ``problem=`` hook: building the translation up front (for
        bounds inspection / stats access) and handing it to the
        enumerator must match the build-internally path exactly."""
        program = fig11_stale_mapping_after_ipi().execution.program
        internal = {project(e) for e in enumerate_witnesses_sat(program)}
        prebuilt = WitnessProblem(program)
        external = {
            project(e)
            for e in enumerate_witnesses_sat(program, problem=prebuilt)
        }
        assert external == internal
        assert prebuilt.solver_stats is not None  # caller sees the stats

    def test_prebuilt_problem_accepts_model_constraint(self) -> None:
        program = fig11_stale_mapping_after_ipi().execution.program
        model = x86t_elt()
        direct = {
            project(e)
            for e in enumerate_witnesses_sat(
                program, model=model, violated_axiom="invlpg"
            )
        }
        prebuilt = WitnessProblem(program)
        reused = {
            project(e)
            for e in enumerate_witnesses_sat(
                program,
                model=model,
                violated_axiom="invlpg",
                problem=prebuilt,
            )
        }
        assert reused == direct


# ----------------------------------------------------------------------
# One enumeration path: Problem.iter_instances and the witness session
# ----------------------------------------------------------------------
def _order_problem():
    problem = Problem(["a", "b", "c"])
    r = problem.declare("r", 2)
    problem.constrain(acyclic(r))
    problem.constrain(subset(r.dot(r), r))
    return problem


def test_base_enumeration_is_bit_identical() -> None:
    direct = [i.relation("r").tuples for i in _order_problem().iter_instances()]
    session = _order_problem().session()
    via_session = [
        i.relation("r").tuples for i in session.iter_base_instances()
    ]
    assert via_session == direct  # same instances, same ORDER
    assert len(direct) == 19  # the strict partial orders on three atoms
    assert list(session.iter_base_instances(limit=0)) == []
    assert len(list(session.iter_base_instances(limit=2))) == 2


def witness_key(execution):
    return (
        frozenset(execution._rf),
        frozenset(execution.co),
        frozenset(execution.co_pa),
    )


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(program=vm_programs(max_events=7))
def test_session_witness_stream_is_bit_identical(program) -> None:
    fresh = [witness_key(e) for e in enumerate_witnesses_sat(program)]
    session = WitnessSession(program)
    weighted = session.weighted_witnesses()
    assert [witness_key(e) for e, _ in weighted] == fresh
    assert {weight for _, weight in weighted} <= {1}
    assert session.enum_stats is not None
    assert session.translate_s > 0.0


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
# CLI surface: --profile stages and the SAT counter table
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

    def test_diff_profile_json_goes_to_stderr(self, capsys) -> None:
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
        payload = json.loads(captured.out)
        assert payload["kind"] == "conformance-cell"
        profile = json.loads(captured.err)
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
        start = text.index('{\n  "kind": "stage-profile"')
        return json.JSONDecoder().raw_decode(text, start)[0]

    def test_all_pairs_profile_total_is_the_run_time(self, capsys) -> None:
        # Every cell's runtime_s is the whole fused run; the profile
        # total must not add them up once per pair.
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
