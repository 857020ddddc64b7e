"""Coverage for :mod:`repro.fuzz` — the beyond-the-bound differential
fuzzing pipeline.

The determinism contract under test everywhere: program bytes are a pure
function of ``(seed, round, global attempt index)``, findings are
deduplicated by shrunk orbit class with an order-free winner rule, so
the suite bytes serialized from a fixed-seed run are byte-identical for
every ``--jobs`` and shard split.

The standing pair is the AMD INVLPG erratum (``x86t_elt`` vs
``x86t_amd_bug``): its minimal discriminators fit well inside the fuzz
bound of 8, so a pinned seed rediscovers the erratum in CI time.  (SC vs
x86-TSO needs 10 events once page-table walks and dirty-bit ghosts are
charged, which is why it is *not* the smoke pair.)
"""

from __future__ import annotations

import json

from hypothesis import given, settings

import pytest

from repro.cli import main
from repro.errors import SynthesisError
from repro.fuzz import (
    CoverageMap,
    DifferentialOracle,
    FuzzConfig,
    FuzzStats,
    build_program,
    build_vm_program,
    derive_seed,
    fuzz_identity,
    random_program,
    run_fuzz,
    shrink,
)
from repro.fuzz.coverage import (
    PROFILE_KWARGS,
    PROFILE_NAMES,
    behavior_key,
    class_digest,
)
from repro.fuzz.generators import RngChooser, programs
from repro.litmus import suite_from_fuzz
from repro.models import x86t_amd_bug, x86t_elt
from repro.mtm import EventKind, Execution, ProgramBuilder
from repro.orchestrate import KIND_FUZZ_RUN, SuiteStore
from repro.synth.relax import is_minimal

SETTINGS = dict(max_examples=20, deadline=None)

#: Pinned smoke schedule: fast, and known to rediscover the erratum.
PINNED = dict(seed=0, bound=8, rounds=2, attempts_per_round=32)


def amd_config(**overrides) -> FuzzConfig:
    kwargs = dict(PINNED)
    kwargs.update(overrides)
    return FuzzConfig(**kwargs)


def fig11_program(pad_reads: int = 0):
    """The AMD-erratum discriminator program (paper Fig. 11): a remap
    with IPI fan-out racing a read on the remapped VA.  ``pad_reads``
    appends shrinkable same-thread reads of an unrelated VA."""
    b = ProgramBuilder()
    b.map("x", "pa_a")
    if pad_reads:
        b.map("y", "pa_y")
    c0, c1 = b.thread(), b.thread()
    wpte = c0.pte_write("x", "pa_b")
    c1.invlpg_for(wpte)
    c1.read("x")
    for _ in range(pad_reads):
        c0.read("y")
    return b.build()


class TestDeriveSeed:
    def test_pure_function_of_arguments(self) -> None:
        assert derive_seed(0, 1, 2) == derive_seed(0, 1, 2)

    def test_streams_and_attempts_are_independent(self) -> None:
        seen = {
            derive_seed(seed, stream, attempt)
            for seed in range(3)
            for stream in range(3)
            for attempt in range(3)
        }
        assert len(seen) == 27  # no collisions in a small grid

    def test_argument_order_matters(self) -> None:
        assert derive_seed(1, 2, 3) != derive_seed(3, 2, 1)


class TestGenerators:
    @pytest.mark.parametrize("bound", [8, 12])
    def test_programs_fit_the_requested_bound(self, bound: int) -> None:
        for seed in range(60):
            program = random_program(seed, max_events=bound)
            assert 1 <= program.size <= bound

    def test_same_seed_same_program(self) -> None:
        for seed in range(20):
            first = random_program(seed, stream=1, attempt=seed)
            second = random_program(seed, stream=1, attempt=seed)
            assert first.size == second.size
            assert [
                (e.kind, e.va) for e in first.events.values()
            ] == [(e.kind, e.va) for e in second.events.values()]

    def test_profile_biases_are_legal_builder_kwargs(self) -> None:
        for name in PROFILE_NAMES:
            program = build_program(
                RngChooser(derive_seed(7, 0, 0)), **PROFILE_KWARGS[name]
            )
            assert program.size >= 1

    def test_vm_programs_always_carry_a_pte_write(self) -> None:
        for seed in range(40):
            program = build_vm_program(RngChooser(derive_seed(seed, 0, 0)))
            kinds = {event.kind for event in program.events.values()}
            assert EventKind.PTE_WRITE in kinds

    def test_generation_is_free_of_global_random_state(self) -> None:
        import random as global_random

        global_random.seed(123)
        first = random_program(5)
        global_random.seed(456)
        second = random_program(5)
        assert [
            (e.kind, e.va) for e in first.events.values()
        ] == [(e.kind, e.va) for e in second.events.values()]


class TestCoverageMap:
    def test_behavior_key_rendering(self) -> None:
        assert behavior_key("both-forbid", ("sc_per_loc",)) == (
            "both-forbid|sc_per_loc"
        )
        assert behavior_key("both-permit", ()) == "both-permit|-"

    def test_novelty_counts_new_classes_and_behaviors_once(self) -> None:
        coverage = CoverageMap()
        first = coverage.observe_attempt(
            "mixed", "aa", (3, 0, 0, 0), [("both-permit", ())]
        )
        assert first == 2  # new class + new behavior
        repeat = coverage.observe_attempt(
            "mixed", "aa", (3, 0, 0, 0), [("both-permit", ())]
        )
        assert repeat == 0
        new_behavior = coverage.observe_attempt(
            "vm_heavy", "aa", (0, 2, 0, 0), [("both-forbid", ("invlpg",))]
        )
        assert new_behavior == 1
        assert coverage.class_count == 1
        assert coverage.behavior_count == 2
        assert coverage.agreement["both-permit"] == 6
        assert coverage.novel_by_profile == {"mixed": 2, "vm_heavy": 1}

    def test_saturation_is_last_round_novelty(self) -> None:
        coverage = CoverageMap()
        assert not coverage.saturated
        coverage.finish_round(4)
        assert not coverage.saturated
        coverage.finish_round(0)
        assert coverage.saturated

    def test_allocation_sums_and_block_layout(self) -> None:
        coverage = CoverageMap()
        allocation = coverage.allocate(10)
        assert len(allocation) == 10
        # Block layout in profile order: once a name stops, it never
        # reappears.
        order = [allocation[0]]
        for name in allocation[1:]:
            if name != order[-1]:
                order.append(name)
        assert order == [n for n in PROFILE_NAMES if n in set(allocation)]

    def test_allocation_rewards_novelty_with_exploration_floor(self) -> None:
        coverage = CoverageMap()
        coverage.novel_by_profile["vm_heavy"] = 30
        allocation = coverage.allocate(32)
        counts = {name: allocation.count(name) for name in PROFILE_NAMES}
        assert sum(counts.values()) == 32
        assert counts["vm_heavy"] > counts["mixed"]
        # The +1 exploration floor keeps every profile alive.
        assert all(count >= 1 for count in counts.values())

    def test_snapshot_shape(self) -> None:
        coverage = CoverageMap()
        coverage.observe_attempt("racy", "bb", (1, 0, 0, 0), [("both-permit", ())])
        coverage.finish_round(2)
        snapshot = coverage.snapshot()
        assert snapshot["classes"] == 1
        assert snapshot["behaviors"] == 1
        assert snapshot["round_novelty"] == [2]
        assert snapshot["saturated"] is False
        assert snapshot["novelty_rate"] == 2.0


class TestDifferentialOracle:
    def test_fig11_class_discriminates_and_is_minimal(self) -> None:
        oracle = DifferentialOracle(amd_config())
        summary = oracle.classify(fig11_program())
        assert summary.discriminating
        assert summary.minimal
        assert not summary.truncated
        assert summary.counts[2] >= 1  # only-reference-forbids witnesses
        assert any(
            agreement == "only-reference-forbids" and "invlpg" in violated
            for agreement, violated in summary.signatures
        )

    def test_classify_is_memoized_by_orbit_class(self) -> None:
        oracle = DifferentialOracle(amd_config())
        program = fig11_program()
        first = oracle.classify(program)
        hits_before = oracle.stats.oracle_memo_hits
        second = oracle.classify(program)
        assert second is first
        assert oracle.stats.oracle_memo_hits == hits_before + 1

    def test_judge_selects_a_discriminating_representative(self) -> None:
        config = amd_config()
        oracle = DifferentialOracle(config)
        judgment = oracle.judge(fig11_program())
        assert judgment.execution is not None
        assert config.reference.forbids(judgment.execution)
        assert config.subject.permits(judgment.execution)
        assert judgment.violated_axioms == ("invlpg",)
        assert is_minimal(judgment.execution, config.reference)

    def test_truncation_zeroes_the_summary(self) -> None:
        oracle = DifferentialOracle(amd_config(max_witnesses=1))
        summary = oracle.classify(fig11_program())
        assert summary.truncated
        assert summary.counts == (0, 0, 0, 0)
        assert not summary.discriminating
        assert summary.witnesses == 0
        assert oracle.stats.truncated == 1


class TestShrink:
    def test_non_discriminating_program_returns_none(self) -> None:
        b = ProgramBuilder()
        b.map("x", "pa_a")
        b.thread().read("x")
        assert shrink(b.build(), DifferentialOracle(amd_config())) is None

    def test_already_minimal_input_is_identity(self) -> None:
        oracle = DifferentialOracle(amd_config())
        program = fig11_program()
        outcome = shrink(program, oracle)
        assert outcome is not None
        assert outcome.steps == 0
        assert oracle.canonical_key_of(outcome.program) == (
            oracle.canonical_key_of(program)
        )

    def test_padding_is_shrunk_away(self) -> None:
        oracle = DifferentialOracle(amd_config())
        padded = fig11_program(pad_reads=2)
        outcome = shrink(padded, oracle)
        assert outcome is not None
        assert outcome.steps >= 1
        assert outcome.program.size < padded.size
        assert oracle.stats.shrink_steps == outcome.steps
        judgment = outcome.judgment
        assert judgment.execution is not None
        assert is_minimal(judgment.execution, oracle.reference)


class TestHypothesisProperties:
    """Property coverage over the promoted generator strategies."""

    @settings(**SETTINGS)
    @given(program=programs())
    def test_shrunk_findings_are_discriminating_and_minimal(
        self, program
    ) -> None:
        config = amd_config()
        oracle = DifferentialOracle(config)
        outcome = shrink(program, oracle)
        if outcome is None:
            return  # not discriminating, or descent got stuck — no claim
        execution = outcome.judgment.execution
        assert config.reference.forbids(execution)
        assert config.subject.permits(execution)
        assert is_minimal(execution, config.reference)

    @settings(**SETTINGS)
    @given(program=programs())
    def test_shrinking_a_minimal_program_is_identity(self, program) -> None:
        oracle = DifferentialOracle(amd_config())
        summary = oracle.classify(program)
        if not (summary.discriminating and summary.minimal):
            return
        outcome = shrink(program, oracle)
        assert outcome is not None
        assert outcome.steps == 0
        assert oracle.canonical_key_of(outcome.program) == (
            oracle.canonical_key_of(program)
        )


class TestFuzzStats:
    def test_absorb_sums_counters_and_ors_flags(self) -> None:
        left = FuzzStats(programs_generated=3, oracle_calls=5, shrink_steps=1)
        right = FuzzStats(
            programs_generated=2, oracle_calls=4, truncated=1, timed_out=True
        )
        left.absorb(right)
        assert left.programs_generated == 5
        assert left.oracle_calls == 9
        assert left.shrink_steps == 1
        assert left.truncated == 1
        assert left.timed_out

    def test_to_json_covers_every_summed_field(self) -> None:
        payload = FuzzStats().to_json()
        for name in FuzzStats.SUMMED_FIELDS:
            assert name in payload
        assert {"findings", "timed_out", "degraded", "runtime_s"} <= set(payload)


class TestFuzzConfigValidation:
    """A bad run configuration raises in the parent, at construction,
    before any shard runs."""

    @pytest.mark.parametrize(
        "field, value",
        [("bound", 0), ("max_threads", 0), ("witness_backend", "bogus")],
    )
    def test_bad_field_raises_at_construction(self, field, value) -> None:
        with pytest.raises(SynthesisError):
            amd_config(**{field: value})


class TestRunFuzz:
    def test_pinned_seed_rediscovers_the_amd_erratum(self) -> None:
        result = run_fuzz(amd_config())
        assert result.rounds_run == 2
        assert len(result.findings) == 3
        for finding in result.findings:
            assert finding.violated_axioms == ("invlpg",)
            assert finding.program.size <= 6
            assert x86t_elt().forbids(finding.execution)
            assert x86t_amd_bug().permits(finding.execution)
            assert is_minimal(finding.execution, x86t_elt())
        assert result.stats.findings == 3
        assert result.stats.discriminating >= 3

    def test_jobs_and_shard_splits_are_byte_identical(self) -> None:
        serial = run_fuzz(amd_config(), jobs=1)
        sharded = run_fuzz(amd_config(), jobs=2)
        fine = run_fuzz(amd_config(), jobs=2, shard_count=5)
        baseline = suite_from_fuzz(serial).dumps()
        assert suite_from_fuzz(sharded).dumps() == baseline
        assert suite_from_fuzz(fine).dumps() == baseline
        assert sharded.coverage.snapshot() == serial.coverage.snapshot()
        assert fine.coverage.snapshot() == serial.coverage.snapshot()

    def test_store_roundtrip_and_run_cache(self, tmp_path) -> None:
        store = SuiteStore(tmp_path / "cache")
        config = amd_config()
        first = run_fuzz(config, store=store)
        assert not first.run_cache_hit
        second = run_fuzz(config, jobs=2, store=store)
        assert second.run_cache_hit
        assert second.jobs == 2
        assert suite_from_fuzz(second).dumps() == suite_from_fuzz(first).dumps()

    def test_identity_excludes_strategy_knobs(self) -> None:
        base = fuzz_identity(amd_config())
        assert fuzz_identity(amd_config(symmetry=False)) == base
        assert fuzz_identity(amd_config(seed=1)) != base

    def test_identity_keeps_the_witness_backend(self) -> None:
        # The two backends disagree on a few programs from bound 8, so a
        # SAT run must not reuse an explicit run's cached result.
        sat = fuzz_identity(amd_config(witness_backend="sat"))
        assert sat != fuzz_identity(amd_config())
        assert fuzz_identity(amd_config(witness_backend="sat", symmetry=False)) == sat

    def test_zero_budget_times_out_without_findings_commit(self, tmp_path) -> None:
        store = SuiteStore(tmp_path / "cache")
        config = amd_config(time_budget_s=0.0)
        result = run_fuzz(config, store=store)
        assert result.stats.timed_out
        assert result.rounds_run == 1  # stops at the first round barrier
        # Timed-out runs are never persisted.
        assert store.load(fuzz_identity(config), KIND_FUZZ_RUN) is None


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


FAST_ARGS = ["--attempts", "8", "--rounds", "1"]


class TestCliFuzz:
    def test_quiet_pair_exits_zero(self, capsys) -> None:
        code, out = run_cli(
            capsys, ["fuzz", "--subject", "x86t_elt", *FAST_ARGS]
        )
        assert code == 0
        assert "findings=0" in out

    def test_default_pair_finds_the_erratum_and_exits_one(self, capsys) -> None:
        code, out = run_cli(capsys, ["fuzz", "--seed", "0"])
        assert code == 1
        assert "fuzz x86t_elt vs x86t_amd_bug" in out
        assert "violates: invlpg" in out
        assert "--- finding 1" in out

    def test_json_document_schema(self, capsys) -> None:
        code, out = run_cli(capsys, ["fuzz", "--seed", "0", "--json"])
        assert code == 1
        document = json.loads(out)
        assert set(document) == {
            "identity", "stats", "coverage", "rounds_run", "findings"
        }
        assert document["identity"]["reference"] == "x86t_elt"
        assert document["stats"]["findings"] == len(document["findings"])
        for finding in document["findings"]:
            assert finding["violates"] == ["invlpg"]
            assert finding["size"] <= 6

    @pytest.mark.parametrize(
        "argv",
        [
            ["fuzz", "--jobs", "0"],
            ["fuzz", "--threads", "0"],
            ["fuzz", "--bound", "0"],
            ["fuzz", "--rounds", "0"],
            ["fuzz", "--attempts", "0"],
            ["fuzz", "--jobs", "2", "--threads", "0"],
            ["fuzz", "--replay"],
            ["fuzz", "--reference", "bogus"],
        ],
    )
    def test_usage_errors_exit_two(self, capsys, argv) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2

    def test_save_and_corpus_then_replay(self, capsys, tmp_path) -> None:
        suite_path = tmp_path / "found.elts"
        corpus_dir = tmp_path / "corpus"
        code, out = run_cli(
            capsys,
            [
                "fuzz", "--seed", "0",
                "--save", str(suite_path),
                "--corpus", str(corpus_dir),
            ],
        )
        assert code == 1
        assert suite_path.exists()
        corpus_files = sorted(corpus_dir.glob("*.elts"))
        assert len(corpus_files) == 3
        code, out = run_cli(
            capsys, ["fuzz", "--replay", "--corpus", str(corpus_dir)]
        )
        assert code == 0
        assert "OK" in out

    def test_replay_flags_a_tampered_corpus(self, capsys, tmp_path) -> None:
        corpus_dir = tmp_path / "corpus"
        run_cli(
            capsys,
            ["fuzz", "--seed", "0", "--corpus", str(corpus_dir)],
        )
        victim = sorted(corpus_dir.glob("*.elts"))[0]
        victim.write_text(
            victim.read_text().replace("violates=invlpg", "violates=causality")
        )
        code, out = run_cli(
            capsys,
            ["fuzz", "--replay", "--corpus", str(corpus_dir), "--json"],
        )
        assert code == 1
        report = json.loads(out)
        assert not report["ok"]
        assert any(
            "drifted" in failure["reason"] for failure in report["failures"]
        )

    def test_profile_appends_fuzz_stats_json(self, capsys) -> None:
        code, out = run_cli(capsys, ["fuzz", *FAST_ARGS, "--profile"])
        profile_line = [
            line for line in out.splitlines() if line.startswith("{")
        ][-1]
        payload = json.loads(profile_line)
        assert "fuzz_stats" in payload
        assert payload["fuzz_stats"]["programs_generated"] == 8

    def test_budget_zero_reports_partial_run(self, capsys) -> None:
        code, out = run_cli(capsys, ["fuzz", *FAST_ARGS, "--budget", "0"])
        assert "NOTE: run hit --budget" in out

    def test_trace_leaves_output_identical_and_writes_manifest(
        self, capsys, tmp_path
    ) -> None:
        plain_code, plain_out = run_cli(capsys, ["fuzz", *FAST_ARGS])
        trace_path = tmp_path / "fuzz-trace.json"
        traced_code, traced_out = run_cli(
            capsys, ["fuzz", *FAST_ARGS, "--trace", str(trace_path)]
        )
        assert traced_code == plain_code
        assert traced_out.replace(
            f"trace written to {trace_path}", ""
        ).rstrip("\n") == plain_out.rstrip("\n")
        payload = json.loads(trace_path.read_text())
        manifest = payload["otherData"]["manifest"]
        assert manifest["command"] == "fuzz"
        assert manifest["identity"]["kind"] == "fuzz"
        assert manifest["fuzz_stats"]["programs_generated"] == 8
        assert manifest["coverage"]["classes"] >= 1

    def test_cache_dir_run_reuse(self, capsys, tmp_path) -> None:
        argv = [
            "fuzz", "--seed", "0", *FAST_ARGS,
            "--cache-dir", str(tmp_path / "cache"),
        ]
        run_cli(capsys, argv)
        code, out = run_cli(capsys, argv)
        assert "run_hit=True" in out
