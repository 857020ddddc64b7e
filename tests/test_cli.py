"""Tests for the transform-synth command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import main

PTWALK2_ELT = """\
elt
map x pa_a
thread 0
  wpte x pa_b
  ipi 0
  r x miss
"""


class TestSynthesizeCommand:
    def test_invlpg_bound4(self, capsys) -> None:
        assert main(["synthesize", "--bound", "4", "--axiom", "invlpg"]) == 0
        out = capsys.readouterr().out
        assert "1 unique ELTs" in out
        assert "WPTE" in out

    def test_mcm_mode(self, capsys) -> None:
        code = main(
            [
                "synthesize",
                "--bound",
                "2",
                "--axiom",
                "sc_per_loc",
                "--model",
                "x86tso",
                "--mcm",
            ]
        )
        assert code == 0
        assert "3 unique ELTs" in capsys.readouterr().out

    def test_unknown_model_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["synthesize", "--bound", "4", "--model", "bogus"])

    def test_symmetry_counters_shown_by_default(self, capsys) -> None:
        assert main(["synthesize", "--bound", "4", "--axiom", "invlpg"]) == 0
        assert "symmetry counter" in capsys.readouterr().out

    def test_no_symmetry_oracle_matches_default(self, capsys, tmp_path) -> None:
        """--no-symmetry hides the counter table and writes identical
        suite bytes (the oracle contract, end to end through the CLI)."""
        default_path = tmp_path / "default.elts"
        oracle_path = tmp_path / "oracle.elts"
        base = ["synthesize", "--bound", "4", "--axiom", "sc_per_loc"]
        assert main(base + ["--save", str(default_path)]) == 0
        assert main(
            base + ["--no-symmetry", "--save", str(oracle_path)]
        ) == 0
        out = capsys.readouterr().out
        assert out.count("symmetry counter") == 1  # default run only
        assert default_path.read_bytes() == oracle_path.read_bytes()


class TestSweepCommand:
    def test_serial_sweep_renders_fig9(self, capsys) -> None:
        """Without --jobs/--shards/--cache-dir the sweep runs in-process
        through fig9_sweep, which must accept every knob the CLI hands it."""
        assert main(["sweep", "--max-bound", "4", "--axiom", "invlpg"]) == 0
        out = capsys.readouterr().out
        assert "Fig 9a" in out
        assert "Fig 9b" in out


class TestCheckCommand:
    def test_forbidden_elt_exits_nonzero(self, tmp_path, capsys) -> None:
        path = tmp_path / "ptwalk2.elt"
        path.write_text(PTWALK2_ELT)
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "forbidden" in out
        assert "invlpg" in out

    def test_permitted_under_buggy_model(self, tmp_path, capsys) -> None:
        path = tmp_path / "ptwalk2.elt"
        path.write_text(PTWALK2_ELT)
        # The AMD-erratum model drops the invlpg axiom but the stale read
        # still violates sc_per_loc, so it stays forbidden...
        code = main(["check", str(path), "--model", "x86t_amd_bug"])
        assert code == 1
        # ...while sequential consistency over user events only (no
        # address-translation axioms beyond coherence) also forbids it via
        # the PTE-location coherence cycle.
        capsys.readouterr()

    def test_permitted_elt_exits_zero(self, tmp_path, capsys) -> None:
        path = tmp_path / "ok.elt"
        path.write_text("elt\nmap x pa_a\nthread 0\n  r x miss\n")
        assert main(["check", str(path)]) == 0
        assert "permitted" in capsys.readouterr().out

    def test_check_explain_prints_cycle(self, tmp_path, capsys) -> None:
        path = tmp_path / "ptwalk2.elt"
        path.write_text(PTWALK2_ELT)
        assert main(["check", str(path), "--explain"]) == 1
        out = capsys.readouterr().out
        assert "invlpg cycle:" in out
        assert "-[" in out


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            main([])


class TestOrchestratedSynthesize:
    def test_jobs2_suite_file_is_byte_identical_to_serial(
        self, tmp_path, capsys
    ) -> None:
        serial_path = tmp_path / "serial.elts"
        parallel_path = tmp_path / "parallel.elts"
        base = ["synthesize", "--bound", "4", "--axiom", "sc_per_loc"]
        assert main(base + ["--save", str(serial_path)]) == 0
        assert main(base + ["--jobs", "2", "--save", str(parallel_path)]) == 0
        out = capsys.readouterr().out
        assert "per-shard runtimes" in out
        assert parallel_path.read_bytes() == serial_path.read_bytes()

    def test_cache_dir_enables_reuse(self, tmp_path, capsys) -> None:
        cache = tmp_path / "cache"
        base = [
            "synthesize",
            "--bound",
            "4",
            "--axiom",
            "invlpg",
            "--cache-dir",
            str(cache),
        ]
        assert main(base) == 0
        first = capsys.readouterr().out
        assert "suite_hit=False" in first
        assert main(base + ["--resume"]) == 0
        second = capsys.readouterr().out
        assert "suite_hit=True" in second
        assert "1 unique ELTs" in second

    def test_resume_requires_cache_dir(self) -> None:
        with pytest.raises(SystemExit):
            main(["synthesize", "--bound", "4", "--resume"])


class TestResilienceFlags:
    def test_negative_max_retries_rejected(self) -> None:
        with pytest.raises(SystemExit):
            main(["synthesize", "--bound", "4", "--max-retries", "-1"])

    def test_chaos_run_is_byte_identical(self, tmp_path, capsys) -> None:
        # Seed 1 crashes the single inline shard on attempt 1; the
        # default retry budget recovers it, so the bytes must match a
        # fault-free run.
        base = ["synthesize", "--bound", "4", "--axiom", "invlpg"]
        plain, chaotic = tmp_path / "plain.elts", tmp_path / "chaos.elts"
        assert main(base + ["--save", str(plain)]) == 0
        assert main(base + ["--chaos", "1", "--save", str(chaotic)]) == 0
        assert chaotic.read_bytes() == plain.read_bytes()
        assert "DEGRADED" not in capsys.readouterr().out

    def test_exhausted_retries_warn_degraded(self, capsys) -> None:
        # With a zero retry budget the crashing shard is quarantined:
        # the run completes degraded and says so on stderr.
        code = main(
            [
                "synthesize",
                "--bound",
                "4",
                "--axiom",
                "invlpg",
                "--chaos",
                "1",
                "--max-retries",
                "0",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert ", DEGRADED" in captured.out
        assert "WARNING: result is DEGRADED" in captured.err
        assert "s0/1" in captured.err


#: The minimal valid invocation of every orchestrating subcommand.
ORCHESTRATING = {
    "synthesize": ["synthesize", "--bound", "4"],
    "sweep": ["sweep", "--max-bound", "4"],
    "diff": ["diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug"],
    "fuzz": ["fuzz"],
}

BAD_ORCHESTRATION_ARGUMENTS = {
    "jobs": ["--jobs", "0"],
    "shards": ["--shards", "0"],
    "max-retries": ["--max-retries", "-1"],
    "shard-timeout": ["--shard-timeout", "0"],
    "resume": ["--resume"],
}


class TestOrchestrationArguments:
    """A bad orchestration argument is a usage error (exit 2) for every
    subcommand; exit 1 means "findings exist" to fuzz and diff."""

    @pytest.mark.parametrize("bad", sorted(BAD_ORCHESTRATION_ARGUMENTS))
    @pytest.mark.parametrize("command", sorted(ORCHESTRATING))
    def test_bad_argument_exits_two(self, capsys, command, bad) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(ORCHESTRATING[command] + BAD_ORCHESTRATION_ARGUMENTS[bad])
        assert excinfo.value.code == 2
        assert f"--{bad}" in capsys.readouterr().err


class TestStoreVerifyCommand:
    def seed_cache(self, cache) -> None:
        assert (
            main(
                [
                    "synthesize",
                    "--bound",
                    "4",
                    "--axiom",
                    "invlpg",
                    "--cache-dir",
                    str(cache),
                ]
            )
            == 0
        )

    def test_clean_store_exits_zero(self, tmp_path, capsys) -> None:
        cache = tmp_path / "cache"
        self.seed_cache(cache)
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 0
        assert "0 corrupt" in capsys.readouterr().out

    def test_corruption_found_repaired_and_healed(
        self, tmp_path, capsys
    ) -> None:
        import json

        cache = tmp_path / "cache"
        self.seed_cache(cache)
        payload = sorted((cache / "entries").glob("*.pkl"))[0]
        payload.write_bytes(b"\x00" + payload.read_bytes()[1:])
        capsys.readouterr()

        # Damage found: exit 1, the key named in both renderings.
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 1
        assert payload.stem in capsys.readouterr().out
        assert (
            main(["store", "verify", "--cache-dir", str(cache), "--json"])
            == 1
        )
        report = json.loads(capsys.readouterr().out)
        assert report["corrupt"] == [payload.stem]
        assert not report["clean"]

        # --repair quarantines (still exit 1: damage was found) …
        assert (
            main(["store", "verify", "--cache-dir", str(cache), "--repair"])
            == 1
        )
        assert not payload.exists()
        assert (cache / "quarantine" / payload.name).exists()
        # … after which the store scans clean.
        capsys.readouterr()
        assert main(["store", "verify", "--cache-dir", str(cache)]) == 0

    def test_verify_requires_cache_dir(self) -> None:
        with pytest.raises(SystemExit):
            main(["store", "verify"])
