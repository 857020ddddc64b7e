"""Tests for the transform-synth command-line interface."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
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

    def test_fresh_solver_is_accepted_hidden_and_ignored(
        self, capsys, tmp_path
    ) -> None:
        """Every program is translated and solved afresh, so the retired
        --fresh-solver switch changes nothing; it still parses, for
        scripts that pass it, but --help no longer offers it."""
        base = [
            "synthesize",
            "--bound",
            "4",
            "--axiom",
            "invlpg",
            "--witness-backend",
            "sat",
        ]
        plain, fresh = tmp_path / "plain.elts", tmp_path / "fresh.elts"
        assert main(base + ["--save", str(plain)]) == 0
        assert main(base + ["--fresh-solver", "--save", str(fresh)]) == 0
        assert fresh.read_bytes() == plain.read_bytes()
        capsys.readouterr()
        with pytest.raises(SystemExit):
            main(["synthesize", "--help"])
        assert "--fresh-solver" not in capsys.readouterr().out

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


class TestUnparsableInput:
    """A file that is not one ELT is a usage error (exit 2), which a
    script can tell from ``check``'s forbidden verdict (exit 1)."""

    @pytest.mark.parametrize("command", [["check", "--explain"], ["explore"]])
    def test_suite_file_is_a_usage_error(self, command, capsys) -> None:
        suite = Path(__file__).parents[1] / "corpus" / "a597de60c0bce370.elts"
        with pytest.raises(SystemExit) as raised:
            main(command + [str(suite)])
        assert raised.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: ELT text must start with an 'elt' line\n"


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
        assert main(base) == 0
        second = capsys.readouterr().out
        assert "suite_hit=True" in second
        assert "1 unique ELTs" in second


#: The minimal valid invocation of every orchestrating subcommand.
ORCHESTRATING = {
    "synthesize": ["synthesize", "--bound", "4"],
    "sweep": ["sweep", "--max-bound", "4"],
    "diff": ["diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug"],
    "fuzz": ["fuzz"],
}

BAD_ORCHESTRATION_ARGUMENTS = {
    "jobs": ["--jobs", "0"],
}

#: Flags of the retired retry/quarantine/chaos envelope, with a value
#: where they took one.
RETIRED_FLAGS = {
    "chaos": ["--chaos", "0"],
    "max-retries": ["--max-retries", "1"],
    "resume": ["--resume"],
    "shard-timeout": ["--shard-timeout", "5"],
    "shards": ["--shards", "2"],
}

#: Configuration errors the engine raises (``SynthesisError``), with a
#: fragment of the message the CLI prints for each.
BAD_CONFIGURATIONS = {
    "synthesize-bound": (["synthesize", "--bound", "0"], "bound must be positive"),
    "synthesize-axiom": (
        ["synthesize", "--bound", "4", "--axiom", "nope"],
        "no axiom 'nope'",
    ),
    "synthesize-threads": (
        ["synthesize", "--bound", "4", "--threads", "0"],
        "max_threads",
    ),
    "all-pairs-bound": (
        ["diff", "--all-pairs", "--bound", "0", "--json"],
        "bound must be positive",
    ),
    "diff-threads": (
        ORCHESTRATING["diff"] + ["--bound", "4", "--threads", "0"],
        "max_threads",
    ),
    "fuzz-threads": (
        ["fuzz", "--seed", "0", "--bound", "4", "--threads", "0"],
        "max_threads",
    ),
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

    @pytest.mark.parametrize("flag", sorted(RETIRED_FLAGS))
    @pytest.mark.parametrize("command", sorted(ORCHESTRATING))
    def test_retired_flag_is_rejected(self, capsys, command, flag) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(ORCHESTRATING[command] + RETIRED_FLAGS[flag])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments" in err
        assert f"--{flag}" in err

    def test_store_subcommand_is_gone(self, capsys, tmp_path) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "verify", "--cache-dir", str(tmp_path)])
        assert excinfo.value.code == 2
        assert "invalid choice: 'store'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", sorted(BAD_CONFIGURATIONS))
    def test_configuration_error_exits_two(self, capsys, case) -> None:
        argv, message = BAD_CONFIGURATIONS[case]
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err


def broken_shard(task):
    raise RuntimeError("worker broke")


#: Per subcommand: the runner module and worker global its inline
#: ``--cache-dir`` run calls, and an invocation that reaches it.
SHARD_WORKERS = {
    "sweep": (
        "repro.orchestrate.runner",
        "run_shard",
        ["sweep", "--max-bound", "4", "--axiom", "invlpg"],
    ),
    "diff": (
        "repro.conformance.runner",
        "run_multi_diff_shard",
        ORCHESTRATING["diff"] + ["--bound", "4"],
    ),
    "all-pairs": (
        "repro.conformance.runner",
        "run_multi_diff_shard",
        ["diff", "--all-pairs", "--bound", "4", "--json"],
    ),
    "fuzz": (
        "repro.fuzz.runner",
        "run_fuzz_shard",
        ["fuzz", "--seed", "0", "--bound", "4", "--rounds", "1", "--attempts", "8"],
    ),
}


class TestFailedShard:
    def test_failed_shard_exits_three_and_writes_nothing(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        import repro.orchestrate.runner as runner_module

        monkeypatch.setattr(runner_module, "run_shard", broken_shard)
        cache = tmp_path / "cache"
        suite = tmp_path / "suite.elts"
        trace = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "synthesize",
                    "--bound",
                    "4",
                    "--axiom",
                    "invlpg",
                    "--cache-dir",
                    str(cache),
                    "--save",
                    str(suite),
                    "--trace",
                    str(trace),
                ]
            )
        assert excinfo.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: shard s0/1 failed: RuntimeError: worker broke\n"
        )
        assert not suite.exists()
        assert not trace.exists()
        assert list((cache / "entries").iterdir()) == []
        assert not (cache / "manifests").exists()

    @pytest.mark.parametrize("command", sorted(SHARD_WORKERS))
    def test_every_sharded_subcommand_exits_three(
        self, tmp_path, capsys, monkeypatch, command
    ) -> None:
        import importlib

        module, worker, argv = SHARD_WORKERS[command]
        monkeypatch.setattr(importlib.import_module(module), worker, broken_shard)
        cache = tmp_path / "cache"
        trace = tmp_path / "trace.json"
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--cache-dir", str(cache), "--trace", str(trace)])
        assert excinfo.value.code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: shard s0/1 failed: RuntimeError: worker broke\n"
        )
        assert not trace.exists()
        assert list((cache / "entries").iterdir()) == []
        assert not (cache / "manifests").exists()


#: Per subcommand: a run that caches one whole result, and the name of
#: the cache-hit flag it prints.
CACHED_RUNS = {
    "synthesize": (["synthesize", "--bound", "4", "--axiom", "invlpg"], "suite_hit"),
    "diff": (ORCHESTRATING["diff"] + ["--bound", "4"], "cell_hit"),
    "fuzz": (
        ["fuzz", "--seed", "0", "--bound", "4", "--rounds", "1", "--attempts", "8"],
        "run_hit",
    ),
}


class TestWholeResultCache:
    """The ``--cache-dir`` round trip: a cold run stores one whole
    result, a warm rerun serves it, and a damaged entry is quarantined
    and recomputed to the same bytes."""

    @pytest.mark.parametrize("command", sorted(CACHED_RUNS))
    def test_warm_rerun_and_bit_flip_heal(self, tmp_path, capsys, command) -> None:
        argv, flag = CACHED_RUNS[command]
        cache = tmp_path / "cache"

        def run(name: str):
            path = tmp_path / name
            code = main(argv + ["--cache-dir", str(cache), "--save", str(path)])
            return code, capsys.readouterr().out, path.read_bytes()

        code, out, cold = run("cold.elts")
        assert f"{flag}=False" in out
        (payload,) = (cache / "entries").glob("*.pkl")
        warm_code, warm_out, warm = run("warm.elts")
        assert (warm_code, warm) == (code, cold)
        assert f"{flag}=True" in warm_out

        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0x01
        payload.write_bytes(bytes(data))
        healed_code, healed_out, healed = run("healed.elts")
        assert (healed_code, healed) == (code, cold)
        assert f"{flag}=False" in healed_out
        assert (cache / "quarantine" / payload.name).exists()
        assert f"{flag}=True" in run("again.elts")[1]


def test_closed_stdout_exits_141_without_a_traceback() -> None:
    """``diff --all-pairs --json | head -1``: the reader takes one line
    and leaves.  The CLI stops quietly with 141 (128 + SIGPIPE), not
    with a traceback and exit 1, which would mean "discriminating tests
    exist"."""
    import fcntl

    read_fd, write_fd = os.pipe()
    # A one-page pipe: the document (about 13 KB) fits neither in it nor
    # in it plus the one read below, so the CLI is still writing when the
    # reader leaves, however the two processes are scheduled.  (1031 is
    # Linux's F_SETPIPE_SZ; the fcntl module names it from Python 3.10.)
    fcntl.fcntl(write_fd, getattr(fcntl, "F_SETPIPE_SZ", 1031), 4096)
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    with subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "diff", "--all-pairs"]
        + ["--bound", "4", "--json"],
        stdout=write_fd,
        stderr=subprocess.PIPE,
        env=env,
    ) as process:
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as reader:
            assert reader.readline() == b"{\n"
        stderr = process.stderr.read()
        code = process.wait()
    assert code == 141
    assert stderr == b""
