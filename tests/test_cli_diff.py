"""CLI coverage for ``transform-synth diff``.

Exit-code contract: 0 when the pair(s) are equivalent at the bound, 1
when discriminating tests exist, 2 on usage errors.  The ``--json``
schema is pinned (top-level key sets and the embedded schema version)
so downstream consumers can rely on it.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.models import CATALOG


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


class TestExitCodes:
    def test_equivalent_pair_exits_zero(self, capsys) -> None:
        code, out = run_cli(
            capsys,
            ["diff", "--reference", "sc", "--subject", "sc", "--bound", "3"],
        )
        assert code == 0
        assert "verdict: equivalent" in out

    def test_discriminating_pair_exits_one(self, capsys) -> None:
        code, out = run_cli(
            capsys,
            ["diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug"],
        )
        assert code == 1
        assert "verdict: reference-stronger" in out
        assert "violates: invlpg" in out
        assert "WPTE" in out  # the fig 11-style remap ELT is printed

    def test_missing_subject_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", "--reference", "x86t_elt"])
        assert excinfo.value.code == 2

    def test_unknown_model_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", "--reference", "bogus", "--subject", "sc"])
        assert excinfo.value.code == 2

    def test_all_pairs_excludes_explicit_pair(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", "--all-pairs", "--reference", "sc"])
        assert excinfo.value.code == 2

    def test_all_pairs_save_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(["diff", "--all-pairs", "--save", "out.elts"])
        assert excinfo.value.code == 2

    def test_nonpositive_jobs_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "diff",
                    "--reference",
                    "sc",
                    "--subject",
                    "sc",
                    "--jobs",
                    "0",
                ]
            )
        assert excinfo.value.code == 2

    def test_bad_witness_backend_is_usage_error(self, capsys) -> None:
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "diff",
                    "--reference",
                    "sc",
                    "--subject",
                    "sc",
                    "--witness-backend",
                    "quantum",
                ]
            )
        assert excinfo.value.code == 2


class TestJsonSchema:
    def test_cell_schema_is_stable(self, capsys) -> None:
        code, out = run_cli(
            capsys,
            [
                "diff",
                "--reference",
                "x86t_elt",
                "--subject",
                "x86t_amd_bug",
                "--json",
            ],
        )
        assert code == 1
        payload = json.loads(out)
        assert set(payload) == {
            "schema",
            "kind",
            "reference",
            "subject",
            "bound",
            "verdict",
            "counts",
            "discriminating",
            "stats",
        }
        assert payload["schema"] == 1
        assert payload["kind"] == "conformance-cell"
        assert payload["reference"] == "x86t_elt"
        assert payload["subject"] == "x86t_amd_bug"
        assert payload["verdict"] == "reference-stronger"
        assert set(payload["counts"]) == {
            "both-permit",
            "both-forbid",
            "only-reference-forbids",
            "only-subject-forbids",
        }
        (disc,) = payload["discriminating"]
        assert disc["violates"] == ["invlpg"]
        assert disc["elt"].startswith("elt")

    def test_matrix_schema_is_stable(self, capsys) -> None:
        code, out = run_cli(
            capsys, ["diff", "--all-pairs", "--bound", "4", "--json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["schema"] == 1
        assert payload["kind"] == "conformance-matrix"
        assert payload["models"] == list(CATALOG)
        assert payload["discriminating_total"] > 0
        assert len(payload["pairs"]) == len(CATALOG) * (len(CATALOG) - 1)


class TestAllPairsRendering:
    def test_matrix_table(self, capsys) -> None:
        code, out = run_cli(capsys, ["diff", "--all-pairs", "--bound", "4"])
        assert code == 1
        assert "conformance matrix @ bound 4" in out
        assert "ref \\ sub" in out
        assert "legend:" in out
        # Every catalog model appears as a grid row.
        for name in CATALOG:
            assert name in out
        # The catalog's syntactic inclusions are annotated in the detail.
        assert "(axiom subset)" in out
        assert "discriminating ELTs across all pairs:" in out
        # No consistency warnings on a correct engine.
        assert "WARNING" not in out


class TestPairOutput:
    def test_save_writes_loadable_diff_suite(self, tmp_path, capsys) -> None:
        from repro.litmus import EltSuite

        path = tmp_path / "amd.elts"
        code, out = run_cli(
            capsys,
            [
                "diff",
                "--reference",
                "x86t_elt",
                "--subject",
                "x86t_amd_bug",
                "--save",
                str(path),
            ],
        )
        assert code == 1
        assert f"diff suite written to {path}" in out
        suite = EltSuite.load(path)
        assert suite.names() == ["diff_001"]
        assert suite.get("diff_001").meta["subject"] == "x86t_amd_bug"

    def test_jobs_and_backend_invariant_bytes(self, tmp_path, capsys) -> None:
        base = ["diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug"]
        serial = tmp_path / "serial.elts"
        sharded = tmp_path / "sharded.elts"
        via_sat = tmp_path / "sat.elts"
        assert main(base + ["--save", str(serial)]) == 1
        assert main(base + ["--jobs", "2", "--save", str(sharded)]) == 1
        assert (
            main(base + ["--witness-backend", "sat", "--save", str(via_sat)])
            == 1
        )
        capsys.readouterr()
        assert sharded.read_bytes() == serial.read_bytes()
        assert via_sat.read_bytes() == serial.read_bytes()

    def test_cache_dir_reuse(self, tmp_path, capsys) -> None:
        cache = tmp_path / "cache"
        base = [
            "diff",
            "--reference",
            "x86t_elt",
            "--subject",
            "x86t_amd_bug",
            "--cache-dir",
            str(cache),
        ]
        assert main(base) == 1
        first = capsys.readouterr().out
        assert "cell_hit=False" in first
        assert main(base) == 1
        second = capsys.readouterr().out
        assert "cell_hit=True" in second
