"""Tests for :mod:`repro.obs` — the tracer, the unified metrics
registry, trace exporters, run manifests, and their CLI surface.

The load-bearing properties:

* exported Chrome traces are structurally valid (matched, properly
  nested B/E pairs per lane, non-decreasing timestamps, pid/tid on every
  duration event) — :func:`repro.obs.validate_chrome_trace` re-checks
  exactly what Perfetto assumes;
* the observable run *is* the untraced run: suite bytes are identical
  with ``--trace`` on and off, and the deterministic counter/histogram
  snapshot is invariant across ``--jobs`` and shard plans;
* worker lanes merge deterministically: ``--jobs 1`` and ``--jobs 4``
  over the same shard plan produce identically-labeled lanes with the
  same span populations.
"""

from __future__ import annotations

import json
from collections import Counter
from io import StringIO

import pytest

from repro.cli import main
from repro.models import x86t_elt
from repro.obs import (
    MANIFEST_KIND,
    NULL_REGISTRY,
    NULL_TRACER,
    Histogram,
    MetricsRegistry,
    Observation,
    ProgressReporter,
    Tracer,
    build_manifest,
    chrome_trace,
    current_registry,
    current_tracer,
    jsonl_records,
    list_manifests,
    load_manifest,
    progress_enabled,
    registry_from_suite_stats,
    store_manifest,
    validate_chrome_trace,
    write_trace,
)
from repro.orchestrate import run_sharded
from repro.synth import SynthesisConfig, synthesize


def config_for(axiom: str = "sc_per_loc", bound: int = 4) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)


class TestTracer:
    def test_nesting_and_deterministic_ids(self) -> None:
        tracer = Tracer("t")
        with tracer.span("outer", category="test"):
            with tracer.span("inner", category="test", detail=1):
                pass
        assert [s.name for s in tracer.spans] == ["outer", "inner"]
        outer, inner = tracer.spans
        assert outer.span_id == 1 and inner.span_id == 2
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert inner.args == {"detail": 1}
        assert 0 <= outer.start_s <= inner.start_s
        assert inner.end_s <= outer.end_s

    def test_begin_end_api(self) -> None:
        tracer = Tracer("t")
        span = tracer.begin("loop-body", category="test")
        tracer.end(span)
        tracer.end(None)  # no-op, mirrors the disabled path
        assert [s.name for s in tracer.spans] == ["loop-body"]
        assert tracer.spans[0].end_s >= tracer.spans[0].start_s

    def test_null_tracer_is_falsy_and_inert(self) -> None:
        assert not NULL_TRACER
        with NULL_TRACER.span("anything", category="x") as span:
            assert span is None
        assert NULL_TRACER.begin("anything") is None
        NULL_TRACER.end(None)

    def test_adopted_batches_keep_arrival_order(self) -> None:
        coordinator = Tracer("main")
        for label in ("s0/2", "s1/2"):
            worker = Tracer(label)
            with worker.span("shard", category="orchestrate"):
                pass
            coordinator.adopt(worker.batch())
        coordinator.adopt(None)  # cached shard: nothing to adopt
        assert [b.label for b in coordinator.batches] == ["s0/2", "s1/2"]


class TestMetricsRegistry:
    def test_histogram_buckets_are_integer_exact(self) -> None:
        histogram = Histogram()
        for value in (0, 1, 2, 3, 4, 1024):
            histogram.observe(value)
        snap = histogram.snapshot()
        assert snap["count"] == 6
        assert snap["total"] == 1034
        assert snap["min"] == 0 and snap["max"] == 1024

    def test_absorb_is_commutative(self) -> None:
        def build(values):
            registry = MetricsRegistry()
            for value in values:
                registry.inc("c", value)
                registry.observe("h", value)
                registry.set_gauge("g", value)
            return registry

        left = MetricsRegistry()
        left.absorb(build([1, 2]))
        left.absorb(build([3]))
        right = MetricsRegistry()
        right.absorb(build([3]))
        right.absorb(build([1, 2]))
        assert left.snapshot() == right.snapshot()

    def test_informational_metrics_stay_out_of_deterministic_snapshot(
        self,
    ) -> None:
        registry = MetricsRegistry()
        registry.inc("suite.interesting", 2)
        registry.inc("fuzz.oracle_memo_hits", 5, informational=True)
        deterministic = registry.deterministic_snapshot()
        assert deterministic["counters"] == {"suite.interesting": 2}
        assert "fuzz.oracle_memo_hits" not in deterministic["counters"]
        assert registry.snapshot()["informational"]["counters"] == {
            "fuzz.oracle_memo_hits": 5
        }

    def test_null_registry_is_falsy_and_inert(self) -> None:
        assert not NULL_REGISTRY
        NULL_REGISTRY.inc("x")
        NULL_REGISTRY.observe("h", 3)
        NULL_REGISTRY.absorb(MetricsRegistry())


class TestChromeExport:
    def _tracer(self) -> Tracer:
        tracer = Tracer("main")
        with tracer.span("outer", category="test"):
            with tracer.span("inner", category="test"):
                pass
        return tracer

    def test_valid_trace_structure(self) -> None:
        payload = chrome_trace(self._tracer(), stage_times={"enumerate": 0.25})
        stats = validate_chrome_trace(payload)
        assert stats["spans"] == 3  # outer + inner + 1 stage span
        names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert names == {"main", "stage totals (aggregated)"}

    def test_stage_lane_reproduces_profile_totals(self) -> None:
        stage_times = {"enumerate": 0.25, "classify": 0.5}
        payload = chrome_trace(self._tracer(), stage_times=stage_times)
        totals = {
            event["name"]: event["args"]["total_s"]
            for event in payload["traceEvents"]
            if event["ph"] == "B" and event.get("args", {}).get("synthetic")
        }
        assert totals == {"stage:enumerate": 0.25, "stage:classify": 0.5}

    def test_validator_rejects_unclosed_span(self) -> None:
        event = {"name": "x", "ph": "B", "pid": 1, "tid": 0, "ts": 0.0}
        with pytest.raises(ValueError, match="unclosed"):
            validate_chrome_trace({"traceEvents": [event]})

    def test_validator_rejects_mismatched_close(self) -> None:
        events = [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 0.0},
            {"name": "b", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0},
        ]
        with pytest.raises(ValueError, match="closes"):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_decreasing_timestamps(self) -> None:
        events = [
            {"name": "a", "ph": "B", "pid": 1, "tid": 0, "ts": 5.0},
            {"name": "a", "ph": "E", "pid": 1, "tid": 0, "ts": 1.0},
        ]
        with pytest.raises(ValueError, match="decreases"):
            validate_chrome_trace({"traceEvents": events})

    def test_validator_rejects_missing_tid(self) -> None:
        events = [{"name": "a", "ph": "B", "pid": 1, "ts": 0.0}]
        with pytest.raises(ValueError, match="tid"):
            validate_chrome_trace({"traceEvents": events})

    def test_jsonl_export_record_types(self, tmp_path) -> None:
        records = jsonl_records(
            self._tracer(),
            stage_times={"enumerate": 0.25},
            metrics={"counters": {}},
            manifest={"kind": MANIFEST_KIND},
        )
        types = [record["type"] for record in records]
        assert types[0] == "meta"
        assert types.count("span") == 2
        assert {"stage-totals", "metrics", "manifest"} <= set(types)
        path = tmp_path / "trace.jsonl"
        write_trace(str(path), self._tracer())
        lines = path.read_text().splitlines()
        assert all(json.loads(line)["type"] for line in lines)


class TestManifests:
    def test_round_trip_with_artifact_digest(self, tmp_path) -> None:
        artifact = tmp_path / "suite.elts"
        artifact.write_text("elt\n")
        manifest = build_manifest(
            command="synthesize",
            identity={"bound": 4},
            identity_key="abc123",
            counters={"counters": {"suite.interesting": 1}, "histograms": {}},
            wall_s=1.5,
            cpu_s=1.0,
            stage_times={"enumerate": 0.5},
            artifacts={"suite": artifact},
        )
        assert manifest["kind"] == MANIFEST_KIND
        assert manifest["artifacts"]["suite"]["sha256"]
        path = store_manifest(tmp_path, "abc123", manifest)
        assert load_manifest(path) == manifest
        assert list_manifests(tmp_path) == [manifest]

    def test_unreadable_artifact_digests_to_none(self, tmp_path) -> None:
        manifest = build_manifest(
            command="synthesize",
            identity={},
            identity_key="k",
            counters={},
            wall_s=0.0,
            cpu_s=0.0,
            artifacts={"missing": tmp_path / "nope"},
        )
        assert manifest["artifacts"]["missing"]["sha256"] is None

    def test_list_skips_foreign_json(self, tmp_path) -> None:
        directory = tmp_path / "manifests"
        directory.mkdir()
        (directory / "junk.json").write_text("{\"kind\": \"other\"}")
        assert list_manifests(tmp_path) == []


class TestObservation:
    def test_disabled_observation_installs_nothing(self) -> None:
        obs = Observation(trace_path=None)
        assert not obs.enabled
        with obs:
            assert not current_tracer()
            assert not current_registry()
        assert obs.finish(command="noop") is None

    def test_traced_synthesis_round_trip(self, tmp_path) -> None:
        trace_path = tmp_path / "run.json"
        obs = Observation(trace_path=str(trace_path))
        with obs:
            result = synthesize(config_for())
        manifest = obs.finish(
            command="synthesize",
            identity={"bound": 4},
            identity_key="deadbeef",
            stats=result.stats,
            cache_dir=str(tmp_path),
        )
        payload = json.loads(trace_path.read_text())
        stats = validate_chrome_trace(payload)
        assert stats["spans"] > 0
        counters = manifest["counters"]["counters"]
        assert counters["suite.unique_programs"] == result.count
        assert counters["suite.interesting"] >= result.count
        assert counters["suite.executions_enumerated"] > 0
        assert "pipeline.witnesses_per_program" in manifest["counters"][
            "histograms"
        ]
        assert list_manifests(tmp_path)[0] == manifest
        # The tracer/registry are restored after the with-block.
        assert not current_tracer()
        assert not current_registry()

    def test_minimality_counters_say_how_checks_were_decided(self) -> None:
        names = (
            "relax.decided_by_violation",
            "relax.views_evaluated",
            "relax.relaxations_rebuilt",
        )
        runs = []
        for _ in range(2):
            obs = Observation(enabled=True)
            with obs:
                result = synthesize(SynthesisConfig(bound=6))
            snapshot = obs.registry.snapshot()
            decided = snapshot["informational"]["counters"]
            runs.append(
                {name: n for name, n in decided.items() if name.startswith("relax.")}
            )
            # Most checks end "not minimal" on the parent's violation alone.
            # Which cycle decides depends on the hash seed, so the counters
            # stay out of the deterministic snapshot.
            assert decided["relax.decided_by_violation"] > result.stats.minimal
            for name in names:
                assert decided[name] > 0, name
                assert name not in snapshot["counters"]
        # No minimality verdict outlives its pass, so a second identical
        # run in the same process decides, and counts, every check again.
        assert runs[1] == runs[0]


class TestCrossProcessDeterminism:
    @staticmethod
    def _observed_run(jobs: int):
        obs = Observation(enabled=True)
        with obs:
            orchestrated = run_sharded(config_for(), jobs=jobs, shard_count=4)
        lanes = [
            (batch.label, Counter(span.name for span in batch.spans))
            for batch in obs.tracer.batches
        ]
        return orchestrated.result, lanes, obs.registry.deterministic_snapshot()

    def test_jobs1_and_jobs2_merge_identically(self) -> None:
        serial_result, serial_lanes, serial_counters = self._observed_run(1)
        parallel_result, parallel_lanes, parallel_counters = self._observed_run(2)
        assert [elt.key for elt in serial_result.elts] == [
            elt.key for elt in parallel_result.elts
        ]
        assert serial_lanes == parallel_lanes
        assert serial_counters == parallel_counters
        assert [label for label, _ in serial_lanes] == [
            "s0/4", "s1/4", "s2/4", "s3/4",
        ]


class TestCliTraceSurface:
    def test_suite_bytes_identical_with_and_without_trace(
        self, tmp_path, capsys
    ) -> None:
        traced = tmp_path / "traced.elts"
        plain = tmp_path / "plain.elts"
        trace = tmp_path / "trace.json"
        assert main(
            [
                "synthesize", "--bound", "4", "--axiom", "sc_per_loc",
                "--save", str(traced), "--trace", str(trace),
            ]
        ) == 0
        assert main(
            [
                "synthesize", "--bound", "4", "--axiom", "sc_per_loc",
                "--save", str(plain),
            ]
        ) == 0
        capsys.readouterr()
        assert traced.read_bytes() == plain.read_bytes()
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        manifest = payload["otherData"]["manifest"]
        assert manifest["artifacts"]["suite"]["path"] == str(traced)

    def test_trace_jsonl_extension_switches_format(
        self, tmp_path, capsys
    ) -> None:
        trace = tmp_path / "trace.jsonl"
        assert main(
            [
                "synthesize", "--bound", "4", "--axiom", "invlpg",
                "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert records[0]["type"] == "meta"
        assert any(record["type"] == "manifest" for record in records)

    def test_diff_trace_covers_shards_and_profile_reconciles(
        self, tmp_path, capsys
    ) -> None:
        trace = tmp_path / "diff.json"
        code = main(
            [
                "diff", "--reference", "x86t_elt", "--subject", "x86t_amd_bug",
                "--bound", "4", "--jobs", "2", "--trace", str(trace),
                "--profile", "--json",
            ]
        )
        assert code == 0  # bound 4 does not discriminate this pair
        captured = capsys.readouterr()
        profile = json.loads(
            captured.err[captured.err.index("{"):].rsplit("}", 1)[0] + "}"
        )
        assert profile["kind"] == "stage-profile"
        payload = json.loads(trace.read_text())
        validate_chrome_trace(payload)
        lane_names = {
            event["args"]["name"]
            for event in payload["traceEvents"]
            if event["ph"] == "M" and event["name"] == "thread_name"
        }
        assert {f"s{index}/8" for index in range(8)} <= lane_names
        totals = {
            event["name"][len("stage:"):]: event["args"]["total_s"]
            for event in payload["traceEvents"]
            if event["ph"] == "B" and event.get("args", {}).get("synthetic")
        }
        # The stage lane carries exactly the --profile numbers.
        assert totals == profile["stages"]

    def test_stats_subcommand_renders_manifests(self, tmp_path, capsys) -> None:
        cache = tmp_path / "cache"
        trace = tmp_path / "t.json"
        assert main(
            [
                "synthesize", "--bound", "4", "--axiom", "sc_per_loc",
                "--cache-dir", str(cache), "--trace", str(trace),
            ]
        ) == 0
        capsys.readouterr()
        assert main(["stats", "--cache-dir", str(cache)]) == 0
        out = capsys.readouterr().out
        assert "run manifests" in out
        assert "synthesize" in out
        assert main(["stats", "--cache-dir", str(cache), "--json"]) == 0
        manifests = json.loads(capsys.readouterr().out)
        assert manifests[0]["kind"] == MANIFEST_KIND
        assert main(
            ["stats", "--cache-dir", str(cache), "--key", "zzzz"]
        ) == 0
        assert "no run manifests" in capsys.readouterr().out


class TestProfileIsARegistryView:
    def test_stage_profile_schema_pinned(self) -> None:
        from repro.reporting import render_stage_profile

        result = synthesize(config_for())
        document = json.loads(
            render_stage_profile(result.stats, result.stats.runtime_s)
        )
        assert document["kind"] == "stage-profile"
        assert document["schema"] == 1
        expected = {
            name: round(seconds, 6)
            for name, seconds in result.stats.stage_times.items()
        }
        assert document["stages"] == expected
        registry = registry_from_suite_stats(result.stats)
        assert document["stages"] == {
            name[len("stage_s."):]: round(value, 6)
            for name, value in registry.gauges.items()
            if name.startswith("stage_s.")
        }


class TestProgressReporter:
    def test_disabled_for_non_tty(self) -> None:
        assert not progress_enabled(StringIO())

    def test_disabled_under_ci(self, monkeypatch) -> None:
        monkeypatch.setenv("CI", "1")

        class FakeTty(StringIO):
            def isatty(self) -> bool:
                return True

        assert not progress_enabled(FakeTty())

    def test_renders_and_clears_line(self) -> None:
        stream = StringIO()
        progress = ProgressReporter(
            "synthesize", 2, stream=stream, enabled=True
        )
        progress.update("s0/2")
        progress.update("s1/2")
        progress.finish()
        output = stream.getvalue()
        assert "[synthesize] 1/2 shards" in output
        assert "[synthesize] 2/2 shards" in output
        assert output.endswith("\r")

    def test_disabled_reporter_writes_nothing(self) -> None:
        stream = StringIO()
        progress = ProgressReporter("x", 3, stream=stream, enabled=False)
        progress.update()
        progress.finish()
        assert stream.getvalue() == ""
