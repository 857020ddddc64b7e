"""Tests for the persistent whole-result store and cached runs/sweeps."""

from __future__ import annotations

import json
from dataclasses import replace

from repro.models import x86t_elt
from repro.orchestrate import (
    SuiteStore,
    config_identity,
    run_sharded,
    run_sweep_sharded,
    store_key,
)
from repro.orchestrate.store import (
    KIND_DIFF_CELL,
    KIND_FUZZ_RUN,
    KIND_SUITE,
    payload_digest,
)
from repro.synth import SynthesisConfig, synthesize


def config_for(axiom: str, bound: int = 4) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)


class TestEntryKeys:
    def test_key_is_stable(self) -> None:
        assert store_key(
            config_identity(config_for("invlpg")), KIND_SUITE
        ) == store_key(config_identity(config_for("invlpg")), KIND_SUITE)

    def test_key_separates_configs_and_kinds(self) -> None:
        base = config_for("invlpg")
        identity = config_identity(base)
        keys = {
            store_key(identity, KIND_SUITE),
            store_key(config_identity(replace(base, bound=5)), KIND_SUITE),
            store_key(config_identity(config_for("sc_per_loc")), KIND_SUITE),
            store_key(
                config_identity(replace(base, dirty_bit_as_rmw=True)),
                KIND_SUITE,
            ),
            store_key(identity, KIND_DIFF_CELL),
            store_key(identity, KIND_FUZZ_RUN),
        }
        assert len(keys) == 6


class TestStorePrimitives:
    def test_roundtrip_and_counters(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        assert store.get("absent" * 5) is None
        assert store.counters.misses == 1
        store.put("somekey", {"payload": 1}, {"kind": "test"})
        assert store.counters.stores == 1
        assert store.get("somekey") == {"payload": 1}
        assert store.counters.hits == 1

    def test_corrupt_payload_is_quarantined_not_a_plain_miss(
        self, tmp_path
    ) -> None:
        store = SuiteStore(tmp_path)
        store.put("somekey", [1, 2], {"kind": "test"})
        (store.entries_dir / "somekey.pkl").write_bytes(b"not a pickle")
        assert store.get("somekey") is None
        # Damage counts under `corrupt` (distinct from `misses`: a true
        # absence) and the entry is moved aside so a rewrite heals it.
        assert store.counters.misses == 0
        assert store.counters.corrupt == 1
        assert not (store.entries_dir / "somekey.pkl").exists()
        assert (store.quarantine_dir / "somekey.pkl").exists()
        assert store.get("somekey") is None  # now a true absence
        assert store.counters.misses == 1

    def _damaged(self, tmp_path, damage) -> SuiteStore:
        """A store whose one entry ``damage(store)`` has just broken,
        read back once."""
        store = SuiteStore(tmp_path)
        store.put("somekey", [1, 2], {"kind": "test"})
        damage(store)
        assert store.get("somekey") is None
        return store

    def _assert_quarantined(self, store: SuiteStore) -> None:
        assert store.counters.corrupt == 1
        assert store.counters.misses == 0
        assert not (store.entries_dir / "somekey.pkl").exists()
        assert (store.quarantine_dir / "somekey.pkl").exists()

    def test_flipped_payload_bit_fails_the_digest(self, tmp_path) -> None:
        def flip(store):
            path = store.entries_dir / "somekey.pkl"
            data = bytearray(path.read_bytes())
            data[-1] ^= 0x01
            path.write_bytes(bytes(data))

        store = self._damaged(tmp_path, flip)
        self._assert_quarantined(store)
        # The meta went aside with its payload.
        assert (store.quarantine_dir / "somekey.json").exists()

    def test_missing_meta_is_quarantined(self, tmp_path) -> None:
        def drop_meta(store):
            (store.entries_dir / "somekey.json").unlink()

        self._assert_quarantined(self._damaged(tmp_path, drop_meta))

    def test_undigested_meta_is_quarantined(self, tmp_path) -> None:
        """An entry written before payload digests existed is never
        unpickled unverified."""

        def strip_digest(store):
            path = store.entries_dir / "somekey.json"
            meta = json.loads(path.read_text())
            del meta["payload_blake2b"]
            path.write_text(json.dumps(meta))

        self._assert_quarantined(self._damaged(tmp_path, strip_digest))

    def test_writes_leave_no_temporary_files(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("first", {"x": 1}, {"kind": "test"})
        store.put("first", {"x": 2}, {"kind": "test"})  # overwrite
        store.put("second", {"y": 1}, {"kind": "test"})
        assert sorted(path.name for path in store.entries_dir.iterdir()) == [
            "first.json",
            "first.pkl",
            "second.json",
            "second.pkl",
        ]
        assert store.get("first") == {"x": 2}

    def test_entries_are_kind_specific(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        identity = config_identity(config_for("invlpg"))
        result = synthesize(config_for("invlpg"))
        store.save(identity, KIND_SUITE, result)
        assert store.load(identity, KIND_DIFF_CELL) is None
        assert store.load(identity, KIND_FUZZ_RUN) is None
        loaded = store.load(identity, KIND_SUITE)
        assert loaded.keys() == result.keys()
        meta = store._read_meta(store_key(identity, KIND_SUITE))
        assert meta["kind"] == KIND_SUITE
        assert meta["identity"] == identity

    def test_timed_out_results_are_never_cached(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        config = replace(config_for("sc_per_loc", bound=6), time_budget_s=0.0)
        orchestrated = run_sharded(config, jobs=1, store=store)
        assert orchestrated.result.stats.timed_out
        assert store.counters.stores == 0
        # And a later budget-free run is not poisoned by the partial one.
        full = run_sharded(config_for("sc_per_loc", bound=6), jobs=1, store=store)
        assert not full.result.stats.timed_out
        serial = synthesize(config_for("sc_per_loc", bound=6))
        assert full.result.keys() == serial.keys()


class TestResumableRuns:
    def test_rerun_hits_suite_cache(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        first = run_sharded(config_for("invlpg"), jobs=1, store=store)
        assert not first.suite_cache_hit
        second = run_sharded(config_for("invlpg"), jobs=1, store=store)
        assert second.suite_cache_hit
        assert second.result.keys() == first.result.keys()
        assert store.counters.hits >= 1


class TestResumableSweeps:
    def test_resumed_sweep_skips_finished_points(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        base = SynthesisConfig(bound=5, model=x86t_elt())

        # "Interrupted" sweep: only bound 4 completed before the cut.
        partial, partial_records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=4, store=store
        )
        assert [r.suite_cache_hit for r in partial_records] == [False]
        stores_before = store.counters.stores
        hits_before = store.counters.hits

        # Resume: rerun over the full range with the same store.
        resumed, records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=5, store=store
        )
        assert [r.suite_cache_hit for r in records] == [True, False]
        assert store.counters.hits > hits_before
        assert [point.bound for point in resumed.points] == [4, 5]
        assert (
            resumed.points[0].result.keys()
            == partial.points[0].result.keys()
        )
        # Finished point added no new entries; only bound 5 was stored.
        assert store.counters.stores > stores_before

        # A third, fully-resumed run recomputes nothing at all.
        final_stores = store.counters.stores
        again, again_records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=5, store=store
        )
        assert [r.suite_cache_hit for r in again_records] == [True, True]
        assert store.counters.stores == final_stores

    def test_failed_shard_ends_the_sweep_but_keeps_finished_points(
        self, tmp_path, monkeypatch
    ) -> None:
        import pytest

        import repro.orchestrate.runner as runner_module
        from repro.errors import ShardFailure

        real_worker = runner_module.run_shard

        def bound_five_breaks(task):
            if task.config.bound == 5:
                raise RuntimeError("bound 5 broke")
            return real_worker(task)

        monkeypatch.setattr(runner_module, "run_shard", bound_five_breaks)
        store = SuiteStore(tmp_path)
        base = SynthesisConfig(bound=5, model=x86t_elt())
        with pytest.raises(ShardFailure) as excinfo:
            run_sweep_sharded(
                base, axioms=["invlpg"], min_bound=4, max_bound=6, store=store
            )
        assert excinfo.value.label == "s0/1"
        # Bound 4 finished before the failure; bound 6 never started.
        assert store.counters.stores == 1

        monkeypatch.setattr(runner_module, "run_shard", real_worker)
        sweep, records = run_sweep_sharded(
            base, axioms=["invlpg"], min_bound=4, max_bound=6, store=store
        )
        assert [r.suite_cache_hit for r in records] == [True, False, False]
        assert [point.bound for point in sweep.points] == [4, 5, 6]


class TestStaleEntries:
    def test_entry_naming_a_deleted_class_is_quarantined_and_recomputed(
        self, tmp_path, monkeypatch
    ) -> None:
        """Diff cells cached before discriminating ELTs became
        ``SynthesizedElt`` records pickle a class that no longer exists.
        Their digests still verify, so only unpickling fails: the store
        must quarantine the entry and the run recompute the same cell."""
        import json
        import pickle

        import pytest

        from repro.conformance import (
            DiffConfig,
            cell_to_json,
            diff_identity,
            run_diff,
        )
        from repro.conformance import diff as diff_module
        from repro.litmus import suite_from_diff
        from repro.models import x86t_amd_bug
        from repro.orchestrate.store import KIND_DIFF_CELL, store_key

        def cell_bytes(cell) -> str:
            document = cell_to_json(cell)
            del document["stats"]["runtime_s"]
            return json.dumps(document, sort_keys=True) + suite_from_diff(
                cell
            ).dumps()

        diff = DiffConfig(
            base=SynthesisConfig(bound=5, model=x86t_elt()),
            subject=x86t_amd_bug(),
        )
        fresh = run_diff(diff).cell
        assert fresh.elts

        class DiscriminatingElt:  # stands in for the deleted class
            pass

        DiscriminatingElt.__module__ = diff_module.__name__
        DiscriminatingElt.__qualname__ = "DiscriminatingElt"
        monkeypatch.setattr(
            diff_module, "DiscriminatingElt", DiscriminatingElt, raising=False
        )
        stale_elts = []
        for elt in fresh.elts:
            stale_elt = DiscriminatingElt()
            stale_elt.__dict__.update(vars(elt))
            stale_elts.append(stale_elt)
        store = SuiteStore(tmp_path)
        key = store_key(diff_identity(diff), KIND_DIFF_CELL)
        store.put(key, replace(fresh, elts=stale_elts), {"kind": KIND_DIFF_CELL})
        monkeypatch.delattr(diff_module, "DiscriminatingElt")

        payload = (store.entries_dir / f"{key}.pkl").read_bytes()
        # The digest vouches for the bytes.
        assert payload_digest(payload) == store._read_meta(key)["payload_blake2b"]
        with pytest.raises(AttributeError):
            pickle.loads(payload)

        rerun = run_diff(diff, store=store)
        assert not rerun.cell_cache_hit
        assert store.counters.corrupt == 1
        assert (store.quarantine_dir / f"{key}.pkl").read_bytes() == payload
        assert cell_bytes(rerun.cell) == cell_bytes(fresh)
        # The recomputed cell replaced the stale entry.
        healed = run_diff(diff, store=store)
        assert healed.cell_cache_hit
        assert cell_bytes(healed.cell) == cell_bytes(fresh)
