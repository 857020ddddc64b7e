"""Tests for repro.resilience: retry policy, fault injection, the
retrying scheduler, store integrity, and cooperative solver deadlines."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import pytest

from repro.conformance import DiffConfig, run_all_pairs, run_diff
from repro.errors import ShardFailure, SolverInterrupted
from repro.litmus import suite_from_synthesis
from repro.models import x86t_amd_bug, x86t_elt
from repro.obs import MetricsRegistry, install_registry
from repro.orchestrate import (
    KIND_SUITE,
    SuiteStore,
    config_identity,
    run_sharded,
    run_sweep_sharded,
)
from repro.orchestrate.shards import ShardSpec
from repro.reporting import render_shard_runtimes
from repro.resilience import (
    DEFAULT_RETRY_POLICY,
    FaultPlan,
    FileLock,
    InjectedFault,
    RetryPolicy,
    current_deadline,
    deadline_exceeded,
    deadline_scope,
    default_chaos_plan,
    flip_bit,
    run_resilient_tasks,
)
from repro.sat import CdclSolver
from repro.synth import SynthesisConfig, synthesize, synthesize_sweep


def config_for(axiom: str, bound: int = 4) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), target_axiom=axiom)


def suite_bytes(result) -> bytes:
    return suite_from_synthesis(result).dumps().encode("utf-8")


class TestRetryPolicy:
    def test_max_attempts_counts_the_first_run(self) -> None:
        assert RetryPolicy(max_retries=0).max_attempts == 1
        assert RetryPolicy(max_retries=3).max_attempts == 4
        assert DEFAULT_RETRY_POLICY.max_attempts == 3

    def test_backoff_is_deterministic_and_doubling(self) -> None:
        policy = RetryPolicy(backoff_base_s=0.05, backoff_factor=2.0)
        assert [policy.backoff_s(a) for a in (1, 2, 3)] == [0.05, 0.1, 0.2]
        assert policy.backoff_s(1) == policy.backoff_s(1)

    def test_zero_base_disables_backoff(self) -> None:
        policy = RetryPolicy(backoff_base_s=0.0)
        assert policy.backoff_s(1) == 0.0
        assert policy.backoff_s(5) == 0.0


class TestFaultPlan:
    def test_same_seed_same_decisions(self) -> None:
        a = default_chaos_plan(42)
        b = default_chaos_plan(42)
        for label in ("s0/4", "s1/4", "s7/8"):
            assert a.crashes(label) == b.crashes(label)
            assert a.crash_mode(label, 1) == b.crash_mode(label, 1)
            assert a.delay_s(label, 1) == b.delay_s(label, 1)

    def test_different_seeds_eventually_differ(self) -> None:
        labels = [f"s{i}/16" for i in range(16)]
        a = [default_chaos_plan(1).crashes(label) for label in labels]
        b = [default_chaos_plan(2).crashes(label) for label in labels]
        assert a != b

    def test_inline_crash_downgrades_to_raise(self) -> None:
        # exit-mode only hard-exits inside a worker process; inline it
        # must raise so the coordinating process survives.
        plan = FaultPlan(seed=0, crash_rate=1.0, exit_rate=1.0)
        with pytest.raises(InjectedFault):
            plan.apply_worker_fault("s0/2", 1)
        # Beyond crash_attempts the shard passes.
        plan.apply_worker_fault("s0/2", 2)

    def test_store_corruption_is_first_write_only(self) -> None:
        plan = FaultPlan(seed=0, store_corrupt_rate=1.0)
        assert plan.take_store_corruption("deadbeef")
        assert not plan.take_store_corruption("deadbeef")
        assert plan.take_store_corruption("cafef00d")

    def test_flip_bit_changes_exactly_one_bit(self) -> None:
        data = bytes(range(16))
        flipped = flip_bit(data, 133)
        assert len(flipped) == len(data)
        diff = [i for i in range(16) if flipped[i] != data[i]]
        assert len(diff) == 1
        assert flip_bit(flipped, 133) == data
        assert flip_bit(b"", 3) == b""


class TestDeadlineScope:
    def test_installs_and_restores(self) -> None:
        assert current_deadline() is None
        with deadline_scope(100.0):
            assert current_deadline() == 100.0
        assert current_deadline() is None

    def test_nested_scopes_keep_the_earliest(self) -> None:
        with deadline_scope(50.0):
            with deadline_scope(80.0):
                assert current_deadline() == 50.0
            with deadline_scope(20.0):
                assert current_deadline() == 20.0
            assert current_deadline() == 50.0

    def test_none_keeps_the_enclosing_deadline(self) -> None:
        with deadline_scope(50.0):
            with deadline_scope(None):
                assert current_deadline() == 50.0

    def test_deadline_exceeded_tracks_the_clock(self) -> None:
        assert not deadline_exceeded()  # no deadline installed
        with deadline_scope(time.monotonic() + 60.0):
            assert not deadline_exceeded()
        with deadline_scope(time.monotonic() - 1.0):
            assert deadline_exceeded()


# -- the scheduler on synthetic tasks ---------------------------------

FAST = RetryPolicy(max_retries=2, backoff_base_s=0.0)


@dataclass(frozen=True)
class FlakyTask:
    """Succeeds only from attempt ``succeed_at`` on."""

    spec: ShardSpec
    succeed_at: int = 1
    attempt: int = 1


def flaky_worker(task: FlakyTask) -> str:
    if task.attempt < task.succeed_at:
        raise RuntimeError(f"transient failure on attempt {task.attempt}")
    return f"{task.spec.label}@{task.attempt}"


class TestSchedulerInline:
    def test_clean_tasks_run_once(self) -> None:
        tasks = [(i, FlakyTask(ShardSpec(i, 3))) for i in range(3)]
        outcome = run_resilient_tasks(tasks, flaky_worker, jobs=1, policy=FAST)
        assert outcome.results == {0: "s0/3@1", 1: "s1/3@1", 2: "s2/3@1"}
        assert not outcome.failures
        assert not outcome.stats.any_event()

    def test_transient_failure_is_retried_to_success(self) -> None:
        tasks = [(0, FlakyTask(ShardSpec(0, 1), succeed_at=3))]
        outcome = run_resilient_tasks(tasks, flaky_worker, jobs=1, policy=FAST)
        assert outcome.results == {0: "s0/1@3"}
        assert outcome.stats.retries == 2
        assert not outcome.failures

    def test_poison_task_is_quarantined_with_attempt_count(self) -> None:
        tasks = [
            (0, FlakyTask(ShardSpec(0, 2), succeed_at=99)),
            (1, FlakyTask(ShardSpec(1, 2))),
        ]
        outcome = run_resilient_tasks(tasks, flaky_worker, jobs=1, policy=FAST)
        # The healthy task still completed; the poison one is on record.
        assert outcome.results == {1: "s1/2@1"}
        assert [f.label for f in outcome.failures] == ["s0/2"]
        assert outcome.failures[0].attempts == FAST.max_attempts
        assert outcome.failures[0].kind == "exception"
        assert "transient failure" in outcome.failures[0].error
        assert outcome.stats.quarantined == 1

    def test_quarantine_false_raises_shard_failure(self) -> None:
        tasks = [(0, FlakyTask(ShardSpec(0, 1), succeed_at=99))]
        policy = replace(FAST, quarantine=False)
        with pytest.raises(ShardFailure) as excinfo:
            run_resilient_tasks(tasks, flaky_worker, jobs=1, policy=policy)
        assert excinfo.value.label == "s0/1"
        assert excinfo.value.attempts == policy.max_attempts

    def test_events_surface_as_informational_counters(self) -> None:
        registry = MetricsRegistry()
        previous = install_registry(registry)
        try:
            tasks = [(0, FlakyTask(ShardSpec(0, 1), succeed_at=2))]
            run_resilient_tasks(tasks, flaky_worker, jobs=1, policy=FAST)
        finally:
            install_registry(previous)
        assert registry.info_counters.get("resilience.retries") == 1
        # Informational: never part of the deterministic manifest surface.
        assert "resilience.retries" not in registry.counters


class TestSchedulerTimeouts:
    def test_stuck_shard_is_recycled_and_retried(self) -> None:
        """A wedged worker can't be cancelled: the pool is recycled, the
        expired shard charged an attempt, and its retry completes."""
        from tests._scheduler_workers import SleepyTask, stuck_worker

        from repro.resilience import PoolManager

        tasks = [(i, SleepyTask(ShardSpec(i, 2))) for i in range(2)]
        policy = RetryPolicy(shard_timeout_s=3.0, backoff_base_s=0.0)
        pool = PoolManager(2)
        try:
            outcome = run_resilient_tasks(
                tasks, stuck_worker, jobs=2, policy=policy, pool=pool
            )
        finally:
            pool.shutdown()
        assert not outcome.failures
        assert set(outcome.results) == {0, 1}
        # The stuck shard needed at least a second attempt; the healthy
        # one may have been collateral of the recycle but still finished.
        assert int(outcome.results[0].rsplit("@", 1)[1]) >= 2
        assert outcome.stats.shard_timeouts >= 1
        assert outcome.stats.pool_rebuilds >= 1


# -- the real orchestrator under injected faults ----------------------


class TestChaosOrchestration:
    def test_worker_kills_recover_byte_identical(self) -> None:
        """Every shard hard-exits its worker on attempts 1 and 2 (>= 2
        kills, pool rebuilt after each collapse); retries succeed and the
        merged suite is byte-identical to the fault-free serial run."""
        config = config_for("sc_per_loc")
        plan = FaultPlan(seed=3, crash_rate=1.0, exit_rate=1.0, crash_attempts=2)
        chaotic = run_sharded(
            config,
            jobs=2,
            shard_count=4,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert not chaotic.degraded
        assert chaotic.resilience.pool_rebuilds >= 2
        serial = synthesize(config_for("sc_per_loc"))
        assert suite_bytes(chaotic.result) == suite_bytes(serial)

    def test_raise_mode_crashes_recover_inline(self) -> None:
        config = config_for("invlpg")
        plan = FaultPlan(seed=5, crash_rate=1.0, exit_rate=0.0, crash_attempts=1)
        chaotic = run_sharded(
            config,
            jobs=1,
            shard_count=3,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert not chaotic.degraded
        assert chaotic.resilience.retries == 3  # one per shard
        serial = synthesize(config_for("invlpg"))
        assert suite_bytes(chaotic.result) == suite_bytes(serial)

    def test_poison_shard_degrades_but_merges_the_rest(self) -> None:
        # Seed 1 targets exactly s0/4 (asserted below so a FaultPlan
        # hashing change can't silently defang this test); its crashes
        # outlast the retry budget, so it is quarantined.
        plan = FaultPlan(seed=1, crash_rate=0.25, exit_rate=0.0, crash_attempts=99)
        targeted = [f"s{i}/4" for i in range(4) if plan.crashes(f"s{i}/4")]
        assert targeted == ["s0/4"]

        config = config_for("sc_per_loc")
        degraded = run_sharded(
            config,
            jobs=1,
            shard_count=4,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert degraded.degraded
        assert degraded.result.stats.degraded
        assert [f.label for f in degraded.failures] == ["s0/4"]
        assert degraded.report.failed_shards == ["s0/4"]
        # The other three shards merged: a strict, non-empty subset.
        serial = synthesize(config_for("sc_per_loc"))
        assert 0 < degraded.result.count < serial.count
        assert set(degraded.result.keys()) < set(serial.keys())
        # And the run report says so out loud.
        rendered = render_shard_runtimes(degraded)
        assert "DEGRADED" in rendered
        assert "s0/4" in rendered

    def test_degraded_results_are_never_cached(self, tmp_path) -> None:
        plan = FaultPlan(seed=1, crash_rate=0.25, exit_rate=0.0, crash_attempts=99)
        store = SuiteStore(tmp_path)
        config = config_for("sc_per_loc")
        policy = RetryPolicy(backoff_base_s=0.0)
        first = run_sharded(
            config, jobs=1, shard_count=4, store=store, retry=policy, faults=plan
        )
        assert first.degraded
        # The three completed shards were cached; the merged suite was not.
        assert store.load(config_identity(config), KIND_SUITE) is None
        # A fault-free rerun recomputes only the quarantined shard and
        # produces the complete suite.
        healed = run_sharded(config, jobs=1, shard_count=4, store=store)
        assert not healed.degraded
        assert healed.shard_cache_hits == 3
        assert healed.shard_cache_misses == 1
        serial = synthesize(config_for("sc_per_loc"))
        assert suite_bytes(healed.result) == suite_bytes(serial)

    def test_store_corruption_is_quarantined_and_healed_on_resume(
        self, tmp_path
    ) -> None:
        """A chaos plan flips a bit in every first store write; the
        resumed run quarantines the damage, recomputes, and still
        matches the fault-free bytes."""
        config = config_for("invlpg")
        corrupting = SuiteStore(
            tmp_path, faults=FaultPlan(seed=9, store_corrupt_rate=1.0)
        )
        first = run_sharded(config, jobs=1, shard_count=2, store=corrupting)
        assert not first.degraded  # in-memory result is unaffected

        resumed_store = SuiteStore(tmp_path)
        resumed = run_sharded(config, jobs=1, shard_count=2, store=resumed_store)
        assert resumed_store.counters.corrupt >= 1
        assert not resumed.suite_cache_hit  # the suite entry was corrupt
        serial = synthesize(config_for("invlpg"))
        assert suite_bytes(resumed.result) == suite_bytes(serial)
        # Third run: everything was re-written clean, so it's a pure hit.
        final = run_sharded(config, jobs=1, shard_count=2, store=resumed_store)
        assert final.suite_cache_hit


class TestChaosDiff:
    """The conformance pipelines run through the same scheduler."""

    def amd_diff(self, bound: int = 4) -> "DiffConfig":
        return DiffConfig(
            base=SynthesisConfig(bound=bound, model=x86t_elt()),
            subject=x86t_amd_bug(),
        )

    def test_diff_crashes_recover_identical_cell(self) -> None:
        plan = FaultPlan(seed=5, crash_rate=1.0, exit_rate=0.0, crash_attempts=1)
        chaotic = run_diff(
            self.amd_diff(),
            jobs=1,
            shard_count=3,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert not chaotic.degraded
        assert chaotic.resilience.retries == 3  # one per shard
        clean = run_diff(self.amd_diff(), jobs=1, shard_count=3)
        assert chaotic.cell.keys() == clean.cell.keys()

    def test_all_pairs_poison_task_degrades_every_riding_pair(self) -> None:
        # Seed 10 targets exactly the fused task for shard s0/2; every
        # pair rides every fused task, so all cells degrade but each
        # still merges its completed s1/2 shard.
        plan = FaultPlan(seed=10, crash_rate=0.25, exit_rate=0.0, crash_attempts=99)
        assert [l for l in ("s0/2", "s1/2") if plan.crashes(l)] == ["s0/2"]

        base = SynthesisConfig(bound=4, model=x86t_elt())
        pairs = [("sc", "x86tso"), ("x86t_elt", "x86t_amd_bug")]
        matrix, records = run_all_pairs(
            base,
            jobs=1,
            shard_count=2,
            pairs=pairs,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert len(records) == 2
        for record in records:
            assert record.degraded
            assert [f.label for f in record.failures] == ["s0/2"]
            assert record.report.failed_shards
            assert record.report.per_shard  # the healthy shard merged
        assert set(matrix.cells) == set(pairs)

    def test_all_pairs_degraded_cells_are_not_cached(self, tmp_path) -> None:
        plan = FaultPlan(seed=10, crash_rate=0.25, exit_rate=0.0, crash_attempts=99)
        base = SynthesisConfig(bound=4, model=x86t_elt())
        pairs = [("x86t_elt", "x86t_amd_bug")]
        store = SuiteStore(tmp_path)
        _, records = run_all_pairs(
            base,
            jobs=1,
            shard_count=2,
            pairs=pairs,
            store=store,
            retry=RetryPolicy(backoff_base_s=0.0),
            faults=plan,
        )
        assert records[0].degraded
        # A fault-free rerun reuses the healthy shard, recomputes the
        # poisoned one, and matches the never-faulted matrix.
        _, healed = run_all_pairs(
            base, jobs=1, shard_count=2, pairs=pairs, store=store
        )
        assert not healed[0].cell_cache_hit  # degraded cell was not cached
        assert not healed[0].degraded
        assert healed[0].shard_cache_hits == 1
        clean = run_diff(self.amd_diff(), jobs=1, shard_count=2)
        assert healed[0].cell.keys() == clean.cell.keys()


class TestStoreIntegrity:
    def test_put_records_payload_digest(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("somekey", {"x": 1}, {"kind": "test"})
        meta = store._read_meta("somekey")
        assert meta is not None
        assert len(meta["payload_blake2b"]) == 64
        assert meta["payload_bytes"] > 0

    def test_verify_clean_store(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("k1", [1], {"kind": "test"})
        store.put("k2", [2], {"kind": "test"})
        report = store.verify()
        assert report.clean
        assert (report.scanned, report.ok) == (2, 2)

    def test_verify_flags_corrupt_and_orphaned(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("good", [1], {"kind": "test"})
        store.put("bitrot", [2], {"kind": "test"})
        store.put("torn", [3], {"kind": "test"})
        payload = store._payload_path("bitrot")
        payload.write_bytes(flip_bit(payload.read_bytes(), 17))
        store._meta_path("torn").unlink()

        report = store.verify()
        assert not report.clean
        assert report.corrupt == ["bitrot"]
        assert report.orphaned == ["torn"]
        assert report.ok == 1
        json_report = report.to_json()
        assert json_report["clean"] is False
        assert json_report["repaired"] is False
        # Non-repair verify must not move anything.
        assert payload.exists()

    def test_verify_repair_quarantines_then_scans_clean(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("good", [1], {"kind": "test"})
        store.put("bitrot", [2], {"kind": "test"})
        payload = store._payload_path("bitrot")
        payload.write_bytes(flip_bit(payload.read_bytes(), 17))

        report = store.verify(repair=True)
        assert report.repaired
        assert not payload.exists()
        assert (store.quarantine_dir / "bitrot.pkl").exists()
        again = store.verify()
        assert again.clean
        assert again.scanned == 1

    def test_file_lock_is_reentrant_and_best_effort(self, tmp_path) -> None:
        path = tmp_path / ".lock"
        lock = FileLock(path)
        with lock:
            with lock:  # reentrant: no self-deadlock
                assert lock._depth == 2
        assert lock._depth == 0
        # A second holder times out and proceeds unlocked rather than
        # hanging the run.
        holder = FileLock(path)
        assert holder.acquire()
        contender = FileLock(path, timeout_s=0.05, poll_s=0.01)
        assert not contender.acquire()
        assert contender.timed_out
        contender.release()
        holder.release()
        # With the holder gone the lock is takeable again.
        assert contender.acquire()
        contender.release()


class TestSolverDeadline:
    def pigeonhole(self, holes: int):
        from repro.sat import Cnf

        pigeons = holes + 1
        cnf = Cnf(pigeons * holes)

        def var(pigeon: int, hole: int) -> int:
            return pigeon * holes + hole + 1

        for pigeon in range(pigeons):
            cnf.add_clause([var(pigeon, hole) for hole in range(holes)])
        for hole in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    cnf.add_clause([-var(p1, hole), -var(p2, hole)])
        return cnf

    def test_expired_deadline_interrupts_hard_solve(self) -> None:
        solver = CdclSolver(self.pigeonhole(8))
        with deadline_scope(time.monotonic() - 1.0):
            with pytest.raises(SolverInterrupted):
                solver.solve()

    def test_solver_stays_usable_after_interrupt(self) -> None:
        solver = CdclSolver(self.pigeonhole(7))
        with deadline_scope(time.monotonic() - 1.0):
            with pytest.raises(SolverInterrupted):
                solver.solve()
        # Backtracked to level 0 on the way out: the same solver can
        # finish the query once the deadline is gone.
        assert not solver.solve().satisfiable

    def test_no_deadline_costs_nothing(self) -> None:
        assert current_deadline() is None
        assert not CdclSolver(self.pigeonhole(4)).solve().satisfiable


class TestSweepBudgetBoundary:
    """The budget expiring between bounds: the point times out, its
    partial results are retained, later bounds are skipped, and nothing
    partial is cached — inline and pooled."""

    def test_inline_sweep_retains_partial_timed_out_point(self) -> None:
        base = SynthesisConfig(bound=6, model=x86t_elt())
        sweep = synthesize_sweep(
            base,
            axioms=["sc_per_loc"],
            min_bound=4,
            max_bound=6,
            time_budget_per_run_s=0.0,
        )
        assert len(sweep.points) == 1
        point = sweep.points[0]
        assert point.result.stats.timed_out
        assert point.result.count >= 0  # partial suite object retained
        assert sweep.skipped == [("sc_per_loc", 5), ("sc_per_loc", 6)]
        assert sweep.timed_out_points() == [("sc_per_loc", 4)]
        assert sweep.degraded_points() == []

    def test_pooled_sweep_times_out_and_caches_nothing(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        base = SynthesisConfig(bound=6, model=x86t_elt())
        sweep, records = run_sweep_sharded(
            base,
            axioms=["sc_per_loc"],
            min_bound=4,
            max_bound=6,
            time_budget_per_run_s=0.0,
            jobs=2,
            store=store,
        )
        assert len(sweep.points) == 1
        assert sweep.points[0].result.stats.timed_out
        assert records[0].result.stats.timed_out
        assert sweep.skipped == [("sc_per_loc", 5), ("sc_per_loc", 6)]
        # Timed-out shards and suites must never be cached.
        assert store.counters.stores == 0
