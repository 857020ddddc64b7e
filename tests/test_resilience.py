"""Tests for repro.resilience: cooperative deadlines (the run's time
budget, inside the SAT solver too), the store's payload digests and
writer lock, the budget expiring inside a sweep, and the task runner
behind every sharded run (inline and on a spawn pool)."""

from __future__ import annotations

import time

import pytest

from repro.errors import ReproError, ShardFailure, SolverInterrupted
from repro.models import x86t_elt
from repro.orchestrate import SuiteStore, plan_shards, run_sweep_sharded
from repro.resilience import (
    FileLock,
    current_deadline,
    deadline_exceeded,
    deadline_scope,
)
from repro.resilience.scheduler import PoolManager, run_tasks
from repro.sat import CdclSolver
from repro.synth import SynthesisConfig, synthesize_sweep
from tests._scheduler_workers import (
    LabelTask,
    MarkerTask,
    failing_worker,
    label_worker,
    late_and_early_failure_worker,
    marking_worker,
    reversed_sleep_worker,
)


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


class TestStoreIntegrity:
    def test_put_records_payload_digest(self, tmp_path) -> None:
        store = SuiteStore(tmp_path)
        store.put("somekey", {"x": 1}, {"kind": "test"})
        meta = store._read_meta("somekey")
        assert meta is not None
        assert len(meta["payload_blake2b"]) == 64
        assert meta["payload_bytes"] > 0

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


def label_tasks(count: int) -> list:
    return [LabelTask(spec) for spec in plan_shards(1, shard_count=count)]


class RecordingProgress:
    """Stands in for the executor's progress bar."""

    def __init__(self) -> None:
        self.labels: list = []

    def update(self, label: str = "") -> None:
        self.labels.append(label)


class TestRunTasksInline:
    def test_results_and_progress_follow_task_order(self) -> None:
        progress = RecordingProgress()
        results = run_tasks(label_tasks(3), label_worker, progress=progress)
        assert results == ["s0/3", "s1/3", "s2/3"]
        assert progress.labels == ["s0/3", "s1/3", "s2/3"]

    def test_first_failure_stops_the_run(self) -> None:
        ran: list = []

        def worker(task: LabelTask) -> str:
            ran.append(task.spec.label)
            return failing_worker(task)

        progress = RecordingProgress()
        with pytest.raises(ShardFailure) as excinfo:
            run_tasks(label_tasks(4), worker, progress=progress)
        assert excinfo.value.label == "s1/4"
        assert isinstance(excinfo.value.__cause__, ValueError)
        # No retry, and nothing after the failed task runs.
        assert ran == ["s0/4", "s1/4"]
        assert progress.labels == ["s0/4"]

    def test_interrupt_is_not_a_shard_failure(self) -> None:
        def worker(task: LabelTask) -> str:
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            run_tasks(label_tasks(2), worker)

    @pytest.mark.parametrize("pooled", [False, True])
    def test_empty_plan_runs_nothing(self, pooled: bool) -> None:
        pool = PoolManager(2) if pooled else None
        assert run_tasks([], label_worker, pool=pool) == []
        if pool is not None:
            assert pool._executor is None  # no worker was spawned

    def test_shard_failure_names_the_shard_and_the_error(self) -> None:
        failure = ShardFailure("s2/4", KeyError("x"))
        assert isinstance(failure, ReproError)
        assert failure.label == "s2/4"
        assert str(failure) == "shard s2/4 failed: KeyError: 'x'"


class TestRunTasksPooled:
    def test_results_come_back_in_task_order(self) -> None:
        pool = PoolManager(2)
        progress = RecordingProgress()
        try:
            results = run_tasks(
                label_tasks(4), reversed_sleep_worker, pool=pool, progress=progress
            )
        finally:
            pool.shutdown()
        assert results == ["s0/4", "s1/4", "s2/4", "s3/4"]
        assert progress.labels == results

    def test_failure_is_the_first_in_task_order(self) -> None:
        pool = PoolManager(2)
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_tasks(label_tasks(3), late_and_early_failure_worker, pool=pool)
        finally:
            pool.shutdown()
        # s2/3 fails first on the clock; s1/3 comes first in the plan.
        assert excinfo.value.label == "s1/3"
        assert str(excinfo.value.__cause__) == "late boom in s1/3"

    def test_tasks_not_yet_started_are_cancelled(self, tmp_path) -> None:
        pool = PoolManager(1)
        tasks = [
            MarkerTask(spec, str(tmp_path))
            for spec in plan_shards(1, shard_count=8)
        ]
        try:
            with pytest.raises(ShardFailure) as excinfo:
                run_tasks(tasks, marking_worker, pool=pool)
        finally:
            pool.shutdown()  # waits for the tasks already running
        assert excinfo.value.label == "s0/8"
        finished = {int(path.name) for path in tmp_path.iterdir()}
        # One worker holds at most a few queued tasks when s0/8 fails;
        # the rest of the plan never runs.
        assert 7 not in finished
        assert len(finished) < 7

    def test_a_shared_pool_survives_a_failed_plan(self) -> None:
        pool = PoolManager(2)
        try:
            with pytest.raises(ShardFailure):
                run_tasks(label_tasks(3), failing_worker, pool=pool)
            executor = pool._executor
            assert run_tasks(label_tasks(2), label_worker, pool=pool) == [
                "s0/2",
                "s1/2",
            ]
            assert pool._executor is executor
        finally:
            pool.shutdown()


class TestPoolManager:
    def test_construction_spawns_nothing(self) -> None:
        pool = PoolManager(2)
        assert pool._executor is None
        pool.shutdown()  # a no-op before any use
        assert pool._executor is None

    def test_start_is_idempotent_and_shutdown_reaps(self) -> None:
        pool = PoolManager(2)
        try:
            pool.start()
            executor = pool._executor
            assert executor is not None
            pool.start()
            assert pool._executor is executor
            processes = list(executor._processes.values())
            assert len(processes) == 2
        finally:
            pool.shutdown()
        assert pool._executor is None
        assert all(not process.is_alive() for process in processes)
        pool.shutdown()  # idempotent

    def test_a_shut_down_pool_respawns_on_next_use(self) -> None:
        pool = PoolManager(2)
        try:
            assert run_tasks(label_tasks(2), label_worker, pool=pool) == [
                "s0/2",
                "s1/2",
            ]
            first = pool._executor
            pool.shutdown()
            assert run_tasks(label_tasks(2), label_worker, pool=pool) == [
                "s0/2",
                "s1/2",
            ]
            assert pool._executor is not None
            assert pool._executor is not first
        finally:
            pool.shutdown()
