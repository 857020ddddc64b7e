"""The one shard executor behind every sharded run.

Synthesis, single-pair and all-pairs differencing, and every fuzz round
run their shard plans through :func:`repro.orchestrate.execute_plan`.
These tests pin what the four drivers share through it: the whole-result
store keys, one trace lane per fused task, and the failure contract —
a shard that raises, inline or pooled, or a pool worker that dies, ends
the run with a :class:`~repro.errors.ShardFailure` naming the shard.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

import pytest

import repro.fuzz.runner as fuzz_runner_module
import repro.orchestrate.executor as executor_module
from repro.conformance import DiffConfig, cell_to_json, run_all_pairs, run_diff
from repro.errors import ShardFailure
from repro.fuzz import FuzzConfig, run_fuzz
from repro.litmus import suite_from_diff, suite_from_fuzz, suite_from_synthesis
from repro.models import catalog_models, x86t_amd_bug, x86t_elt
from repro.obs import Observation
from repro.orchestrate import SuiteStore, execute_plan, plan_shards, run_sharded
from repro.synth import SynthesisConfig
from tests._scheduler_workers import LabelTask, exiting_worker, failing_worker

#: Store kinds of whole results.
WHOLE_RESULT_KINDS = {"suite", "diff-cell", "fuzz-run"}


def _cell_bytes(cell) -> str:
    document = cell_to_json(cell)
    del document["stats"]["runtime_s"]
    return json.dumps(document, sort_keys=True) + suite_from_diff(cell).dumps()


def _synthesize(store, jobs=1):
    config = SynthesisConfig(bound=4, model=x86t_elt(), target_axiom="sc_per_loc")
    record = run_sharded(config, jobs=jobs, shard_count=3, store=store)
    return suite_from_synthesis(record.result).dumps()


def _diff(store, jobs=1):
    diff = DiffConfig(
        base=SynthesisConfig(bound=5, model=x86t_elt()), subject=x86t_amd_bug()
    )
    record = run_diff(diff, jobs=jobs, shard_count=3, store=store)
    return _cell_bytes(record.cell)


def _all_pairs(store, jobs=1):
    catalog = catalog_models()
    models = {name: catalog[name] for name in ("x86tso", "sc")}
    matrix, records = run_all_pairs(
        SynthesisConfig(bound=4, model=x86t_elt()),
        models=models,
        jobs=jobs,
        shard_count=3,
        store=store,
    )
    return "".join(_cell_bytes(matrix.cells[pair]) for pair in sorted(matrix.cells))


def _fuzz(store, jobs=1, rounds=2):
    config = FuzzConfig(seed=0, bound=6, rounds=rounds, attempts_per_round=32)
    result = run_fuzz(config, jobs=jobs, shard_count=3, store=store)
    findings = [
        (finding.digest, finding.source, finding.occurrences)
        for finding in result.findings
    ]
    return suite_from_fuzz(result).dumps() + json.dumps(findings)


DRIVERS = {
    "synthesize": _synthesize,
    "diff": _diff,
    "all-pairs": _all_pairs,
    "fuzz": _fuzz,
}

#: The whole-result keys each driver leaves in a cold store.
WHOLE_RESULT_KEYS = {
    "synthesize": ["suite a8007c0d4f49d82d4b71feb06b2bebe2"],
    "diff": ["diff-cell c23c2e822e108bccd99fdfc940c08df7"],
    "all-pairs": [
        "diff-cell 64412b575b32d3e41a019e967eb18510",
        "diff-cell bd1cad26936044dc42f0be3849f983a3",
    ],
    "fuzz": ["fuzz-run acf9a71680632409974a71321fc776a0"],
}


def _entries(store: SuiteStore) -> list:
    """(kind, key) of every entry, sorted by key."""
    return [
        (json.loads(meta.read_text())["kind"], meta.stem)
        for meta in sorted(store.entries_dir.glob("*.json"))
    ]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_whole_result_keys_are_pinned(driver: str, tmp_path: Path) -> None:
    store = SuiteStore(tmp_path)
    DRIVERS[driver](store)
    keys = sorted(
        f"{kind} {key}"
        for kind, key in _entries(store)
        if kind in WHOLE_RESULT_KINDS
    )
    assert keys == WHOLE_RESULT_KEYS[driver]


def test_traced_all_pairs_has_one_lane_per_fused_task() -> None:
    obs = Observation(enabled=True)
    with obs:
        _all_pairs(None, jobs=2)
    labels = [batch.label for batch in obs.tracer.batches]
    assert labels == ["s0/3", "s1/3", "s2/3"]


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_store_holds_only_whole_results(driver: str, tmp_path: Path) -> None:
    store = SuiteStore(tmp_path)
    cold = DRIVERS[driver](store)
    assert {kind for kind, _key in _entries(store)} <= WHOLE_RESULT_KINDS
    # A warm rerun serves the same bytes from the store.
    assert DRIVERS[driver](SuiteStore(tmp_path)) == cold


class _RecordingPool(executor_module.PoolManager):
    """A pool that remembers itself and whether its workers were reaped."""

    made: list = []

    def __init__(self, jobs: int) -> None:
        super().__init__(jobs)
        self.reaped = None
        _RecordingPool.made.append(self)

    def shutdown(self) -> None:
        processes = list((self._executor._processes or {}).values())
        super().shutdown()
        self.reaped = all(not process.is_alive() for process in processes)


@pytest.fixture
def recording_pool(monkeypatch):
    _RecordingPool.made = []
    # Every module that builds a pool: the executor (a plan without one)
    # and the fuzz campaign (one for all its rounds).
    for module in (executor_module, fuzz_runner_module):
        monkeypatch.setattr(module, "PoolManager", _RecordingPool)
    return _RecordingPool.made


#: Per driver: the runner module and the worker global it hands the
#: executor.
DRIVER_WORKERS = {
    "synthesize": ("repro.orchestrate.runner", "run_shard"),
    "diff": ("repro.conformance.runner", "run_multi_diff_shard"),
    "all-pairs": ("repro.conformance.runner", "run_multi_diff_shard"),
    "fuzz": ("repro.fuzz.runner", "run_fuzz_shard"),
}


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_a_failed_shard_fails_the_run_and_caches_nothing(
    driver: str, tmp_path: Path, monkeypatch
) -> None:
    import importlib

    module_name, name = DRIVER_WORKERS[driver]
    module = importlib.import_module(module_name)
    real_worker = getattr(module, name)

    def second_shard_breaks(task):
        if task.spec.skeleton_index == 1:
            raise RuntimeError(f"broke {task.spec.label}")
        return real_worker(task)

    monkeypatch.setattr(module, name, second_shard_breaks)
    store = SuiteStore(tmp_path)
    with pytest.raises(ShardFailure) as excinfo:
        DRIVERS[driver](store)
    assert excinfo.value.label == "s1/3"
    assert str(excinfo.value.__cause__) == "broke s1/3"
    assert _entries(store) == []
    # The failure left nothing behind: with the worker mended, the same
    # store computes the result a store-free run gets.
    monkeypatch.setattr(module, name, real_worker)
    assert DRIVERS[driver](store) == DRIVERS[driver](None)
    assert _entries(store)


def _label_task(spec, _observe):
    return LabelTask(spec)


@pytest.mark.parametrize("jobs", [1, 2])
def test_a_raising_task_fails_the_plan(jobs: int, recording_pool) -> None:
    specs = plan_shards(1, shard_count=3)
    with pytest.raises(ShardFailure) as excinfo:
        execute_plan(specs, _label_task, failing_worker, jobs=jobs)
    failure = excinfo.value
    assert failure.label == "s1/3"
    assert "s1/3" in str(failure)
    assert isinstance(failure.__cause__, ValueError)
    assert str(failure.__cause__) == "boom in s1/3"
    if jobs == 1:
        assert recording_pool == []
    else:
        (pool,) = recording_pool
        assert pool._executor is None
        assert pool.reaped


def test_a_dying_worker_fails_the_plan(recording_pool) -> None:
    from concurrent.futures.process import BrokenProcessPool

    specs = plan_shards(1, shard_count=3)
    raised: list = []

    def run() -> None:
        try:
            execute_plan(specs, _label_task, exiting_worker, jobs=2)
        except ShardFailure as failure:
            raised.append(failure)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout=60.0)
    assert not runner.is_alive(), "a dead worker hung the plan"
    (failure,) = raised
    assert failure.label == "s0/3"
    assert isinstance(failure.__cause__, BrokenProcessPool)
    (pool,) = recording_pool
    assert pool._executor is None
    assert pool.reaped


def test_fuzz_rounds_share_one_pool(recording_pool) -> None:
    serial = _fuzz(None, rounds=3)
    assert recording_pool == []
    assert _fuzz(None, jobs=2, rounds=3) == serial
    (pool,) = recording_pool
    assert pool._executor is None
    assert pool.reaped
