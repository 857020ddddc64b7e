"""One skeleton enumeration per sharded run, and a pool sized by ``jobs``.

A sharded run enumerates its base skeletons once, in the coordinator,
and ships each task its stride residue's slice
(:class:`repro.orchestrate.shards.SkeletonSlices`); the workers only
expand.  These tests pin what must not move when that happens: the
skeleton lists, every shard's stream of (order key, canonical program
key), and the plan size, which depends on the pool alone, not on how
many queries ride on each fused task.  They also check that the pool
boots only when a plan runs.
"""

from __future__ import annotations

import hashlib
import time
from collections import Counter
from pathlib import Path

import pytest

import repro.orchestrate.executor as executor_module
import repro.orchestrate.shards as shards_module
import repro.synth.skeletons as skeletons_module
from repro.conformance import cell_to_json, run_all_pairs
from repro.models import catalog_models, x86t_elt
from repro.obs import Observation
from repro.orchestrate import (
    DEFAULT_OVERSUBSCRIPTION,
    SuiteStore,
    plan_shards,
    run_sharded,
    shard_programs,
)
from repro.resilience.scheduler import PoolManager
from repro.synth import SynthesisConfig, enumerate_skeletons
from repro.synth.canon import canonical_program_key

#: bound -> (skeleton count, digest of every skeleton in global order).
SKELETON_PINS = {
    4: (13, "7b9ac5cde5d76080"),
    5: (42, "299b7e8e2b92afee"),
    6: (172, "b5fe8cf2e65b10bd"),
    7: (555, "f7929ea118bd8836"),
    8: (2068, "0ef4f76e3988b8bf"),
}

#: (bound, shard count) -> per shard, the digest of its (order key,
#: canonical program key) stream.
STREAM_PINS = {
    (4, 1): ["9db5fd8ae1516694"],
    (4, 3): ["99d470ae902e6880", "7ea5360c301f8d3c", "c8759491e1e62177"],
    (4, 8): [
        "b4090a9e8259dda0", "47b4b573550969f0", "a6483994da2e010c",
        "4b9956bb2ec525cf", "602346f054623a34", "e510c61a708c1625",
        "d82ab82b29586e02", "d0019e6d0ad1d1a0",
    ],
    (5, 1): ["82a7a39c7efa701e"],
    (5, 3): ["df39e1216a753c5a", "a3bd4d4f5acd2677", "cf6085212dae9b48"],
    (5, 8): [
        "8cc1de55ca98db2e", "8c82acaf1d820a38", "1e4bb56c70d4b292",
        "91a06e34bd11b174", "cd3dfd74f237db90", "7bc8cebf71a2b11d",
        "a0cf62e7c332563b", "dd7d262e436a71b0",
    ],
    (6, 1): ["a5192d3fa6f0f351"],
    (6, 3): ["ac1e3e35d06da7ef", "bb6b053ea94c1159", "583e92a513a531f4"],
    (6, 8): [
        "993a3463f3049a7b", "d7c961003190b743", "b0abcb8e4fe296fa",
        "e997e36a6db4eedc", "691b39ec525ae6ec", "10d21d3def9b5ed6",
        "6c8276ff9bb21f3b", "57874c3106daaa18",
    ],
    (7, 1): ["573fbd296ab086ad"],
    (7, 3): ["3baaa1234ed1d6df", "b890aecf2cc145a6", "eb40aef397f81b5b"],
    (7, 8): [
        "471cf9e56250e3ef", "8b6b8e912ede823e", "1a3d500d13342b7a",
        "decad2f717a2b987", "883805b5518ee289", "5185a6c9965ab2fa",
        "b28fa7c21aaa7e64", "083fdbffbd921a21",
    ],
}


def _config(bound: int, **overrides) -> SynthesisConfig:
    return SynthesisConfig(bound=bound, model=x86t_elt(), **overrides)


def _short(digest) -> str:
    return digest.hexdigest()[:16]


@pytest.mark.parametrize("bound", sorted(SKELETON_PINS))
def test_skeleton_lists_are_pinned(bound: int) -> None:
    config = _config(bound)
    digest = hashlib.sha256()
    count = 0
    for threads in range(1, config.max_threads + 1):
        for skeleton in enumerate_skeletons(config, threads):
            count += 1
            specs = tuple(
                tuple((spec.op, spec.va, spec.alias) for spec in thread)
                for thread in skeleton
            )
            digest.update(repr((threads, specs)).encode())
    assert (count, _short(digest)) == SKELETON_PINS[bound]


@pytest.mark.parametrize("bound, shards", sorted(STREAM_PINS))
def test_shard_streams_are_pinned(bound: int, shards: int) -> None:
    config = _config(bound)
    specs = plan_shards(1, shard_count=shards)
    slices = shards_module.SkeletonSlices(config, specs)
    digests = []
    for spec in specs:
        digest = hashlib.sha256()
        for order, program in shard_programs(config, spec, slices[spec]):
            digest.update(repr((order, canonical_program_key(program))).encode())
        digests.append(_short(digest))
    assert digests == STREAM_PINS[bound, shards]


def test_a_shard_without_a_slice_builds_the_same_one() -> None:
    config = _config(5)
    specs = plan_shards(1, shard_count=3)
    slices = shards_module.SkeletonSlices(config, specs)
    for spec in specs:
        given = [order for order, _p in shard_programs(config, spec, slices[spec])]
        built = [order for order, _p in shard_programs(config, spec)]
        assert given == built
        assert {order[0] % 3 for order in given} <= {spec.skeleton_index}


def test_parallel_plan_is_sized_by_the_pool() -> None:
    assert len(plan_shards(2)) == 2 * DEFAULT_OVERSUBSCRIPTION == 8
    assert len(plan_shards(3)) == 3 * DEFAULT_OVERSUBSCRIPTION


def _stripped(document):
    if isinstance(document, dict):
        return {
            key: _stripped(value)
            for key, value in document.items()
            if key != "runtime_s"
        }
    if isinstance(document, list):
        return [_stripped(value) for value in document]
    return document


def _matrix_json(matrix) -> list:
    return [_stripped(cell_to_json(matrix.cells[pair])) for pair in sorted(matrix.cells)]


def test_two_job_all_pairs_runs_one_fused_task_per_planned_shard() -> None:
    base = _config(4)
    serial, _records = run_all_pairs(base, jobs=1)
    obs = Observation(enabled=True)
    with obs:
        matrix, records = run_all_pairs(base, jobs=2)
    # One trace lane per fused task: 20 pairs ride on each of 8 tasks.
    assert [batch.label for batch in obs.tracer.batches] == [
        f"s{index}/8" for index in range(8)
    ]
    assert len(matrix.cells) == 20
    assert all(len(record.shard_specs) == 8 for record in records)
    assert _matrix_json(matrix) == _matrix_json(serial)
    # The coordinator's one enumeration is a span of its own lane.
    assert [span.name for span in obs.tracer.spans].count("skeletons") == 1


@pytest.fixture
def skeleton_calls(monkeypatch) -> Counter:
    """Counts ``enumerate_skeletons`` calls by thread count."""
    calls: Counter = Counter()
    original = skeletons_module.enumerate_skeletons

    def counted(config, num_threads):
        calls[num_threads] += 1
        return original(config, num_threads)

    monkeypatch.setattr(skeletons_module, "enumerate_skeletons", counted)
    return calls


def test_inline_sharded_synthesis_enumerates_skeletons_once(skeleton_calls) -> None:
    config = _config(5, target_axiom="sc_per_loc")
    record = run_sharded(config, jobs=1, shard_count=3)
    assert len(record.shard_results) == 3
    assert skeleton_calls == Counter({1: 1, 2: 1})


def test_inline_all_pairs_enumerates_skeletons_once(skeleton_calls) -> None:
    catalog = catalog_models()
    models = {name: catalog[name] for name in ("x86tso", "sc")}
    _matrix, records = run_all_pairs(
        _config(5), models=models, jobs=1, shard_count=3
    )
    assert all(len(record.shard_results) == 3 for record in records)
    assert skeleton_calls == Counter({1: 1, 2: 1})


def test_coordinator_enumeration_is_charged_to_generate(monkeypatch) -> None:
    """The coordinator's enumeration lands in the merged ``generate``
    stage: of the synthesis suite, and of the lead pair's cell."""
    original = shards_module.indexed_skeletons

    def slow(config):
        time.sleep(0.2)
        return original(config)

    monkeypatch.setattr(shards_module, "indexed_skeletons", slow)
    record = run_sharded(_config(4, target_axiom="invlpg"), jobs=1, shard_count=2)
    assert record.result.stats.stage_times["generate"] >= 0.2
    catalog = catalog_models()
    models = {name: catalog[name] for name in ("x86tso", "sc")}
    matrix, _records = run_all_pairs(_config(4), models=models, shard_count=2)
    lead = matrix.cells["x86tso", "sc"].stats
    other = matrix.cells["sc", "x86tso"].stats
    assert lead.stage_times["generate"] >= 0.2
    assert other.stage_times.get("generate", 0.0) < 0.2


def test_cached_suite_starts_no_pool(
    tmp_path: Path, monkeypatch, skeleton_calls
) -> None:
    config = _config(4, target_axiom="sc_per_loc")
    run_sharded(config, jobs=1, shard_count=3, store=SuiteStore(tmp_path))
    skeleton_calls.clear()

    created: list = []

    class RecordingPool(PoolManager):
        def __init__(self, jobs: int) -> None:
            created.append(jobs)
            super().__init__(jobs)

    monkeypatch.setattr(executor_module, "PoolManager", RecordingPool)
    record = run_sharded(config, jobs=2, shard_count=3, store=SuiteStore(tmp_path))
    assert record.suite_cache_hit
    assert created == []
    # A sweep's shared pool stays down too.
    shared = PoolManager(2)
    run_sharded(
        config, jobs=2, shard_count=3, store=SuiteStore(tmp_path), pool=shared
    )
    assert shared._executor is None
    assert not skeleton_calls


def test_pool_start_reaches_every_worker() -> None:
    pool = PoolManager(2)
    try:
        pool.start()
        assert len(pool.executor._processes) == 2
        pool.start()  # a no-op while the pool is up
        assert len(pool.executor._processes) == 2
    finally:
        pool.shutdown()
