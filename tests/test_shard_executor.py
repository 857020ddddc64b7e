"""The one shard executor behind every sharded run.

Synthesis, single-pair and all-pairs differencing, and every fuzz round
run their shard plans through :func:`repro.orchestrate.execute_plan`.
These tests pin what the four drivers share through it: the whole-result
store keys, resuming from a partially populated store, one trace lane
per fused task, and resilience effort summed over fuzz rounds.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.conformance import DiffConfig, cell_to_json, run_all_pairs, run_diff
from repro.fuzz import FuzzConfig, run_fuzz
from repro.litmus import suite_from_diff, suite_from_fuzz, suite_from_synthesis
from repro.models import catalog_models, x86t_amd_bug, x86t_elt
from repro.obs import Observation
from repro.orchestrate import SuiteStore, run_sharded
from repro.resilience import FaultPlan, RetryPolicy
from repro.synth import SynthesisConfig

#: Store kinds of whole results (the slots' kinds end in "-shard" or
#: are "shard").
WHOLE_RESULT_KINDS = {"suite", "diff-cell", "fuzz-run"}


def _cell_bytes(cell) -> str:
    document = cell_to_json(cell)
    del document["stats"]["runtime_s"]
    return json.dumps(document, sort_keys=True) + suite_from_diff(cell).dumps()


def _synthesize(store, jobs=1):
    config = SynthesisConfig(bound=4, model=x86t_elt(), target_axiom="sc_per_loc")
    record = run_sharded(config, jobs=jobs, shard_count=3, store=store)
    return (
        suite_from_synthesis(record.result).dumps(),
        [(record.shard_cache_hits, record.shard_cache_misses)],
    )


def _diff(store, jobs=1):
    diff = DiffConfig(
        base=SynthesisConfig(bound=5, model=x86t_elt()), subject=x86t_amd_bug()
    )
    record = run_diff(diff, jobs=jobs, shard_count=3, store=store)
    return (
        _cell_bytes(record.cell),
        [(record.shard_cache_hits, record.shard_cache_misses)],
    )


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
    cells = "".join(_cell_bytes(matrix.cells[pair]) for pair in sorted(matrix.cells))
    return cells, [
        (record.shard_cache_hits, record.shard_cache_misses) for record in records
    ]


def _fuzz(store, jobs=1):
    config = FuzzConfig(seed=0, bound=6, rounds=2, attempts_per_round=32)
    result = run_fuzz(config, jobs=jobs, shard_count=3, store=store)
    findings = [
        (finding.digest, finding.source, finding.occurrences)
        for finding in result.findings
    ]
    return (
        suite_from_fuzz(result).dumps() + json.dumps(findings),
        [(result.shard_cache_hits, result.shard_cache_misses)],
    )


DRIVERS = {
    "synthesize": _synthesize,
    "diff": _diff,
    "all-pairs": _all_pairs,
    "fuzz": _fuzz,
}

#: Slots per driver: specs × queries (pairs, or fuzz rounds).
SLOTS = {"synthesize": 3, "diff": 3, "all-pairs": 6, "fuzz": 6}

#: The whole-result keys each driver leaves in a cold store.  Shard
#: slots are not pinned: their keys cover the shard spec's fields.
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


def _drop(store: SuiteStore, key: str) -> None:
    for suffix in (".json", ".pkl"):
        (store.entries_dir / f"{key}{suffix}").unlink()


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


@pytest.mark.parametrize("driver", sorted(DRIVERS))
def test_resume_from_some_slots_matches_a_cold_run(
    driver: str, tmp_path: Path
) -> None:
    run = DRIVERS[driver]
    cold_bytes, cold_counts = run(None)
    store = SuiteStore(tmp_path)
    run(store)
    # Keep every other shard slot; drop the rest and every whole result.
    slots = [key for kind, key in _entries(store) if kind not in WHOLE_RESULT_KINDS]
    assert len(slots) == SLOTS[driver]
    for kind, key in _entries(store):
        if kind in WHOLE_RESULT_KINDS:
            _drop(store, key)
    for key in slots[1::2]:
        _drop(store, key)

    resumed_bytes, counts = run(SuiteStore(tmp_path))
    assert resumed_bytes == cold_bytes
    hits = sum(hit for hit, _miss in counts)
    misses = sum(miss for _hit, miss in counts)
    assert hits == len(slots[::2])
    assert hits + misses == SLOTS[driver]
    # A run without a store counts nothing.
    assert cold_counts == [(0, 0)] * len(counts)


def test_traced_all_pairs_has_one_lane_per_fused_task() -> None:
    obs = Observation(enabled=True)
    with obs:
        _all_pairs(None, jobs=2)
    labels = [batch.label for batch in obs.tracer.batches]
    assert labels == ["s0/3", "s1/3", "s2/3"]


def test_fuzz_resilience_sums_over_rounds() -> None:
    # Every (round, shard) task crashes on its first attempt and succeeds
    # on its retry: three rounds of two shards retry six times.
    plan = FaultPlan(seed=1, crash_rate=1.0, crash_attempts=1, exit_rate=0.0)
    config = FuzzConfig(seed=0, bound=5, rounds=3, attempts_per_round=4)
    result = run_fuzz(
        config,
        jobs=1,
        shard_count=2,
        retry=RetryPolicy(backoff_base_s=0.0),
        faults=plan,
    )
    assert not result.degraded
    assert result.rounds_run == 3
    assert result.resilience.retries == 6
