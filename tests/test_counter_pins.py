"""Exact counter pins for the shared program/witness loop.

Every :class:`~repro.synth.SuiteStats` field except the wall-clock ones
(``runtime_s``, ``stage_times``) is a deterministic function of the
configuration.  The string hash seed must not matter either; the SAT
rows are measured under two (:data:`HASH_SEEDS`).  The table pins the
counters of :func:`repro.synth.engine.run_queries` for its three
callers:

* ``synthesize`` — the one-query case, with and without generation-time
  pruning (the unpruned stream exercises orbit replays) and on the SAT
  backend (session and solver counters);
* ``diff_models`` — one (reference, subject) query per run;
* ``run_all_pairs`` — twenty fused queries over one enumeration: the
  lead pair is credited with the translations, every other pair counts
  them as avoided.

The values were measured on the separate synthesis and differencing
loops this one replaced, so they also pin that the merge moved no
counter.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.conformance import DiffConfig, diff_models, run_all_pairs
from repro.models import x86t_amd_bug, x86t_elt
from repro.synth import SuiteStats, SynthesisConfig, synthesize

FIELDS = (
    "both_forbid",
    "both_permit",
    "degraded",
    "executions_enumerated",
    "interesting",
    "minimal",
    "only_reference_forbids",
    "only_subject_forbids",
    "orbit_replays",
    "orbit_witnesses_pruned",
    "programs_enumerated",
    "sat_conflicts",
    "sat_decisions",
    "sat_learned_clauses",
    "sat_propagations",
    "sat_sessions",
    "sat_symmetry_clauses",
    "sat_translations",
    "sat_translations_avoided",
    "symmetric_programs",
    "timed_out",
    "unique_programs",
)

# fmt: off
PINS = {
    "synthesize/invlpg@5/default": (0, 0, False, 86, 5, 4, 0, 0, 0, 0, 43, 0, 0, 0, 0, 0, 0, 0, 0, 0, False, 3),
    "synthesize/invlpg@5/no-canonical-pruning": (0, 0, False, 97, 6, 4, 0, 0, 6, 0, 49, 0, 0, 0, 0, 0, 0, 0, 0, 0, False, 3),
    "synthesize/invlpg@5/sat": (0, 0, False, 86, 5, 4, 0, 0, 0, 0, 43, 0, 43, 0, 253, 43, 0, 43, 0, 0, False, 3),
    "diff/x86t_elt->x86t_amd_bug@5/explicit": (38, 47, False, 86, 1, 1, 1, 0, 0, 0, 43, 0, 0, 0, 0, 0, 0, 0, 0, 0, False, 1),
    "diff/x86t_elt->x86t_amd_bug@5/sat": (38, 47, False, 86, 1, 1, 1, 0, 0, 0, 43, 0, 43, 0, 253, 43, 0, 43, 0, 0, False, 1),
    "all-pairs@4/sat/sc->sc_t": (4, 13, False, 19, 2, 0, 0, 2, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/sc->x86t_amd_bug": (4, 13, False, 19, 2, 0, 0, 2, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/sc->x86t_elt": (4, 13, False, 19, 2, 0, 0, 2, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/sc->x86tso": (4, 13, False, 19, 2, 0, 0, 2, 0, 0, 13, 0, 6, 0, 37, 13, 0, 13, 0, 0, False, 0),
    "all-pairs@4/sat/sc_t->sc": (4, 13, False, 19, 2, 2, 2, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 2),
    "all-pairs@4/sat/sc_t->x86t_amd_bug": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/sc_t->x86t_elt": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/sc_t->x86tso": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_amd_bug->sc": (4, 13, False, 19, 2, 2, 2, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 2),
    "all-pairs@4/sat/x86t_amd_bug->sc_t": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_amd_bug->x86t_elt": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_amd_bug->x86tso": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_elt->sc": (4, 13, False, 19, 2, 2, 2, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 2),
    "all-pairs@4/sat/x86t_elt->sc_t": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_elt->x86t_amd_bug": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86t_elt->x86tso": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86tso->sc": (4, 13, False, 19, 2, 2, 2, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 2),
    "all-pairs@4/sat/x86tso->sc_t": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86tso->x86t_amd_bug": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
    "all-pairs@4/sat/x86tso->x86t_elt": (6, 13, False, 19, 0, 0, 0, 0, 0, 0, 13, 0, 6, 0, 37, 0, 0, 0, 13, 0, False, 0),
}
# fmt: on

SYNTHESIS_RUNS = {
    "default": {},
    "no-canonical-pruning": {"canonical_pruning": False},
    "sat": {"witness_backend": "sat"},
}

#: String hash seeds the table is measured under, each in a child
#: interpreter: the whole table under the first, the SAT rows again under
#: the second.  ``sat_propagations`` moved by one between these two
#: while the translator built matrices in hash-ordered set order.
HASH_SEEDS = ("0", "3")


def _row(stats: SuiteStats) -> list:
    return [getattr(stats, name) for name in FIELDS]


def measure(sat_only: bool = False) -> dict:
    """Every pinned row (or only the SAT-backend rows)."""
    rows = {}
    for label, overrides in SYNTHESIS_RUNS.items():
        if sat_only and overrides.get("witness_backend") != "sat":
            continue
        config = SynthesisConfig(bound=5, target_axiom="invlpg", **overrides)
        rows[f"synthesize/invlpg@5/{label}"] = _row(synthesize(config).stats)
    for backend in ("sat",) if sat_only else ("explicit", "sat"):
        diff = DiffConfig(
            base=SynthesisConfig(
                bound=5, model=x86t_elt(), witness_backend=backend
            ),
            subject=x86t_amd_bug(),
        )
        rows[f"diff/x86t_elt->x86t_amd_bug@5/{backend}"] = _row(
            diff_models(diff).stats
        )
    matrix, _records = run_all_pairs(
        SynthesisConfig(bound=4, model=x86t_elt(), witness_backend="sat"),
        jobs=1,
    )
    for ref, sub in matrix.pairs():
        rows[f"all-pairs@4/sat/{ref}->{sub}"] = _row(
            matrix.cells[(ref, sub)].stats
        )
    return rows


def _measure_in_child(hash_seed: str, *args: str) -> dict:
    import repro

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
    completed = subprocess.run(
        [sys.executable, __file__, *args],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(completed.stdout)


@pytest.fixture(scope="module")
def measured() -> dict:
    return _measure_in_child(HASH_SEEDS[0])


def test_pins_cover_every_deterministic_field() -> None:
    timing = {"runtime_s", "stage_times"}
    names = {f.name for f in dataclasses.fields(SuiteStats)} - timing
    assert set(FIELDS) == names


def test_pins_cover_every_measured_row(measured) -> None:
    assert set(measured) == set(PINS)


@pytest.mark.parametrize("label", sorted(PINS))
def test_counters_match_pins(measured, label: str) -> None:
    mismatched = {
        name: (got, want)
        for name, got, want in zip(FIELDS, measured[label], PINS[label])
        if got != want
    }
    assert not mismatched, mismatched


def test_sat_counters_do_not_depend_on_the_hash_seed(measured) -> None:
    second = _measure_in_child(HASH_SEEDS[1], "--sat-only")
    assert set(second) == {label for label in PINS if "/sat" in label}
    differing = {
        label: (row, measured[label])
        for label, row in second.items()
        if row != measured[label]
    }
    assert not differing, differing


if __name__ == "__main__":
    print(json.dumps(measure(sat_only="--sat-only" in sys.argv)))
