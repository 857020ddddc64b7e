"""Fig 9a as a tier-1 test: the number of ELTs in each per-axiom x86t_elt
suite at bounds 4–7, and the §V-A2 tlb_causality attribution.

The paper's shape: each axiom's first ELT appears between bounds 4 and 7,
and the sc_per_loc suite is the largest at every bound.  The counts
themselves pin this reproduction's table (the paper reaches bounds
10–17 under one-week budgets); ``benchmarks/bench_fig9a_suite_sizes.py``
renders the same sweep as a report.
"""

from __future__ import annotations

import pytest

from repro.reporting import fig9_sweep, tlb_causality_attribution

FIG9A_COUNTS = {
    "sc_per_loc": {4: 5, 5: 12, 6: 22, 7: 39},
    "causality": {4: 1, 5: 2, 6: 5, 7: 12},
    "invlpg": {4: 1, 5: 3, 6: 7, 7: 7},
    "tlb_causality": {4: 2, 5: 3, 6: 5, 7: 9},
    "rmw_atomicity": {4: 0, 5: 0, 6: 0, 7: 1},
}


@pytest.fixture(scope="module")
def sweep():
    # An explicit budget: no environment override can truncate the sweep.
    result = fig9_sweep(
        max_bounds={axiom: 7 for axiom in FIG9A_COUNTS},
        time_budget_per_run_s=600.0,
    )
    assert not result.skipped
    return result


def test_count_table_at_bounds_4_to_7(sweep) -> None:
    assert sweep.counts() == FIG9A_COUNTS


def test_sc_per_loc_is_the_largest_suite_at_every_bound(sweep) -> None:
    counts = sweep.counts()
    for bound, sc_per_loc in counts["sc_per_loc"].items():
        for axiom, by_bound in counts.items():
            if axiom != "sc_per_loc":
                assert sc_per_loc > by_bound[bound], (axiom, bound)


def test_every_axiom_first_appears_between_bounds_4_and_7(sweep) -> None:
    for axiom, by_bound in sweep.counts().items():
        assert 4 <= min(b for b, count in by_bound.items() if count) <= 7, axiom


def test_tlb_causality_attribution(sweep) -> None:
    """§V-A2: tlb_causality explains a few of the unique ELTs (paper: 5
    of 140 at bounds 10–17)."""
    assert tlb_causality_attribution(sweep) == (9, 45)
