"""Model enumeration (AllSAT) on top of the CDCL solver.

ELT synthesis needs *all* models of a bounded encoding, not just one.  The
standard blocking-clause loop is used: after each model, a clause
forbidding that model is added and the solver is re-run.  Because learned
clauses persist across calls (and the solver's clause-database reduction
keeps them bounded), successive models get cheaper to find.

Two blocking strategies are used:

* **no projection** — the clause negates only the *decision literals* of
  the model.  Every propagated literal is forced by the decisions, so the
  model is the unique total model extending them and the short clause
  blocks exactly that model;
* **projection** — the clause negates the model's values on the projected
  variables, blocking the whole equivalence class in one step.
"""

from __future__ import annotations

from typing import Iterator, Optional, Sequence

from .cnf import Cnf
from .solver import CdclSolver, SolverStats


def iter_models(
    cnf: Cnf,
    projection: Optional[Sequence[int]] = None,
    limit: Optional[int] = None,
    stats: Optional[SolverStats] = None,
) -> Iterator[dict[int, bool]]:
    """Yield models of ``cnf`` one at a time.

    ``projection`` restricts enumeration to distinct assignments of the
    given variables (other variables take arbitrary consistent values and
    models agreeing on the projection are reported once).  ``limit``
    bounds the number of models yielded.

    Contract: with a projection, each yielded dict maps *exactly the
    projected variables* to their values (computed once per model — the
    full assignment is not copied); without one, it maps every variable of
    the formula.  Either way the dict is freshly allocated and owned by
    the caller.

    ``stats``, when given, becomes the enumerating solver's live
    counter object (see :class:`~repro.sat.SolverStats`), letting callers
    and benchmarks observe decisions/propagations/conflicts.

    >>> cnf = Cnf()
    >>> a, b = cnf.new_var(), cnf.new_var()
    >>> cnf.add_clause([a, b])
    >>> len(list(iter_models(cnf)))
    3
    """
    if limit is not None and limit <= 0:
        return
    solver = CdclSolver(cnf)
    if stats is not None:
        # Fold in the work already done while loading the CNF (level-0
        # propagation), then make the caller's object the live counter.
        stats.merge(solver.stats)
        solver.stats = stats
    count = 0
    if projection is None:
        # Models come out of the incremental search one per yield; each
        # dict is freshly allocated, so it is handed over without a copy.
        for model in solver.iter_solutions():
            yield model
            count += 1
            if limit is not None and count >= limit:
                return
    else:
        variables = list(projection)
        for var in variables:
            solver._grow_to(var)

        def blocking(model: dict[int, bool]) -> list[int]:
            return [
                (-var if model.get(var, False) else var) for var in variables
            ]

        for model in solver.iter_solutions(blocking_literals=blocking):
            yield {var: model.get(var, False) for var in variables}
            count += 1
            if limit is not None and count >= limit:
                return


def count_models(cnf: Cnf, projection: Optional[Sequence[int]] = None) -> int:
    """Count models of ``cnf`` (projected if requested)."""
    return sum(1 for _ in iter_models(cnf, projection=projection))
