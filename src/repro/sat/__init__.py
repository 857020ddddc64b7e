"""SAT solving substrate (MiniSat stand-in for the synthesis pipeline).

Public surface:

* :class:`Cnf` — clause container with fresh-variable allocation.
* :class:`CdclSolver` / :func:`solve_cnf` — complete CDCL search.
* :func:`iter_models` / :func:`count_models` — AllSAT enumeration.
"""

from .cnf import Cnf
from .enumerate import count_models, iter_models
from .reference import brute_force_count, brute_force_models, brute_force_satisfiable
from .solver import (
    MAX_MERGED_STAT_FIELDS,
    SOLVER_CORE,
    CdclSolver,
    SatResult,
    SolverStats,
    accel_status,
    luby,
    resolve_solver_core,
    solve_cnf,
)

__all__ = [
    "Cnf",
    "MAX_MERGED_STAT_FIELDS",
    "SOLVER_CORE",
    "CdclSolver",
    "accel_status",
    "resolve_solver_core",
    "SatResult",
    "SolverStats",
    "luby",
    "solve_cnf",
    "iter_models",
    "count_models",
    "brute_force_models",
    "brute_force_satisfiable",
    "brute_force_count",
]
