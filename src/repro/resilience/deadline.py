"""Cooperative deadline propagation into long-running queries.

The program loop (:func:`repro.synth.engine.run_queries`) already
checks its deadline between programs and every 64 witnesses — but a single stuck SAT query sits *inside* one witness
step, where no check runs.  This module is the channel that reaches it:
the pipeline installs its absolute ``time.monotonic()`` deadline here
(:func:`deadline_scope`), and :class:`repro.sat.CdclSolver` polls
:func:`current_deadline` on a propagation budget inside its search
loops, raising :class:`~repro.errors.SolverInterrupted` (after
backtracking to level 0, so the solver stays usable) when the budget
finds the deadline passed.

Module-level like the :mod:`repro.obs` tracer/registry: per-process,
installed around a scope, defaulting to "no deadline" so the solver's
poll costs one comparison when nothing is installed.  Nested scopes
keep the *earliest* deadline.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Iterator, Optional

_DEADLINE: Optional[float] = None


def current_deadline() -> Optional[float]:
    """The installed absolute ``time.monotonic()`` deadline, or None."""
    return _DEADLINE


def install_deadline(deadline: Optional[float]) -> Optional[float]:
    """Install a deadline, returning the previous one (for restore)."""
    global _DEADLINE
    previous = _DEADLINE
    _DEADLINE = deadline
    return previous


def deadline_exceeded() -> bool:
    return _DEADLINE is not None and time.monotonic() > _DEADLINE


@contextmanager
def deadline_scope(deadline: Optional[float]) -> Iterator[None]:
    """Install ``deadline`` for the body; an enclosing scope's earlier
    deadline wins (passing None keeps the enclosing deadline)."""
    previous = current_deadline()
    if deadline is None:
        effective = previous
    elif previous is None:
        effective = deadline
    else:
        effective = min(previous, deadline)
    install_deadline(effective)
    try:
        yield
    finally:
        install_deadline(previous)
