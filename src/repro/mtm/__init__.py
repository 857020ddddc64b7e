"""The memory transistency model vocabulary (paper §III, Table I).

Public surface:

* :class:`Event` / :class:`EventKind` — the event taxonomy (user-facing,
  support, ghost).
* :class:`Program` / :class:`ProgramBuilder` — ELT programs with po,
  ghost, remap and rmw structure; :func:`program_memo` /
  :func:`release_program_memo` — every cache derived from a program.
* :class:`Execution` — candidate executions: program + (rf, co, co_pa)
  witness, with every Table I relation derived.
* :class:`Vocabulary` / :func:`symbolic_vocabulary` — the namespace axioms
  are written against (concrete or symbolic).
* :mod:`repro.mtm.names` — the canonical relation-name registry.
"""

from . import names
from .events import (
    Event,
    EventKind,
    GHOST_KINDS,
    MEMORY_KINDS,
    READ_KINDS,
    SUPPORT_KINDS,
    USER_KINDS,
    WRITE_KINDS,
)
from .execution import Execution, location_of
from .program import (
    Program,
    ProgramBuilder,
    ThreadBuilder,
    program_memo,
    release_program_memo,
)
from .vocabulary import Vocabulary, symbolic_vocabulary

__all__ = [
    "names",
    "Event",
    "EventKind",
    "USER_KINDS",
    "SUPPORT_KINDS",
    "GHOST_KINDS",
    "MEMORY_KINDS",
    "WRITE_KINDS",
    "READ_KINDS",
    "Program",
    "ProgramBuilder",
    "ThreadBuilder",
    "program_memo",
    "release_program_memo",
    "Execution",
    "location_of",
    "Vocabulary",
    "symbolic_vocabulary",
]
