"""Exception hierarchy for the repro package.

All errors raised by this library derive from :class:`ReproError` so callers
can catch library failures with a single except clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class CnfError(ReproError):
    """Malformed CNF input (bad literal, empty variable range, ...)."""


class DimacsError(ReproError):
    """Malformed DIMACS file contents."""


class RelationalError(ReproError):
    """Errors in relational specifications (arity mismatch, unknown relation,
    unbound variable, bad bounds)."""


class ArityError(RelationalError):
    """A relational expression was combined with an incompatible arity."""


class VocabularyError(ReproError):
    """An ELT/event structure violates the MTM vocabulary's typing rules
    (e.g. a ghost instruction with a program-order edge)."""


class WellFormednessError(ReproError):
    """A program or candidate execution violates a structural placement rule
    (distinct from being *forbidden*, which is a model-predicate question)."""


class SynthesisError(ReproError):
    """Errors in synthesis configuration (bad bound, unknown axiom name)."""


class SolverInterrupted(ReproError):
    """A SAT query was cut short by a cooperative deadline.

    Raised from inside :class:`repro.sat.CdclSolver`'s search loops when
    the deadline installed by :func:`repro.resilience.deadline_scope`
    expires; the solver backtracks to level 0 first, so it stays usable.
    The synthesis pipelines catch this and mark the run ``timed_out``.
    """


class ShardFailure(ReproError):
    """A shard's task raised, or the worker pool collapsed under it.

    Names the shard spec label and the failure; the worker's exception
    rides along as ``__cause__`` (raised via ``raise ... from``).
    """

    def __init__(self, label: str, error: BaseException):
        self.label = label
        super().__init__(
            f"shard {label} failed: {type(error).__name__}: {error}"
        )


class LitmusFormatError(ReproError):
    """Malformed textual litmus/ELT representation."""
