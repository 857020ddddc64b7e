"""Concrete instances: a universe of atoms plus a binding of relation names
to tuple sets.  Produced by the SAT-backed model finder and consumed by the
evaluator; also constructed directly from candidate executions by
:mod:`repro.mtm`."""

from __future__ import annotations

from typing import Iterable, Mapping

from ..errors import RelationalError
from .tuples import Atom, TupleSet


class Instance:
    """An immutable model: atoms + named relations."""

    def __init__(
        self,
        atoms: Iterable[Atom],
        relations: Mapping[str, TupleSet],
    ) -> None:
        self._atoms = tuple(dict.fromkeys(atoms))  # stable order, deduped
        atom_set = set(self._atoms)
        self._relations = dict(relations)
        for name, ts in self._relations.items():
            stray = ts.atoms() - atom_set
            if stray:
                raise RelationalError(
                    f"relation {name!r} mentions atoms outside the universe: "
                    f"{sorted(stray)}"
                )

    @classmethod
    def _trusted(
        cls, atoms: tuple[Atom, ...], relations: dict[str, TupleSet]
    ) -> "Instance":
        """Internal fast path beside :meth:`__init__`, as
        :meth:`TupleSet._raw` sits beside ``TupleSet.__init__``: callers
        guarantee ``atoms`` is duplicate-free and every relation stays
        inside it (the SAT decoder, whose tuples all come from declared
        bounds), and hand over ``relations`` without keeping it."""
        out = object.__new__(cls)
        out._atoms = atoms
        out._relations = relations
        return out

    @property
    def atoms(self) -> tuple[Atom, ...]:
        return self._atoms

    @property
    def relations(self) -> Mapping[str, TupleSet]:
        return self._relations

    def relation(self, name: str) -> TupleSet:
        try:
            return self._relations[name]
        except KeyError as exc:
            raise RelationalError(f"unknown relation: {name!r}") from exc

    def with_relation(self, name: str, value: TupleSet) -> "Instance":
        updated = dict(self._relations)
        updated[name] = value
        return Instance(self._atoms, updated)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        return set(self._atoms) == set(other._atoms) and self._relations == dict(
            other._relations
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{name}={sorted(ts.tuples)}" for name, ts in sorted(self._relations.items())
        )
        return f"Instance(atoms={list(self._atoms)}, {parts})"
