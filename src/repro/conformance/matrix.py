"""The all-pairs conformance matrix and its consistency obligations.

A :class:`ConformanceMatrix` holds one :class:`~repro.conformance.diff.
ConformanceCell` per ordered (reference, subject) pair of a model
catalog.  Two structural facts make it checkable against the catalog
itself:

* **Axiom-subset refinement.**  When the subject's axioms are a subset
  of the reference's (same names, same predicates), every execution the
  subject forbids the reference forbids too — so the cell's
  only-subject-forbids bucket must be empty at *every* bound.  The
  catalog's syntactic inclusions (x86tso ⊂ x86t_amd_bug ⊂ x86t_elt,
  sc ⊂ sc_t) induce exactly the "SC ⊑ x86-TSO"-style obligations;
  :meth:`ConformanceMatrix.inclusion_violations` enforces them.
* **Antisymmetry.**  Swapping a pair transposes the asymmetric buckets:
  cell(r, s).reference_only_keys == cell(s, r).subject_only_keys.
  :meth:`ConformanceMatrix.antisymmetry_violations` checks every
  transposed pair present in the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..litmus.format import serialize_elt
from ..models import MemoryModel
from .diff import ConformanceCell, Refinement

Pair = Tuple[str, str]


def axiom_subset(smaller: MemoryModel, larger: MemoryModel) -> bool:
    """True when every axiom of ``smaller`` appears in ``larger`` with
    the same name *and* the same predicate function."""
    larger_axioms = {(a.name, a.predicate) for a in larger.axioms}
    return all((a.name, a.predicate) in larger_axioms for a in smaller.axioms)


def expected_refinements(
    models: Mapping[str, MemoryModel],
) -> List[Pair]:
    """(reference, subject) pairs where the catalog *guarantees*
    permitted(reference) ⊆ permitted(subject): the subject's axiom set is
    a subset of the reference's."""
    out: List[Pair] = []
    for ref_name, ref in models.items():
        for sub_name, sub in models.items():
            if ref_name != sub_name and axiom_subset(sub, ref):
                out.append((ref_name, sub_name))
    return out


@dataclass
class ConformanceMatrix:
    """Deterministic all-pairs differential verdict at one bound."""

    models: Tuple[str, ...]
    bound: int
    cells: Dict[Pair, ConformanceCell] = field(default_factory=dict)

    def cell(self, reference: str, subject: str) -> ConformanceCell:
        return self.cells[(reference, subject)]

    def verdict(self, reference: str, subject: str) -> Refinement:
        return self.cells[(reference, subject)].verdict

    def pairs(self) -> List[Pair]:
        """Ordered pairs in canonical (row-major catalog) order."""
        return [
            (ref, sub)
            for ref in self.models
            for sub in self.models
            if ref != sub and (ref, sub) in self.cells
        ]

    @property
    def discriminating_total(self) -> int:
        """Total discriminating ELTs across every pair."""
        return sum(cell.count for cell in self.cells.values())

    def inclusion_violations(
        self, models: Mapping[str, MemoryModel]
    ) -> List[Pair]:
        """Pairs whose axiom-subset relation promises refinement but whose
        cell observed a subject-forbidden, reference-permitted execution —
        empty on a correct engine, at any bound."""
        return [
            (ref, sub)
            for ref, sub in expected_refinements(models)
            if (ref, sub) in self.cells
            and self.cells[(ref, sub)].stats.only_subject_forbids > 0
        ]

    def antisymmetry_violations(self) -> List[Pair]:
        """Pairs whose transpose disagrees on the asymmetric key sets."""
        violations: List[Pair] = []
        for (ref, sub), cell in self.cells.items():
            mirror: Optional[ConformanceCell] = self.cells.get((sub, ref))
            if mirror is None:
                continue
            if (
                cell.reference_only_keys != mirror.subject_only_keys
                or cell.subject_only_keys != mirror.reference_only_keys
            ):
                violations.append((ref, sub))
        return violations

    def to_json(self) -> dict:
        """Stable JSON shape (schema 1) for ``repro diff --all-pairs --json``."""
        return {
            "schema": 1,
            "kind": "conformance-matrix",
            "bound": self.bound,
            "models": list(self.models),
            "discriminating_total": self.discriminating_total,
            "pairs": [cell_to_json(self.cells[pair]) for pair in self.pairs()],
        }


def cell_to_json(cell: ConformanceCell) -> dict:
    """Stable JSON shape (schema 1) for one pair's verdict."""
    return {
        "schema": 1,
        "kind": "conformance-cell",
        "reference": cell.reference,
        "subject": cell.subject,
        "bound": cell.bound,
        "verdict": cell.verdict.value,
        "counts": cell.counts(),
        "discriminating": [
            {
                "violates": list(elt.violated_axioms),
                "outcomes": elt.outcome_count,
                "elt": serialize_elt(elt.execution),
            }
            for elt in cell.elts
        ],
        "stats": {
            "programs_enumerated": cell.stats.programs_enumerated,
            "executions_enumerated": cell.stats.executions_enumerated,
            "unique_programs": cell.stats.unique_programs,
            "runtime_s": cell.stats.runtime_s,
            "timed_out": cell.stats.timed_out,
        },
    }
