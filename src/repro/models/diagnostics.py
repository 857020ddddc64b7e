"""Violation diagnostics: *why* is an execution forbidden?

Every acyclicity axiom in the catalog declares its edge components (e.g.
``invlpg`` = fr_va + ^po + remap).  When the axiom fails, this module
extracts a concrete cycle from the component union and labels each edge
with the relations that contribute it — the same information the paper's
figures convey with their colored edges, and the basis of its claim that
diagnostic axioms "localize transistency bugs" (§V-A2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Optional

from ..errors import SynthesisError
from ..mtm import Execution, Vocabulary, names
from ..relational import TupleSet
from .base import MemoryModel

ComponentFn = Callable[[Vocabulary], Mapping[str, TupleSet]]


def _tso_components(v: Vocabulary) -> Mapping[str, TupleSet]:
    from .axioms import fence_order, ppo_tso

    return {
        names.RFE: v.rfe,
        names.CO: v.co,
        names.FR: v.fr,
        "ppo": ppo_tso(v),
        "fence": fence_order(v),
    }


#: Edge components per acyclicity axiom (names match the catalog).
AXIOM_COMPONENTS: dict[str, ComponentFn] = {
    "sc_per_loc": lambda v: {
        names.RF: v.rf,
        names.CO: v.co,
        names.FR: v.fr,
        names.PO_LOC: v.po_loc,
    },
    "causality": _tso_components,
    "invlpg": lambda v: {
        names.FR_VA: v.fr_va,
        names.PO: v.po,
        names.REMAP: v.remap,
    },
    "tlb_causality": lambda v: {
        names.PTW_SOURCE: v.ptw_source,
        names.COM: v.com,
    },
    "sc_order": lambda v: {
        names.COM: v.com,
        names.PO: v.po & v.memory_event.product(v.memory_event),
    },
}


@dataclass
class LabeledEdge:
    source: str
    target: str
    labels: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.source} -[{'+'.join(self.labels)}]-> {self.target}"


@dataclass
class CycleExplanation:
    """A concrete cycle witnessing one axiom violation."""

    axiom: str
    edges: tuple[LabeledEdge, ...]

    @property
    def events(self) -> tuple[str, ...]:
        return tuple(edge.source for edge in self.edges)

    def __str__(self) -> str:
        chain = "\n  ".join(str(edge) for edge in self.edges)
        return f"{self.axiom} cycle:\n  {chain}"


def find_cycle(
    edges: Mapping[tuple[str, str], object]
) -> Optional[list[tuple[str, str]]]:
    """The first cycle a depth-first search meets, as a list of edges, or
    None when the graph is acyclic.

    Roots and successors are visited in the order the edges list them
    (a node counts from its first appearance, source before target), so
    the cycle is the one ``networkx.find_cycle`` reports for a graph
    built by adding the same edges in the same order.
    """
    successors: dict[str, list[str]] = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
        successors.setdefault(b, [])
    finished: set[str] = set()
    for root in successors:
        if root in finished:
            continue
        path = [root]
        pending = [iter(successors[root])]
        while pending:
            for node in pending[-1]:
                if node in path:
                    loop = path[path.index(node):] + [node]
                    return list(zip(loop, loop[1:]))
                if node not in finished:
                    path.append(node)
                    pending.append(iter(successors[node]))
                    break
            else:
                pending.pop()
                finished.add(path.pop())
    return None


def explain_axiom_violation(
    execution: Execution, axiom_name: str
) -> Optional[CycleExplanation]:
    """A labeled cycle for one violated acyclicity axiom, or None if the
    axiom holds on this execution."""
    component_fn = AXIOM_COMPONENTS.get(axiom_name)
    if component_fn is None:
        raise SynthesisError(
            f"no edge components registered for axiom {axiom_name!r}"
        )
    components = component_fn(Vocabulary(execution.relations))
    labels: dict[tuple[str, str], list[str]] = {}
    # Sorted, so the reported cycle does not depend on the string hash.
    for label, relation in components.items():
        for a, b in sorted(relation):
            labels.setdefault((a, b), []).append(label)
    cycle = find_cycle(labels)
    if cycle is None:
        return None
    edges = tuple(
        LabeledEdge(a, b, tuple(sorted(labels[(a, b)]))) for a, b in cycle
    )
    return CycleExplanation(axiom_name, edges)


def explain_verdict(
    execution: Execution, model: MemoryModel
) -> list[CycleExplanation]:
    """One labeled cycle per violated acyclicity axiom of the model.

    Axioms without registered components (e.g. the emptiness-style
    rmw_atomicity) are reported without a cycle by the caller; this
    function covers the acyclicity family.
    """
    verdict = model.check(execution)
    explanations: list[CycleExplanation] = []
    for axiom_name in verdict.violated:
        if axiom_name not in AXIOM_COMPONENTS:
            continue
        explanation = explain_axiom_violation(execution, axiom_name)
        if explanation is not None:
            explanations.append(explanation)
    return explanations


def render_explanations(
    execution: Execution, model: MemoryModel
) -> str:
    """Human-readable 'why forbidden' report."""
    verdict = model.check(execution)
    if verdict.permitted:
        return f"{model.name}: permitted (no cycles to explain)"
    lines = [str(verdict)]
    for explanation in explain_verdict(execution, model):
        lines.append(str(explanation))
    remaining = [
        name for name in verdict.violated if name not in AXIOM_COMPONENTS
    ]
    for name in remaining:
        lines.append(f"{name}: violated (non-acyclicity axiom)")
    return "\n".join(lines)
