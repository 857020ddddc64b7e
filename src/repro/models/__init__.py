"""Axiomatic memory models: SC, x86-TSO, and the paper's x86t_elt MTM.

Public surface:

* :class:`Axiom`, :class:`MemoryModel`, :class:`Verdict` — infrastructure.
* :class:`Evaluation` — one execution's memo over the compiled axiom plan
  (:mod:`repro.models.plan`), shared by every verdict read from it.
* :func:`x86tso`, :func:`x86t_elt`, :func:`sequential_consistency`,
  :func:`x86t_amd_bug` — the catalog.
* :data:`X86T_ELT_AXIOM_NAMES` — Fig 9 axiom order.
"""

from .._lazy import lazy_exports
from .base import Axiom, MemoryModel, Verdict
from .plan import Evaluation
from .catalog import (
    CATALOG,
    CAUSALITY,
    INVLPG,
    RMW_ATOMICITY,
    SC_ORDER,
    SC_PER_LOC,
    TLB_CAUSALITY,
    X86T_ELT_AXIOM_NAMES,
    catalog_models,
    sc_t,
    sequential_consistency,
    x86t_amd_bug,
    x86t_elt,
    x86tso,
)
from .compare import (
    Agreement,
    AxiomTable,
    ModelComparison,
    PairClassifier,
    compare_models,
    discriminating_elts,
)
# ``check --explain`` alone renders violations.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "diagnostics": (
            "CycleExplanation",
            "LabeledEdge",
            "explain_axiom_violation",
            "explain_verdict",
            "render_explanations",
        ),
    },
)

__all__ = [
    "Axiom",
    "MemoryModel",
    "Verdict",
    "Evaluation",
    "SC_PER_LOC",
    "RMW_ATOMICITY",
    "CAUSALITY",
    "INVLPG",
    "TLB_CAUSALITY",
    "SC_ORDER",
    "X86T_ELT_AXIOM_NAMES",
    "CATALOG",
    "catalog_models",
    "sequential_consistency",
    "x86tso",
    "x86t_elt",
    "x86t_amd_bug",
    "sc_t",
    "Agreement",
    "AxiomTable",
    "ModelComparison",
    "PairClassifier",
    "compare_models",
    "discriminating_elts",
    "CycleExplanation",
    "LabeledEdge",
    "explain_axiom_violation",
    "explain_verdict",
    "render_explanations",
]
