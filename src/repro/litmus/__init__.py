"""Litmus/ELT assets: paper figures, classic MCM tests, text formats, the
reconstructed COATCheck suite, and the §VI-B comparison tool."""

from .._lazy import lazy_exports
from .format import format_execution, format_program, serialize_elt

# The CLI renders through ``format``; everything else loads on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "classics": ("ALL_CLASSICS", "SC_VERDICTS", "TSO_VERDICTS"),
        "coatcheck": ("CoatCheckTest", "coatcheck_suite"),
        "compare": (
            "Category",
            "Classification",
            "ComparisonReport",
            "classify_test",
            "compare_suite",
        ),
        "figures": ("ALL_FIGURES", "PaperExample"),
        "parser": ("parse_elt",),
        "suitefile": (
            "EltSuite",
            "SuiteEntry",
            "suite_from_diff",
            "suite_from_fuzz",
            "suite_from_synthesis",
        ),
    },
)

__all__ = [
    "ALL_FIGURES",
    "PaperExample",
    "ALL_CLASSICS",
    "TSO_VERDICTS",
    "SC_VERDICTS",
    "CoatCheckTest",
    "coatcheck_suite",
    "Category",
    "Classification",
    "ComparisonReport",
    "classify_test",
    "compare_suite",
    "format_program",
    "format_execution",
    "serialize_elt",
    "parse_elt",
    "EltSuite",
    "SuiteEntry",
    "suite_from_diff",
    "suite_from_fuzz",
    "suite_from_synthesis",
]
