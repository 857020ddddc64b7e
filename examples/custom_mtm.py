"""Define a custom (buggy) MTM and find the ELTs that expose the bug.

The paper motivates TransForm with an AMD Athlon/Opteron erratum [4]:
INVLPG instructions failed to invalidate the designated TLB entries, so
programs could keep using stale address mappings.  A machine with that
bug implements a *weaker* transistency model — x86t_elt without the
``invlpg`` axiom.

Synthesized ELTs that x86t_elt forbids but the buggy model permits are
exactly the regression tests that would have caught the erratum.

Run:  python examples/custom_mtm.py
"""

from repro.litmus import format_execution
from repro.models import x86t_amd_bug, x86t_elt
from repro.synth import SynthesisConfig, synthesize


def main() -> None:
    correct = x86t_elt()
    buggy = x86t_amd_bug()  # == correct.without("x86t_amd_bug", ["invlpg"])
    print(f"correct model axioms: {', '.join(correct.axiom_names)}")
    print(f"buggy model axioms:   {', '.join(buggy.axiom_names)}")

    # Synthesize the invlpg suite against the *correct* model: every ELT's
    # outcome is forbidden on real x86.
    suite = synthesize(
        SynthesisConfig(bound=6, model=correct, target_axiom="invlpg")
    )
    print(f"\ninvlpg suite at bound 6: {suite.count} ELTs")

    # The bug detectors are those whose forbidden outcome the buggy model
    # would happily permit: observing the outcome on silicon proves the
    # INVLPG is broken.
    detectors = [
        elt for elt in suite.elts if buggy.permits(elt.execution)
    ]
    print(
        f"{len(detectors)} of them are pure INVLPG-bug detectors "
        "(forbidden on correct x86, permitted by the erratum model):"
    )
    for index, elt in enumerate(detectors, start=1):
        execution = elt.execution
        print(f"\n--- detector {index} ---")
        print(format_execution(elt, show_derived=False))
        print(f"correct: {correct.check(execution)}")
        print(f"buggy:   {buggy.check(execution)}")

    assert detectors, "expected at least one pure invlpg-bug detector"
    print(
        "\nRunning these ELTs on hardware distinguishes a correct INVLPG "
        "implementation from the AMD erratum."
    )


if __name__ == "__main__":
    main()
