"""Quickstart: build an ELT, check it against x86t_elt, synthesize a suite.

Run:  python examples/quickstart.py
"""

from repro.litmus import format_execution
from repro.models import x86t_elt
from repro.mtm import Execution, ProgramBuilder
from repro.synth import SynthesisConfig, synthesize


def main() -> None:
    # ------------------------------------------------------------------
    # 1. Build an enhanced litmus test (ELT) with the fluent builder.
    #    This is Fig 10a of the paper — COATCheck's "ptwalk2": the OS
    #    remaps x and invalidates the TLB entry, yet the following read's
    #    page-table walk still observes the *stale* mapping.
    # ------------------------------------------------------------------
    b = ProgramBuilder()
    b.map("x", "pa_a")  # initially VA x -> PA a
    core0 = b.thread()
    core0.pte_write("x", "pa_b")  # remap x -> PA b (+ INVLPG, auto)
    core0.read("x")  # TLB miss: invokes a page-table walk
    program = b.build()

    # A candidate execution = program + communication witness.  With no
    # rf edge into the walk, the walk reads the initial (stale) mapping.
    stale = Execution(program)
    print("=== ptwalk2 (stale mapping) ===")
    print(format_execution(stale))

    # ------------------------------------------------------------------
    # 2. Check it against the paper's estimated Intel x86 MTM.
    # ------------------------------------------------------------------
    model = x86t_elt()
    verdict = model.check(stale)
    print(f"\nverdict: {verdict}")
    assert verdict.forbidden and "invlpg" in verdict.violated

    # ------------------------------------------------------------------
    # 3. Synthesize the complete bound-5 suite of minimal ELTs whose
    #    outcomes violate the invlpg axiom.
    # ------------------------------------------------------------------
    config = SynthesisConfig(bound=5, model=model, target_axiom="invlpg")
    suite = synthesize(config)
    print(
        f"\n=== synthesized invlpg suite at bound 5: {suite.count} ELTs "
        f"({suite.stats.runtime_s:.2f}s) ==="
    )
    for index, elt in enumerate(suite.elts, start=1):
        print(f"\n--- ELT {index}: violates {', '.join(elt.violated_axioms)} ---")
        print(format_execution(elt, show_derived=False))


if __name__ == "__main__":
    main()
