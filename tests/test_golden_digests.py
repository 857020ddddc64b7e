"""Golden-digest regression tests for synthesized suites.

Each entry pins the SHA-256 of the canonical ``.elts`` text for one
(model, target axiom, bound, witness backend) at CI-fast bounds.  The
point is to freeze the *artifact*: a refactor that silently changes the
synthesized suite — different ELT set, different representative
witnesses, different ordering, different serialization — fails here even
if every behavioral test still passes.

What the digests encode:

* **jobs invariance** — sharded runs must reproduce the serial bytes,
  so one digest covers every ``--jobs``/``--shards`` plan (asserted
  explicitly against a 4-shard run);
* **backend agreement** — the explicit and SAT enumerators produce the
  same *bytes* everywhere: representative selection is order-free
  (identity-ranked class winners; witnesses by (canonical key, witness
  sort key)), so the historical invlpg@5 divergence — where the SAT
  stream order picked a different representative witness — is healed
  and each (axiom, bound) carries exactly one digest;
* **diff-suite backend invariance** — the differential pipeline uses
  the same order-free selection, so its suite bytes are pinned once for
  *both* backends;
* **solver-path invariance** — every digest is asserted under both
  ``incremental=True`` (witness sessions: one translation per program,
  cached execution lists replayed across suites) and
  ``incremental=False`` (the fresh-solver oracle); the session path's
  full enumeration runs on a cold solver over the shared translation
  precisely so these digests cannot drift apart;
* **symmetry invariance** — every digest is asserted with
  ``symmetry=True`` (witness-orbit pruning + SAT lex-leader breaking +
  orbit-level program dedup) and with the ``--no-symmetry`` oracle;
  orbit pruning keeps exactly the witnesses the representative
  tie-break can select, so the bytes cannot depend on it;
* **catalog coverage** — beyond the per-axiom x86t_elt suites, the
  whole-predicate suites of the other catalog models and one
  user-level MCM-mode suite (``synthesize --mcm``: ghost-free programs,
  the SAT backend's heaviest symmetry-breaking path) are pinned on
  every backend × solver-path × symmetry combination.

When an intentional engine change alters output, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_digests.py --tb=short

and update the constants below in the same commit that changes the
engine.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.litmus import suite_from_diff, suite_from_synthesis
from repro.models import CATALOG, x86t_amd_bug, x86t_elt
from repro.orchestrate import run_sharded
from repro.synth import SynthesisConfig, synthesize

#: (target axiom, bound, witness backend) -> sha256 of the suite text.
GOLDEN_SUITES = {
    ("sc_per_loc", 4, "explicit"): (
        "ac49991e56d2736b12172f6a90de99d911ddd1db978c4efd2cc59b42a5255a54"
    ),
    ("sc_per_loc", 4, "sat"): (
        "ac49991e56d2736b12172f6a90de99d911ddd1db978c4efd2cc59b42a5255a54"
    ),
    ("rmw_atomicity", 4, "explicit"): (
        "0b86a9e706cda4e3456915754986b5c2f7979b1a2fb8ce519606d56b1a29a0de"
    ),
    ("rmw_atomicity", 4, "sat"): (
        "0b86a9e706cda4e3456915754986b5c2f7979b1a2fb8ce519606d56b1a29a0de"
    ),
    ("causality", 4, "explicit"): (
        "e6164443bdbacb8c19965d2f2e88e6a674e8e6ee5309325b26f9304114dc9aee"
    ),
    ("causality", 4, "sat"): (
        "e6164443bdbacb8c19965d2f2e88e6a674e8e6ee5309325b26f9304114dc9aee"
    ),
    ("invlpg", 4, "explicit"): (
        "9344a49955896b85c31e5d04e643578a76f8ba0c8ff821cccb8df3c7414a1701"
    ),
    ("invlpg", 4, "sat"): (
        "9344a49955896b85c31e5d04e643578a76f8ba0c8ff821cccb8df3c7414a1701"
    ),
    ("tlb_causality", 4, "explicit"): (
        "939b1aa931d16249981ebdc5fb99a6d4efe247ad246daf8d54995b1fb4509a4c"
    ),
    ("tlb_causality", 4, "sat"): (
        "939b1aa931d16249981ebdc5fb99a6d4efe247ad246daf8d54995b1fb4509a4c"
    ),
    # Historically the one cross-backend divergence (the SAT stream
    # order used to pick a different representative witness for one of
    # the 3 classes); order-free representative selection healed it.
    ("invlpg", 5, "explicit"): (
        "88fceb81be0e0844b116b1f4bfe971df3ec4c85ef19d8c17b9e38b13e5fc722c"
    ),
    ("invlpg", 5, "sat"): (
        "88fceb81be0e0844b116b1f4bfe971df3ec4c85ef19d8c17b9e38b13e5fc722c"
    ),
}

#: The x86t_elt-vs-x86t_amd_bug diff suite at the paper's bound — one
#: digest for both backends (diff representatives are canonical-key
#: selected, so the bytes are backend-invariant by construction).
GOLDEN_DIFF_SUITE = (
    "2c9e0302228da425574d82f8e0785475e44cd623b62721fab88f943db19a5248"
)

#: Whole-predicate suites (any axiom may be violated) of the other
#: catalog models, and one MCM-mode suite: (model, bound, mcm mode, max
#: threads) -> sha256 of the suite text, one digest for both backends.
GOLDEN_MODEL_SUITES = {
    ("sc", 4, False, 2): (
        "40a0b40244f02817888509424ed557d1ce5a140e5a0400dea726785e8c338992"
    ),
    ("x86tso", 4, False, 2): (
        "533eb94093071f319e86639ecaa5351f3738d1c6634042e90dad38cf897f7dd7"
    ),
    ("x86t_amd_bug", 4, False, 2): (
        "f6926b3b157454234e6827c6562c6e4a56c7967c90bb3b2d96274a825cad626e"
    ),
    ("sc_t", 4, False, 2): (
        "2d4ce70314a2d06e2f62e1a03ac5e7bd2d26b26d525f477bbed23656caff3567"
    ),
    ("x86tso", 3, True, 3): (
        "649324b5ffb15596dcdd8189695fee3d637aafd9c184f4bed49ea79e83d0a211"
    ),
}


def suite_digest(axiom: str, bound: int, backend: str, **kwargs) -> str:
    config = SynthesisConfig(
        bound=bound,
        model=x86t_elt(),
        target_axiom=axiom,
        witness_backend=backend,
        **kwargs,
    )
    result = synthesize(config)
    text = suite_from_synthesis(result, prefix=axiom).dumps()
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("symmetry", [False, True], ids=["no-symmetry", "symmetry"])
@pytest.mark.parametrize("incremental", [False, True], ids=["fresh", "incremental"])
@pytest.mark.parametrize(
    "axiom,bound,backend", sorted(GOLDEN_SUITES), ids=lambda v: str(v)
)
def test_serial_suite_matches_golden_digest(
    axiom, bound, backend, incremental, symmetry
) -> None:
    """Every pinned digest must hold on BOTH solver paths (the
    incremental-session path and the fresh-solver oracle) and on both
    symmetry paths (orbit-pruned and the --no-symmetry oracle).
    Session reuse across these parametrized cases is exactly the
    production sweep workload, so cache warmth is deliberately not
    reset between them."""
    assert suite_digest(
        axiom,
        bound,
        backend,
        incremental=incremental,
        symmetry=symmetry,
    ) == GOLDEN_SUITES[(axiom, bound, backend)]


@pytest.mark.parametrize("backend", ["explicit", "sat"])
def test_sharded_run_matches_golden_digest(backend) -> None:
    """--jobs 1 vs --jobs 4 byte-identity, via the 4-shard plan a
    4-worker run executes (shard plans, not process counts, are what
    could change bytes — worker processes run the identical code)."""
    config = SynthesisConfig(
        bound=4,
        model=x86t_elt(),
        target_axiom="sc_per_loc",
        witness_backend=backend,
    )
    orchestrated = run_sharded(config, jobs=1, shard_count=4)
    text = suite_from_synthesis(
        orchestrated.result, prefix="sc_per_loc"
    ).dumps()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_SUITES[("sc_per_loc", 4, backend)]


def test_backends_agree_on_canonical_classes_at_invlpg5() -> None:
    """invlpg@5 was historically the one cross-backend representative
    divergence; order-free selection converged it.  Keep the structural
    assertion (identical classes, count 3) as its own check so a future
    byte regression here is diagnosed at the right level."""
    results = {}
    for backend in ("explicit", "sat"):
        results[backend] = synthesize(
            SynthesisConfig(
                bound=5,
                model=x86t_elt(),
                target_axiom="invlpg",
                witness_backend=backend,
            )
        )
    assert results["explicit"].keys() == results["sat"].keys()
    assert results["explicit"].count == results["sat"].count == 3


@pytest.mark.parametrize("symmetry", [False, True], ids=["no-symmetry", "symmetry"])
@pytest.mark.parametrize("incremental", [False, True], ids=["fresh", "incremental"])
@pytest.mark.parametrize("backend", ["explicit", "sat"])
def test_diff_suite_matches_golden_digest(backend, incremental, symmetry) -> None:
    from repro.conformance import DiffConfig, diff_models

    cell = diff_models(
        DiffConfig(
            base=SynthesisConfig(
                bound=5,
                model=x86t_elt(),
                witness_backend=backend,
                incremental=incremental,
                symmetry=symmetry,
            ),
            subject=x86t_amd_bug(),
        )
    )
    text = suite_from_diff(cell).dumps()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_DIFF_SUITE


@pytest.mark.parametrize("symmetry", [False, True], ids=["no-symmetry", "symmetry"])
@pytest.mark.parametrize("incremental", [False, True], ids=["fresh", "incremental"])
@pytest.mark.parametrize("backend", ["explicit", "sat"])
@pytest.mark.parametrize(
    "model,bound,mcm,threads", sorted(GOLDEN_MODEL_SUITES), ids=lambda v: str(v)
)
def test_catalog_model_suite_matches_golden_digest(
    model, bound, mcm, threads, backend, incremental, symmetry
) -> None:
    config = SynthesisConfig(
        bound=bound,
        model=CATALOG[model](),
        mcm_mode=mcm,
        max_threads=threads,
        witness_backend=backend,
        incremental=incremental,
        symmetry=symmetry,
    )
    text = suite_from_synthesis(synthesize(config), prefix=model).dumps()
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert digest == GOLDEN_MODEL_SUITES[(model, bound, mcm, threads)]
