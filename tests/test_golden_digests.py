"""Golden-digest regression tests for synthesized suites.

Each entry pins the SHA-256 of the canonical ``.elts`` text for one
(model, target axiom, bound, witness backend) at CI-fast bounds.  The
point is to freeze the *artifact*: a refactor that silently changes the
synthesized suite — different ELT set, different representative
witnesses, different ordering, different serialization — fails here even
if every behavioral test still passes.

What the digests encode:

* **jobs invariance** — sharded runs must reproduce the serial bytes,
  so one digest covers every ``--jobs``/``--shards`` plan (every digest
  is asserted on the serial run and on the 4-shard plan a ``--jobs 4``
  run executes, inline);
* **backend agreement** — the explicit and SAT enumerators produce the
  same *bytes* everywhere: representative selection is order-free
  (identity-ranked class winners; witnesses by (canonical key, witness
  sort key)), so the historical invlpg@5 divergence — where the SAT
  stream order picked a different representative witness — is healed
  and each (axiom, bound) carries exactly one digest;
* **diff-suite backend invariance** — the differential pipeline uses
  the same order-free selection, so its suite bytes are pinned once for
  *both* backends;
* **symmetry invariance** — every digest is asserted with
  ``symmetry=True`` (witness-orbit pruning + SAT lex-leader breaking +
  orbit-level program dedup) and with the ``--no-symmetry`` oracle;
  orbit pruning keeps exactly the witnesses the representative
  tie-break can select, so the bytes cannot depend on it;
* **generation-pruning invariance** — the suites in which
  arrangement pruning drops isomorphic programs (invlpg@5, the diff
  suite, the MCM suite) are also asserted with ``canonical_pruning``
  ablated, where the duplicates reach the pipeline;
* **catalog coverage** — beyond the per-axiom x86t_elt suites, the
  whole-predicate suites of the other catalog models and one
  user-level MCM-mode suite (``synthesize --mcm``: ghost-free programs,
  the SAT backend's heaviest symmetry-breaking path) are pinned on
  every backend × symmetry × shard-plan combination.

When an intentional engine change alters output, regenerate with::

    PYTHONPATH=src python -m pytest tests/test_golden_digests.py --tb=short

and update the constants below in the same commit that changes the
engine.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.conformance import DiffConfig, diff_models, run_diff
from repro.litmus import suite_from_diff, suite_from_synthesis
from repro.models import CATALOG, x86t_amd_bug, x86t_elt, x86tso
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


#: Pinned suites in which generation-time arrangement pruning drops
#: isomorphic programs: case -> (config fields, suite prefix or None
#: for the diff suite, pinned digest, programs enumerated with the
#: pruning ablated).  With pruning on they enumerate 43, 88 and 43.
PRUNING_ABLATIONS = {
    "invlpg@5": (
        {"bound": 5, "model": x86t_elt, "target_axiom": "invlpg"},
        "invlpg",
        GOLDEN_SUITES[("invlpg", 5, "explicit")],
        49,
    ),
    "x86tso-mcm@3": (
        {"bound": 3, "model": x86tso, "mcm_mode": True, "max_threads": 3},
        "x86tso",
        GOLDEN_MODEL_SUITES[("x86tso", 3, True, 3)],
        142,
    ),
    "diff@5": ({"bound": 5, "model": x86t_elt}, None, GOLDEN_DIFF_SUITE, 49),
}

symmetry_axis = pytest.mark.parametrize(
    "symmetry", [False, True], ids=["no-symmetry", "symmetry"]
)
#: ``None`` runs serially; 4 runs the 4-shard plan of ``--jobs 4``
#: inline (shard plans, not process counts, are what could change
#: bytes — worker processes run the identical code).
plan_axis = pytest.mark.parametrize("shards", [None, 4], ids=["serial", "4-shard"])


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def synthesis_digest(config: SynthesisConfig, prefix: str, shards):
    """The digest and stats of ``config``'s suite under plan ``shards``."""
    if shards is None:
        result = synthesize(config)
    else:
        result = run_sharded(config, jobs=1, shard_count=shards).result
    text = suite_from_synthesis(result, prefix=prefix).dumps()
    return digest(text), result.stats


def diff_digest(base: SynthesisConfig, shards):
    """The same for the x86t_elt-vs-x86t_amd_bug diff suite over ``base``."""
    diff = DiffConfig(base=base, subject=x86t_amd_bug())
    if shards is None:
        cell = diff_models(diff)
    else:
        cell = run_diff(diff, jobs=1, shard_count=shards).cell
    return digest(suite_from_diff(cell).dumps()), cell.stats


@symmetry_axis
@plan_axis
@pytest.mark.parametrize(
    "axiom,bound,backend", sorted(GOLDEN_SUITES), ids=lambda v: str(v)
)
def test_axiom_suite_matches_golden_digest(
    axiom, bound, backend, shards, symmetry
) -> None:
    """Every pinned digest must hold on both symmetry paths
    (orbit-pruned and the --no-symmetry oracle) and both shard plans."""
    config = SynthesisConfig(
        bound=bound,
        model=x86t_elt(),
        target_axiom=axiom,
        witness_backend=backend,
        symmetry=symmetry,
    )
    got, _stats = synthesis_digest(config, axiom, shards)
    assert got == GOLDEN_SUITES[(axiom, bound, backend)]


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


@symmetry_axis
@plan_axis
@pytest.mark.parametrize("backend", ["explicit", "sat"])
def test_diff_suite_matches_golden_digest(backend, shards, symmetry) -> None:
    base = SynthesisConfig(
        bound=5, model=x86t_elt(), witness_backend=backend, symmetry=symmetry
    )
    got, _stats = diff_digest(base, shards)
    assert got == GOLDEN_DIFF_SUITE


@symmetry_axis
@plan_axis
@pytest.mark.parametrize("backend", ["explicit", "sat"])
@pytest.mark.parametrize(
    "model,bound,mcm,threads", sorted(GOLDEN_MODEL_SUITES), ids=lambda v: str(v)
)
def test_catalog_model_suite_matches_golden_digest(
    model, bound, mcm, threads, backend, shards, symmetry
) -> None:
    config = SynthesisConfig(
        bound=bound,
        model=CATALOG[model](),
        mcm_mode=mcm,
        max_threads=threads,
        witness_backend=backend,
        symmetry=symmetry,
    )
    got, _stats = synthesis_digest(config, model, shards)
    assert got == GOLDEN_MODEL_SUITES[(model, bound, mcm, threads)]


@symmetry_axis
@plan_axis
@pytest.mark.parametrize("backend", ["explicit", "sat"])
@pytest.mark.parametrize("case", sorted(PRUNING_ABLATIONS))
def test_pruning_ablation_matches_golden_digest(
    case, backend, shards, symmetry
) -> None:
    """With ``canonical_pruning`` off, isomorphic duplicate programs
    reach the pipeline (the pinned program count shows the ablation
    bites on this suite); orbit dedup and identity-ranked class
    selection must still give the pinned bytes."""
    fields, prefix, golden, programs = PRUNING_ABLATIONS[case]
    config = SynthesisConfig(
        **dict(fields, model=fields["model"]()),
        witness_backend=backend,
        symmetry=symmetry,
        canonical_pruning=False,
    )
    if prefix is None:
        got, stats = diff_digest(config, shards)
    else:
        got, stats = synthesis_digest(config, prefix, shards)
    assert got == golden
    assert stats.programs_enumerated == programs
