"""Multi-ELT suite files: persist synthesized suites to disk and reload
them (the shape of the paper's deliverable — "a complete set of ELTs" —
as an artifact downstream verification flows can consume).

Format: a header line, then named sections each containing one ELT in the
machine format of :mod:`repro.litmus.format`::

    eltsuite v1
    # optional comments
    test <name>
    meta violates=sc_per_loc,invlpg bound=4
    elt
    map x pa_a
    ...
    endtest

Relationship to the persistent suite store
------------------------------------------

``.elts`` text files are the *human-facing, portable* artifact: stable
across releases, diffable, and identical whether a suite was synthesized
serially or sharded across workers (``transform-synth synthesize --save``
with any ``--jobs``).

The orchestrator's on-disk cache (:class:`repro.orchestrate.SuiteStore`,
``--cache-dir``) is the *machine-facing* companion.  Its layout::

    <cache_dir>/
      entries/
        <key>.json   # entry metadata (kind, config identity, stats)
        <key>.pkl    # payload: pickled whole result (SuiteResult, ...)

Entries are content-addressed: ``<key>`` hashes the full synthesis
configuration (model + axioms, bound, target axiom, feature toggles,
schema version), so a cache can be shared between runs and machines
without risk of a stale entry being mistaken for current work.  Cache
payloads keep exact in-memory objects; export to this module's text
format remains the way to publish a suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Union

from ..errors import LitmusFormatError
from ..mtm import Execution
from .format import serialize_elt
from .parser import parse_elt

HEADER = "eltsuite v1"


@dataclass
class SuiteEntry:
    name: str
    #: The ELT: an :class:`Execution` (parsed, or a fuzz finding's) or a
    #: synthesized ELT, which keeps only its program and witness.
    elt: object
    meta: Mapping[str, str] = field(default_factory=dict)

    @property
    def execution(self) -> Execution:
        """The entry's execution; a synthesized ELT rebuilds it."""
        elt = self.elt
        return elt if isinstance(elt, Execution) else elt.execution


@dataclass
class EltSuite:
    """An ordered, named collection of ELTs."""

    entries: list[SuiteEntry] = field(default_factory=list)

    def add(
        self,
        name: str,
        elt,
        meta: Optional[Mapping[str, str]] = None,
    ) -> None:
        if any(entry.name == name for entry in self.entries):
            raise LitmusFormatError(f"duplicate test name {name!r}")
        self.entries.append(SuiteEntry(name, elt, dict(meta or {})))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def names(self) -> list[str]:
        return [entry.name for entry in self.entries]

    def get(self, name: str) -> SuiteEntry:
        for entry in self.entries:
            if entry.name == name:
                return entry
        raise LitmusFormatError(f"no test named {name!r}")

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def dumps(self) -> str:
        lines = [HEADER]
        for entry in self.entries:
            lines.append("")
            lines.append(f"test {entry.name}")
            if entry.meta:
                rendered = " ".join(
                    f"{key}={value}" for key, value in sorted(entry.meta.items())
                )
                lines.append(f"meta {rendered}")
            lines.append(serialize_elt(entry.elt).rstrip("\n"))
            lines.append("endtest")
        return "\n".join(lines) + "\n"

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        path.write_text(self.dumps())
        return path

    @classmethod
    def loads(cls, text: str) -> "EltSuite":
        lines = text.splitlines()
        if not lines or lines[0].strip() != HEADER:
            raise LitmusFormatError(
                f"suite file must start with {HEADER!r}"
            )
        suite = cls()
        index = 1
        while index < len(lines):
            line = lines[index].strip()
            index += 1
            if not line or line.startswith("#"):
                continue
            if not line.startswith("test "):
                raise LitmusFormatError(f"expected 'test <name>', got {line!r}")
            name = line[len("test "):].strip()
            meta: dict[str, str] = {}
            body: list[str] = []
            while index < len(lines):
                inner = lines[index]
                stripped = inner.strip()
                index += 1
                if stripped == "endtest":
                    break
                if stripped.startswith("meta "):
                    for token in stripped[len("meta "):].split():
                        if "=" not in token:
                            raise LitmusFormatError(
                                f"bad meta token {token!r} in test {name!r}"
                            )
                        key, value = token.split("=", 1)
                        meta[key] = value
                    continue
                body.append(inner)
            else:
                raise LitmusFormatError(f"test {name!r} missing 'endtest'")
            suite.add(name, parse_elt("\n".join(body)), meta)
        return suite

    @classmethod
    def load(cls, path: Union[str, Path]) -> "EltSuite":
        return cls.loads(Path(path).read_text())


def suite_from_diff(cell, prefix: str = "diff") -> EltSuite:
    """Package a :class:`~repro.conformance.ConformanceCell`'s
    discriminating ELTs as a persistable suite.

    Each entry carries the model pair in its metadata (``reference`` is
    the model that forbids the test, ``subject`` the model that permits
    it — observing the test's outcome on hardware proves the subject
    describes the machine), plus the reference axioms the representative
    execution violates.  Because the diff pipeline picks representatives
    by canonical key rather than stream position, the serialized bytes
    are identical across ``--jobs`` settings *and* witness backends.
    """
    suite = EltSuite()
    for index, elt in enumerate(cell.elts, start=1):
        suite.add(
            f"{prefix}_{index:03d}",
            elt,
            meta={
                "reference": cell.reference,
                "subject": cell.subject,
                "violates": ",".join(elt.violated_axioms),
                "bound": str(cell.bound),
                "agreement": "only-reference-forbids",
                "outcomes": str(elt.outcome_count),
            },
        )
    return suite


def suite_from_fuzz(result, prefix: str = "fuzz") -> EltSuite:
    """Package a :class:`~repro.fuzz.FuzzRunResult`'s shrunk findings as
    a persistable suite.

    Same shape as :func:`suite_from_diff` — each finding is a
    reference-forbidden, subject-permitted, §IV-B-minimal ELT — with the
    fuzz provenance added: the run seed, the shrunk program's event
    bound, the winning attempt's shrink-step count, and the finding's
    orbit-class digest (the corpus file name stem).  Findings arrive
    deduplicated and rank-sorted from the runner, so the serialized
    bytes are identical across ``--jobs`` and shard splits.
    """
    suite = EltSuite()
    for index, finding in enumerate(result.findings, start=1):
        suite.add(
            f"{prefix}_{index:03d}",
            finding.execution,
            meta={
                "reference": result.reference,
                "subject": result.subject,
                "violates": ",".join(finding.violated_axioms),
                "bound": str(finding.program.size),
                "agreement": "only-reference-forbids",
                "seed": str(result.seed),
                "shrink_steps": str(finding.shrink_steps),
                "class": finding.digest,
            },
        )
    return suite


def suite_from_synthesis(result, prefix: str = "elt") -> EltSuite:
    """Package a :class:`~repro.synth.SuiteResult` as a persistable suite."""
    suite = EltSuite()
    for index, elt in enumerate(result.elts, start=1):
        suite.add(
            f"{prefix}_{index:03d}",
            elt,
            meta={
                "violates": ",".join(elt.violated_axioms),
                "bound": str(result.bound),
                "axiom": result.target_axiom or "any",
                "outcomes": str(elt.outcome_count),
            },
        )
    return suite
