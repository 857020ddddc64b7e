"""Documentation link check: every intra-repo markdown link must
resolve.

Scans ``README.md`` and every page under ``docs/`` for markdown links
and validates the repo-relative targets (external ``http(s)``/``mailto``
links are skipped; ``#fragment``-only links are checked against the
target file's headings).  This is the tier-1 face of the CI docs job —
a moved or renamed file fails here, not in a reader's browser.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` — good enough for our hand-written markdown
#: (no nested brackets, no angle-bracket autolinks in targets).
LINK_RE = re.compile(r"\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)


def _documents() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return docs


def _anchor_of(heading: str) -> str:
    """GitHub's heading→anchor slug (lowercase, spaces→dashes, drop
    everything but word characters and dashes)."""
    slug = heading.strip().lower().replace(" ", "-")
    return re.sub(r"[^\w\-]", "", slug)


def _anchors(path: Path) -> set[str]:
    return {
        _anchor_of(match) for match in HEADING_RE.findall(path.read_text())
    }


@pytest.mark.parametrize(
    "document", _documents(), ids=lambda p: str(p.relative_to(REPO_ROOT))
)
def test_intra_repo_links_resolve(document: Path) -> None:
    failures = []
    for target in LINK_RE.findall(document.read_text()):
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        path_part, _, fragment = target.partition("#")
        if path_part:
            resolved = (document.parent / path_part).resolve()
            if not resolved.exists():
                failures.append(f"{target}: {path_part} does not exist")
                continue
        else:
            resolved = document
        if fragment and resolved.suffix == ".md":
            if fragment not in _anchors(resolved):
                failures.append(
                    f"{target}: no heading for anchor #{fragment}"
                )
    assert not failures, "\n".join(failures)


def test_docs_tree_is_complete() -> None:
    """The documentation pages the README promises must all exist."""
    expected = {
        "ARCHITECTURE.md",
        "CLI.md",
        "SAT_SUBSTRATE.md",
        "DIFFERENCING.md",
        "SYMMETRY.md",
        "BENCHMARKS.md",
        "OBSERVABILITY.md",
    }
    present = {path.name for path in (REPO_ROOT / "docs").glob("*.md")}
    assert expected <= present
