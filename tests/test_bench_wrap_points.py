"""The end-to-end benchmark's span map must keep resolving.

``bench_e2e`` traces a run by replacing functions of ``src/repro`` at
the names in ``bench_e2e/layers.py``.  A renamed or removed target does
not fail the traced run — it is reported as missing and marks the
result incorrect — so every target is checked here, where a refactor
that moves one fails fast.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench_e2e"
sys.path.insert(0, str(BENCH_DIR))

import layers  # noqa: E402
import tracing  # noqa: E402


def _targets() -> list:
    tree = types.SimpleNamespace(extra={})
    points = [target for target, *_rest in layers.wrap_points(tree)]
    return points + list(layers.WORKER_ENTRIES)


@pytest.mark.parametrize("target", _targets())
def test_wrap_target_resolves(target: str) -> None:
    assert target.startswith("repro.")
    owner, attr = tracing.resolve(target)
    assert callable(getattr(owner, attr))
