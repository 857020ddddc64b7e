"""Per-run manifests: the durable record of what a run was.

A manifest is a small JSON document binding together

* the **command** that ran (subcommand + the arguments that shape it),
* the **config identity** and its content-address
  (:func:`repro.orchestrate.store.identity_key`) — the same key the
  SuiteStore files results under, so a manifest can be joined to the
  artifacts it describes,
* **input/output digests** (SHA-256) of any files the run read/wrote,
* the **deterministic counter snapshot** from the metrics registry
  (invariant across ``--jobs``/cache warmth — the part CI pins),
* wall/CPU time and informational metrics (legitimately run-shaped).

Manifests are written atomically under ``<cache_dir>/manifests/`` next
to the SuiteStore's ``entries/`` — the seed of the provenance ledger the
ROADMAP calls for — and also embedded in trace exports.  ``repro stats``
renders them back.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Any, Optional, Union

MANIFEST_KIND = "run-manifest"
MANIFEST_SCHEMA = 1
MANIFESTS_DIR = "manifests"


def sha256_digest(path: Union[str, Path]) -> Optional[str]:
    """Hex SHA-256 of a file's bytes (None when unreadable)."""
    # Imported here: hashlib loads OpenSSL, which only digests need.
    import hashlib

    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 16), b""):
                digest.update(chunk)
    except OSError:
        return None
    return digest.hexdigest()


def build_manifest(
    command: str,
    identity: dict[str, Any],
    identity_key: str,
    counters: dict[str, Any],
    wall_s: float,
    cpu_s: float,
    stage_times: Optional[dict[str, float]] = None,
    artifacts: Optional[dict[str, Union[str, Path]]] = None,
    informational: Optional[dict[str, Any]] = None,
    extra: Optional[dict[str, Any]] = None,
) -> dict[str, Any]:
    """Assemble a manifest document.

    ``counters`` is the registry's ``deterministic_snapshot()``;
    ``artifacts`` maps logical names to file paths, digested here.
    Everything under ``"counters"`` must be jobs-invariant — timing and
    other run-shaped values go under ``"timing"`` / ``"informational"``.
    """
    digests = {}
    for name, path in sorted((artifacts or {}).items()):
        digests[name] = {
            "path": str(path),
            "sha256": sha256_digest(path),
        }
    manifest: dict[str, Any] = {
        "kind": MANIFEST_KIND,
        "schema": MANIFEST_SCHEMA,
        "command": command,
        "identity": identity,
        "identity_key": identity_key,
        "counters": counters,
        "artifacts": digests,
        "timing": {
            "wall_s": round(wall_s, 6),
            "cpu_s": round(cpu_s, 6),
            "stage_s": {
                name: round(seconds, 6)
                for name, seconds in sorted((stage_times or {}).items())
            },
        },
    }
    if informational:
        manifest["informational"] = informational
    if extra:
        manifest.update(extra)
    return manifest


def manifest_dir(cache_dir: Union[str, Path]) -> Path:
    return Path(cache_dir) / MANIFESTS_DIR


def manifest_path(cache_dir: Union[str, Path], identity_key: str) -> Path:
    return manifest_dir(cache_dir) / f"{identity_key}.json"


def write_manifest(path: Union[str, Path], manifest: dict[str, Any]) -> Path:
    """Atomic write (tempfile + ``os.replace``, matching the store)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
    descriptor, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "wb") as handle:
            handle.write(data)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def store_manifest(
    cache_dir: Union[str, Path],
    identity_key: str,
    manifest: dict[str, Any],
) -> Path:
    """File a manifest under the store's ``manifests/`` tree, keyed by
    the run's config identity (a rerun of the same config overwrites —
    the manifest describes the *latest* run that produced the entry)."""
    return write_manifest(manifest_path(cache_dir, identity_key), manifest)


def load_manifest(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None
    if not isinstance(payload, dict) or payload.get("kind") != MANIFEST_KIND:
        return None
    return payload


def list_manifests(cache_dir: Union[str, Path]) -> list[dict[str, Any]]:
    """All manifests in a store, sorted by identity key (deterministic
    listing order regardless of filesystem enumeration)."""
    directory = manifest_dir(cache_dir)
    if not directory.is_dir():
        return []
    manifests = []
    for path in sorted(directory.glob("*.json")):
        manifest = load_manifest(path)
        if manifest is not None:
            manifests.append(manifest)
    return manifests
