"""Persistent, content-addressed whole-result store.

The store makes runs *skippable*: every completed whole result (a
synthesis suite, a diff cell, a fuzz run) is written under a key
derived from its full configuration, so re-running the same command
loads the finished result instead of recomputing it, and a rerun
sweep skips the points it already finished.

Layout (documented alongside the suite text format in
:mod:`repro.litmus.suitefile`)::

    <cache_dir>/
      entries/
        <key>.json   # metadata: kind, config fingerprint inputs, stats,
                     # and the payload's blake2b digest
        <key>.pkl    # payload: pickled SuiteResult, ConformanceCell
                     # or FuzzRunResult
      quarantine/    # corrupt/torn entries moved aside by verify-on-read
      .write.lock    # cross-process writer lock (best-effort)

``<key>`` is the first 32 hex digits of the SHA-256 of a canonical JSON
rendering of the entry identity.  Identity covers every knob that can
change the synthesized artifact — model name and axiom list, bound,
target axiom, thread/VA caps, feature toggles, ablations, the time
budget and a schema version (bumped whenever engine output semantics
change) — so a stale or mismatched cache can never masquerade as a hit.

Integrity: every payload's blake2b digest is recorded in the entry meta
and **verified on read** before unpickling.  A corrupt, torn, or
undigested entry is never unpickled — it is moved into ``quarantine/``,
counted under ``counters.corrupt`` (distinct from ``counters.misses``:
a true absence), logged with its key, and served as a cache miss so the
caller recomputes (and heals) it.  Writers additionally take a
best-effort cross-process :class:`~repro.resilience.FileLock` around
the meta+payload pair.

Writes are atomic (tempfile + ``os.replace``) so an interrupted run never
leaves a half-written entry; timed-out results are **never** stored
(their partial suites must not satisfy a later complete run).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional, Union

from ..obs import current_registry, current_tracer
from ..resilience import FileLock
from ..synth import SynthesisConfig

logger = logging.getLogger(__name__)

#: Bump when engine output semantics change: cached entries from older
#: schemas silently become misses.  2: order-free representative
#: selection (identity-ranked class winners, (canonical key, witness
#: sort key)-minimal witnesses) and the symmetry-aware pipeline fields.
#: 3: shard results grew observability payload fields (span batches and
#: metrics registries) — older pickles lack them, so they must miss.
#: 4: integrity-checked entries (payload digests required in meta) and
#: resilience fields on tasks/stats — undigested entries must miss.
SCHEMA_VERSION = 4

KIND_SUITE = "suite"
# A differential-conformance cell (repro.conformance.ConformanceCell).
# Its identity dict additionally carries the subject model; see
# repro.conformance.runner.diff_identity.
KIND_DIFF_CELL = "diff-cell"
# A coverage-guided fuzz run (repro.fuzz.FuzzRunResult).  Its identity
# dict comes from repro.fuzz.config.fuzz_identity — seed, bound, pair,
# and round/attempt schedule.
KIND_FUZZ_RUN = "fuzz-run"


def config_identity(config: SynthesisConfig) -> dict[str, Any]:
    """The JSON-safe identity of a synthesis configuration.

    The model contributes its name and ordered axiom names (axiom
    *predicates* are code; the schema version stands in for code
    revisions).  All other dataclass fields participate directly.
    """
    identity: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "model": config.model.name,
        "axioms": list(config.model.axiom_names),
    }
    for name, value in asdict(config).items():
        if name == "model":
            continue
        if name == "symmetry":
            # An output-invariant execution strategy (like --jobs): the
            # symmetry-pruned path is contractually byte-identical to the
            # --no-symmetry oracle, so both share cache entries.
            continue
        identity[name] = value
    return identity


def identity_key(identity: dict[str, Any]) -> str:
    """Content-address an arbitrary JSON-safe identity dict (the raw
    primitive behind :func:`store_key`)."""
    rendered = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:32]


def store_key(identity: dict[str, Any], kind: str) -> str:
    """The key of one entry: its identity dict plus its kind."""
    return identity_key(dict(identity, kind=kind))


def payload_digest(data: bytes) -> str:
    """The store's payload digest: blake2b-256 hex."""
    return hashlib.blake2b(data, digest_size=32).hexdigest()


@dataclass
class StoreCounters:
    hits: int = 0
    #: True absences: no payload on disk for the key.
    misses: int = 0
    #: Corrupt/torn/undigested entries quarantined on read — distinct
    #: from ``misses`` so a rerun can tell "never computed" from
    #: "computed but damaged".
    corrupt: int = 0
    stores: int = 0


class SuiteStore:
    """On-disk cache of completed whole results."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / "quarantine"
        self.counters = StoreCounters()
        self._lock = FileLock(self.root / ".write.lock")

    # -- paths ---------------------------------------------------------
    def _payload_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.pkl"

    def _meta_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    # -- primitives ----------------------------------------------------
    def _read_meta(self, key: str) -> Optional[dict[str, Any]]:
        try:
            with open(self._meta_path(key), "r", encoding="utf-8") as handle:
                meta = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        return meta if isinstance(meta, dict) else None

    def _quarantine(self, key: str, reason: str) -> None:
        """Move a damaged entry aside so the caller recomputes it."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        for path in (self._payload_path(key), self._meta_path(key)):
            if path.exists():
                try:
                    os.replace(path, self.quarantine_dir / path.name)
                except OSError:
                    pass
        self.counters.corrupt += 1
        current_registry().inc("store.corrupt", informational=True)
        logger.warning(
            "quarantined corrupt store entry %s (%s) under %s",
            key,
            reason,
            self.quarantine_dir,
        )

    def get(self, key: str) -> Optional[Any]:
        path = self._payload_path(key)
        with current_tracer().span("store.get", category="store", key=key) as span:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
            except FileNotFoundError:
                self.counters.misses += 1
                current_registry().inc("store.misses", informational=True)
                if span is not None:
                    span.args["hit"] = False
                return None
            except OSError:
                data = None
            reason = None
            payload = None
            if data is None:
                reason = "unreadable payload"
            else:
                meta = self._read_meta(key)
                expected = (meta or {}).get("payload_blake2b")
                if expected is None:
                    reason = "missing or undigested meta"
                elif payload_digest(data) != expected:
                    reason = "payload digest mismatch"
                else:
                    try:
                        payload = pickle.loads(data)
                    except Exception:
                        reason = "unpicklable payload"
            if reason is not None:
                self._quarantine(key, reason)
                if span is not None:
                    span.args["hit"] = False
                    span.args["corrupt"] = True
                return None
            self.counters.hits += 1
            current_registry().inc("store.hits", informational=True)
            if span is not None:
                span.args["hit"] = True
            return payload

    def put(self, key: str, payload: Any, meta: dict[str, Any]) -> None:
        data = pickle.dumps(payload, protocol=4)
        meta = dict(meta)
        meta["payload_blake2b"] = payload_digest(data)
        meta["payload_bytes"] = len(data)
        with current_tracer().span("store.put", category="store", key=key):
            with self._lock:
                self._atomic_write(
                    self._meta_path(key),
                    json.dumps(meta, sort_keys=True, indent=2).encode("utf-8"),
                )
                self._atomic_write(self._payload_path(key), data)
        self.counters.stores += 1
        current_registry().inc("store.stores", informational=True)

    def _atomic_write(self, path: Path, data: bytes) -> None:
        descriptor, tmp_name = tempfile.mkstemp(
            dir=self.entries_dir, suffix=".tmp"
        )
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

    # -- entries by identity ------------------------------------------
    def load(self, identity: dict[str, Any], kind: str) -> Optional[Any]:
        return self.get(store_key(identity, kind))

    def save(self, identity: dict[str, Any], kind: str, payload: Any) -> None:
        """Persist one finished whole result (a suite, a diff cell or a
        fuzz run) under its identity.

        Timed-out work is never cached: it must not satisfy a later
        complete run.
        """
        stats = payload.stats
        if stats.timed_out:
            return
        meta = {"kind": kind, "identity": identity, "runtime_s": stats.runtime_s}
        self.put(store_key(identity, kind), payload, meta)
