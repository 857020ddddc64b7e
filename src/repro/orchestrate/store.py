"""Persistent, content-addressed suite store.

The store makes synthesis runs *resumable* and *skippable*: every
completed shard and every completed merged suite is written under a key
derived from the full synthesis configuration (plus the shard spec for
shard entries), so re-running the same command — after an interruption,
or verbatim — loads finished work instead of recomputing it.

Layout (documented alongside the suite text format in
:mod:`repro.litmus.suitefile`)::

    <cache_dir>/
      entries/
        <key>.json   # metadata: kind, config fingerprint inputs, stats,
                     # and the payload's blake2b digest
        <key>.pkl    # payload: pickled ShardResult or SuiteResult
      quarantine/    # corrupt/torn entries moved aside by verify-on-read
      .write.lock    # cross-process writer lock (best-effort)

``<key>`` is the first 32 hex digits of the SHA-256 of a canonical JSON
rendering of the entry identity.  Identity covers every knob that can
change the synthesized artifact — model name and axiom list, bound,
target axiom, thread/VA caps, feature toggles, ablations, the time
budget, a schema version (bumped whenever engine output semantics
change), and for shard entries the shard stride — so a stale or
mismatched cache can never masquerade as a hit.

Integrity: every payload's blake2b digest is recorded in the entry meta
and **verified on read** before unpickling.  A corrupt, torn, or
undigested entry is never unpickled — it is moved into ``quarantine/``,
counted under ``counters.corrupt`` (distinct from ``counters.misses``:
a true absence), logged with its key, and served as a cache miss so the
caller recomputes (and heals) it.  Writers additionally take a
best-effort cross-process :class:`~repro.resilience.FileLock` around
the meta+payload pair.  :meth:`SuiteStore.verify` scans the whole store
offline (the ``repro store verify`` / ``--repair`` CLI).

Writes are atomic (tempfile + ``os.replace``) so an interrupted run never
leaves a half-written entry; timed-out or degraded results are **never**
stored (their partial suites must not satisfy a later complete run).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import pickle
import tempfile
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Optional, Union

from ..obs import current_registry, current_tracer
from ..resilience import FaultPlan, FileLock, flip_bit
from ..synth import SynthesisConfig
from .shards import ShardSpec

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

KIND_SHARD = "shard"
KIND_SUITE = "suite"
# Differential-conformance entries (payloads produced by
# repro.conformance: DiffShardResult and ConformanceCell).  Their
# identity dicts additionally carry the subject model; see
# repro.conformance.runner.diff_identity.
KIND_DIFF_SHARD = "diff-shard"
KIND_DIFF_CELL = "diff-cell"
# Coverage-guided fuzzing entries (payloads produced by repro.fuzz:
# FuzzShardResult per (round, shard), FuzzRunResult per run).  Their
# identity dicts come from repro.fuzz.config.fuzz_identity — seed,
# bound, pair, and round/attempt schedule; see repro.fuzz.runner.
KIND_FUZZ_SHARD = "fuzz-shard"
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
        if name in ("incremental", "symmetry"):
            # Output-invariant execution strategies (like --jobs): the
            # incremental-session path is contractually byte-identical
            # to the fresh-solver path and the symmetry-pruned path to
            # the --no-symmetry oracle, so each variant shares cache
            # entries.
            continue
        identity[name] = value
    return identity


def identity_key(identity: dict[str, Any]) -> str:
    """Content-address an arbitrary JSON-safe identity dict (the raw
    primitive behind :func:`entry_key`; conformance entries build their
    own identity dicts and hash them through this)."""
    rendered = json.dumps(identity, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(rendered.encode("utf-8")).hexdigest()[:32]


def entry_key(
    config: SynthesisConfig,
    kind: str,
    spec: Optional[ShardSpec] = None,
) -> str:
    identity = config_identity(config)
    identity["kind"] = kind
    if spec is not None:
        identity["shard"] = asdict(spec)
    return identity_key(identity)


def payload_digest(data: bytes) -> str:
    """The store's payload digest: blake2b-256 hex."""
    return hashlib.blake2b(data, digest_size=32).hexdigest()


@dataclass
class StoreCounters:
    hits: int = 0
    #: True absences: no payload on disk for the key.
    misses: int = 0
    #: Corrupt/torn/undigested entries quarantined on read — distinct
    #: from ``misses`` so resume reporting can tell "never computed"
    #: from "computed but damaged".
    corrupt: int = 0
    stores: int = 0


@dataclass
class VerifyReport:
    """Outcome of one offline :meth:`SuiteStore.verify` scan."""

    scanned: int = 0
    ok: int = 0
    #: Keys whose payload digest/meta failed verification.
    corrupt: list[str] = field(default_factory=list)
    #: Keys with a payload but no meta, or meta but no payload.
    orphaned: list[str] = field(default_factory=list)
    #: True when --repair moved the bad entries into quarantine/.
    repaired: bool = False

    @property
    def clean(self) -> bool:
        return not self.corrupt and not self.orphaned

    def to_json(self) -> dict[str, Any]:
        return {
            "scanned": self.scanned,
            "ok": self.ok,
            "corrupt": sorted(self.corrupt),
            "orphaned": sorted(self.orphaned),
            "repaired": self.repaired,
            "clean": self.clean,
        }


class SuiteStore:
    """On-disk cache of completed shard and suite results.

    ``faults`` is the chaos hook: a seeded
    :class:`~repro.resilience.FaultPlan` may flip one bit in a payload
    as it is written (first write per key only), exercising exactly the
    verify-on-read/quarantine/recompute path a torn write would.
    """

    def __init__(
        self, root: Union[str, Path], faults: Optional[FaultPlan] = None
    ) -> None:
        self.root = Path(root)
        self.entries_dir = self.root / "entries"
        self.entries_dir.mkdir(parents=True, exist_ok=True)
        self.quarantine_dir = self.root / "quarantine"
        self.counters = StoreCounters()
        self.faults = faults
        self._lock = FileLock(self.root / ".write.lock")

    # -- paths ---------------------------------------------------------
    def _payload_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.pkl"

    def _meta_path(self, key: str) -> Path:
        return self.entries_dir / f"{key}.json"

    # -- primitives ----------------------------------------------------
    def has(self, key: str) -> bool:
        return self._payload_path(key).exists()

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
        # Fault injection models the storage medium corrupting bytes
        # *after* the digest was taken — flipping before digesting would
        # make the digest vouch for the corrupted payload, hiding every
        # flip that still unpickles.
        if self.faults is not None and self.faults.take_store_corruption(key):
            data = flip_bit(data, self.faults.corrupt_offset(key, len(data)))
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

    # -- offline integrity ---------------------------------------------
    def verify(self, repair: bool = False) -> VerifyReport:
        """Digest-check every entry; with ``repair``, quarantine the
        damaged ones (the ``repro store verify [--repair]`` backend).

        Unpaired files (payload without meta or meta without payload —
        a write torn between the two) count as ``orphaned``.
        """
        report = VerifyReport()
        keys = sorted(
            {path.stem for path in self.entries_dir.glob("*.pkl")}
            | {path.stem for path in self.entries_dir.glob("*.json")}
        )
        bad: list[str] = []
        for key in keys:
            report.scanned += 1
            payload_path = self._payload_path(key)
            meta = self._read_meta(key)
            if not payload_path.exists() or meta is None:
                report.orphaned.append(key)
                bad.append(key)
                continue
            expected = meta.get("payload_blake2b")
            try:
                data = payload_path.read_bytes()
            except OSError:
                data = None
            if (
                data is None
                or expected is None
                or payload_digest(data) != expected
            ):
                report.corrupt.append(key)
                bad.append(key)
                continue
            report.ok += 1
        if repair and bad:
            with self._lock:
                for key in bad:
                    self._quarantine(key, "verify --repair")
            report.repaired = True
        return report

    # -- typed helpers -------------------------------------------------
    def load_shard(self, config: SynthesisConfig, spec: ShardSpec):
        return self.get(entry_key(config, KIND_SHARD, spec))

    def save_shard(self, config: SynthesisConfig, spec: ShardSpec, shard_result) -> None:
        if shard_result.stats.timed_out:
            return  # partial work must not satisfy a later complete run
        # Span batches describe one concrete run and must not replay from
        # cache; the metrics registry *is* stored — its histograms follow
        # the snapshot-replay convention, so cache hits re-report them.
        if getattr(shard_result, "spans", None) is not None:
            shard_result = replace(shard_result, spans=None)
        self.put(
            entry_key(config, KIND_SHARD, spec),
            shard_result,
            {
                "kind": KIND_SHARD,
                "identity": config_identity(config),
                "shard": asdict(spec),
                "unique_programs": shard_result.stats.unique_programs,
                "runtime_s": shard_result.runtime_s,
            },
        )

    def load_suite(self, config: SynthesisConfig):
        return self.get(entry_key(config, KIND_SUITE))

    def save_suite(self, config: SynthesisConfig, result) -> None:
        if result.stats.timed_out or result.stats.degraded:
            return  # partial/degraded work must not satisfy a complete run
        self.put(
            entry_key(config, KIND_SUITE),
            result,
            {
                "kind": KIND_SUITE,
                "identity": config_identity(config),
                "unique_programs": result.stats.unique_programs,
                "runtime_s": result.stats.runtime_s,
            },
        )
