"""repro.obs — observability for the synthesis stack.

Four cooperating pieces (each in its own module):

* :mod:`.trace` — hierarchical span tracer (context-manager API,
  monotonic clocks, deterministic ids, cross-process
  :class:`~repro.obs.trace.SpanBatch` assembly);
* :mod:`.metrics` — the unified counter/gauge/histogram registry with
  one absorb/snapshot protocol and a deterministic-vs-informational
  split;
* :mod:`.export` — Chrome ``trace_event`` JSON (Perfetto-loadable) and
  JSONL event-log exporters, plus trace validation;
* :mod:`.manifest` — per-run manifests written next to SuiteStore
  artifacts (the provenance-ledger seed);
* :mod:`.progress` — TTY-aware live shard progress (off in CI).

Instrumentation points across the stack record into the *current*
tracer/registry (module-level, defaulting to no-op singletons), so the
hot path pays nothing unless a run turns observation on.  The
:class:`Observation` helper is the one-stop front door the CLI uses::

    obs = Observation(trace_path=args.trace)
    with obs:
        result = run(...)
    obs.finish(stats=result.stats, command="synthesize", identity=...)
"""

from __future__ import annotations

import time
from typing import Any, Optional

from .._lazy import lazy_exports
from .metrics import (
    NULL_REGISTRY,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    current_registry,
    install_registry,
    registry_from_suite_stats,
)
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanBatch,
    Tracer,
    current_tracer,
    install_tracer,
)

# The hot path records through ``metrics`` and ``trace``; manifests,
# exporters and the progress line load on first use.
__getattr__, __dir__ = lazy_exports(
    __name__,
    globals(),
    {
        "manifest": (
            "MANIFEST_KIND",
            "MANIFEST_SCHEMA",
            "build_manifest",
            "list_manifests",
            "load_manifest",
            "manifest_path",
            "sha256_digest",
            "store_manifest",
            "write_manifest",
        ),
        "progress": ("ProgressReporter", "progress_enabled"),
        "export": (
            "chrome_trace",
            "jsonl_records",
            "validate_chrome_trace",
            "write_trace",
        ),
    },
)

__all__ = [
    "MANIFEST_KIND",
    "MANIFEST_SCHEMA",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NullTracer",
    "Observation",
    "ProgressReporter",
    "Span",
    "SpanBatch",
    "Tracer",
    "build_manifest",
    "chrome_trace",
    "current_registry",
    "current_tracer",
    "install_registry",
    "install_tracer",
    "jsonl_records",
    "list_manifests",
    "load_manifest",
    "manifest_path",
    "progress_enabled",
    "registry_from_suite_stats",
    "sha256_digest",
    "store_manifest",
    "validate_chrome_trace",
    "write_manifest",
    "write_trace",
]


class Observation:
    """Owns one run's tracer + registry and their lifecycle.

    Disabled (``trace_path=None, enabled=False``) it installs nothing
    and every attribute is the shared no-op singleton, so wrapping a run
    in an Observation is always safe.  Enabled, it installs a fresh
    tracer/registry for the ``with`` body (restoring the previous ones
    on exit — reentrant), measures wall and CPU time, and on
    :meth:`finish` exports the trace and builds the run manifest.
    """

    def __init__(
        self,
        trace_path: Optional[str] = None,
        enabled: Optional[bool] = None,
        label: str = "main",
    ) -> None:
        self.trace_path = trace_path
        self.enabled = bool(trace_path) if enabled is None else enabled
        self.tracer = Tracer(label) if self.enabled else NULL_TRACER
        self.registry = MetricsRegistry() if self.enabled else NULL_REGISTRY
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.manifest: Optional[dict[str, Any]] = None
        self._prev_tracer: Any = None
        self._prev_registry: Any = None
        self._wall_start: Optional[float] = None
        self._cpu_start: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def __enter__(self) -> "Observation":
        if self.enabled:
            self._prev_tracer = install_tracer(self.tracer)
            self._prev_registry = install_registry(self.registry)
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._wall_start is not None:
            self.wall_s = time.perf_counter() - self._wall_start
            self.cpu_s = time.process_time() - (self._cpu_start or 0.0)
        if self.enabled:
            install_tracer(self._prev_tracer)
            install_registry(self._prev_registry)
        return False

    # -- results --------------------------------------------------------
    def finish(
        self,
        command: str,
        identity: Optional[dict[str, Any]] = None,
        identity_key: str = "",
        stats: Any = None,
        artifacts: Optional[dict[str, Any]] = None,
        cache_dir: Optional[str] = None,
        extra: Optional[dict[str, Any]] = None,
    ) -> Optional[dict[str, Any]]:
        """Fold suite stats into the registry, build the manifest, write
        the trace file and (when a store is in play) the store-side
        manifest copy.  Returns the manifest, or None when disabled."""
        if not self.enabled:
            return None
        # Lazy exports of this package: not globals here until read.
        from .export import write_trace
        from .manifest import build_manifest, store_manifest

        stage_times: dict[str, float] = {}
        if stats is not None:
            self.registry.absorb(registry_from_suite_stats(stats))
            stage_times = dict(stats.stage_times)
        snapshot = self.registry.snapshot()
        self.manifest = build_manifest(
            command=command,
            identity=identity or {},
            identity_key=identity_key,
            counters=self.registry.deterministic_snapshot(),
            wall_s=self.wall_s,
            cpu_s=self.cpu_s,
            stage_times=stage_times,
            artifacts=artifacts,
            informational=snapshot.get("informational"),
            extra=extra,
        )
        if cache_dir and identity_key:
            store_manifest(cache_dir, identity_key, self.manifest)
        if self.trace_path:
            write_trace(
                self.trace_path,
                self.tracer,
                stage_times=stage_times,
                metrics=snapshot,
                manifest=self.manifest,
            )
        return self.manifest
