"""The unified metrics registry.

One namespace for every counter the stack produces: the existing
:class:`~repro.synth.SuiteStats` / :class:`~repro.sat.SolverStats`
counters (ingested via :func:`registry_from_suite_stats`), plus the
gauges and histograms only the observability layer collects —
conflicts/restarts/learned clauses per enumeration burst, cache hit
counts, witnesses per program.

Determinism contract
--------------------

Metrics split into two classes:

* **deterministic** — counters and histograms whose values are a pure
  function of the synthesis configuration, *independent of ``--jobs``,
  cache warmth, and machine*.  The SAT histograms observe each
  program's enumeration once, in whichever process runs it
  (:func:`repro.synth.engine.witness_stream_factory`), so the totals
  never depend on where work actually happened.
  ``deterministic_snapshot()`` is what run manifests embed and what CI
  pins against a baseline.
* **informational** — process-shaped values (store hits/misses) that
  legitimately vary across ``--jobs``.  They are reported, but excluded
  from the deterministic snapshot.

``absorb`` merges are commutative and associative (integer sums,
bucket-wise histogram sums, min/max), so shard-merged totals equal the
serial run's regardless of completion order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional


@dataclass
class Histogram:
    """Power-of-two-bucketed distribution of non-negative integers.

    Bucket ``b`` counts observations with ``value.bit_length() == b``
    (i.e. bucket 0 holds zeros, bucket b holds [2^(b-1), 2^b)).  All
    fields are integers, so merges and snapshots are exact."""

    buckets: dict = field(default_factory=dict)
    count: int = 0
    total: int = 0
    min_value: Optional[int] = None
    max_value: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        bucket = value.bit_length()
        self.buckets[bucket] = self.buckets.get(bucket, 0) + 1
        self.count += 1
        self.total += value
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other: "Histogram") -> None:
        for bucket, count in other.buckets.items():
            self.buckets[bucket] = self.buckets.get(bucket, 0) + count
        self.count += other.count
        self.total += other.total
        for value in (other.min_value,):
            if value is not None and (
                self.min_value is None or value < self.min_value
            ):
                self.min_value = value
        for value in (other.max_value,):
            if value is not None and (
                self.max_value is None or value > self.max_value
            ):
                self.max_value = value

    def snapshot(self) -> dict:
        return {
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
            "count": self.count,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }


class MetricsRegistry:
    """Counters, gauges, and histograms under one absorb/snapshot
    protocol (see the module docstring for the determinism split)."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.info_counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def __bool__(self) -> bool:
        return True

    # -- recording ------------------------------------------------------
    def inc(self, name: str, delta: int = 1, informational: bool = False) -> None:
        table = self.info_counters if informational else self.counters
        table[name] = table.get(name, 0) + delta

    def set_gauge(self, name: str, value: float) -> None:
        """Gauges are last-write-wins and always informational (a merge
        keeps the larger value, making absorb order-free)."""
        self.gauges[name] = value

    def observe(self, name: str, value: int) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    # -- merging --------------------------------------------------------
    def absorb(self, other: Optional["MetricsRegistry"]) -> None:
        if other is None or other is NULL_REGISTRY:
            return
        for name, value in other.counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in other.info_counters.items():
            self.info_counters[name] = self.info_counters.get(name, 0) + value
        for name, value in other.gauges.items():
            if name not in self.gauges or value > self.gauges[name]:
                self.gauges[name] = value
        for name, histogram in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = Histogram()
            mine.merge(histogram)

    # -- views ----------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, JSON-safe and key-sorted."""
        out = self.deterministic_snapshot()
        out["informational"] = {
            "counters": dict(sorted(self.info_counters.items())),
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
        }
        return out

    def deterministic_snapshot(self) -> dict:
        """Only the metrics that are invariant across ``--jobs``, cache
        warmth, and machines — the manifest/CI surface."""
        return {
            "counters": dict(sorted(self.counters.items())),
            "histograms": {
                name: self.histograms[name].snapshot()
                for name in sorted(self.histograms)
            },
        }


class NullRegistry:
    """Disabled registry: no-op recording, falsy, nothing to snapshot."""

    enabled = False
    counters: dict = {}
    info_counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}

    __slots__ = ()

    def __bool__(self) -> bool:
        return False

    def inc(self, name, delta=1, informational=False) -> None:
        return None

    def set_gauge(self, name, value) -> None:
        return None

    def observe(self, name, value) -> None:
        return None

    def absorb(self, other) -> None:
        return None

    def snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}, "informational": {}}

    def deterministic_snapshot(self) -> dict:
        return {"counters": {}, "histograms": {}}


#: The process-wide disabled registry (singleton; never mutated).
NULL_REGISTRY = NullRegistry()

_CURRENT: object = NULL_REGISTRY


def current_registry():
    """The registry instrumentation points record into (the null
    registry unless observation is active)."""
    return _CURRENT


def install_registry(registry) -> object:
    global _CURRENT
    previous = _CURRENT
    _CURRENT = registry if registry is not None else NULL_REGISTRY
    return previous


def registry_from_suite_stats(stats) -> MetricsRegistry:
    """Project a :class:`~repro.synth.SuiteStats` into the unified
    namespace: every summed counter becomes ``suite.<name>``, stage wall
    times become ``stage_s.<stage>`` gauges (times are informational by
    definition).  ``--profile`` and the run manifests are views over
    this projection, so the registry is the single naming authority."""
    registry = MetricsRegistry()
    for name in stats.SUMMED_FIELDS:
        registry.inc(f"suite.{name}", getattr(stats, name))
    registry.inc("suite.unique_programs", stats.unique_programs)
    registry.inc("suite.timed_out", 1 if stats.timed_out else 0)
    registry.inc("suite.degraded", 1 if stats.degraded else 0)
    for stage, seconds in stats.stage_times.items():
        registry.set_gauge(f"stage_s.{stage}", seconds)
    registry.set_gauge("runtime_s", stats.runtime_s)
    return registry
