"""Spawn-safe shard execution.

A worker process receives a pickled :class:`ShardTask` (config + shard
spec + the shard's base skeletons + wall-clock deadline), runs the shared
Fig 7 pipeline (:func:`repro.synth.run_pipeline`) over the programs those
skeletons expand to, and returns a :class:`ShardResult` carrying every surviving ELT
*with its enumeration order key* so the merge layer can reconstruct the
serial representative choice.

Everything here is a module-level function/dataclass so it pickles under
the ``spawn`` start method (the only start method that is safe on every
platform and under threads); no closures or fork-inherited state are
involved.  Deadlines travel as wall-clock (``time.time``) timestamps,
which are comparable across processes, and are converted to each worker's
own monotonic clock on arrival.

Observability rides the same path: when ``task.observe`` is set the
shard runs under its own :class:`~repro.obs.Tracer` and
:class:`~repro.obs.MetricsRegistry` (labeled after the shard spec, so
``--jobs 1`` and ``--jobs 4`` produce identically-labeled lanes), and
the finished span batch + registry travel back on the result for the
coordinator to adopt in deterministic shard-plan order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from ..obs import (
    MetricsRegistry,
    SpanBatch,
    Tracer,
    install_registry,
    install_tracer,
)
from ..synth import SuiteStats, SynthesisConfig, run_pipeline
from ..synth.engine import OrderKey, PipelineOutcome, SynthesizedElt
from .shards import ShardSpec, SkeletonSlice, shard_programs


@dataclass(frozen=True)
class ShardTask:
    """One unit of work shipped to a worker process."""

    config: SynthesisConfig
    spec: ShardSpec
    #: Absolute wall-clock deadline (``time.time()``), or None.
    wall_deadline: Optional[float] = None
    #: Collect spans/metrics in the worker and ship them on the result.
    observe: bool = False
    #: The shard's base skeletons (the run's
    #: :class:`~repro.orchestrate.shards.SkeletonSlices` slice); None
    #: makes the worker enumerate them itself.
    skeletons: Optional[SkeletonSlice] = None


@dataclass
class ShardElt:
    """A shard-local ELT plus the global enumeration order key of the
    program that produced it."""

    order: OrderKey
    elt: SynthesizedElt


@dataclass
class ShardResult:
    spec: ShardSpec
    elts: list[ShardElt] = field(default_factory=list)
    stats: SuiteStats = field(default_factory=SuiteStats)
    runtime_s: float = 0.0
    #: The worker's finished span batch (``task.observe`` only).
    spans: Optional[SpanBatch] = None
    #: The worker's metrics registry (``task.observe`` only).
    metrics: Optional[MetricsRegistry] = None

    @property
    def timed_out(self) -> bool:
        return self.stats.timed_out


def observe_shard(spec: ShardSpec, observe: bool):
    """Install a fresh tracer/registry for one shard when observing.

    A fresh pair per shard — also when running inline under the
    coordinator's own tracer — so every shard occupies its own lane
    regardless of ``--jobs``.  Returns ``(tracer, registry, restore)``;
    ``restore()`` reinstalls the previous pair (all no-ops when
    ``observe`` is off)."""
    if not observe:
        return None, None, lambda: None
    tracer = Tracer(label=spec.label)
    registry = MetricsRegistry()
    prev_tracer = install_tracer(tracer)
    prev_registry = install_registry(registry)

    def restore() -> None:
        install_tracer(prev_tracer)
        install_registry(prev_registry)

    return tracer, registry, restore


def shard_elts(outcome: PipelineOutcome) -> list[ShardElt]:
    """A pass's entries with their order keys, in enumeration order."""
    elts = [
        ShardElt(order=outcome.order[key], elt=elt)
        for key, elt in outcome.by_key.items()
    ]
    elts.sort(key=lambda shard_elt: shard_elt.order)
    return elts


def run_shard(task: ShardTask) -> ShardResult:
    """Execute one shard (in-process or in a worker process)."""
    started = time.monotonic()
    deadline = None
    if task.wall_deadline is not None:
        deadline = started + max(0.0, task.wall_deadline - time.time())
    tracer, registry, restore = observe_shard(task.spec, task.observe)
    try:
        span = tracer.begin("shard", category="orchestrate") if tracer else None
        try:
            outcome = run_pipeline(
                task.config,
                shard_programs(task.config, task.spec, task.skeletons),
                deadline=deadline,
            )
        finally:
            if tracer:
                tracer.end(span)
    finally:
        restore()
    elts = shard_elts(outcome)
    result = ShardResult(spec=task.spec, elts=elts, stats=outcome.stats)
    result.stats.unique_programs = len(elts)
    result.runtime_s = time.monotonic() - started
    result.stats.runtime_s = result.runtime_s
    if tracer is not None:
        result.spans = tracer.batch()
        result.metrics = registry
    return result
