"""Spawn-side task workers for the task-runner and shard-failure tests.

They live in their own module (not the test file) so a pool worker
unpickles them after importing only this and `repro.orchestrate.shards`,
not the whole test module.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from pathlib import Path

from repro.orchestrate.shards import ShardSpec


@dataclass(frozen=True)
class LabelTask:
    spec: ShardSpec


@dataclass(frozen=True)
class MarkerTask:
    spec: ShardSpec
    #: Where the worker leaves one file per shard it ran to the end.
    directory: str


def label_worker(task: LabelTask) -> str:
    return task.spec.label


def failing_worker(task: LabelTask) -> str:
    """Raises on the second shard, returns the label elsewhere."""
    if task.spec.skeleton_index == 1:
        raise ValueError(f"boom in {task.spec.label}")
    return task.spec.label


def exiting_worker(task: LabelTask) -> str:
    """Kills its worker process on the first shard."""
    if task.spec.skeleton_index == 0:
        os._exit(7)
    return task.spec.label


def reversed_sleep_worker(task: LabelTask) -> str:
    """Finishes the later shards first: shard i of n sleeps (n - i) * 50 ms."""
    spec = task.spec
    time.sleep((spec.skeleton_count - spec.skeleton_index) * 0.05)
    return spec.label


def late_and_early_failure_worker(task: LabelTask) -> str:
    """Shard 1 raises after half a second, shard 2 at once."""
    if task.spec.skeleton_index == 1:
        time.sleep(0.5)
        raise ValueError(f"late boom in {task.spec.label}")
    if task.spec.skeleton_index == 2:
        raise ValueError(f"early boom in {task.spec.label}")
    return task.spec.label


def marking_worker(task: MarkerTask) -> str:
    """Raises on the first shard; every other shard sleeps 0.3 s, then
    leaves a marker file named after its index."""
    if task.spec.skeleton_index == 0:
        raise ValueError("first shard fails")
    time.sleep(0.3)
    Path(task.directory, str(task.spec.skeleton_index)).touch()
    return task.spec.label
