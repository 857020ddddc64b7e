"""Deterministic fault injection for orchestration tests and ``--chaos``.

A :class:`FaultPlan` is a *pure function of its seed*: every decision —
does shard ``s3/8`` crash on attempt 1? with ``os._exit`` or a raised
exception? how long is its injected delay? does store key ``ab12…`` get
a flipped bit? — is derived by hashing ``(seed, kind, label, attempt)``
with blake2b.  Two runs with the same seed inject exactly the same
faults, so chaos tests are reproducible, and the plan pickles into
worker tasks without carrying state.

The one deliberate piece of state is the *consumed* set for store
corruption: a key is corrupted only on its **first** write in a
process, so a retried shard's re-write heals the entry instead of
re-corrupting it forever.

Crash semantics: a targeted shard dies on its first
``crash_attempts`` attempts.  In a spawned worker process an "exit"
crash calls ``os._exit`` — the pool collapses with
``BrokenProcessPool``, which is exactly the failure mode the scheduler's
pool-rebuild path recovers from (and doubles as the "pool kill" fault).
Inline (or for "raise"-mode crashes) an :class:`InjectedFault` is
raised, exercising the ordinary retry path.  Keep
``crash_attempts <= RetryPolicy.max_retries`` and every shard
eventually succeeds, which is the precondition for the byte-identical
chaos guarantee.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, field
from typing import Optional

from ..errors import ReproError

#: Worker exit status for injected ``os._exit`` crashes (recognizable in
#: pool post-mortems; the value itself is arbitrary).
INJECTED_EXIT_CODE = 73


class InjectedFault(ReproError):
    """A fault injected by a :class:`FaultPlan` (raise-mode crash)."""

    def __init__(self, label: str, attempt: int):
        self.label = label
        self.attempt = attempt
        super().__init__(f"injected fault: shard {label} attempt {attempt}")


def _unit(seed: int, *parts) -> float:
    """Deterministic uniform [0, 1) from (seed, *parts)."""
    text = ":".join([str(seed), *(str(part) for part in parts)])
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2.0**64


def in_worker_process() -> bool:
    """True when running in a spawned/forked child (an ``os._exit`` here
    surfaces to the coordinator as ``BrokenProcessPool``)."""
    import multiprocessing

    return multiprocessing.parent_process() is not None


def flip_bit(data: bytes, offset: int) -> bytes:
    """Return ``data`` with one bit flipped at ``offset % len(data)``."""
    if not data:
        return data
    position = offset % len(data)
    corrupted = bytearray(data)
    corrupted[position] ^= 0x01
    return bytes(corrupted)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic fault decisions for one chaos run."""

    seed: int
    #: Probability a shard label is crash-targeted at all.
    crash_rate: float = 0.0
    #: How many leading attempts of a targeted shard die.
    crash_attempts: int = 1
    #: Among crashing attempts, fraction that hard-exit the worker
    #: (killing the pool) vs raising :class:`InjectedFault`.
    exit_rate: float = 0.5
    #: Probability an attempt gets a seeded delay, and its cap.
    delay_rate: float = 0.0
    max_delay_s: float = 0.02
    #: Probability a store key's first write gets a flipped bit.
    store_corrupt_rate: float = 0.0
    #: Store keys already corrupted in this process (first write only).
    _corrupted: set = field(
        default_factory=set, compare=False, repr=False, init=False
    )

    # -- worker-side decisions (stateless hashes) ----------------------
    def crashes(self, label: str) -> int:
        """Number of leading attempts of ``label`` that die (0 = never)."""
        if _unit(self.seed, "crash", label) < self.crash_rate:
            return self.crash_attempts
        return 0

    def crash_mode(self, label: str, attempt: int) -> str:
        """``"exit"`` (hard-kill the worker/pool) or ``"raise"``."""
        if _unit(self.seed, "mode", label, attempt) < self.exit_rate:
            return "exit"
        return "raise"

    def delay_s(self, label: str, attempt: int) -> float:
        if _unit(self.seed, "delay", label, attempt) < self.delay_rate:
            return self.max_delay_s * _unit(self.seed, "delay-len", label, attempt)
        return 0.0

    def apply_worker_fault(self, label: str, attempt: int) -> None:
        """Run at shard start: sleep, crash, or pass, per the plan.

        Exit-mode crashes only hard-exit inside a real worker process;
        inline they downgrade to a raised :class:`InjectedFault` so the
        coordinating process survives.
        """
        delay = self.delay_s(label, attempt)
        if delay > 0.0:
            time.sleep(delay)
        if attempt <= self.crashes(label):
            if self.crash_mode(label, attempt) == "exit" and in_worker_process():
                os._exit(INJECTED_EXIT_CODE)
            raise InjectedFault(label, attempt)

    # -- store-side decisions (first write per key) --------------------
    def take_store_corruption(self, key: str) -> bool:
        """True exactly once per targeted key: corrupt this write."""
        if key in self._corrupted:
            return False
        if _unit(self.seed, "store", key) < self.store_corrupt_rate:
            self._corrupted.add(key)
            return True
        return False

    def corrupt_offset(self, key: str, size: int) -> int:
        if size <= 0:
            return 0
        return int(_unit(self.seed, "store-offset", key) * size)


def default_chaos_plan(seed: int) -> FaultPlan:
    """The ``--chaos SEED`` plan: every fault kind enabled at rates that
    exercise retries, pool rebuilds, and store quarantine while keeping
    ``crash_attempts`` within the default retry budget (so results stay
    byte-identical to a fault-free run)."""
    return FaultPlan(
        seed=seed,
        crash_rate=0.4,
        crash_attempts=1,
        exit_rate=0.5,
        delay_rate=0.5,
        max_delay_s=0.01,
        store_corrupt_rate=0.25,
    )
