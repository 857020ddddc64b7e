"""Event taxonomy of the MTM vocabulary (paper §II-A, §III, Table I).

Events come in three layers:

* **user-facing** instructions, fetched and issued by the program itself:
  ``READ`` and ``WRITE`` (a read-modify-write is a READ/WRITE pair linked by
  the ``rmw`` dependency), plus ``FENCE`` (MFENCE — consistency-only, kept
  for the x86-TSO ``fence`` axiom term);
* **support** instructions issued by the OS on the program's behalf
  (§III-B): ``PTE_WRITE`` (a VA-to-PA remap via system call) and ``INVLPG``
  (a TLB invalidation, delivered by IPI to every core for a remap, or
  issued spuriously);
* **ghost** instructions executed by hardware on behalf of a user-facing
  instruction (§III-A): ``PT_WALK`` (a page-table walk — a *read* of a PTE)
  and ``DIRTY_BIT_WRITE`` (a *write* of a PTE's dirty bit).

Ghost instructions are never related by ``po``; they attach to their
invoking instruction through the ``ghost`` relation and inherit its program
position for same-location ordering (docs/ARCHITECTURE.md, "Modelling
decisions").

Locations are two-tiered: user-facing READ/WRITE events name a *virtual
address* but dynamically access the *physical address* their translation
maps to; PTE accessors (PT_WALK, DIRTY_BIT_WRITE, PTE_WRITE) access the
page-table entry ``pte(va)`` of the VA they translate/remap.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import VocabularyError


class EventKind(Enum):
    READ = "R"
    WRITE = "W"
    PTE_WRITE = "WPTE"
    INVLPG = "INVLPG"
    PT_WALK = "Rptw"
    DIRTY_BIT_WRITE = "Wdb"
    FENCE = "MFENCE"
    #: Whole-TLB flush — the "additional IPI types" extension the paper
    #: defers to future work (§III-B2).  Spurious only: remaps still fan
    #: out targeted INVLPGs.
    TLB_FLUSH = "TLBFLUSH"

    def __str__(self) -> str:
        return self.value


USER_KINDS = frozenset({EventKind.READ, EventKind.WRITE})
SUPPORT_KINDS = frozenset(
    {
        EventKind.PTE_WRITE,
        EventKind.INVLPG,
        EventKind.FENCE,
        EventKind.TLB_FLUSH,
    }
)
GHOST_KINDS = frozenset({EventKind.PT_WALK, EventKind.DIRTY_BIT_WRITE})

#: Kinds that take no address operand.
ADDRESSLESS_KINDS = frozenset({EventKind.FENCE, EventKind.TLB_FLUSH})

#: Kinds that access shared memory (INVLPG and FENCE do not).
MEMORY_KINDS = frozenset(
    {
        EventKind.READ,
        EventKind.WRITE,
        EventKind.PTE_WRITE,
        EventKind.PT_WALK,
        EventKind.DIRTY_BIT_WRITE,
    }
)

WRITE_KINDS = frozenset(
    {EventKind.WRITE, EventKind.PTE_WRITE, EventKind.DIRTY_BIT_WRITE}
)
READ_KINDS = frozenset({EventKind.READ, EventKind.PT_WALK})

#: Kinds that access a PTE location rather than a data location.
PTE_ACCESS_KINDS = frozenset(
    {EventKind.PTE_WRITE, EventKind.PT_WALK, EventKind.DIRTY_BIT_WRITE}
)


@dataclass(frozen=True)
class Event:
    """One micro-op of an ELT.

    ``eid``
        Unique identifier within a program; doubles as the atom name in
        relational instances.
    ``kind``
        The :class:`EventKind`.
    ``core``
        Core index (each ELT thread runs on its own core — paper §III-C.1).
    ``va``
        The virtual address the event names: the accessed VA for
        READ/WRITE/INVLPG, and the *translated* VA for PTE_WRITE / PT_WALK /
        DIRTY_BIT_WRITE (i.e. these access location ``pte(va)``).
        None for FENCE.
    ``pa``
        Only for PTE_WRITE: the new physical address the remap points
        ``va`` at.
    """

    eid: str
    kind: EventKind
    core: int
    va: Optional[str] = None
    pa: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind in ADDRESSLESS_KINDS:
            if self.va is not None:
                raise VocabularyError(
                    f"{self.eid}: {self.kind} takes no address"
                )
        elif self.va is None:
            raise VocabularyError(f"{self.eid}: {self.kind} requires a VA")
        if self.kind is EventKind.PTE_WRITE:
            if self.pa is None:
                raise VocabularyError(f"{self.eid}: PTE_WRITE requires a target PA")
        elif self.pa is not None:
            raise VocabularyError(f"{self.eid}: only PTE_WRITE carries a target PA")
        if self.core < 0:
            raise VocabularyError(f"{self.eid}: negative core index")
        # Precomputed classification flags: these predicates sit in the
        # synthesis engine's innermost loops, where repeated enum-set
        # membership hashing showed up in profiles.
        object.__setattr__(self, "is_user", self.kind in USER_KINDS)
        object.__setattr__(self, "is_support", self.kind in SUPPORT_KINDS)
        object.__setattr__(self, "is_ghost", self.kind in GHOST_KINDS)
        object.__setattr__(
            self, "is_memory_event", self.kind in MEMORY_KINDS
        )
        object.__setattr__(self, "is_write_like", self.kind in WRITE_KINDS)
        object.__setattr__(self, "is_read_like", self.kind in READ_KINDS)
        object.__setattr__(
            self, "accesses_pte", self.kind in PTE_ACCESS_KINDS
        )

    def __str__(self) -> str:
        suffix = f" {self.va}" if self.va is not None else ""
        target = f"->{self.pa}" if self.pa is not None else ""
        return f"{self.kind}{suffix}{target}@C{self.core}"
