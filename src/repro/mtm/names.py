"""Canonical relation and set names shared by the concrete semantics, the
relational (SAT) backend, and the memory models.

Keeping these in one registry guarantees the two evaluation paths (concrete
TupleSets vs symbolic Expr) talk about the same vocabulary — Table I of the
paper, plus the derived helpers the axioms need.
"""

from __future__ import annotations

# -- unary sets (event classification) ---------------------------------
READ = "Read"                    # user-facing Reads
WRITE = "Write"                  # user-facing Writes
USER = "UserEvent"               # user-facing memory events (Read+Write)
MEMORY = "MemoryEvent"           # everything that touches shared memory
WRITE_LIKE = "WriteLike"         # Write + PTE_WRITE + DIRTY_BIT_WRITE
READ_LIKE = "ReadLike"           # Read + PT_WALK
PTE_WRITE = "PteWrite"
INVLPG = "Invlpg"
PT_WALK = "PtWalk"
DIRTY_BIT = "DirtyBit"
FENCE = "Fence"
TLB_FLUSH = "TlbFlush"
EVENT = "Event"

UNARY_SETS = (
    READ,
    WRITE,
    USER,
    MEMORY,
    WRITE_LIKE,
    READ_LIKE,
    PTE_WRITE,
    INVLPG,
    PT_WALK,
    DIRTY_BIT,
    FENCE,
    TLB_FLUSH,
    EVENT,
)

# -- binary relations ---------------------------------------------------
PO = "po"            # ^program order (transitively closed), non-ghost events
APO = "apo"          # augmented position order: ghosts inherit parent slot
SLOC = "sloc"        # same-location equivalence over memory events
PO_LOC = "po_loc"    # apo & sloc
RF = "rf"            # reads-from (data and PTE locations)
CO = "co"            # coherence order (per location)
FR = "fr"            # from-reads (derived)
COM = "com"          # rf + co + fr
RFE = "rfe"          # external (cross-core) reads-from
GHOST = "ghost"      # user-facing event -> ghost instructions it invokes
RF_PTW = "rf_ptw"    # PT walk -> user-facing events sourced by its TLB entry
PTW_SOURCE = "ptw_source"  # walk invoker -> other users of the same walk
RF_PA = "rf_pa"      # PTE write -> user-facing events using its mapping
CO_PA = "co_pa"      # alias-creation order per target PA
FR_PA = "fr_pa"      # user-facing event -> co_pa-successors of its origin
FR_VA = "fr_va"      # user-facing event -> later remaps of its VA
REMAP = "remap"      # PTE write -> INVLPGs it induces
RMW = "rmw"          # read -> write of an atomic RMW

BINARY_RELATIONS = (
    PO,
    APO,
    SLOC,
    PO_LOC,
    RF,
    CO,
    FR,
    COM,
    RFE,
    GHOST,
    RF_PTW,
    PTW_SOURCE,
    RF_PA,
    CO_PA,
    FR_PA,
    FR_VA,
    REMAP,
    RMW,
)

#: Relations the program alone fixes: every candidate execution of a
#: program has the same value (a restricted view: every view of the same
#: relaxation).  ``rf_ptw`` and ``ptw_source`` follow from the ghost
#: structure and positions; the rest are the program's static relations.
PROGRAM_RELATIONS = frozenset(UNARY_SETS) | {
    PO,
    APO,
    GHOST,
    REMAP,
    RMW,
    RF_PTW,
    PTW_SOURCE,
}

#: The binary relations a witness chooses or derives: everything else.
WITNESS_RELATIONS = tuple(
    name for name in BINARY_RELATIONS if name not in PROGRAM_RELATIONS
)
