"""Relaxations and the minimality criterion (§IV-B).

A synthesized ELT execution must be forbidden *and minimal*: under every
possible isolated relaxation the execution must become permitted by the
full transistency predicate.  Relaxations are:

* removal of a **closed event group** — removing a single event drags
  along whatever the placement rules force (§IV-B):

  - a user-facing event takes its ghost instructions with it;
  - a removed walk strands its rf_ptw users, which are removed too
    (recursively) — an access without a translation is not a legal ELT;
  - a PTE write and its remap INVLPGs are removed together (either
    direction); spurious INVLPGs are removable in isolation;

* removal of an **rmw dependency** (footnote 4: the only dependency kind
  evaluated), splitting an atomic RMW into a plain Read and Write.

The relaxed execution keeps every surviving witness edge; reads whose
source vanished read the initial value; coherence orders are re-completed
when the value flow changed (see witnesses.enumerate_witnesses_constrained)
and the relaxation counts as "became permitted" if *some* completion is.

Restriction lemma (the fast path of :func:`relaxation_becomes_permitted`)
------------------------------------------------------------------------
Let a relaxation remove a closed group such that no removed event is the
rf source, data or PTE, of a surviving event (always true for an rmw
drop, which removes nothing).  Then the relaxed witness has exactly one
completion, and its relations are the parent execution's restricted to
the survivors, minus the dropped rmw pair.

Proof.

1. *rf_ptw and ptw_source are unchanged for survivors.*  A surviving
   access keeps its walk: a removed walk takes its users along.  The
   walk's invoker survives too, since a ghost goes only with its
   parent.  Removing events adds no INVLPG, TLB flush or newer walk
   between a walk and its users.  So each survivor reads the same TLB
   entry, and every invoker -> user pair of a surviving walk survives.
2. *Mappings, PAs and locations are unchanged.*  Every surviving walk
   and read keeps its rf source (the hypothesis).  A walk that reads a
   dirty-bit write keeps that write, hence the write's parent, hence
   the parent's walk (step 1), whose source survives in turn.  By
   induction along the value flow, every surviving walk loads the same
   mapping from the same origin PTE write.  PAs of user accesses, and
   with them all locations, stay as they were.
3. *The completion is unique.*  Walk sources and data rf edges are
   pinned to the parent's.  The parent's ``co`` is total per location
   and its ``co_pa`` total per target PA.  Restricted to survivors whose
   locations did not move, both stay total, so ``co_must`` and
   ``co_pa_must`` admit exactly one linear extension each.
4. *The derived relations restrict.*  ``fr``, ``fr_va``, ``fr_pa`` and
   ``rf_pa`` are functions of rf sources, walk origins, PAs, locations
   and the two coherence orders over the same events, so they are the
   parent's relations restricted to the survivors.  So are ``sloc``,
   ``po_loc``, ``rfe`` and ``com``.  The static relations (po, apo,
   ghost, remap, rmw and the event sets) restrict by construction,
   because threads keep their cores and relative order.

Hence :meth:`Execution.restricted <repro.mtm.Execution.restricted>` is
the one completion's relation set, and ``model.permits`` on it is the
relaxation's verdict.  The other relaxations (a removed write or PTE
write fed a survivor) rebuild the relaxed program and re-complete
values, locations and coherence (:func:`relaxed_completions`;
``tests/test_relax_completion.py``).
``tests/test_relax_restriction.py`` checks the lemma against the rebuild
on every relaxation of every enumerated execution up to bound 6.

Corollary: relaxations that leave the parent's violation intact
---------------------------------------------------------------
Let the parent violate an axiom whose compiled formula yields the atoms
A of one violation (:meth:`Axiom.violation
<repro.models.Axiom.violation>`): the cycle its acyclicity search
recorded, or one offending tuple of ``no x``, ``irreflexive x`` or ``no
(a & b)``.  A group removal that satisfies the lemma's hypothesis and
removes no atom of A does not become permitted.

Proof.  Let S be the survivors, so A ⊆ S.  By the lemma, every relation
of the relaxed execution is the parent's restricted to S: it keeps
exactly the parent's tuples whose atoms all lie in S.  By induction
over the axiom's plan (:mod:`repro.models.plan`), a *pointwise* node
keeps every parent tuple whose atoms lie in S, and a *monotone* node
gains no tuple; the operands of a formula that yields atoms are
pointwise.  So every edge of the recorded cycle, or the offending
tuple, is still in the relaxed relations, the axiom is still violated,
and the relaxed execution is forbidden.  An rmw drop removes a pair,
not an atom, so it is never decided this way.

Decision order of :func:`is_minimal`
------------------------------------
Minimality is a conjunction over relaxations, so any order gives the
same verdict, and the first relaxation that stays forbidden decides:

1. the parent's violation: a group removal that keeps value flow and
   removes no atom of it is forbidden by the corollary — no view is
   built;
2. restricted views, rmw drops included, in declared order
   (:func:`relaxation_becomes_permitted`);
3. rebuilds last: a rebuild derives a new program and every
   completion of its witness, several times the cost of a view.

At bound 8 (``synthesize --bound 8``), 24,570 checks end with 246
minimal, and 882 relaxations are rebuilt (3,510 when relaxations were
decided in declared order).  A rebuild runs only when every view
became permitted, so no cycle can decide the check, and the rebuild
count does not depend on which cycle the search met; how many views
are evaluated does, and with it on the string hash seed.
``tests/test_relax_violation.py`` holds :func:`is_minimal` to the plain
conjunction and every certificate to the predicate called on the
restricted view.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..models import Evaluation, MemoryModel
from ..mtm import EventKind, Execution, Program
from ..mtm.execution import derive_rf_ptw
from ..obs import current_registry
from .witnesses import enumerate_witnesses_constrained

Pair = tuple[str, str]


def removal_groups(program: Program) -> tuple[frozenset[str], ...]:
    """All distinct closed removal groups, seeded at each non-ghost event.

    Memoized on the program (every forbidden execution of a program is
    checked against the same groups); :meth:`Program.__getstate__` strips
    the memo.
    """
    cached = program.__dict__.get("_removal_groups_memo")
    if cached is None:
        cached = _removal_groups_uncached(program)
        object.__setattr__(program, "_removal_groups_memo", cached)
    return cached


def _removal_groups_uncached(program: Program) -> tuple[frozenset[str], ...]:
    rf_ptw = derive_rf_ptw(program)
    users_of_walk: dict[str, set[str]] = {}
    for walk, user in rf_ptw:
        users_of_walk.setdefault(walk, set()).add(user)
    remap_of_pte: dict[str, set[str]] = {}
    pte_of_invlpg: dict[str, str] = {}
    for pte, inv in program.remap:
        remap_of_pte.setdefault(pte, set()).add(inv)
        pte_of_invlpg[inv] = pte

    def close(seed: str) -> frozenset[str]:
        group: set[str] = set()
        queue = [seed]
        while queue:
            eid = queue.pop()
            if eid in group:
                continue
            group.add(eid)
            event = program.events[eid]
            if event.is_user and event.is_memory_event:
                for ghost in program.ghosts.get(eid, ()):
                    queue.append(ghost)
            if event.kind is EventKind.PT_WALK:
                queue.extend(users_of_walk.get(eid, ()))
            if event.kind is EventKind.PTE_WRITE:
                queue.extend(remap_of_pte.get(eid, ()))
            if event.kind is EventKind.INVLPG and eid in pte_of_invlpg:
                queue.append(pte_of_invlpg[eid])
        return frozenset(group)

    groups: set[frozenset[str]] = set()
    for eid, event in program.events.items():
        if event.is_ghost:
            continue  # ghosts are not removable in isolation (§IV-B)
        groups.add(close(eid))
    return tuple(sorted(groups, key=lambda g: (len(g), sorted(g))))


def relaxed_program(program: Program, removed: frozenset[str]) -> Program:
    """The program with a closed group removed (threads keep their cores)."""
    surviving = {
        eid: ev for eid, ev in program.events.items() if eid not in removed
    }
    return Program(
        events=surviving,
        threads=tuple(
            tuple(eid for eid in thread if eid not in removed)
            for thread in program.threads
        ),
        ghosts={
            parent: tuple(g for g in ghosts if g not in removed)
            for parent, ghosts in program.ghosts.items()
            if parent not in removed
        },
        remap=frozenset(
            (p, i) for p, i in program.remap if p not in removed and i not in removed
        ),
        rmw=frozenset(
            (r, w) for r, w in program.rmw if r not in removed and w not in removed
        ),
        initial_map=program.initial_map,
        mcm_mode=program.mcm_mode,
    )


def without_rmw_pair(program: Program, pair: Pair) -> Program:
    return Program(
        events=dict(program.events),
        threads=program.threads,
        ghosts=dict(program.ghosts),
        remap=program.remap,
        rmw=frozenset(p for p in program.rmw if p != pair),
        initial_map=program.initial_map,
        mcm_mode=program.mcm_mode,
    )


def _surviving_witness(
    execution: Execution, removed: frozenset[str]
) -> tuple[dict[str, Optional[str]], set[Pair], set[Pair], set[Pair]]:
    """Project the witness onto surviving events.

    Returns (walk_sources, data_rf, co_pairs, co_pa_pairs) where
    walk_sources pins every surviving walk to its surviving source (or the
    initial value if the source was removed).
    """
    program = execution.program
    walk_sources: dict[str, Optional[str]] = {}
    for eid, event in program.events.items():
        if event.kind is EventKind.PT_WALK and eid not in removed:
            source = execution._walk_source.get(eid)
            walk_sources[eid] = source if source not in removed else None
    data_rf = {
        (a, b)
        for a, b in execution._rf
        if a not in removed
        and b not in removed
        and program.events[b].kind is EventKind.READ
    }
    co = {
        (a, b) for a, b in execution.co if a not in removed and b not in removed
    }
    co_pa = {
        (a, b)
        for a, b in execution.co_pa
        if a not in removed and b not in removed
    }
    return walk_sources, data_rf, co, co_pa


def keeps_value_flow(execution: Execution, removed: frozenset[str]) -> bool:
    """Whether every surviving event keeps its rf source (data or PTE) —
    the condition of the restriction lemma (module docstring)."""
    return not any(
        src in removed and dst not in removed for src, dst in execution._rf
    )


def relaxed_completions(
    execution: Execution,
    removed: frozenset[str] = frozenset(),
    dropped_rmw: Optional[Pair] = None,
) -> Iterator[Execution]:
    """Every completion of one relaxation, rebuilt: the relaxed program,
    with the surviving witness edges pinned and values, locations and
    coherence re-completed (the general path)."""
    program = execution.program
    if dropped_rmw is not None:
        target = without_rmw_pair(program, dropped_rmw)
    else:
        target = relaxed_program(program, removed)
    walk_sources, data_rf, co, co_pa = _surviving_witness(execution, removed)
    yield from enumerate_witnesses_constrained(
        target,
        walk_sources=walk_sources,
        data_rf=data_rf,
        co_must=co,
        co_pa_must=co_pa,
    )


def relaxation_becomes_permitted(
    execution: Execution,
    model: MemoryModel,
    removed: frozenset[str] = frozenset(),
    dropped_rmw: Optional[Pair] = None,
) -> bool:
    """Apply one relaxation and check the §IV-B condition: some completion
    of the surviving outcome is permitted by the full predicate.

    ``removed`` is a closed removal group (:func:`removal_groups`).  When
    the relaxation keeps every survivor's rf source (always, for an rmw
    drop), the one completion is the parent restricted to the survivors
    (the restriction lemma, module docstring); otherwise the completions
    are rebuilt.
    """
    if len(removed) >= len(execution.program.events):
        return True  # the empty execution is trivially permitted
    if keeps_value_flow(execution, removed):
        current_registry().inc("relax.views_evaluated", informational=True)
        return model.permits(execution.restricted(removed, dropped_rmw))
    current_registry().inc("relax.relaxations_rebuilt", informational=True)
    return any(
        model.permits(candidate)
        for candidate in relaxed_completions(execution, removed, dropped_rmw)
    )


def relaxations(program: Program) -> Iterator[tuple[frozenset[str], Optional[Pair]]]:
    """All relaxations of a program as (removed_group, dropped_rmw) pairs
    (exactly one of the two is active per item)."""
    for group in removal_groups(program):
        yield group, None
    for pair in sorted(program.rmw):
        yield frozenset(), pair


def is_minimal(
    execution: Execution,
    model: MemoryModel,
    evaluation: Optional[Evaluation] = None,
) -> bool:
    """§IV-B minimality: every relaxation yields a permitted execution.

    ``evaluation`` is the execution's :class:`~repro.models.Evaluation`
    when the caller classified it (a fresh one otherwise): the parent's
    verdicts and recorded violation are read from it.  Relaxations are
    decided in the order of the module docstring — the parent's
    violation first, then restricted views, then rebuilds — and the
    first that stays forbidden decides.
    """
    program = execution.program
    if evaluation is None:
        evaluation = Evaluation(execution)
    atoms = _violation_atoms(execution, model, evaluation)
    # The atoms are never empty, so a group removing every event meets them.
    if atoms is not None and any(
        group.isdisjoint(atoms) and keeps_value_flow(execution, group)
        for group in removal_groups(program)
    ):
        current_registry().inc("relax.decided_by_violation", informational=True)
        return False
    rebuilt = []
    for group, dropped in relaxations(program):
        if dropped is None and not keeps_value_flow(execution, group):
            rebuilt.append(group)
        elif not relaxation_becomes_permitted(execution, model, group, dropped):
            return False
    return all(
        relaxation_becomes_permitted(execution, model, group) for group in rebuilt
    )


def _violation_atoms(
    execution: Execution, model: MemoryModel, evaluation: Evaluation
) -> Optional[frozenset[str]]:
    """The atoms of a violation of ``model`` that every restricted view
    keeping them still has: those of the first violated axiom that
    yields one (:meth:`Axiom.violation <repro.models.Axiom.violation>`),
    or None."""
    for axiom in model.axioms:
        if not axiom.holds(execution, evaluation):
            atoms = axiom.violation(execution, evaluation)
            if atoms is not None:
                return atoms
    return None


def model_fingerprint(model: MemoryModel) -> tuple:
    """Semantic identity of a model, for grouping by model: it groups a
    :func:`~repro.synth.engine.run_queries` pass's queries by judging
    model (one minimality verdict per witness and group) and keys the
    diff model table.  It is the model's name plus each axiom's (name,
    predicate-function) pair.  Catalog models are built from shared
    module-level :class:`~repro.models.Axiom` constants, so
    re-instantiating one yields the same fingerprint.  The predicate
    *objects* (not their ids) are the keys, so a table holding a
    fingerprint pins them and a recycled function id can never alias two
    different models."""
    return (
        model.name,
        tuple((a.name, a.predicate) for a in model.axioms),
    )
