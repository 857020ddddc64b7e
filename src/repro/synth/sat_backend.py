"""SAT-backed candidate-execution enumeration — the Alloy-model port.

The paper implements TransForm in Alloy 4.2: the MTM vocabulary and
placement rules are relational constraints, Kodkod compiles them to SAT,
and MiniSat enumerates candidate executions (§IV-C).  This module is that
encoding, expressed in :mod:`repro.relational` and solved by
:mod:`repro.sat`, for a *fixed program*:

* structural relations (po, apo, ghost, remap, rmw, rf_ptw, ptw_source,
  kind sets, initial mappings) are exact bounds;
* witness relations (``rf`` split into PTE/data parts, ``co``, ``co_pa``)
  are free within type-correct bounds, constrained by the placement rules
  (lone sources, per-location total orders, acyclic PTE value flow);
* every derived Table I relation (``fr``, ``sloc``, ``po_loc``, ``rfe``,
  ``com``, ``rf_pa``, ``fr_va``, ``fr_pa``, effective physical addresses)
  is a *defined* relation (:meth:`~repro.relational.Problem.define`): the
  translator substitutes its defining expression's boolean matrix at
  every use instead of allocating tuple variables plus an equality
  constraint, so a memory model's
  :meth:`~repro.models.MemoryModel.formula` applies unchanged while the
  encoding stays a fraction of its former size.

The test suite checks this enumerator agrees exactly with the explicit
Python enumerator (:mod:`repro.synth.witnesses`) — the reproduction's
deepest cross-validation.

Witness sessions
----------------

The pipelines need one thing per program: its full candidate-execution
list.  A :class:`WitnessSession` translates the program once and
enumerates it once, on a cold solver
(:meth:`~repro.relational.ProblemSession.iter_base_instances`), timing
the translate, solve and decode stages apart.  The engine
(:func:`repro.synth.engine.witness_stream_factory`) builds one per
program, reads :meth:`WitnessSession.weighted_witnesses` once and drops
the session, so nothing a program needed outlives it.
"""

from __future__ import annotations

import time
from typing import Iterator, Optional

from ..models import MemoryModel
from ..obs import current_tracer
from ..sat import SolverStats
from ..symmetry import (
    ProgramSymmetry,
    witness_orbit,
    witness_relation_permutation,
)
from ..mtm import EventKind, Execution, Program, names
from ..mtm.execution import derive_rf_ptw
from ..relational import (
    Iden,
    Literal,
    Not,
    Problem,
    TupleSet,
    Univ,
    acyclic,
    conj,
    forall,
    no,
    subset,
)
from ..relational.ast import Expr, Rel
from ..relational.instance import Instance

Pair = tuple[str, str]


def _kind_set(program: Program, *kinds: EventKind) -> list[tuple[str]]:
    return [
        (eid,)
        for eid, e in program.events.items()
        if e.kind in kinds
    ]


def _pa_atom(pa: str) -> str:
    return f"PA${pa}"


class WitnessProblem:
    """The relational encoding of a program's witness space.

    ``symmetry`` (a :class:`~repro.symmetry.ProgramSymmetry`, optional)
    registers each program automorphism as a static lex-leader symmetry
    on the free witness relations via
    :meth:`~repro.relational.Problem.add_symmetry` — the CDCL enumeration
    then only visits one witness per automorphism orbit (the
    :func:`~repro.symmetry.witness_sort_key`-minimal member).  Only
    :attr:`~repro.symmetry.ProgramSymmetry.prunable` symmetries are
    applied; callers weighting counters by orbit size should filter the
    decoded stream through :func:`~repro.symmetry.prune_weighted`, which
    doubles as the exactness backstop.
    """

    def __init__(
        self, program: Program, symmetry: Optional[ProgramSymmetry] = None
    ) -> None:
        self.program = program
        self.symmetry = symmetry if symmetry is not None and symmetry.prunable else None
        self.rf_ptw = derive_rf_ptw(program)
        events = program.events
        eids = list(events)
        pas = [_pa_atom(p) for p in program.pas()]
        self.problem = Problem(eids + pas)
        p = self.problem

        # ---- fixed unary sets -----------------------------------------
        def unary(name: str, members: list[tuple[str]]) -> Rel:
            return p.declare(name, 1, upper=members, lower=members)

        self.Read = unary(names.READ, _kind_set(program, EventKind.READ))
        self.Write = unary(names.WRITE, _kind_set(program, EventKind.WRITE))
        self.PteWrite = unary(
            names.PTE_WRITE, _kind_set(program, EventKind.PTE_WRITE)
        )
        self.PtWalk = unary(names.PT_WALK, _kind_set(program, EventKind.PT_WALK))
        self.DirtyBit = unary(
            names.DIRTY_BIT, _kind_set(program, EventKind.DIRTY_BIT_WRITE)
        )
        self.Invlpg = unary(names.INVLPG, _kind_set(program, EventKind.INVLPG))
        self.FenceSet = unary(names.FENCE, _kind_set(program, EventKind.FENCE))
        unary(names.TLB_FLUSH, _kind_set(program, EventKind.TLB_FLUSH))
        user = [
            (eid,)
            for eid, e in events.items()
            if e.is_user and e.is_memory_event
        ]
        self.User = unary(names.USER, user)
        memory = [(eid,) for eid, e in events.items() if e.is_memory_event]
        self.Memory = unary(names.MEMORY, memory)
        write_like = [(eid,) for eid, e in events.items() if e.is_write_like]
        self.WriteLike = unary(names.WRITE_LIKE, write_like)
        read_like = [(eid,) for eid, e in events.items() if e.is_read_like]
        self.ReadLike = unary(names.READ_LIKE, read_like)
        unary(names.EVENT, [(eid,) for eid in eids])
        self.PaSet = unary("PA", [(a,) for a in pas])

        # ---- fixed binary structure -------------------------------------
        def fixed(name: str, pairs) -> Rel:
            pair_list = [tuple(t) for t in pairs]
            return p.declare(name, 2, upper=pair_list, lower=pair_list)

        po_pairs: set[Pair] = set()
        for thread in program.threads:
            for i in range(len(thread)):
                for j in range(i + 1, len(thread)):
                    po_pairs.add((thread[i], thread[j]))
        self.po = fixed(names.PO, po_pairs)

        apo_pairs: set[Pair] = set()
        for a in eids:
            ca, sa = program.position(a)
            for b in eids:
                if a == b:
                    continue
                cb, sb = program.position(b)
                if ca == cb and sa < sb:
                    apo_pairs.add((a, b))
        self.apo = fixed(names.APO, apo_pairs)

        self.ghost = fixed(
            names.GHOST,
            [
                (parent, g)
                for parent, ghosts in program.ghosts.items()
                for g in ghosts
            ],
        )
        self.remap = fixed(names.REMAP, program.remap)
        self.rmw = fixed(names.RMW, program.rmw)
        self.rf_ptw_rel = fixed(names.RF_PTW, self.rf_ptw)
        ptw_source = [
            (program.walk_invoker(w), u)
            for w, u in self.rf_ptw
            if program.walk_invoker(w) != u
        ]
        self.ptw_source = fixed(names.PTW_SOURCE, ptw_source)

        ext = [
            (a, b)
            for a in eids
            for b in eids
            if a != b and events[a].core != events[b].core
        ]
        self.ext = fixed("ext", ext)

        pte_accessors = [eid for eid in eids if events[eid].accesses_pte]
        same_pte = [
            (a, b)
            for a in pte_accessors
            for b in pte_accessors
            if a != b and events[a].va == events[b].va
        ]
        self.same_pte_loc = fixed("same_pte_loc", same_pte)

        va_pte = [
            (u, w)
            for (u,) in user
            for w in eids
            if events[w].kind is EventKind.PTE_WRITE
            and events[w].va == events[u].va
        ]
        self.va_pte = fixed("va_pte", va_pte)

        init_pa = [
            (eid, _pa_atom(program.initial_pa(events[eid].va)))
            for eid in eids
            if events[eid].kind is EventKind.PT_WALK
        ]
        self.init_pa = fixed("init_pa", init_pa)

        pte_target = [
            (eid, _pa_atom(events[eid].pa))
            for eid in eids
            if events[eid].kind is EventKind.PTE_WRITE
        ]
        self.pte_target = fixed("pte_target", pte_target)

        same_target = [
            (a, b)
            for a in eids
            for b in eids
            if a != b
            and events[a].kind is EventKind.PTE_WRITE
            and events[b].kind is EventKind.PTE_WRITE
            and events[a].pa == events[b].pa
        ]
        self.same_target = fixed("same_target", same_target)

        # ---- free witness relations -------------------------------------
        rf_pte_upper = [
            (s, w)
            for s in eids
            for w in eids
            if events[w].kind is EventKind.PT_WALK
            and events[s].kind
            in (EventKind.PTE_WRITE, EventKind.DIRTY_BIT_WRITE)
            and events[s].va == events[w].va
        ]
        self.rf_pte = p.declare("rf_pte", 2, upper=rf_pte_upper)

        rf_data_upper = [
            (w, r)
            for w in eids
            for r in eids
            if events[w].kind is EventKind.WRITE
            and events[r].kind is EventKind.READ
        ]
        self.rf_data = p.declare("rf_data", 2, upper=rf_data_upper)

        co_upper = [
            (a, b)
            for (a,) in write_like
            for (b,) in write_like
            if a != b
            and (
                (events[a].accesses_pte and events[b].accesses_pte
                 and events[a].va == events[b].va)
                or (not events[a].accesses_pte and not events[b].accesses_pte)
            )
        ]
        self.co = p.declare(names.CO, 2, upper=co_upper)
        self.co_pa = p.declare(names.CO_PA, 2, upper=same_target)

        # ---- symmetry breaking over the free witness relations ----------
        if self.symmetry is not None:
            uppers = {
                "rf_pte": rf_pte_upper,
                "rf_data": rf_data_upper,
                names.CO: co_upper,
                names.CO_PA: same_target,
            }
            for auto in self.symmetry.automorphisms:
                p.add_symmetry(witness_relation_permutation(auto, uppers))

        # ---- derived relations (defined by substitution) ----------------
        self._constrain()

    # ------------------------------------------------------------------
    def _constrain(self) -> None:
        p = self.problem
        events = self.program.events

        rf_pte, rf_data, co, co_pa = self.rf_pte, self.rf_data, self.co, self.co_pa

        # Placement: lone rf source per walk and per read.
        p.constrain(
            forall("w", self.PtWalk, lambda w: rf_pte.dot(w).lone())
        )
        p.constrain(
            forall("r", self.Read, lambda r: rf_data.dot(r).lone())
        )

        # PTE value flow: dep(w2 -> w1) iff w2 reads a dirty-bit write whose
        # parent was translated by w1; must be acyclic.
        rf_from_dirty = rf_pte & self.DirtyBit.product(self.PtWalk)
        dep = rf_from_dirty.t().dot(self.ghost.t()).dot(self.rf_ptw_rel.t())
        p.constrain(acyclic(dep))
        dep_star = dep.plus() + Iden()

        # Every derived Table I relation below is *defined*, not declared:
        # the translator substitutes each defining expression's boolean
        # matrix at every use, so no tuple variables or equality
        # constraints are generated for them (the lean Kodkod-style
        # translation).  A memory model's formula still refers to them by
        # name, unchanged.

        # Effective mapping of each walk / user access.
        sourced_walks = Univ().dot(rf_pte)
        unsourced = self.PtWalk - sourced_walks
        if self.program.mcm_mode:
            # No translation machinery: accesses hit their VA's initial PA.
            fixed_user_pa = TupleSet(
                2,
                [
                    (eid, _pa_atom(self.program.initial_pa(e.va)))
                    for eid, e in events.items()
                    if e.is_user and e.is_memory_event and e.va is not None
                ],
            )
            empty = TupleSet.empty(2)
            self.user_pa = p.define("user_pa", 2, Literal(fixed_user_pa))
            self.walk_pa = p.define("walk_pa", 2, Literal(empty))
            self.orig = p.define("orig", 2, Literal(empty))
        else:
            direct = (rf_pte & self.PteWrite.product(self.PtWalk)).t().dot(
                self.pte_target
            )
            init_part = self.init_pa & unsourced.product(self.PaSet)
            self.walk_pa = p.define(
                "walk_pa", 2, dep_star.dot(direct + init_part)
            )
            self.user_pa = p.define(
                "user_pa", 2, self.rf_ptw_rel.t().dot(self.walk_pa)
            )
            # Mapping origin (the PTE write a walk's value descends from).
            orig_direct = (rf_pte & self.PteWrite.product(self.PtWalk)).t()
            self.orig = p.define("orig", 2, dep_star.dot(orig_direct))

        # Same-location: data events sharing an effective PA, or PTE
        # accessors of the same VA.
        data_sloc = self.user_pa.dot(self.user_pa.t()) - Iden()
        self.sloc = p.define(names.SLOC, 2, data_sloc + self.same_pte_loc)
        self.po_loc = p.define(names.PO_LOC, 2, self.apo & self.sloc)

        # rf and its derived forms.
        self.rf = p.define(names.RF, 2, rf_pte + rf_data)
        p.constrain(subset(rf_data, self.sloc))
        self.rfe = p.define(names.RFE, 2, self.rf & self.ext)
        sourced_reads = Univ().dot(self.rf)
        init_reads = self.ReadLike - sourced_reads
        fr_init = init_reads.product(self.WriteLike) & self.sloc
        self.fr = p.define(names.FR, 2, self.rf.t().dot(co) + fr_init)
        self.com = p.define(names.COM, 2, self.rf + co + self.fr)

        # Coherence: strict per-location total order over write-likes.
        ww = self.WriteLike.product(self.WriteLike)
        p.constrain(subset(co, self.sloc & ww))
        p.constrain(no(co & Iden()))
        p.constrain(subset(co.dot(co), co))
        p.constrain(subset((self.sloc & ww) - Iden(), co + co.t()))

        # co_pa: strict total order per target PA, consistent with co.
        p.constrain(no(co_pa & Iden()))
        p.constrain(subset(co_pa.dot(co_pa), co_pa))
        p.constrain(subset(self.same_target, co_pa + co_pa.t()))
        p.constrain(no(co_pa & co.t()))

        # rf_pa / fr_va / fr_pa per their Table I definitions.
        user_walk = self.rf_ptw_rel.t()  # user -> its walk
        user_orig = user_walk.dot(self.orig)
        self.rf_pa = p.define(names.RF_PA, 2, user_orig.t())

        user_source = user_walk.dot(rf_pte.t())  # user -> walk's rf source
        unsourced_users = user_walk.dot(unsourced)
        fr_va_expr = (user_source.dot(co) & self.va_pte) + (
            unsourced_users.product(self.PteWrite) & self.va_pte
        )
        self.fr_va = p.define(names.FR_VA, 2, fr_va_expr)

        pa_target_match = self.user_pa.dot(self.pte_target.t())
        origined = Univ().dot(self.orig.t())  # walks with an origin
        unorigined_users = user_walk.dot(self.PtWalk - origined)
        fr_pa_expr = (user_orig.dot(co_pa) & pa_target_match) + (
            unorigined_users.product(self.PteWrite) & pa_target_match
        )
        self.fr_pa = p.define(names.FR_PA, 2, fr_pa_expr)

    # ------------------------------------------------------------------
    def constrain_model(self, model: MemoryModel, violated: bool) -> None:
        """Require the model predicate to hold (witnesses permitted) or to
        fail (witnesses forbidden)."""
        formula = model.formula()
        self.problem.constrain(Not(formula) if violated else formula)

    def constrain_axiom_violated(self, model: MemoryModel, axiom: str) -> None:
        self.problem.constrain(Not(model.axiom(axiom).formula()))

    @property
    def solver_stats(self):
        """Live :class:`~repro.sat.SolverStats` of the enumerating solver
        (None before enumeration starts)."""
        return self.problem.last_solver_stats

    def executions(self) -> Iterator[Execution]:
        """Decode SAT instances back into Execution objects.

        Enumeration order is deterministic: the CDCL search is fully
        deterministic, so a given program always yields the same witness
        sequence — which keeps SAT-backed synthesis byte-identical across
        runs and ``--jobs`` settings.
        """
        seen: set[tuple] = set()
        for instance in self.problem.iter_instances():
            witness = self._decode(instance)
            if witness in seen:
                continue
            seen.add(witness)
            rf, co, co_pa = witness
            yield Execution(self.program, rf=rf, co=co, co_pa=co_pa)

    def _decode(self, instance: Instance) -> tuple:
        rf = frozenset(
            instance.relation("rf_pte").tuples
            | instance.relation("rf_data").tuples
        )
        co = frozenset(instance.relation(names.CO).tuples)
        co_pa = frozenset(instance.relation(names.CO_PA).tuples)
        return (rf, co, co_pa)


class WitnessSession:
    """One program's witness space, translated once and enumerated once.

    See the module docstring for the encoding.  The translation runs on
    first use (:meth:`_ensure_psession`); :meth:`weighted_witnesses`
    enumerates and decodes it.  ``translate_s``, ``solve_s`` and
    ``decode_s`` time the three stages, and ``enum_stats`` holds the
    enumerating solver's counters once the enumeration has run.
    """

    def __init__(
        self, program: Program, symmetry: Optional[ProgramSymmetry] = None
    ) -> None:
        self.program = program
        self.symmetry = (
            symmetry if symmetry is not None and symmetry.prunable else None
        )
        self.problem: Optional[WitnessProblem] = None
        self._psession = None
        self.enum_stats: Optional[SolverStats] = None
        self.translate_s = 0.0
        self.solve_s = 0.0
        self.decode_s = 0.0

    def _ensure_psession(self):
        """The translated problem, built on the first call."""
        if self._psession is None:
            started = time.perf_counter()
            with current_tracer().span(
                "translate", category="sat", events=len(self.program.events)
            ):
                self.problem = WitnessProblem(
                    self.program, symmetry=self.symmetry
                )
                self._psession = self.problem.problem.session()
            self.translate_s += time.perf_counter() - started
        return self._psession

    def weighted_witnesses(self) -> list[tuple[Execution, int]]:
        """The program's deduplicated candidate executions with their
        orbit weights, in the solver's deterministic order.

        Without symmetry every weight is 1.  With it, the lex-leader
        clauses already keep the enumeration to orbit representatives;
        the decode-side orbit check re-verifies that and attaches each
        representative's exact orbit size, so weighted counters
        reproduce the unpruned enumeration's totals."""
        tracer = current_tracer()
        span = tracer.begin("enumerate", category="sat") if tracer else None
        try:
            psession = self._ensure_psession()
            decode = self.problem._decode
            program = self.program
            autos = (
                self.symmetry.automorphisms
                if self.symmetry is not None
                else ()
            )
            seen: set[tuple] = set()
            out: list[tuple[Execution, int]] = []
            iterator = psession.iter_base_instances()
            clock = time.perf_counter
            while True:
                started = clock()
                instance = next(iterator, None)
                self.solve_s += clock() - started
                if instance is None:
                    break
                started = clock()
                witness = decode(instance)
                if witness not in seen:
                    seen.add(witness)
                    rf, co, co_pa = witness
                    weight = 1
                    keep = True
                    if autos:
                        weight, keep = witness_orbit(
                            program, autos, rf, co, co_pa
                        )
                    if keep:
                        out.append(
                            (
                                Execution(program, rf=rf, co=co, co_pa=co_pa),
                                weight,
                            )
                        )
                self.decode_s += clock() - started
            self.enum_stats = self.problem.problem.last_solver_stats
            if span is not None:
                span.args["witnesses"] = len(out)
                if self.enum_stats is not None:
                    span.args["conflicts"] = self.enum_stats.conflicts
        finally:
            tracer.end(span)
        return out


def enumerate_witnesses_sat(
    program: Program,
    model: Optional[MemoryModel] = None,
    violated_axiom: Optional[str] = None,
    problem: Optional[WitnessProblem] = None,
    symmetry: Optional[ProgramSymmetry] = None,
) -> Iterator[Execution]:
    """Enumerate a program's candidate executions through the SAT pipeline.

    With ``model`` and ``violated_axiom`` set, only executions violating
    that axiom are produced (the synthesis-interesting subset).

    ``symmetry`` applies static lex-leader breaking (see
    :class:`WitnessProblem`): the stream then contains one witness per
    automorphism orbit; pass it through
    :func:`repro.symmetry.prune_weighted` when orbit weights are needed.
    Ignored when a prebuilt ``problem`` is supplied (its construction
    already decided).

    ``problem`` supplies a prebuilt :class:`WitnessProblem` for the same
    program, for callers that need both the encoding object (bounds
    inspection, solver stats) and its enumeration without translating
    twice.  A reused problem must not have been constrained by a
    previous model query (constraints accumulate on the underlying
    :class:`~repro.relational.Problem`).

    The synthesis pipelines do not call this: they enumerate each
    program once, unconstrained, through a :class:`WitnessSession` and
    classify the decoded witnesses concretely.  This constrained entry
    is the reference the tests compare that stream with.
    """
    encoded = (
        problem
        if problem is not None
        else WitnessProblem(program, symmetry=symmetry)
    )
    if model is not None and violated_axiom is not None:
        encoded.constrain_axiom_violated(model, violated_axiom)
    elif model is not None:
        encoded.constrain_model(model, violated=False)
    yield from encoded.executions()
