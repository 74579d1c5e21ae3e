"""Delta grounding and incremental certain-answer maintenance.

The serving layer keeps a ground disjunctive-datalog program *warm* across a
stream of ABox updates.  Two maintenance strategies cover the two program
classes:

**Support-guarded delta grounding** (:class:`DeltaGrounder`), for arbitrary
(disjunctive) programs.  Every ground clause instantiation carries its
*support* as extra assumption literals:

* one *fact guard* ``guard(f)`` per EDB fact ``f`` used by the clause's body
  join, and
* one *domain guard* ``in_adom(c)`` per active-domain element ``c`` the
  clause's free variables were instantiated with (and per constant ``adom``
  guard of the rule).

Domain guards are derived, never assumed: for every fact ``f`` and constant
``c`` occurring in it, a support clause ``guard(f) → in_adom(c)`` is emitted,
so ``in_adom(c)`` is forced true exactly while some live fact mentions ``c``.
The session asserts ``guard(f)`` as a persistent solver assumption while
``f`` is live and simply retracts it on deletion — the clause database and
all learned clauses survive, because guards are ordinary atoms and learned
clauses are implied by the clause database alone.  Rules are grouped by EDB
body up to variable renaming (*shape*).  On insertion, each shape the delta
touches runs one semi-naive join (through the engine's join planner), and
only its new join results, plus older ones whose rules' free variables meet
a new domain element, are instantiated and pushed into the live solver.

**DRed maintenance** (:class:`IncrementalFixpoint`), for disjunction-free
programs: the materialized least fixpoint is maintained by semi-naive
insertion and delete-and-rederive (over-delete everything whose derivation
touched a deleted fact, then re-derive what survives from the remainder).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Callable, Hashable, Iterable, Mapping

from ..core.cq import Atom, Variable, canonical_atoms
from ..core.instance import Fact, Instance, MutableIndexedInstance
from ..core.interning import Interner, IntRow
from ..core.schema import RelationSymbol
from ..datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram
from ..datalog.plain import DatalogProgram, seed_row_builder
from ..engine.grounder import _split_body
from ..engine.joins import JoinPlan, compile_join, execute_join, join_exists
from ..engine.sat import Clause
from ..obs import telemetry as _telemetry

Element = Hashable

_ADOM_SYMBOL = RelationSymbol(ADOM, 1)


def fact_guard(fact: Fact) -> tuple:
    """The activation literal standing for "fact is live"."""
    return ("guard", fact)


def adom_guard(element: Element) -> tuple:
    """The derived literal standing for "element is in the active domain"."""
    return ("in_adom", element)


def _atom_builder(atom: Atom, slot_of: Mapping[Variable, int], builders: dict) -> Callable:
    """``row -> (relation, arguments)``, reading variable ``v`` at ``row[slot_of[v]]``.

    Atoms alike up to ``slot_of`` share one builder through ``builders``, so
    thousands of rules over a few relations allocate few closures.
    """
    terms = atom.arguments
    spec = tuple((True, slot_of[t]) if isinstance(t, Variable) else (False, t) for t in terms)
    key = (atom.relation.name, spec)  # the spec's length fixes the arity
    if key not in builders:
        relation = atom.relation
        if len(spec) == 1 and spec[0][0]:
            slot = spec[0][1]
            builders[key] = lambda row: (relation, (row[slot],))
        else:
            builders[key] = lambda row: (relation, tuple([row[k] if s else k for s, k in spec]))
    return builders[key]


@dataclass(eq=False)
class _Shape:
    """One EDB body shared, up to variable renaming, by a group of rules.

    ``atoms`` are the first member's EDB atoms, sorted by relation; every
    member numbers its EDB variables alike (by first occurrence), so a join
    result serves them all as one *row* of values in ``variables`` order.
    ``seen`` maps each result's key — its codes in that order, stable
    across epochs because the session's delta copies share one append-only
    interner — to the row and the guards of the EDB facts it matched.
    ``plans`` holds, per EDB atom, the compiled rest-of-body join plan, its
    seed-row builder and the permutation onto the key order, compiled once
    and reused every epoch (guarded by ``plans_interner`` identity).
    """

    atoms: tuple[Atom, ...]
    variables: tuple[Variable, ...]
    facts: tuple[Callable, ...]
    seen: dict[tuple, tuple[tuple, frozenset]] = field(default_factory=dict)
    plans: list[tuple] | None = None
    plans_interner: "Interner | None" = None

    def join(self, delta: Instance, store: Instance) -> list[tuple]:
        """The ``(row, guards)`` results new to this shape.  Semi-naive: each
        atom in turn is matched against the delta as a whole batch, the rest
        joined set-at-a-time against the full instance through the cached
        plans (the delta's rows are interned into the shared interner)."""
        interner = store.interner
        if self.plans is None or self.plans_interner is not interner:
            self.plans, self.plans_interner = [], interner
            for index, atom in enumerate(self.atoms):
                rest = self.atoms[:index] + self.atoms[index + 1 :]
                plan = compile_join(rest, store, bound=atom.variables)
                slot_of = {v: s for s, v in enumerate(plan.variables)}
                perm = tuple(slot_of[v] for v in self.variables)
                self.plans.append((plan, seed_row_builder(atom, plan, interner), perm))
        fresh: list[tuple] = []
        for atom, (plan, build_seed, perm) in zip(self.atoms, self.plans):
            rows = delta.tuples(atom.relation)
            seeds = [s for s in map(build_seed, map(interner.intern_row, rows)) if s is not None]
            if not seeds:
                continue
            for result in execute_join(plan, store, seeds):
                key = tuple(result[p] for p in perm)
                if key not in self.seen:
                    row = interner.decode_row(key)
                    guards = frozenset(fact_guard(Fact(*build(row))) for build in self.facts)
                    self.seen[key] = (row, guards)
                    fresh.append((row, guards))
        return fresh


@dataclass(eq=False, slots=True)
class _RuleState:
    """One rule as a clause template over its shape's rows: an instantiation
    extends a row by one value per ``free`` variable (those outside the EDB
    atoms, by name), and ``body``/``head`` build the IDB and head literals
    from the extended row.  ``adom_guards`` come from constant ``adom`` atoms."""

    free: tuple[Variable, ...]
    body: tuple[Callable, ...]
    head: tuple[Callable, ...]
    adom_guards: tuple


class DeltaGrounder:
    """Grounds only what an insertion can newly justify.

    The grounder mirrors the from-scratch semantics of
    :func:`repro.engine.grounder.ground_program` exactly — for the live fact
    set, a clause is *active* (all its guards hold) iff the from-scratch
    grounding over the current instance would contain its unguarded core —
    so a session's answers always agree with a fresh recomputation.

    A delta costs one join per :class:`_Shape` it touches, not one per
    rule.  ``_runs`` keeps the maximal runs of consecutive rules sharing a
    shape, so clauses still come out in program order.
    """

    def __init__(self, program: DisjunctiveDatalogProgram) -> None:
        self.program = program
        self._idb_names = frozenset(
            {sym.name for sym in program.idb_relations} | {GOAL}
        ) - {ADOM}
        shapes: dict[tuple, _Shape] = {}
        by_body: dict[tuple, tuple] = {}  # verbatim EDB atoms -> (shape, slot_of)
        builders: dict[tuple, Callable] = {}  # shared by every rule, see _atom_builder
        # (shape, its rules in the run, those of them with free variables)
        self._runs: list[tuple[_Shape, list[_RuleState], list[_RuleState]]] = []
        self._emitted: set[Clause] = set()
        self._bootstrap: list[Clause] = []
        self.clauses_emitted = 0
        self.instantiations = 0  # clause instantiations attempted (incl. tautologies)
        for rule in program.rules:
            edb_atoms, adom_atoms, idb_atoms = _split_body(
                rule, self._idb_names, ADOM
            )
            body = tuple(edb_atoms)
            if body not in by_body:
                ordered = tuple(sorted(body, key=lambda atom: atom.relation.name))
                slot_of: dict[Variable, int] = {}
                key = canonical_atoms(ordered, slot_of)
                if key not in shapes:
                    facts = tuple(_atom_builder(atom, slot_of, builders) for atom in ordered)
                    shapes[key] = _Shape(ordered, tuple(slot_of), facts)
                    if not ordered:
                        # The empty join result holds in every instance, the
                        # empty one included: later epochs only top it up.
                        shapes[key].seen[()] = ((), frozenset())
                by_body[body] = (shapes[key], slot_of)
            shape, slot_of = by_body[body]
            terms = {t for atom in (*adom_atoms, *idb_atoms, *rule.head) for t in atom.arguments}
            free = sorted((t for t in terms - slot_of.keys() if isinstance(t, Variable)), key=str)
            if free:
                slot_of = dict(slot_of)
                for variable in free:
                    slot_of[variable] = len(slot_of)
            state = _RuleState(
                tuple(free),
                tuple(_atom_builder(atom, slot_of, builders) for atom in idb_atoms),
                tuple(_atom_builder(atom, slot_of, builders) for atom in rule.head),
                tuple(
                    adom_guard(atom.arguments[0])
                    for atom in adom_atoms
                    if not isinstance(atom.arguments[0], Variable)
                ),
            )
            if not self._runs or self._runs[-1][0] is not shape:
                self._runs.append((shape, [], []))
            self._runs[-1][1].append(state)
            if free:
                self._runs[-1][2].append(state)
            elif not shape.atoms:
                self._emit_clauses(state, shape.seen.values(), [()], self._bootstrap.append)
        self._shapes = list(shapes.values())

    def bootstrap_clauses(self) -> list[Clause]:
        """Clauses valid over the empty instance (rules without EDB atoms or
        free variables); push these into the solver before the first epoch."""
        return list(self._bootstrap)

    def warm_plans(self) -> list[tuple]:
        """Each shape's plans and interner, for :meth:`adopt_warm_plans`."""
        return [(shape.plans, shape.plans_interner) for shape in self._shapes]

    def adopt_warm_plans(self, warm: list[tuple]) -> None:
        for shape, (plans, interner) in zip(self._shapes, warm):
            shape.plans, shape.plans_interner = plans, interner

    # -- insertion -------------------------------------------------------------

    def insert(
        self,
        old_instance: Instance,
        delta: Instance,
        new_instance: Instance,
    ) -> list[Clause]:
        """The guarded clauses newly justified by inserting ``delta``.

        ``new_instance`` must equal ``old_instance`` plus ``delta``.  Clauses
        already emitted in an earlier epoch (a deleted fact being re-inserted)
        are not re-emitted: retracting and re-asserting their guards is all
        the reactivation they need.
        """
        instantiations_before = self.instantiations
        emitted: list[Clause] = []

        def emit(clause: Clause) -> None:
            if clause not in self._emitted:
                self._emitted.add(clause)
                emitted.append(clause)

        # guard(f) -> in_adom(c) for every constant of every new fact
        for fact in sorted(delta, key=str):
            for constant in set(fact.arguments):
                emit(
                    (
                        frozenset([fact_guard(fact)]),
                        frozenset([adom_guard(constant)]),
                    )
                )

        fresh = {shape: shape.join(delta, new_instance) for shape in self._shapes if shape.atoms}
        new_elements = delta.active_domain - old_instance.active_domain
        domain = sorted(new_instance.active_domain, key=repr)

        @functools.cache
        def value_tuples(arity: int, top_up: bool) -> list[tuple]:
            # every tuple for new join results; for older ones (top-ups), only
            # the tuples touching a new domain element
            tuples = itertools.product(domain, repeat=arity)
            return [t for t in tuples if not top_up or any(v in new_elements for v in t)]

        for shape, members, free_members in self._runs:
            new = fresh.get(shape)
            old_count = len(shape.seen) - len(new or ())
            old = ()
            if new_elements and free_members and old_count:
                old = list(itertools.islice(shape.seen.values(), old_count))
            # per rule in program order: top-ups of old results, then new results
            for state in members if new else free_members if old else ():
                if old and state.free:
                    self._emit_clauses(state, old, value_tuples(len(state.free), True), emit)
                if new:
                    self._emit_clauses(state, new, value_tuples(len(state.free), False), emit)
        self.clauses_emitted += len(emitted)
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("delta.ground_inserts")
            tel.count("delta.clauses_emitted", len(emitted))
            tel.count(
                "delta.instantiations",
                self.instantiations - instantiations_before,
            )
        return emitted

    # -- clause construction ---------------------------------------------------

    def _emit_clauses(
        self, state: _RuleState, rows: Iterable, tuples: list[tuple], emit: Callable
    ) -> None:
        """One clause per ``(row, guards)`` result and free-value tuple."""
        for row, guards in rows:
            self.instantiations += len(tuples)
            for values in tuples:
                extended = row + values
                negative = {build(extended) for build in state.body}
                positive = frozenset([build(extended) for build in state.head])
                if negative & positive:
                    continue  # tautology
                negative.update(guards)
                negative.update(map(adom_guard, values))
                negative.update(state.adom_guards)
                emit((frozenset(negative), positive))


# ---------------------------------------------------------------------------
# DRed maintenance of plain-datalog fixpoints
# ---------------------------------------------------------------------------


class IncrementalFixpoint:
    """A materialized least fixpoint maintained under fact-level updates.

    Insertions run semi-naive rounds seeded by the delta; deletions use
    DRed (delete-and-rederive): over-delete every fact whose derivation may
    have used a deleted fact, then re-derive the survivors from what is
    left.  ``adom`` facts are maintained directly from the EDB instance's
    active domain, exactly as :meth:`DatalogProgram.least_fixpoint` seeds
    them.
    """

    def __init__(
        self, program: DatalogProgram, instance: Instance | None = None
    ) -> None:
        self.program = program
        self._edb = instance if instance is not None else Instance([])
        self._fixpoint = program.least_fixpoint(self._edb)
        # Re-derivation plans (whole rule body bound by the head variables),
        # lazily compiled per rule and reused across epochs: the session's
        # delta copies and fixpoints all share one append-only interner, so
        # the identity guard only recompiles if a caller ever swaps in an
        # unrelated instance.  The semi-naive per-rule plans live on the
        # program itself (:meth:`DatalogProgram.compiled_rules`).
        self._rederive_plans: list[tuple[JoinPlan, Callable] | None] | None = None
        self._rederive_interner: Interner | None = None

    def _rederive(
        self, rule_index: int, store
    ) -> tuple[JoinPlan, Callable]:
        """One rule's re-derivation plan: the whole body bound by the head
        variables, plus the head-row matcher seeding it (DRed checks)."""
        interner = store.interner
        if self._rederive_plans is None or self._rederive_interner is not interner:
            self._rederive_plans = [None] * len(self.program.rules)
            self._rederive_interner = interner
        entry = self._rederive_plans[rule_index]
        if entry is None:
            rule = self.program.rules[rule_index]
            head = rule.head[0]
            plan = compile_join(rule.body, store, bound=head.variables)
            entry = (plan, seed_row_builder(head, plan, interner))
            self._rederive_plans[rule_index] = entry
        return entry

    @property
    def edb(self) -> Instance:
        return self._edb

    @property
    def fixpoint(self) -> Instance:
        return self._fixpoint

    def goal_answers(self) -> frozenset[tuple]:
        """Goal tuples over the active domain (the certain answers of a
        disjunction-free program)."""
        adom = self._edb.active_domain
        return frozenset(
            row
            for row in self._fixpoint.tuples(self.program.goal_relation)
            if all(value in adom for value in row)
        )

    # -- updates ---------------------------------------------------------------

    def insert(self, facts: Iterable[Fact]) -> None:
        added = [f for f in facts if f not in self._edb.facts]
        if not added:
            return
        with _telemetry.maybe_span("dred.insert", facts=len(added)):
            new_edb = self._edb.with_facts(added)
            new_elements = new_edb.active_domain - self._edb.active_domain
            self._edb = new_edb
            delta = list(added) + [
                Fact(_ADOM_SYMBOL, (element,)) for element in new_elements
            ]
            self._propagate(delta)

    def delete(self, facts: Iterable[Fact]) -> None:
        removed = [f for f in facts if f in self._edb.facts]
        if not removed:
            return
        new_edb = self._edb.without_facts(removed)
        dropped = self._edb.active_domain - new_edb.active_domain
        self._edb = new_edb
        # Over-deletion: anything derivable through a deleted fact, computed
        # against the pre-deletion fixpoint (the standard over-approximation).
        # The whole pass runs on interned rows: the old fixpoint, the new
        # EDB and the compiled plans share the session interner, so the
        # frontier is a dict of row batches and membership checks hash ints.
        old_fixpoint = self._fixpoint
        interner = old_fixpoint.interner
        compiled = self.program.compiled_rules(old_fixpoint)
        protected_adom = {
            interner.code(element) for element in new_edb.active_domain
        }
        overdeleted: dict[RelationSymbol, set[IntRow]] = {}
        frontier: dict[RelationSymbol, list[IntRow]] = {}

        def seed(relation: RelationSymbol, row: IntRow) -> None:
            overdeleted.setdefault(relation, set()).add(row)
            frontier.setdefault(relation, []).append(row)

        for fact in removed:
            seed(fact.relation, interner.intern_row(fact.arguments))
        for element in dropped:
            seed(_ADOM_SYMBOL, (interner.code(element),))
        while frontier:
            wave: dict[RelationSymbol, list[IntRow]] = {}
            for crule in compiled:
                head_relation = crule.rule.head[0].relation
                live = old_fixpoint.relation_rows(head_relation)
                gone = overdeleted.setdefault(head_relation, set())
                protected = (
                    new_edb.relation_rows(head_relation)
                    if head_relation != _ADOM_SYMBOL
                    else None
                )
                for build_head, rows in crule.delta_result_rows(
                    old_fixpoint, frontier
                ):
                    for row in rows:
                        head_row = build_head(row)
                        if head_row in gone or head_row not in live:
                            continue
                        if protected is None:
                            if head_row[0] in protected_adom:
                                continue
                        elif head_row in protected:
                            continue
                        gone.add(head_row)
                        wave.setdefault(head_relation, []).append(head_row)
            frontier = wave
        overdeleted_facts = [
            Fact(relation, interner.decode_row(row))
            for relation, rows in overdeleted.items()
            for row in rows
        ]
        remaining = self._fixpoint.without_facts(overdeleted_facts)
        self._fixpoint = remaining
        # Re-derivation: an over-deleted fact with an alternative derivation
        # from the remainder comes back (and propagates semi-naively).  The
        # removed facts themselves are candidates too — a deleted fact over
        # an IDB relation stays derived exactly when some rule still derives
        # it, matching a from-scratch recomputation.  Each candidate is one
        # early-exit existence probe of the rule body seeded by its head row.
        rederived = []
        for fact in sorted(overdeleted_facts, key=str):
            row = interner.intern_row(fact.arguments)
            for rule_index, rule in enumerate(self.program.rules):
                head = rule.head[0]
                if head.relation != fact.relation:
                    continue
                plan, match_head = self._rederive(rule_index, remaining)
                seed_row = match_head(row)
                if seed_row is None:
                    continue
                if join_exists(plan, remaining, seed_row):
                    rederived.append(fact)
                    break
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("dred.deletes")
            tel.count("dred.overdeleted", len(overdeleted_facts))
            tel.count("dred.rederived", len(rederived))
        if rederived:
            self._propagate(rederived)

    # -- semi-naive propagation ------------------------------------------------

    def _propagate(self, delta_facts: list[Fact]) -> None:
        # One mutable columnar store across all semi-naive rounds (same
        # pattern as DatalogProgram.least_fixpoint): each round seeds the
        # cached compiled plans with the previous round's delta batches, a
        # round's derivations are buffered and applied at the round
        # boundary, and the store is frozen once at saturation.
        current = MutableIndexedInstance(self._fixpoint)
        compiled = self.program.compiled_rules(current)
        interner = current.interner
        delta: dict[RelationSymbol, list[IntRow]] = {}
        for fact in delta_facts:
            row = interner.intern_row(fact.arguments)
            if current.add_row(fact.relation, row):
                delta.setdefault(fact.relation, []).append(row)
        while delta:
            pending: dict[RelationSymbol, set[IntRow]] = {}
            for crule in compiled:
                head_relation = crule.rule.head[0].relation
                derived = pending.get(head_relation)
                for build_head, rows in crule.delta_result_rows(current, delta):
                    for row in rows:
                        head_row = build_head(row)
                        if current.has_row(head_relation, head_row):
                            continue
                        if derived is None:
                            derived = pending.setdefault(head_relation, set())
                        derived.add(head_row)
            delta = {}
            for relation, rows in pending.items():
                fresh = [row for row in rows if current.add_row(relation, row)]
                if fresh:
                    delta[relation] = fresh
        self._fixpoint = current.freeze()
