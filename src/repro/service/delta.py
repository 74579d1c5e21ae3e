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
programs: the materialized least fixpoint lives in one mutable columnar
store for its whole life and is maintained in place by semi-naive
insertion and delete-and-rederive (over-delete everything whose derivation
touched a deleted fact, remove it, then re-derive what survives from the
remainder).  Readers query that live store through the row protocol.
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
from ..datalog.plain import DatalogProgram, seed_row_builder, semi_naive_rounds
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
    """A materialized least fixpoint maintained in place under fact-level updates.

    Set-up materializes through :meth:`DatalogProgram.least_fixpoint` and
    keeps the result as one :class:`MutableIndexedInstance` (the *store*)
    for the object's whole life; the EDB is a second one.  Insertions run
    semi-naive rounds on the store; deletions use DRed (delete-and-rederive):
    over-delete every row whose derivation may have used a deleted fact,
    computed against the store before it changes, remove those rows in
    place, re-derive the survivors from the remainder with one early-exit
    probe each, and propagate them.  ``adom`` rows follow the EDB's active
    domain, exactly as :meth:`DatalogProgram.least_fixpoint` seeds them.
    An update costs work proportional to what it touches: no epoch copies,
    freezes or decodes the store, or scans the active domain.
    """

    def __init__(
        self, program: DatalogProgram, instance: Instance | None = None
    ) -> None:
        self.program = program
        edb = instance if instance is not None else Instance([])
        self._store = MutableIndexedInstance(program.least_fixpoint(edb))
        self._edb = MutableIndexedInstance(edb)
        # Re-derivation plans (whole rule body bound by the head variables),
        # lazily compiled per rule and reused across epochs: the session's
        # delta copies and the stores all share one append-only interner, so
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
        """The current EDB, frozen on demand."""
        return self._edb.freeze()

    @property
    def store(self) -> MutableIndexedInstance:
        """The live materialization: read it through the row protocol (or
        its cached ``tuples`` views) between updates, never across one."""
        return self._store

    @property
    def fixpoint(self) -> Instance:
        """The materialization, frozen on demand (for callers that compare it)."""
        return self._store.freeze()

    # -- updates ---------------------------------------------------------------

    def insert(self, facts: Iterable[Fact]) -> None:
        edb = self._edb
        intern_row = edb.interner.intern_row
        domain = edb.domain_codes
        added: list[tuple[RelationSymbol, IntRow]] = []
        new_codes: set[int] = set()
        for fact in facts:
            row = intern_row(fact.arguments)
            if edb.has_row(fact.relation, row):
                continue
            new_codes.update(code for code in row if code not in domain)
            edb.add_row(fact.relation, row)
            added.append((fact.relation, row))
        if not added:
            return
        with _telemetry.maybe_span("dred.insert", facts=len(added)):
            added.extend((_ADOM_SYMBOL, (code,)) for code in new_codes)
            self._propagate(added)

    def delete(self, facts: Iterable[Fact]) -> None:
        edb, store = self._edb, self._store
        intern_row = edb.interner.intern_row
        removed: list[tuple[RelationSymbol, IntRow]] = []
        for fact in facts:
            if fact in edb:
                row = intern_row(fact.arguments)
                edb.remove_row(fact.relation, row)
                removed.append((fact.relation, row))
        if not removed:
            return
        edb_domain = edb.domain_codes
        # Over-deletion: anything derivable through a deleted fact, computed
        # against the store before any row leaves it (the standard
        # over-approximation).  The frontier is a dict of row batches, and
        # every membership check hashes ints.
        compiled = self.program.compiled_rules(store)
        overdeleted: dict[RelationSymbol, set[IntRow]] = {}
        frontier: dict[RelationSymbol, list[IntRow]] = {}

        def seed(relation: RelationSymbol, row: IntRow) -> None:
            overdeleted.setdefault(relation, set()).add(row)
            frontier.setdefault(relation, []).append(row)

        for relation, row in removed:
            seed(relation, row)
        for code in {code for _, row in removed for code in row} - edb_domain:
            seed(_ADOM_SYMBOL, (code,))
        while frontier:
            wave: dict[RelationSymbol, list[IntRow]] = {}
            for crule in compiled:
                head_relation = crule.rule.head[0].relation
                live = store.relation_rows(head_relation)
                gone = overdeleted.setdefault(head_relation, set())
                protected = (
                    edb.relation_rows(head_relation)
                    if head_relation != _ADOM_SYMBOL
                    else None
                )
                for build_head, rows in crule.delta_result_rows(store, frontier):
                    for row in rows:
                        head_row = build_head(row)
                        if head_row in gone or head_row not in live:
                            continue
                        if protected is None:
                            if head_row[0] in edb_domain:
                                continue
                        elif head_row in protected:
                            continue
                        gone.add(head_row)
                        wave.setdefault(head_relation, []).append(head_row)
            frontier = wave
        for relation, rows in overdeleted.items():
            for row in rows:
                store.remove_row(relation, row)
        # Re-derivation: an over-deleted row with an alternative derivation
        # from the remainder comes back (and propagates semi-naively).  The
        # removed facts themselves are candidates too — a deleted fact over
        # an IDB relation stays derived exactly when some rule still derives
        # it, matching a from-scratch recomputation.  Each candidate is one
        # early-exit existence probe of the rule body seeded by its head row.
        rederived: list[tuple[RelationSymbol, IntRow]] = []
        for relation, rows in overdeleted.items():
            if not rows:
                continue
            probes = [
                self._rederive(index, store)
                for index, rule in enumerate(self.program.rules)
                if rule.head[0].relation == relation
            ]
            for row in rows:
                for plan, match_head in probes:
                    seed_row = match_head(row)
                    if seed_row is not None and join_exists(plan, store, seed_row):
                        rederived.append((relation, row))
                        break
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("dred.deletes")
            tel.count("dred.overdeleted", sum(map(len, overdeleted.values())))
            tel.count("dred.rederived", len(rederived))
        if rederived:
            self._propagate(rederived)

    # -- semi-naive propagation ------------------------------------------------

    def _propagate(self, rows: list[tuple[RelationSymbol, IntRow]]) -> None:
        """Add ``rows`` to the store and run semi-naive rounds to saturation
        there (the rounds :meth:`DatalogProgram.least_fixpoint` runs)."""
        store = self._store
        delta: dict[RelationSymbol, list[IntRow]] = {}
        for relation, row in rows:
            if store.add_row(relation, row):
                delta.setdefault(relation, []).append(row)
        for _ in semi_naive_rounds(self.program.compiled_rules(store), store, delta):
            pass
