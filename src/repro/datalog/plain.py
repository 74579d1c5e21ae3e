"""Plain (disjunction-free) datalog with semi-naive bottom-up evaluation.

Datalog queries are the rewriting target of Section 5.3; a *datalog query* in
the paper is a DDlog query defined by a program whose rule heads are single
atoms.  This module provides a least-fixpoint evaluator, which is what makes
the datalog-rewritability experiments executable.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterator, Sequence

from ..core.cq import Atom, Variable
from ..core.instance import Fact, Instance, MutableIndexedInstance, TupleIndexedInstance
from ..core.interning import Interner, IntRow
from ..core.schema import RelationSymbol
from ..engine.joins import (
    JoinPlan,
    canonical_key,
    compile_join,
    execute_join,
    extend_assignment,
    join_assignments,
    order_atoms,
)
from ..obs import telemetry as _telemetry
from .ddlog import ADOM, DisjunctiveDatalogProgram, Rule

Element = Hashable


def seed_row_builder(
    atom: Atom, plan: JoinPlan, interner: Interner
) -> Callable[[IntRow], IntRow | None]:
    """A function turning one (interned) row of ``atom``'s relation into a
    seed row over ``plan.bound_variables``, or ``None`` when the row is
    incompatible with the atom (constant mismatch, repeated-variable clash).

    The semi-naive primitive: delta rows seed the plan compiled for the
    *rest* of the rule body with ``atom``'s variables bound.  Distinct
    accepted rows yield distinct seeds (constant positions are pinned and
    variable positions are the projection), so the seed batch is
    duplicate-free whenever the delta rows are.
    """
    position_of: dict[Variable, int] = {}
    checks: list[tuple[int, int]] = []  # (position, required code)
    duplicates: list[tuple[int, int]] = []  # row[p] == row[q]
    for position, term in enumerate(atom.arguments):
        if isinstance(term, Variable):
            first = position_of.get(term)
            if first is None:
                position_of[term] = position
            else:
                duplicates.append((first, position))
        else:
            checks.append((position, interner.intern(term)))
    extract = tuple(position_of[v] for v in plan.bound_variables)

    def build(row: IntRow) -> IntRow | None:
        for position, code in checks:
            if row[position] != code:
                return None
        for left, right in duplicates:
            if row[left] != row[right]:
                return None
        return tuple(row[p] for p in extract)

    return build


def head_row_builder(
    head: Atom, plan: JoinPlan, interner: Interner
) -> Callable[[IntRow], IntRow]:
    """A function projecting one executed plan row onto the head atom's
    argument row (head constants pre-interned)."""
    slot_of = {variable: slot for slot, variable in enumerate(plan.variables)}
    layout = tuple(
        (True, slot_of[term]) if isinstance(term, Variable) else (False, interner.intern(term))
        for term in head.arguments
    )

    def build(row: IntRow) -> IntRow:
        return tuple(row[key] if is_slot else key for is_slot, key in layout)

    return build


class CompiledRule:
    """One rule compiled for batched semi-naive evaluation over a store.

    For every body atom index the *rest* of the body is compiled into a
    :class:`~repro.engine.joins.JoinPlan` with that atom's variables bound;
    a delta round seeds each plan with the delta rows of the atom's
    relation and executes set-at-a-time.  Per-index plans compile lazily,
    the first time the atom's relation actually carries delta rows — on
    small instances most IDB atoms never do, and their plans are never
    built.  Plans are interner-independent, so one compiled rule serves
    every store the program ever evaluates — fixpoint rounds, DRed passes,
    session epochs *and* unrelated fresh instances (the cross-validation
    pattern); only the thin seed/head row builders, which embed constant
    codes, are re-derived when the store's interner changes (identity
    guard, single slot).
    """

    __slots__ = ("rule", "_head", "_plans", "_builders_interner", "_builders")

    def __init__(self, rule: Rule) -> None:
        self.rule = rule
        self._head = rule.head[0] if len(rule.head) == 1 else None
        # per body atom index: the rest-of-body JoinPlan, compiled lazily
        self._plans: list[JoinPlan | None] = [None] * len(rule.body)
        # per body atom index: (plan, seed builder, head builder) for the
        # current interner; rebuilt (cheaply) when the interner changes
        self._builders_interner: Interner | None = None
        self._builders: list[tuple | None] = [None] * len(rule.body)

    def entry(self, index: int, store) -> tuple:
        """The compiled (plan, seed builder, head builder) of one atom index."""
        interner = store.interner
        if self._builders_interner is not interner:
            self._builders = [None] * len(self.rule.body)
            self._builders_interner = interner
        entry = self._builders[index]
        if entry is None:
            atom = self.rule.body[index]
            plan = self._plans[index]
            if plan is None:
                rest = [a for i, a in enumerate(self.rule.body) if i != index]
                plan = compile_join(rest, store, bound=atom.variables)
                self._plans[index] = plan
            entry = (
                plan,
                seed_row_builder(atom, plan, interner),
                head_row_builder(self._head, plan, interner)
                if self._head is not None
                else None,
            )
            self._builders[index] = entry
        return entry

    def delta_result_rows(
        self, store, delta: "dict[RelationSymbol, list[IntRow]]"
    ) -> Iterator[tuple[Callable, list[IntRow]]]:
        """Per delta atom index with delta rows: the head-row builder and the
        full result rows of the rest-plan seeded with those rows
        (set-at-a-time, duplicate-free batches)."""
        for index, atom in enumerate(self.rule.body):
            rows = delta.get(atom.relation)
            if not rows:
                continue
            plan, build_seed, build_head = self.entry(index, store)
            seeds = [
                seed for row in rows if (seed := build_seed(row)) is not None
            ]
            if not seeds:
                continue
            out = execute_join(plan, store, seeds)
            if out:
                yield build_head, out


def semi_naive_rounds(
    compiled: Sequence[CompiledRule],
    store: MutableIndexedInstance,
    delta: dict[RelationSymbol, list[IntRow]],
) -> Iterator[dict[RelationSymbol, list[IntRow]]]:
    """Run semi-naive rounds over ``store`` to saturation.

    ``delta`` holds the rows added to ``store`` since the last round.  Each
    round seeds every compiled rule's rest plans with the delta batches,
    buffers the derived head rows, and applies them at the round boundary
    (so every join reads the previous round's state and no live index
    mutates under an in-flight join).  Yields each round's fresh rows, the
    next round's delta; the last round yields an empty one.
    """
    while delta:
        pending: dict[RelationSymbol, set[IntRow]] = {}
        for crule in compiled:
            head_relation = crule.rule.head[0].relation
            derived = pending.get(head_relation)
            for build_head, rows in crule.delta_result_rows(store, delta):
                for row in rows:
                    head_row = build_head(row)
                    if store.has_row(head_relation, head_row):
                        continue
                    if derived is None:
                        derived = pending.setdefault(head_relation, set())
                    derived.add(head_row)
        delta = {}
        for relation, rows in pending.items():
            fresh = [row for row in rows if store.add_row(relation, row)]
            if fresh:
                delta[relation] = fresh
        yield delta


class DatalogProgram(DisjunctiveDatalogProgram):
    """A disjunction-free DDlog program evaluated via least fixpoint."""

    def __init__(self, rules, goal_relation: RelationSymbol | None = None) -> None:
        super().__init__(rules, goal_relation=goal_relation)
        for rule in self.rules:
            if len(rule.head) != 1:
                raise ValueError(
                    "datalog rules must have exactly one head atom; "
                    f"offending rule: {rule}"
                )

    # -- evaluation --------------------------------------------------------------

    def compiled_rules(self, store) -> "list[CompiledRule]":
        """The program's rules compiled for batched evaluation (cached).

        The cache lives on the program object — it dies with the program —
        and since plans are interner-independent it is hit by *every*
        store the program evaluates: delta copies and fixpoint stores of a
        session, and entirely unrelated fresh instances alike.  ``store``
        only informs the greedy atom ordering of plans compiled lazily on
        this call.
        """
        cache = getattr(self, "_columnar_compiled", None)
        if cache is None:
            cache = [CompiledRule(rule) for rule in self.rules]
            self._columnar_compiled = cache
        return cache

    def least_fixpoint(
        self, instance: Instance, engine: str = "columnar"
    ) -> Instance:
        """The minimal model of the program extending the instance.

        Evaluation is *semi-naive* (:func:`semi_naive_rounds`): after the
        first round, a rule body is only re-joined through instantiations
        that touch at least one fact derived in the previous round (the
        delta).  The default ``columnar`` engine runs entirely on interned
        int rows: every rule is compiled once (:class:`CompiledRule`), and
        derived head rows accumulate in **one**
        :class:`MutableIndexedInstance` whose columnar buckets are updated
        in place across rounds and which is frozen exactly once at
        saturation.

        ``engine="tuple"`` runs the pre-columnar tuple-at-a-time
        implementation over a :class:`TupleIndexedInstance` — the
        cross-validation reference and benchmark baseline.
        """
        if engine == "tuple":
            return self._least_fixpoint_tuple(instance)
        if engine != "columnar":
            raise ValueError(f"unknown fixpoint engine: {engine!r}")
        current = MutableIndexedInstance(instance)
        adom = RelationSymbol(ADOM, 1)
        delta: dict[RelationSymbol, list] = {}
        for relation in instance.schema:
            rows = current.relation_rows(relation)
            if rows:
                delta[relation] = list(rows)
        adom_rows = []
        for code in sorted(current.domain_codes):
            row = (code,)
            if current.add_row(adom, row):
                adom_rows.append(row)
        if adom_rows:
            delta[adom] = adom_rows
        compiled = self.compiled_rules(current)
        tel = _telemetry.ACTIVE
        rounds = 0
        derived_total = 0
        with _telemetry.maybe_span(
            "fixpoint.least_fixpoint", rules=len(compiled)
        ) as span:
            for fresh in semi_naive_rounds(compiled, current, delta):
                rounds += 1
                if tel is not None:
                    delta_size = sum(len(rows) for rows in fresh.values())
                    derived_total += delta_size
                    tel.record("fixpoint.round_delta_rows", delta_size)
            if tel is not None:
                tel.count("fixpoint.runs")
                tel.count("fixpoint.rounds", rounds)
                tel.count("fixpoint.rows_derived", derived_total)
                span.set(rounds=rounds, rows_derived=derived_total)
        return current.freeze()

    def _least_fixpoint_tuple(self, instance: Instance) -> Instance:
        """The pre-columnar tuple-at-a-time semi-naive fixpoint (reference)."""
        current = TupleIndexedInstance(instance)
        adom = RelationSymbol(ADOM, 1)
        seed = list(instance.facts) + [
            Fact(adom, (element,)) for element in instance.active_domain
        ]
        for fact in seed:
            current.add(fact)
        delta = Instance(seed)  # first round: every fact is new
        while True:
            fresh: list[Fact] = []
            pending: set[Fact] = set()
            for rule in self.rules:
                head_atom = rule.head[0]
                for assignment in delta_body_matches(rule, current, delta):
                    arguments = tuple(
                        assignment[a] if isinstance(a, Variable) else a
                        for a in head_atom.arguments
                    )
                    fact = Fact(head_atom.relation, arguments)
                    # the pending set dedups facts derived several times in
                    # one round; application is deferred to the round
                    # boundary so the live indexes stay stable under the
                    # round's joins
                    if fact in current or fact in pending:
                        continue
                    pending.add(fact)
                    fresh.append(fact)
            if not fresh:
                return current.freeze()
            for fact in fresh:
                current.add(fact)
            delta = Instance(fresh)

    def evaluate(
        self, instance: Instance, engine: str = "columnar"
    ) -> frozenset[tuple]:
        """The answers of the datalog query: goal facts in the least fixpoint."""
        fixpoint = self.least_fixpoint(instance, engine=engine)
        return frozenset(fixpoint.tuples(self.goal_relation))

    def evaluate_boolean(self, instance: Instance) -> bool:
        if self.arity != 0:
            raise ValueError("program is not Boolean")
        return () in self.evaluate(instance)

    def holds(self, instance: Instance, answer: Sequence = ()) -> bool:
        return tuple(answer) in self.evaluate(instance)


def delta_body_matches(
    rule: Rule,
    current: "Instance | MutableIndexedInstance",
    delta: Instance,
) -> Iterator[dict[Variable, Element]]:
    """Body matches of ``rule`` in ``current`` touching at least one ``delta`` fact.

    The semi-naive primitive of the tuple-at-a-time reference fixpoint
    (``least_fixpoint(engine="tuple")``): for every
    body atom in turn, the atom is matched against the delta and the
    remaining atoms are joined against the full instance (selectivity-ordered
    through the engine's join planner).  Matches are deduplicated by their
    canonical assignment key, so instantiations touching several delta facts
    are yielded once.
    """
    if delta.is_empty():
        return
    seen: set[tuple] = set()
    for index, atom in enumerate(rule.body):
        rows = delta.tuples(atom.relation)
        if not rows:
            continue
        rest = [a for i, a in enumerate(rule.body) if i != index]
        # The greedy join order depends only on which variables the seed
        # binds, so it is computed once per delta atom, not once per row.
        ordered = order_atoms(rest, current, bound=atom.variables)
        for row in rows:
            seed = extend_assignment(atom, row, {})
            if seed is None:
                continue
            for assignment in join_assignments(
                rest, current, initial=seed, ordered=ordered
            ):
                key = canonical_key(assignment)
                if key in seen:
                    continue
                seen.add(key)
                yield assignment


def conjoin_datalog_queries(
    programs: Sequence[DatalogProgram],
) -> DatalogProgram:
    """The conjunction of datalog queries of the same arity (Lemma 5.14 uses
    closure of datalog queries under conjunction).

    Relation symbols of each program are renamed apart, and the combined goal
    fires when every constituent goal fires on the same tuple.
    """
    if not programs:
        raise ValueError("need at least one program")
    arity = programs[0].arity
    if any(p.arity != arity for p in programs):
        raise ValueError("programs must share the goal arity")
    renamed_rules: list[Rule] = []
    component_goals: list[RelationSymbol] = []
    for index, program in enumerate(programs):
        idb_names = {s.name for s in program.idb_relations} - {ADOM}
        renaming = {
            name: f"{name}__c{index}" for name in idb_names
        }
        component_goals.append(RelationSymbol(renaming["goal"], arity))

        def rename_atom(atom: Atom) -> Atom:
            name = atom.relation.name
            if name in renaming:
                return Atom(
                    RelationSymbol(renaming[name], atom.relation.arity), atom.arguments
                )
            return atom

        for rule in program.rules:
            renamed_rules.append(
                Rule(
                    tuple(rename_atom(a) for a in rule.head),
                    tuple(rename_atom(a) for a in rule.body),
                )
            )
    answer_vars = tuple(Variable(f"x{i}") for i in range(arity))
    goal = RelationSymbol("goal", arity)
    if arity == 0:
        body = tuple(Atom(g, ()) for g in component_goals)
    else:
        body = tuple(Atom(g, answer_vars) for g in component_goals)
    renamed_rules.append(Rule((Atom(goal, answer_vars),), body))
    return DatalogProgram(renamed_rules, goal_relation=goal)


def union_datalog_queries(programs: Sequence[DatalogProgram]) -> DatalogProgram:
    """The union (disjunction) of datalog queries of the same arity."""
    if not programs:
        raise ValueError("need at least one program")
    arity = programs[0].arity
    if any(p.arity != arity for p in programs):
        raise ValueError("programs must share the goal arity")
    renamed_rules: list[Rule] = []
    goal = RelationSymbol("goal", arity)
    answer_vars = tuple(Variable(f"x{i}") for i in range(arity))
    for index, program in enumerate(programs):
        idb_names = {s.name for s in program.idb_relations} - {ADOM}
        renaming = {name: f"{name}__u{index}" for name in idb_names}

        def rename_atom(atom: Atom) -> Atom:
            name = atom.relation.name
            if name in renaming:
                return Atom(
                    RelationSymbol(renaming[name], atom.relation.arity), atom.arguments
                )
            return atom

        for rule in program.rules:
            renamed_rules.append(
                Rule(
                    tuple(rename_atom(a) for a in rule.head),
                    tuple(rename_atom(a) for a in rule.body),
                )
            )
        component_goal = RelationSymbol(renaming["goal"], arity)
        renamed_rules.append(
            Rule((Atom(goal, answer_vars),), (Atom(component_goal, answer_vars),))
        )
    return DatalogProgram(renamed_rules, goal_relation=goal)
