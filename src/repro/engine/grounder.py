"""Join-planned grounding of disjunctive datalog programs.

:func:`ground_program` grounds a program over ``adom(D)`` exactly once into
a :class:`GroundProgram`: per rule, the EDB body atoms are satisfied by a
selectivity-ordered join (:mod:`repro.engine.joins`) instead of a cartesian
enumeration, remaining variables range over the active domain, and the
resulting clauses are deduplicated and subsumption-reduced before solving.
The ground clause set is then loaded once into a persistent
:class:`~repro.engine.sat.ClauseSolver`, and :func:`certain_goal_atoms`
decides all candidate tuples against that shared state: a screening solve
that branches on every candidate's goal atom false first, then one
assumption-literal ``solve`` per candidate the models have not refuted.
Serving sessions run the same routine on their live solvers and carry its
verdicts across updates (:class:`Verdicts`).
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Hashable, Iterable, Iterator, Sequence

from ..core.cq import Atom, Variable
from ..core.instance import Instance
from ..obs import telemetry as _telemetry
from .joins import canonical_key, compile_join, execute_join, join_assignments
from .sat import Clause, ClauseSolver, solver_for_clauses

if TYPE_CHECKING:  # imported lazily at runtime to avoid an import cycle
    from ..datalog.ddlog import DisjunctiveDatalogProgram, Rule

Element = Hashable
GroundAtom = tuple  # (RelationSymbol, argument tuple)

# Above this many clauses the quadratic-ish subsumption pass is skipped
# (plain deduplication always runs).
_SUBSUMPTION_LIMIT = 20_000


def instantiate_atom(atom: Atom, assignment: dict[Variable, Element]) -> GroundAtom:
    """Ground an atom under a variable assignment into a ``GroundAtom``."""
    arguments = tuple(
        assignment[a] if isinstance(a, Variable) else a for a in atom.arguments
    )
    return (atom.relation, arguments)


def _split_body(
    rule: Rule, idb_names: frozenset[str], adom_name: str
) -> tuple[list[Atom], list[Atom], list[Atom]]:
    """Partition a rule body into (EDB atoms, adom atoms, IDB atoms)."""
    edb_atoms: list[Atom] = []
    adom_atoms: list[Atom] = []
    idb_atoms: list[Atom] = []
    for atom in rule.body:
        name = atom.relation.name
        if name == adom_name:
            adom_atoms.append(atom)
        elif name in idb_names:
            idb_atoms.append(atom)
        else:
            edb_atoms.append(atom)
    return edb_atoms, adom_atoms, idb_atoms


class GroundAux:
    """A fresh auxiliary atom factoring an independent free-variable block.

    When a rule's free variables split into blocks that share no literal,
    the conjunction of its ground clauses factors as
    ``bound-part ∨ (∧_σ1 C1σ1) ∨ ... ∨ (∧_σm Cmσm)`` — one auxiliary atom
    per block replaces the ``|domain|^(k1+...+km)`` cartesian product by
    ``|domain|^k1 + ... + |domain|^km`` definitional clauses (one-sided
    encoding, sound for the satisfiability queries the engine issues).
    """

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"GroundAux({self.index})"


def _instantiate_literals(
    literals: Sequence[tuple[Atom, bool]], assignment: dict[Variable, Element]
) -> tuple[frozenset, frozenset]:
    negative = frozenset(
        instantiate_atom(atom, assignment) for atom, pos in literals if not pos
    )
    positive = frozenset(
        instantiate_atom(atom, assignment) for atom, pos in literals if pos
    )
    return negative, positive


def _free_variable_blocks(
    free: Sequence[Variable], literals: Sequence[tuple[Atom, bool]]
) -> tuple[list[tuple[list[Variable], list[tuple[Atom, bool]]]], list]:
    """Partition free variables and literals into co-occurrence blocks.

    Two free variables belong to the same block when some literal mentions
    both (transitively); a literal belongs to the block of its free
    variables.  Returns ``(blocks, bound_literals)`` where bound literals
    mention no free variable at all.  Free variables mentioned by no literal
    (they occur only in variable ``adom`` atoms) span no block: enumerating
    them would only multiply duplicate clauses.
    """
    free_set = set(free)
    parent: dict[Variable, Variable] = {v: v for v in free}

    def find(v: Variable) -> Variable:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    bound_literals: list[tuple[Atom, bool]] = []
    placed: list[tuple[tuple[Atom, bool], list[Variable]]] = []
    for literal in literals:
        atom_free = [v for v in literal[0].variables if v in free_set]
        if not atom_free:
            bound_literals.append(literal)
            continue
        placed.append((literal, atom_free))
        for other in atom_free[1:]:
            root_a, root_b = find(atom_free[0]), find(other)
            if root_a != root_b:
                parent[root_a] = root_b
    blocks: dict[Variable, tuple[list[Variable], list[tuple[Atom, bool]]]] = {}
    for variable in free:
        root = find(variable)
        if root not in blocks:
            blocks[root] = ([], [])
        blocks[root][0].append(variable)
    for literal, atom_free in placed:
        blocks[find(atom_free[0])][1].append(literal)
    ordered = sorted(
        (block for block in blocks.values() if block[1]),
        key=lambda block: str(block[0][0]),
    )
    return ordered, bound_literals


def _edb_partials(
    edb_atoms: list[Atom],
    instance: Instance,
    engine: str,
    plan_cache: dict | None = None,
    cache_key=None,
) -> Iterator[dict[Variable, Element]]:
    """The deduplicated EDB body matches of a rule.

    The default ``columnar`` engine compiles the atoms once and executes
    set-at-a-time over interned rows; the executor's batches carry each
    variable assignment exactly once (its semi-join steps collapse the
    multiple derivation paths the tuple engine has to dedup by canonical
    key), and rows decode to constants only here, at the clause boundary.
    Plans are interner-independent, so ``plan_cache`` (stored on the
    program object) carries them across groundings of unrelated instances.
    """
    if engine == "columnar":
        plan = None if plan_cache is None else plan_cache.get(cache_key)
        if plan is None:
            plan = compile_join(edb_atoms, instance)
            if plan_cache is not None:
                plan_cache[cache_key] = plan
        yield from plan.assignments(
            execute_join(plan, instance), instance.interner
        )
        return
    seen_partials: set[tuple] = set()
    for partial in join_assignments(edb_atoms, instance):
        # Canonical (variable name, value) dedup key — never repr-based, so
        # distinct constants with identical reprs cannot collide.
        key = canonical_key(partial)
        if key in seen_partials:
            continue
        seen_partials.add(key)
        yield partial


def _rule_clauses(
    rule: Rule,
    instance: Instance,
    idb_names: frozenset[str],
    adom_name: str,
    domain: Sequence[Element],
    aux_counter: Iterator[int],
    engine: str = "columnar",
    plan_cache: dict | None = None,
    cache_key=None,
) -> Iterator[Clause]:
    edb_atoms, adom_atoms, idb_atoms = _split_body(rule, idb_names, adom_name)
    # Constant adom atoms are static guards; variable ones are subsumed by the
    # free-variable enumeration over the domain below.
    domain_set = instance.active_domain
    for atom in adom_atoms:
        term = atom.arguments[0]
        if not isinstance(term, Variable) and term not in domain_set:
            return
    free = sorted(
        {v for v in rule.variables if not any(v in a.variables for a in edb_atoms)},
        key=str,
    )
    if free and not domain:
        return
    literals = [(a, False) for a in idb_atoms] + [(a, True) for a in rule.head]
    blocks, bound_literals = _free_variable_blocks(free, literals)
    # Per-block assignment tuples, computed once per rule instead of per join
    # result (the former inner ``domain ** len(free)`` cartesian product).
    block_tuples = [
        list(itertools.product(domain, repeat=len(variables)))
        for variables, _ in blocks
    ]
    for partial in _edb_partials(
        edb_atoms, instance, engine, plan_cache, cache_key
    ):
        bound_negative, bound_positive = _instantiate_literals(
            bound_literals, dict(partial)
        )
        if bound_negative & bound_positive:
            continue  # every clause of this join result is tautological
        if not blocks:
            yield (bound_negative, bound_positive)
            continue
        if len(blocks) == 1:
            variables, block_literals = blocks[0]
            for values in block_tuples[0]:
                assignment = dict(partial)
                assignment.update(zip(variables, values))
                negative, positive = _instantiate_literals(
                    block_literals, assignment
                )
                yield (bound_negative | negative, bound_positive | positive)
            continue
        # Independent blocks: factor the cartesian product through one
        # auxiliary atom per block (see :class:`GroundAux`).
        aux_atoms = [GroundAux(next(aux_counter)) for _ in blocks]
        for (variables, block_literals), tuples, aux in zip(
            blocks, block_tuples, aux_atoms
        ):
            for values in tuples:
                assignment = dict(partial)
                assignment.update(zip(variables, values))
                negative, positive = _instantiate_literals(
                    block_literals, assignment
                )
                if negative & positive:
                    continue  # valid conjunct: drop from the block's AND
                yield (negative | {aux}, positive)
        yield (bound_negative, bound_positive | frozenset(aux_atoms))


def _dedupe_and_subsume(clauses: Iterable[Clause]) -> list[Clause]:
    """Drop duplicate, tautological and subsumed clauses.

    A clause ``C`` subsumes ``C'`` when its literals are a subset of ``C'``'s
    (in which case ``C'`` is redundant).  Every signed ground literal is
    interned to a dense int on the way in, so deduplication hashes int
    frozensets and the subset tests behind subsumption compare int sets —
    ground atoms (relation + constant tuple) are hashed once per distinct
    literal, not once per clause they appear in.  Clauses are processed
    smallest first, and candidate subsumers are located through
    per-literal occurrence lists, so the pass is near-linear on typical
    ground programs; beyond ``_SUBSUMPTION_LIMIT`` clauses only exact
    deduplication runs.
    """
    tel = _telemetry.ACTIVE
    literal_codes: dict[tuple, int] = {}

    def code_of(literal: tuple) -> int:
        code = literal_codes.get(literal)
        if code is None:
            code = len(literal_codes)
            literal_codes[literal] = code
        return code

    total = 0
    unique: list[tuple[Clause, frozenset[int]]] = []
    seen: set[frozenset[int]] = set()
    for clause in clauses:
        total += 1
        negative, positive = clause
        if negative & positive:
            continue  # tautology: some atom both required true and made true
        interned = frozenset(
            itertools.chain(
                (code_of((atom, False)) for atom in negative),
                (code_of((atom, True)) for atom in positive),
            )
        )
        if interned not in seen:
            seen.add(interned)
            unique.append((clause, interned))
    if len(unique) > _SUBSUMPTION_LIMIT:
        if tel is not None:
            tel.count("grounder.clauses_in", total)
            tel.count("grounder.dedup_drops", total - len(unique))
            tel.count("grounder.subsumption_passes_skipped")
        return [clause for clause, _ in unique]
    unique.sort(key=lambda pair: len(pair[1]))
    kept: list[Clause] = []
    kept_codes: list[frozenset[int]] = []
    occurrences: dict[int, list[int]] = {}
    for clause, interned in unique:
        subsumed = False
        for literal in interned:
            for index in occurrences.get(literal, ()):
                if kept_codes[index] <= interned:
                    subsumed = True
                    break
            if subsumed:
                break
        if subsumed:
            continue
        index = len(kept)
        kept.append(clause)
        kept_codes.append(interned)
        for literal in interned:
            occurrences.setdefault(literal, []).append(index)
    if tel is not None:
        tel.count("grounder.clauses_in", total)
        tel.count("grounder.dedup_drops", total - len(unique))
        tel.count("grounder.subsumption_hits", len(unique) - len(kept))
    return kept


class GroundProgram:
    """A program grounded once over an instance, with a persistent solver."""

    def __init__(
        self,
        program: DisjunctiveDatalogProgram,
        instance: Instance,
        clauses: list[Clause],
    ) -> None:
        self.program = program
        self.instance = instance
        self.clauses = clauses
        self._solver: ClauseSolver | None = None

    @property
    def solver(self) -> ClauseSolver:
        if self._solver is None:
            self._solver = solver_for_clauses(self.clauses)
        return self._solver

    # -- queries ---------------------------------------------------------------

    def _goal_atoms(self, goal_tuples: Iterable[tuple]) -> list[GroundAtom]:
        goal = self.program.goal_relation
        return [(goal, tuple(args)) for args in goal_tuples]

    def has_model_avoiding(self, goal_tuples: Iterable[tuple]) -> bool:
        """Is there a model of the program extending the instance in which
        none of the given goal tuples holds?"""
        return self.solver.solve(false_atoms=self._goal_atoms(goal_tuples))

    def holds(self, answer: Sequence = ()) -> bool:
        return not self.has_model_avoiding([tuple(answer)])

    def certain_answers(self) -> frozenset[tuple]:
        """All certain answers, decided by :func:`certain_goal_atoms`.

        With no model at all, every tuple is (vacuously) certain.
        """
        domain = sorted(self.instance.active_domain, key=repr)
        candidates = list(itertools.product(domain, repeat=self.program.arity))
        certain = certain_goal_atoms(self.solver, self._goal_atoms(candidates))
        if certain is None:
            return frozenset(candidates)
        return frozenset(arguments for _, arguments in certain)


class Verdicts:
    """What a live solver's earlier decisions still say about its goal atoms.

    ``certain`` holds atoms proved true in every model, ``refuted`` atoms
    some model leaves false, and ``consistent`` whether any model exists
    (``None``: unknown).  Updates keep what they cannot invalidate.  An
    insert only adds clauses and assumptions, so a proof (an UNSAT solve
    with the atom false) stays a proof.  A delete only retracts assumptions,
    so every earlier model stays a model: refutations and consistency
    survive it.  An inconsistent verdict is not carried either way.
    """

    __slots__ = ("certain", "refuted", "consistent")

    def __init__(self) -> None:
        self.certain: set[GroundAtom] = set()
        self.refuted: set[GroundAtom] = set()
        self.consistent: bool | None = None

    def inserted(self) -> None:
        self.refuted.clear()
        self.consistent = None

    def deleted(self) -> None:
        self.certain.clear()
        if not self.consistent:
            self.consistent = None

    def inconsistent(self) -> None:
        self.certain.clear()
        self.refuted.clear()
        self.consistent = False


def certain_goal_atoms(
    solver: ClauseSolver,
    goal_atoms: Iterable[GroundAtom],
    verdicts: Verdicts | None = None,
) -> set[GroundAtom] | None:
    """The goal atoms true in every model, or ``None`` when there is none.

    The one candidate-decision loop of tier 2.  Atoms ``verdicts`` already
    decides are taken from it.  Unless it knows the solver consistent, a
    screening solve prefers every undecided atom false; then, while atoms
    remain, one solve assumes one of them false and prefers the rest false.
    UNSAT makes that atom certain; every model refutes each atom it leaves
    false, since it is a counter-model for them.  With the goal atoms
    decided first, the models usually refute every non-answer, so a fresh
    query costs one solve plus one per certain atom.  The new verdicts are
    recorded in ``verdicts``, which a live solver's owner carries across
    updates (see :class:`Verdicts`).
    """
    if verdicts is None:
        verdicts = Verdicts()
    certain, refuted = verdicts.certain, verdicts.refuted
    atoms = list(dict.fromkeys(goal_atoms))
    pending = [atom for atom in atoms if atom not in certain and atom not in refuted]
    tel = _telemetry.ACTIVE
    if tel is not None:
        tel.count("sat.verdicts_carried", len(atoms) - len(pending))
        if verdicts.consistent is not None:
            tel.count("sat.screens_skipped")
    if verdicts.consistent is False:
        return None
    if verdicts.consistent is None:
        if not solver.solve(prefer_false=pending):
            verdicts.inconsistent()
            return None
        verdicts.consistent = True
        pending = _refute(solver.last_model, pending, refuted)
    while pending:
        atom = pending.pop()
        if solver.solve(false_atoms=[atom], prefer_false=pending):
            refuted.add(atom)
            pending = _refute(solver.last_model, pending, refuted)
        else:
            certain.add(atom)
    return {atom for atom in atoms if atom in certain}


def _refute(model, pending: list[GroundAtom], refuted: set) -> list[GroundAtom]:
    """The pending atoms the model makes true; the rest join ``refuted``."""
    still: list[GroundAtom] = []
    for atom in pending:
        if model.get(atom, False):
            still.append(atom)
        else:
            refuted.add(atom)
    return still


def ground_program(
    program: DisjunctiveDatalogProgram,
    instance: Instance,
    engine: str = "columnar",
) -> GroundProgram:
    """Ground the program over ``adom(D)`` (once) into a :class:`GroundProgram`.

    ``engine`` selects the EDB join path: ``"columnar"`` (default) runs the
    set-at-a-time interned executor, ``"tuple"`` the pre-columnar
    tuple-at-a-time join — kept as the cross-validation reference and
    benchmark baseline.
    """
    if engine not in ("columnar", "tuple"):
        raise ValueError(f"unknown grounding engine: {engine!r}")
    from ..datalog.ddlog import ADOM, GOAL

    domain = sorted(instance.active_domain, key=repr)
    idb_names = frozenset(
        {sym.name for sym in program.idb_relations} | {GOAL}
    ) - {ADOM}
    # EDB join plans are interner-independent; cache them on the program
    # object (keyed by rule index) so repeated groundings — the per-epoch
    # and cross-validation patterns — compile each rule's plan once ever.
    plan_cache = getattr(program, "_ground_plan_cache", None)
    if plan_cache is None:
        plan_cache = {}
        try:
            program._ground_plan_cache = plan_cache
        except AttributeError:  # slotted program types: grounding still works
            plan_cache = None
    with _telemetry.maybe_span(
        "grounder.ground_program",
        rules=len(program.rules),
        domain_size=len(domain),
        engine=engine,
    ) as span:
        clauses: list[Clause] = []
        aux_counter = itertools.count()
        for index, rule in enumerate(program.rules):
            clauses.extend(
                _rule_clauses(
                    rule,
                    instance,
                    idb_names,
                    ADOM,
                    domain,
                    aux_counter,
                    engine,
                    plan_cache,
                    index,
                )
            )
        kept = _dedupe_and_subsume(clauses)
        tel = _telemetry.ACTIVE
        if tel is not None:
            tel.count("grounder.clauses_emitted", len(clauses))
            tel.count("grounder.clauses_kept", len(kept))
            span.set(clauses_emitted=len(clauses), clauses_kept=len(kept))
        return GroundProgram(program, instance, kept)
