"""Incremental propositional solving for the evaluation engine.

:class:`ClauseSolver` is a small DPLL solver with two-watched-literal unit
propagation and *assumption literals*: clauses are added once, and each
:meth:`solve` call decides satisfiability under a set of temporarily forced
atoms, backtracking to the root level afterwards so the clause database,
watch lists and root-level units persist across queries.  This is what lets
certain-answer evaluation ground a program once and decide every candidate
answer tuple against the same solver state (the restart-per-candidate DPLL
it replaces re-simplified the full clause set for every tuple).

Variables are arbitrary hashable *atoms* (the engine uses ground IDB atoms
``(relation, argument_tuple)``; the FO layer uses :class:`Fact` objects and
Tseitin auxiliaries).  A clause is given as (negative atoms, positive atoms)
and is satisfied when some negative atom is false or some positive atom is
true — the shape produced by grounding disjunctive datalog rules.

:func:`tseitin_clauses` converts the ground NNF formulas of
:mod:`repro.fo.grounding` into this clause form using the one-sided
(Plaisted–Greenbaum) encoding, which is sound and complete for the
satisfiability queries the bounded counter-model engine issues.
"""

from __future__ import annotations

import bisect
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ..obs import telemetry as _telemetry

Atom = Hashable


class SolverStats:
    """Always-on search statistics for one :class:`ClauseSolver`.

    Plain integer attributes bumped inside the search loop — cheap enough
    to keep unconditionally, which is what lets tests cross-validate the
    telemetry counters against the solver's own ground truth.  ``restarts``
    counts per-:meth:`ClauseSolver.solve` root restarts (this solver keeps
    no in-search restart schedule; every call restarts from the root and
    re-asserts its assumptions).
    """

    __slots__ = (
        "conflicts",
        "propagations",
        "decisions",
        "learned_clauses",
        "learned_literals",
        "restarts",
        "solve_calls",
    )

    def __init__(self) -> None:
        self.conflicts = 0
        self.propagations = 0
        self.decisions = 0
        self.learned_clauses = 0
        self.learned_literals = 0
        self.restarts = 0
        self.solve_calls = 0

    def describe(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


class Model(Mapping):
    """One satisfying assignment: atom -> truth value, read from saved phases.

    ``values`` holds ``+1``/``-1`` per solver variable as the model left
    it; atoms the solver learned about later are not in the model.
    """

    __slots__ = ("_var_of", "_atoms", "_values")

    def __init__(self, var_of: dict, atoms: list, values: list[int]) -> None:
        self._var_of = var_of
        self._atoms = atoms
        self._values = values

    def __getitem__(self, atom: Atom) -> bool:
        var = self._var_of[atom]
        if var >= len(self._values):
            raise KeyError(atom)
        return self._values[var] > 0

    def __iter__(self) -> Iterator[Atom]:
        return iter(self._atoms[: len(self._values)])

    def __len__(self) -> int:
        return len(self._values)

    def __repr__(self) -> str:
        return f"Model({dict(self)!r})"


class ClauseSolver:
    """Conflict-driven clause learning (CDCL) with persistent state.

    Literals are encoded as ``2 * var`` (positive) and ``2 * var + 1``
    (negated).  The solver implements two-watched-literal propagation, 1UIP
    conflict analysis with non-chronological backjumping, and a decaying
    activity heuristic.  Atoms a :meth:`solve` call names in
    ``prefer_false`` are the first decisions after the assumptions, each
    set false, in list order; the activity order comes after them, and
    each of its decisions sets the variable as the last model did (*phase
    saving*; false before the first model and for atoms added since), so a
    solve after a small update revisits a nearly satisfying assignment
    instead of searching from the all-false one.

    Assumptions are handled MiniSat-style: they occupy the first decision
    levels and are re-asserted after backjumps, so learned clauses carry over
    between :meth:`solve` calls.
    """

    _ACTIVITY_DECAY = 1.0 / 0.95
    _ACTIVITY_LIMIT = 1e100

    def __init__(self) -> None:
        self._var_of: dict[Atom, int] = {}
        self._atoms: list[Atom] = []
        self._clauses: list[list[int]] = []
        self._watches: list[list[int]] = []  # literal -> clause indices
        self._val: list[int] = []  # literal -> +1 true / -1 false / 0 unassigned
        self._reason: list[int | None] = []  # var -> implying clause index
        self._level: list[int] = []  # var -> decision level of assignment
        self._activity: list[float] = []
        # every (-activity, var), sorted: the branching order; every entry
        # before position ``_next`` is assigned
        self._order: list[tuple[float, int]] = []
        self._next = 0
        self._bump = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._ok = True  # False once a root-level conflict is derived
        self._sticky: dict[Atom, bool] = {}  # persistent assumptions
        # var -> +1/-1 in the last model; a fresh list per SAT result
        self._phase: list[int] = []
        self.stats = SolverStats()

    # -- atoms and literals ----------------------------------------------------

    def _var(self, atom: Atom) -> int:
        index = self._var_of.get(atom)
        if index is None:
            index = len(self._atoms)
            self._var_of[atom] = index
            self._atoms.append(atom)
            self._val.append(0)
            self._val.append(0)
            self._reason.append(None)
            self._level.append(0)
            self._activity.append(0.0)
            # activity 0 and the largest index: last in the branching order
            self._order.append((-0.0, index))
            self._watches.append([])
            self._watches.append([])
        return index

    def has_atom(self, atom: Atom) -> bool:
        """Does the atom occur in any clause added so far?"""
        return atom in self._var_of

    # -- clause management -----------------------------------------------------

    def add_clause(self, negative: Iterable[Atom], positive: Iterable[Atom]) -> None:
        """Add the clause ``(∨_{a∈negative} ¬a) ∨ (∨_{a∈positive} a)``.

        Clauses may be added between :meth:`solve` calls; they are simplified
        against the root-level assignment first, because watches must sit on
        literals that are not already (permanently) false — a false watched
        literal whose falsifying assignment predates the clause would never
        be revisited by propagation.
        """
        if self._trail_lim:
            raise RuntimeError("clauses must be added at the root level")
        literals: list[int] = []
        seen: set[int] = set()
        for atom in positive:
            literals.append(self._var(atom) << 1)
        for atom in negative:
            literals.append((self._var(atom) << 1) | 1)
        deduped: list[int] = []
        val = self._val
        for lit in literals:
            if lit ^ 1 in seen:
                return  # tautology
            if lit in seen:
                continue
            seen.add(lit)
            value = val[lit]
            if value > 0:
                return  # satisfied at the root level: permanently redundant
            if value == 0:
                deduped.append(lit)
            # root-false literals are permanently false and dropped
        if not deduped:
            self._ok = False
            return
        if len(deduped) == 1:
            self._assign_lit(deduped[0], None)
            return
        self._attach(deduped)

    def _attach(self, clause: list[int]) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches[clause[0]].append(index)
        self._watches[clause[1]].append(index)
        return index

    # -- assignment control ----------------------------------------------------

    def _assign_lit(self, lit: int, reason: int | None) -> None:
        val = self._val
        val[lit] = 1
        val[lit ^ 1] = -1
        var = lit >> 1
        self._reason[var] = reason
        self._level[var] = len(self._trail_lim)
        self._trail.append(lit)

    def _backtrack(self, level: int) -> None:
        """Unassign every level above ``level``.

        Reasons and levels are left stale (both are rewritten whenever the
        variable is assigned again), and the branching order is not touched:
        its cursor rewinds to the front, and the next decision scans forward
        to the first unassigned entry.
        """
        trail_lim = self._trail_lim
        if len(trail_lim) <= level:
            return
        trail = self._trail
        mark = trail_lim[level]
        del trail_lim[level:]
        val = self._val
        for lit in trail[mark:]:
            val[lit] = val[lit ^ 1] = 0
        del trail[mark:]
        if self._qhead > mark:
            self._qhead = mark
        self._next = 0

    def _propagate(self) -> int | None:
        """Exhaust unit propagation; returns a conflicting clause index or None."""
        trail = self._trail
        val = self._val
        watches = self._watches
        clauses = self._clauses
        reason = self._reason
        levels = self._level
        depth = len(self._trail_lim)
        qhead = self._qhead
        propagated = 0
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchers = watches[false_lit]
            kept: list[int] = []
            watches[false_lit] = kept
            for position, index in enumerate(watchers):
                clause = clauses[index]
                first = clause[0]
                if first == false_lit:
                    first = clause[1]
                    clause[0] = first
                    clause[1] = false_lit
                if val[first] > 0:
                    kept.append(index)
                    continue
                for k in range(2, len(clause)):
                    lit = clause[k]
                    if val[lit] >= 0:
                        clause[1] = lit
                        clause[k] = false_lit
                        watches[lit].append(index)
                        break
                else:
                    kept.append(index)
                    if val[first] < 0:
                        # conflict: restore the untraversed watchers and bail
                        kept.extend(watchers[position + 1 :])
                        self._qhead = len(trail)
                        self.stats.propagations += propagated
                        return index
                    val[first] = 1
                    val[first ^ 1] = -1
                    reason[first >> 1] = index
                    levels[first >> 1] = depth
                    trail.append(first)
                    propagated += 1
        self._qhead = qhead
        self.stats.propagations += propagated
        return None

    # -- conflict analysis -----------------------------------------------------

    def _bump_var(self, var: int) -> None:
        activity = self._activity
        old = activity[var]
        new = old + self._bump
        activity[var] = new
        if new > self._ACTIVITY_LIMIT:
            scale = 1.0 / self._ACTIVITY_LIMIT
            self._activity = [a * scale for a in activity]
            self._bump *= scale
            self._order = sorted((-a, v) for v, a in enumerate(self._activity))
        else:
            order = self._order
            del order[bisect.bisect_left(order, (-old, var))]
            bisect.insort(order, (-new, var))
        self._next = 0

    def _analyze(self, conflict: int) -> tuple[list[int], int]:
        """1UIP conflict analysis: (learned clause, backjump level).

        The learned clause's first literal is the asserting literal (unit at
        the backjump level).
        """
        levels = self._level
        trail = self._trail
        current = len(self._trail_lim)
        learned: list[int] = []
        seen: set[int] = set()
        counter = 0
        p: int | None = None
        index = len(trail) - 1
        clause = self._clauses[conflict]
        while True:
            for lit in clause:
                if p is not None and lit == p:
                    continue
                var = lit >> 1
                if var in seen or levels[var] == 0:
                    continue
                seen.add(var)
                self._bump_var(var)
                if levels[var] == current:
                    counter += 1
                else:
                    learned.append(lit)
            while trail[index] >> 1 not in seen:
                index -= 1
            p = trail[index]
            index -= 1
            seen.discard(p >> 1)
            counter -= 1
            if counter == 0:
                break
            clause = self._clauses[self._reason[p >> 1]]
        learned.insert(0, p ^ 1)
        if len(learned) == 1:
            return learned, 0
        # place a literal of the backjump level at the second watch position
        widest = max(range(1, len(learned)), key=lambda i: levels[learned[i] >> 1])
        learned[1], learned[widest] = learned[widest], learned[1]
        return learned, levels[learned[1] >> 1]

    # -- persistent assumptions ------------------------------------------------

    def assume(self, atom: Atom, value: bool = True) -> None:
        """Register a *persistent* assumption applied to every ``solve`` call.

        Unlike a root-level unit clause, a persistent assumption can later be
        withdrawn with :meth:`retract_assumption` — this is what lets the
        serving layer guard each ground clause with an activation literal and
        retract a whole epoch of clauses without touching the clause database
        or the learned clauses (MiniSat-style assumption interface).
        """
        self._sticky[atom] = value

    def retract_assumption(self, atom: Atom) -> None:
        """Withdraw a persistent assumption; the atom becomes free again."""
        self._sticky.pop(atom, None)

    @property
    def persistent_assumptions(self) -> dict[Atom, bool]:
        return dict(self._sticky)

    # -- solving ---------------------------------------------------------------

    def solve(
        self,
        false_atoms: Iterable[Atom] = (),
        true_atoms: Iterable[Atom] = (),
        prefer_false: Sequence[Atom] = (),
    ) -> bool:
        """Satisfiability under the assumptions; solver state survives the call.

        Persistent assumptions (:meth:`assume`) are applied first, then the
        per-call atoms.  Atoms never mentioned in a clause are unconstrained,
        so assuming them true/false cannot conflict and they are skipped
        (except that mutually contradictory assumptions still answer False).

        ``prefer_false`` is a branching hint, not an assumption: its atoms
        are the first decisions, each set false in list order, but a
        conflict may still flip any of them, so the verdict is the same with
        or without the hint — only which model ``last_model`` holds changes.
        """
        stats = self.stats
        stats.solve_calls += 1
        stats.restarts += 1  # every call restarts search from the root level
        tel = _telemetry.ACTIVE
        if tel is None:
            return self._solve(false_atoms, true_atoms, prefer_false)
        before = (
            stats.conflicts,
            stats.propagations,
            stats.decisions,
            stats.learned_clauses,
        )
        result = self._solve(false_atoms, true_atoms, prefer_false)
        tel.count("sat.solve_calls")
        tel.count("sat.restarts")
        tel.count("sat.conflicts", stats.conflicts - before[0])
        tel.count("sat.propagations", stats.propagations - before[1])
        tel.count("sat.decisions", stats.decisions - before[2])
        tel.count("sat.learned_clauses", stats.learned_clauses - before[3])
        return result

    @property
    def last_model(self) -> Mapping[Atom, bool]:
        """The model of the last satisfiable :meth:`solve` call.

        A read-only view of that call's saved phases: it covers the atoms
        known when the model was found and never changes afterwards.
        """
        return Model(self._var_of, self._atoms, self._phase)

    def _solve(
        self,
        false_atoms: Iterable[Atom],
        true_atoms: Iterable[Atom],
        prefer_false: Sequence[Atom],
    ) -> bool:
        self._backtrack(0)
        if not self._ok or self._propagate() is not None:
            self._ok = False
            return False
        assumed: dict[Atom, bool] = {}
        assumptions: list[int] = []
        for atom, polarity in (
            list(self._sticky.items())
            + [(a, False) for a in false_atoms]
            + [(a, True) for a in true_atoms]
        ):
            if atom in assumed:
                if assumed[atom] != polarity:
                    return False
                continue
            assumed[atom] = polarity
            if atom in self._var_of:
                var = self._var_of[atom]
                assumptions.append(var << 1 if polarity else (var << 1) | 1)
        preferred = [self._var_of[a] for a in prefer_false if a in self._var_of]
        result = self._search(assumptions, preferred)
        if result:
            self._phase = self._val[::2]
        self._backtrack(0)
        return result

    def _search(self, assumptions: list[int], preferred: list[int]) -> bool:
        # Every preferred variable before ``cursor`` is assigned.  ``marks``
        # holds the cursor as it stood when each decision level opened, so
        # a backjump to level b restores ``marks[b]``: the variables before
        # it were assigned at levels <= b and survive the backjump.
        cursor = 0
        marks: list[int] = []
        val = self._val
        trail = self._trail
        trail_lim = self._trail_lim
        phase = self._phase
        stats = self.stats
        while True:
            conflict = self._propagate()
            if conflict is None:
                depth = len(trail_lim)
                if depth < len(assumptions):
                    # (re-)assert the next assumption as a decision
                    lit = assumptions[depth]
                    value = val[lit]
                    if value < 0:
                        return False
                    marks.append(cursor)
                    trail_lim.append(len(trail))
                    if value == 0:
                        self._assign_lit(lit, None)
                    continue
                while cursor < len(preferred) and val[preferred[cursor] << 1]:
                    cursor += 1
                if cursor < len(preferred):
                    lit = (preferred[cursor] << 1) | 1
                else:
                    # the first unassigned variable in the activity order,
                    # in the phase of the last model
                    order = self._order
                    position = self._next
                    while position < len(order) and val[order[position][1] << 1]:
                        position += 1
                    self._next = position
                    if position == len(order):
                        return True
                    var = order[position][1]
                    if var < len(phase) and phase[var] > 0:
                        lit = var << 1
                    else:
                        lit = (var << 1) | 1
                marks.append(cursor)
                trail_lim.append(len(trail))
                self._assign_lit(lit, None)
                stats.decisions += 1
                continue
            stats.conflicts += 1
            if not trail_lim:
                self._ok = False  # conflict at the root level: no model at all
                return False
            learned, backjump = self._analyze(conflict)
            stats.learned_clauses += 1
            stats.learned_literals += len(learned)
            self._backtrack(backjump)
            cursor = marks[backjump]
            del marks[backjump:]
            if len(learned) == 1:
                self._assign_lit(learned[0], None)
            else:
                self._assign_lit(learned[0], self._attach(learned))
            self._bump *= self._ACTIVITY_DECAY


# ---------------------------------------------------------------------------
# Tseitin conversion of ground NNF formulas
# ---------------------------------------------------------------------------

Clause = tuple[frozenset, frozenset]


class TseitinAux:
    """A fresh auxiliary atom standing for a subformula (identity-hashed)."""

    __slots__ = ("index",)

    def __init__(self, index: int) -> None:
        self.index = index

    def __repr__(self) -> str:
        return f"TseitinAux({self.index})"


def tseitin_encode(
    formulas: Sequence,
) -> tuple[list[Clause], list[tuple]] | None:
    """Encode ground NNF formulas (see :mod:`repro.fo.grounding`) as clauses.

    Returns ``(definitional clauses, root literals)`` — one root literal
    ``(atom, polarity)`` per non-trivially-true formula — or ``None`` when
    some formula is syntactically false.  Asserting every root literal on
    top of the definitional clauses is equisatisfiable with the conjunction
    of the inputs (one-sided encoding: formulas are in NNF and only asserted
    positively).  Callers may instead guard individual roots with activation
    atoms for incremental solving.
    """
    clauses: list[Clause] = []
    counter = [0]

    def fresh() -> TseitinAux:
        counter[0] += 1
        return TseitinAux(counter[0])

    def literal(node) -> tuple:
        """Encode a non-boolean node as a literal (atom, polarity)."""
        tag = node[0]
        if tag == "lit":
            return (node[1], node[2])
        aux = fresh()
        children = [c for c in node[1] if not isinstance(c, bool)]
        booleans = [c for c in node[1] if isinstance(c, bool)]
        if tag == "and":
            if any(c is False for c in booleans):
                clauses.append((frozenset([aux]), frozenset()))  # aux -> ⊥
                return (aux, True)
            for child in children:
                atom, polarity = literal(child)
                if polarity:
                    clauses.append((frozenset([aux]), frozenset([atom])))
                else:
                    clauses.append((frozenset([aux, atom]), frozenset()))
            return (aux, True)
        if tag == "or":
            if any(c is True for c in booleans):
                return (aux, True)  # unconstrained aux
            negative, positive = {aux}, set()
            for child in children:
                atom, polarity = literal(child)
                (positive if polarity else negative).add(atom)
            clauses.append((frozenset(negative), frozenset(positive)))
            return (aux, True)
        raise TypeError(f"unexpected ground formula node {node!r}")

    roots: list[tuple] = []
    for formula in formulas:
        if formula is True:
            continue
        if formula is False:
            return None
        roots.append(literal(formula))
    return clauses, roots


def tseitin_clauses(formulas: Sequence) -> list[Clause] | None:
    """Clauses equisatisfiable with the conjunction of the ground formulas.

    Convenience wrapper over :func:`tseitin_encode` that asserts every root
    literal; ``None`` when the conjunction is syntactically unsatisfiable.
    """
    encoded = tseitin_encode(formulas)
    if encoded is None:
        return None
    clauses, roots = encoded
    for atom, polarity in roots:
        if polarity:
            clauses.append((frozenset(), frozenset([atom])))
        else:
            clauses.append((frozenset([atom]), frozenset()))
    return clauses


def solver_for_clauses(clauses: Iterable[Clause]) -> ClauseSolver:
    """A :class:`ClauseSolver` loaded with (negative, positive) clauses."""
    solver = ClauseSolver()
    for negative, positive in clauses:
        solver.add_clause(negative, positive)
    return solver
