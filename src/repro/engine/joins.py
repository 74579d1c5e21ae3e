"""Join planning and execution over indexed instances.

Grounding a datalog rule means enumerating the variable assignments that
satisfy its EDB body atoms.  The seed implementation seeded bindings from
EDB atoms in syntactic order and then ran ``itertools.product`` over
``domain ** len(free)`` — near-cartesian whenever atoms were ordered badly.

Two join engines live here:

* The **set-at-a-time interned engine** — :class:`JoinPlan` /
  :func:`compile_join` / :func:`execute_join` / :func:`join_exists` —
  compiles a rule body once per (atoms, bound-variable set) into a slotted
  plan over *int rows* (constants pre-interned to dense codes, variables
  mapped to row slots), then executes each body atom as one batch step over
  whole partial-row batches, probing the store's persistent per-position
  bucket indexes.  Fixpoints, delta maintenance and grounding run on this
  engine; plans are cached by the callers and stay valid across rounds and
  epochs because interners are append-only and delta copies share them.

* The **tuple-at-a-time engine** — :func:`order_atoms` /
  :func:`matching_rows` / :func:`join_assignments` — binds variables
  atom-by-atom, depth-first, over decoded constant tuples.  It is the
  pre-columnar implementation, kept as the cross-validation reference and
  the benchmark baseline for the interned engine.

Both engines pick greedy join orders by estimated selectivity; estimates
come from O(1) column statistics (row counts and per-position distinct
counts) served by the store's interned columns.

Assignments are deduplicated by their canonical ``(variable name, value)``
pair sequence (sorted by variable name), never by ``repr`` — distinct
constants with identical reprs stay distinct.  The interned engine gets the
same guarantee for free: codes are assigned per *constant*, not per repr.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from ..core.cq import Atom, Variable
from ..core.instance import Instance
from ..core.interning import IntRow
from ..obs import telemetry as _telemetry

Element = Hashable
Assignment = dict[Variable, Element]

_EMPTY_ROWSET: frozenset = frozenset()


def canonical_key(assignment: Mapping[Variable, Element]) -> tuple:
    """A canonical dedup key: (name, value) pairs sorted by variable name.

    Variable names are unique within an assignment, so the sort never
    compares the (arbitrary, possibly unorderable) values, and the key is
    equal exactly for equal assignments.
    """
    return tuple(
        sorted(((v.name, value) for v, value in assignment.items()), key=lambda p: p[0])
    )


def _estimated_rows(atom: Atom, bound: set[Variable], instance: Instance) -> float:
    """Estimate how many rows of ``atom`` match once ``bound`` variables have values.

    With no bound position this is the relation's cardinality; with bound
    positions it is the smallest average index-bucket size over them
    (cardinality divided by the number of distinct values at the position).
    Constants count as bound positions.

    On interned stores the estimate is served entirely from the column
    statistics — the row count and per-position distinct counts memoized on
    the :class:`~repro.core.interning.ColumnarRelation` itself — so
    repeated estimation inside fixpoint loops costs O(1) per position
    instead of rescanning (or re-decoding) the relation every round.
    """
    stats = getattr(instance, "column_stats", None)
    if stats is not None:
        total, distinct_counts = stats(atom.relation)
        if total == 0:
            return 0.0
        best = float(total)
        for position, term in enumerate(atom.arguments):
            if isinstance(term, Variable):
                if term not in bound:
                    continue
                distinct = distinct_counts[position]
                if distinct:
                    best = min(best, total / distinct)
            else:
                # constants give an exact bucket size via the int-keyed index
                code = instance.interner.code(term)
                if code is None:
                    return 0.0
                best = min(
                    best,
                    float(len(instance.row_bucket(atom.relation, position, code))),
                )
        return best
    total = len(instance.tuples(atom.relation))
    if total == 0:
        return 0.0
    best = float(total)
    for position, term in enumerate(atom.arguments):
        if isinstance(term, Variable):
            if term not in bound:
                continue
            distinct = instance.position_value_count(atom.relation, position)
            if distinct:
                best = min(best, total / distinct)
        else:
            # constants give an exact bucket size
            best = min(best, float(len(instance.tuples_with(atom.relation, position, term))))
    return best


def order_atoms(
    atoms: Sequence[Atom],
    instance: Instance,
    bound: Iterable[Variable] = (),
) -> list[Atom]:
    """Greedy join order: repeatedly take the cheapest atom given bound variables."""
    remaining = list(atoms)
    bound_now: set[Variable] = set(bound)
    ordered: list[Atom] = []
    while remaining:
        best = min(
            range(len(remaining)),
            key=lambda i: _estimated_rows(remaining[i], bound_now, instance),
        )
        atom = remaining.pop(best)
        ordered.append(atom)
        bound_now.update(atom.variables)
    return ordered


def matching_rows(
    atom: Atom, instance: Instance, assignment: Mapping[Variable, Element]
) -> Iterator[tuple]:
    """Rows of ``atom``'s relation compatible with the partial assignment.

    Uses the position index of the most selective bound argument (constant or
    already-bound variable) when one exists; callers still re-check every
    position via :func:`extend_assignment`.
    """
    best_rows = None
    for position, term in enumerate(atom.arguments):
        if isinstance(term, Variable):
            if term not in assignment:
                continue
            value = assignment[term]
        else:
            value = term
        rows = instance.tuples_with(atom.relation, position, value)
        if best_rows is None or len(rows) < len(best_rows):
            best_rows = rows
            if not best_rows:
                break
    if best_rows is None:
        best_rows = instance.tuples(atom.relation)
    return iter(best_rows)


def extend_assignment(
    atom: Atom, row: tuple, assignment: Mapping[Variable, Element]
) -> Assignment | None:
    """Extend the assignment so that ``atom`` maps onto ``row``; None on clash."""
    extended = dict(assignment)
    for term, value in zip(atom.arguments, row):
        if isinstance(term, Variable):
            existing = extended.get(term, _MISSING)
            if existing is _MISSING:
                extended[term] = value
            elif existing != value:
                return None
        elif term != value:
            return None
    return extended


_MISSING = object()


def join_assignments(
    atoms: Sequence[Atom],
    instance: Instance,
    initial: Mapping[Variable, Element] | None = None,
    ordered: Sequence[Atom] | None = None,
) -> Iterator[Assignment]:
    """All assignments of the atoms' variables satisfied by the instance.

    The atoms are joined depth-first in greedy selectivity order; every
    yielded assignment binds exactly the variables of ``atoms`` plus those of
    ``initial``.  Callers issuing many joins that differ only in the seed
    *values* (semi-naive delta rounds) may precompute the order once with
    :func:`order_atoms` and pass it as ``ordered``.
    """
    seed: Assignment = dict(initial or {})
    if ordered is None:
        ordered = order_atoms(atoms, instance, bound=seed)

    def walk(index: int, assignment: Assignment) -> Iterator[Assignment]:
        if index == len(ordered):
            yield assignment
            return
        atom = ordered[index]
        for row in matching_rows(atom, instance, assignment):
            extended = extend_assignment(atom, row, assignment)
            if extended is not None:
                yield from walk(index + 1, extended)

    yield from walk(0, seed)


# ---------------------------------------------------------------------------
# The set-at-a-time interned join engine
# ---------------------------------------------------------------------------


class _JoinStep:
    """One compiled body atom of a :class:`JoinPlan`.

    ``probes`` are the positions whose value is known before the atom runs —
    ``(position, is_slot, key)`` with ``key`` a partial-row slot when
    ``is_slot`` else a raw constant (interned lazily per store at
    execution).  At execution the smallest bucket over the probes seeds
    the candidate row set (the store's persistent per-position bucket
    index *is* the hash-join index); the remaining probes become residual
    equality checks.  ``intra`` pairs
    ``(p, q)`` force ``row[p] == row[q]`` for variables repeated within the
    atom; ``writes`` lists the positions whose codes extend the partial
    row, in slot order.  Because every position is a probe, an intra
    duplicate or a write, each candidate row extends a given partial in at
    most one way — batches stay duplicate-free as long as the seeds were.
    """

    __slots__ = ("relation", "probes", "intra", "write_positions")

    def __init__(self, relation, probes, intra, write_positions) -> None:
        self.relation = relation
        self.probes = probes
        self.intra = intra
        self.write_positions = write_positions


class JoinPlan:
    """A join compiled once per (body atoms, bound-variable set).

    ``variables`` is the full slot order — the bound (seed) variables
    first, then each new variable in the order the greedily-ordered atoms
    first write it.  Executed rows are int rows in this slot order; decode
    through the plan's :meth:`assignments`.

    Plans are interner-*independent*: body constants are stored as raw
    values and resolved to codes lazily per interner through a one-slot
    identity-guarded memo (:meth:`resolve`).  A plan compiled once per
    program therefore serves every instance — delta copies, fixpoint
    stores, and entirely fresh interners alike; only the (cheap) constant
    resolution re-runs when the interner changes, or grows while some body
    constant is still unknown to it.
    """

    __slots__ = ("atoms", "variables", "bound_variables", "steps", "_resolved")

    def __init__(self, atoms, variables, bound_variables, steps) -> None:
        self.atoms = atoms
        self.variables = variables
        self.bound_variables = bound_variables
        self.steps = steps
        self._resolved = None

    def resolve(self, interner):
        """Per-interner ``(step, probes)`` pairs with constants as codes.

        Returns ``None`` when some body constant is unknown to the
        interner — that atom can match no row, so the whole join is empty.
        Memoized on interner identity; cross-epoch callers hit the memo
        because delta copies share one append-only interner.  Codes never
        change once assigned, so a resolution stays valid for good; an
        unresolved one only until the interner grows, since a later insert
        may bring the missing constant in.
        """
        memo = self._resolved
        if memo is not None and memo[0] is interner:
            if memo[1] is not None or memo[2] == len(interner):
                return memo[1]
        code_of = interner.code
        resolved: list | None = []
        for step in self.steps:
            probes = []
            for position, is_slot, key in step.probes:
                if is_slot:
                    probes.append((position, True, key))
                else:
                    code = code_of(key)
                    if code is None:
                        resolved = None
                        break
                    probes.append((position, False, code))
            if resolved is None:
                break
            resolved.append((step, tuple(probes)))
        self._resolved = (interner, resolved, len(interner))
        return resolved

    def assignments(self, rows: Iterable[IntRow], interner) -> Iterator[Assignment]:
        value = interner.value
        variables = self.variables
        for row in rows:
            yield {v: value(code) for v, code in zip(variables, row)}

    def intern_seed(
        self, assignment: Mapping[Variable, Element], interner
    ) -> IntRow:
        """Intern a seed assignment into a row over ``bound_variables``."""
        intern = interner.intern
        return tuple(intern(assignment[v]) for v in self.bound_variables)


def compile_join(
    atoms: Sequence[Atom],
    store,
    bound: Iterable[Variable] = (),
) -> JoinPlan:
    """Compile ``atoms`` into a :class:`JoinPlan` over an interned store.

    ``store`` is anything speaking the row protocol (``interner``,
    ``relation_rows``, ``row_bucket``, ``column_stats``) — a frozen
    :class:`~repro.core.instance.Instance` or a mutable fixpoint store.
    ``bound`` lists the variables the caller will supply through seed rows
    (sorted by name to fix the seed slot order).  Ordering uses the same
    greedy selectivity heuristic as the tuple engine, read from the O(1)
    column statistics of the compile-time store; the resulting plan itself
    carries no interner state and is reusable on any store.
    """
    ordered = order_atoms(atoms, store, bound=bound)
    bound_variables = tuple(sorted(set(bound), key=lambda v: v.name))
    slot_of: dict[Variable, int] = {
        variable: slot for slot, variable in enumerate(bound_variables)
    }
    variables = list(bound_variables)
    steps = []
    for atom in ordered:
        probes: list[tuple[int, bool, int]] = []
        intra: list[tuple[int, int]] = []
        write_positions: list[int] = []
        first_position: dict[Variable, int] = {}
        for position, term in enumerate(atom.arguments):
            if isinstance(term, Variable):
                slot = slot_of.get(term)
                if slot is not None:
                    probes.append((position, True, slot))
                elif term in first_position:
                    intra.append((first_position[term], position))
                else:
                    first_position[term] = position
                    write_positions.append(position)
            else:
                probes.append((position, False, term))
        for position in write_positions:
            term = atom.arguments[position]
            slot_of[term] = len(variables)
            variables.append(term)
        steps.append(
            _JoinStep(
                atom.relation,
                tuple(probes),
                tuple(intra),
                tuple(write_positions),
            )
        )
    return JoinPlan(
        tuple(atoms), tuple(variables), bound_variables, tuple(steps)
    )


def _step_candidates(step: _JoinStep, probes, store, partial: IntRow):
    """The candidate rows for one partial: the smallest probe bucket, or the
    whole relation when the step has no probe."""
    best = None
    for position, is_slot, key in probes:
        rows = store.row_bucket(
            step.relation, position, partial[key] if is_slot else key
        )
        if best is None or len(rows) < len(best):
            best = rows
            if not best:
                return _EMPTY_ROWSET
    if best is None:
        return store.relation_rows(step.relation)
    return best


def _row_matches(step: _JoinStep, probes, row: IntRow, partial: IntRow) -> bool:
    for position, is_slot, key in probes:
        if row[position] != (partial[key] if is_slot else key):
            return False
    # Explicit loop, not all(...): this runs per candidate row, and a
    # generator frame per call is measurable on the join hot path.
    for left, right in step.intra:  # noqa: SIM110
        if row[left] != row[right]:
            return False
    return True


def execute_join(
    plan: JoinPlan,
    store,
    seeds: Iterable[IntRow] = ((),),
) -> list[IntRow]:
    """Run the plan set-at-a-time: one pass per body atom over the whole
    batch of partial rows.

    ``seeds`` are int rows over ``plan.bound_variables`` (deduplicated by
    the caller; the executor introduces no duplicates beyond them).
    Returns full rows over ``plan.variables``.
    """
    resolved = plan.resolve(store.interner)
    if resolved is None:
        return []
    partials: list[IntRow] = seeds if isinstance(seeds, list) else list(seeds)
    tel = _telemetry.ACTIVE
    if tel is not None:
        tel.count("join.plans_executed")
        tel.count("join.rows_in", len(partials))
    for step, probes in resolved:
        if not partials:
            break
        if tel is not None:
            # step granularity, not row granularity: a probed step does one
            # bucket probe per surviving partial; a probe-less step merges
            # the whole relation against the batch
            if probes:
                tel.count("join.bucket_probe_steps")
                tel.count("join.bucket_probes", len(partials))
            else:
                tel.count("join.merge_steps")
        out: list[IntRow] = []
        append = out.append
        writes = step.write_positions
        if writes:
            for partial in partials:
                for row in _step_candidates(step, probes, store, partial):
                    if _row_matches(step, probes, row, partial):
                        append(partial + tuple(row[p] for p in writes))
        else:
            # semi-join: the atom binds nothing new, keep each partial at
            # most once (existence), never once per matching row
            for partial in partials:
                for row in _step_candidates(step, probes, store, partial):
                    if _row_matches(step, probes, row, partial):
                        append(partial)
                        break
        partials = out
    if tel is not None:
        tel.count("join.rows_out", len(partials))
    return partials


def join_exists(plan: JoinPlan, store, seed: IntRow = ()) -> bool:
    """Depth-first early-exit existence check for one seed row.

    The batch executor is breadth-first; consumers that only need *one*
    witness (constraint firing, satisfiability screening, DRed
    rederivation) use this instead so a hit on the first branch never
    materialises the remaining batch.
    """

    resolved = plan.resolve(store.interner)
    if resolved is None:
        return False
    tel = _telemetry.ACTIVE
    if tel is not None:
        tel.count("join.exists_calls")

    def walk(index: int, partial: IntRow) -> bool:
        if index == len(resolved):
            return True
        step, probes = resolved[index]
        writes = step.write_positions
        for row in _step_candidates(step, probes, store, partial):
            if _row_matches(step, probes, row, partial):
                if writes:
                    if walk(index + 1, partial + tuple(row[p] for p in writes)):
                        return True
                else:
                    return walk(index + 1, partial)
        return False

    return walk(0, seed)
