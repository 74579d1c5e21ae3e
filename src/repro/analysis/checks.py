"""The registry of static checks over disjunctive datalog programs.

Each check inspects one :class:`ProgramContext` (a program plus the
optional EDB evidence — a declared data schema and/or a concrete instance)
and yields :class:`~repro.analysis.diagnostics.Diagnostic` records.  The
registry maps every stable code to its check, title and severity, which is
what ``docs/diagnostics.md`` documents and the mutation-test suite sweeps.

Codes are grouped by hundreds:

* ``MD0xx`` — program correctness (errors and probable bugs);
* ``MD1xx`` — shardability pre-diagnosis (the exact conditions
  :mod:`repro.service.shards` enforces at runtime, surfaced ahead of
  deployment);
* ``MD2xx`` — tier-pinning explanations (why the planner will refuse
  tier 0/1; read off the pin of the planner's syntactic plan).
"""

from __future__ import annotations

import contextlib
import itertools
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from ..core.cq import Atom, Variable
from ..core.schema import Schema
from ..datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from ..obs import telemetry as _telemetry
from .deps import (
    dependency_graph,
    idb_names,
    reachable_predicates,
)
from .diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    DiagnosticReport,
)

# Pairwise subsumption is quadratic in the rule count; past this size only
# the linear duplicate detection runs (big compiled programs are machine
# generated, where subsumed-rule lint noise is least actionable anyway).
MAX_SUBSUMPTION_RULES = 300
# Node budget for one rule-pair subsumption match (backtracking states).
SUBSUMPTION_BUDGET = 2_000


@dataclass(frozen=True)
class CheckInfo:
    """Registry entry: one stable code and the check that can emit it."""

    code: str
    title: str
    severity: str
    summary: str


#: code -> CheckInfo, in registration (= documentation) order.
REGISTRY: dict[str, CheckInfo] = {}

_CHECKS: list[Callable[["ProgramContext"], Iterator[Diagnostic]]] = []


def register(*codes: CheckInfo):
    """Register a check function together with the codes it may emit."""

    def wrap(function):
        for info in codes:
            if info.code in REGISTRY:
                raise ValueError(f"duplicate diagnostic code {info.code}")
            REGISTRY[info.code] = info
        _CHECKS.append(function)
        return function

    return wrap


def all_codes() -> tuple[str, ...]:
    """Every registered diagnostic code, in documentation order."""
    return tuple(REGISTRY)


@dataclass(frozen=True)
class PatternFacts:
    """What a rule's argument pattern alone decides (one record per pattern)."""

    safe: bool  # MD002: the body is non-empty and binds every head variable
    connected: bool  # MD101: the body's variables are connected
    constant_free: bool  # MD007/MD102: no argument is a constant


def rule_patterns(
    rules: Sequence[Rule],
) -> tuple[list[tuple], list[PatternFacts], int]:
    """One pass over ``rules``: each rule's key and its pattern's facts.

    A rule's key is ``(relations, pattern)``.  Its head atoms and its body
    atoms, each side sorted by :func:`_atom_order`, are spelt twice: once
    as ``(name, arity)`` pairs (``relations``) and once as argument tuples
    in which variables are numbered by first occurrence, head first, and a
    constant is ``("c", value)`` (``pattern``).  So two rules with atoms in
    that order have equal keys iff they are equal up to variable renaming,
    and constants compare by value, never by ``repr``.

    :class:`PatternFacts` depend on the pattern alone, so they are computed
    once per distinct pattern, on the first rule that has it; rules sharing
    a pattern share the record.  Returns the keys and facts, one each per
    rule, and the number of patterns.
    """
    # id(atom) -> (order, relation, arguments spelt with program-wide
    # variable ids), once per atom object: compiled programs share atoms
    # across rules, and the ids stay unique while ``rules`` holds the atoms.
    distinct = {
        id(atom): atom
        for rule in rules
        for atom in itertools.chain(rule.head, rule.body)
    }
    variables: dict[Variable, int] = {}
    atoms = {
        key: (
            _atom_order(atom),
            (atom.relation.name, atom.relation.arity),
            tuple(
                variables.setdefault(term, len(variables))
                if isinstance(term, Variable)
                else ("c", term)
                for term in atom.arguments
            ),
        )
        for key, atom in distinct.items()
    }
    # Spelt arguments -> (pattern, facts), and pattern -> facts.
    spellings: dict[tuple, tuple[tuple, PatternFacts]] = {}
    patterns: dict[tuple, PatternFacts] = {}
    keys: list[tuple] = []
    facts: list[PatternFacts] = []
    described = atoms.__getitem__
    for rule in rules:
        head = sorted(map(described, map(id, rule.head)), key=_ORDER)
        body = sorted(map(described, map(id, rule.body)), key=_ORDER)
        spelt = (tuple(map(_SPELT, head)), tuple(map(_SPELT, body)))
        entry = spellings.get(spelt)
        if entry is None:
            pattern = _renumbered(spelt)
            found = patterns.get(pattern)
            if found is None:
                found = patterns[pattern] = _pattern_facts(rule)
            entry = spellings[spelt] = (pattern, found)
        relations = (tuple(map(_RELATION, head)), tuple(map(_RELATION, body)))
        keys.append((relations, entry[0]))
        facts.append(entry[1])
    return keys, facts, len(patterns)


# The fields of an atom's description in ``rule_patterns``.
_ORDER, _RELATION, _SPELT = (operator.itemgetter(i) for i in range(3))


def _renumbered(spelt: tuple) -> tuple:
    """Renumber program-wide variable ids (ints) by first occurrence in the
    rule; constants, spelt ``("c", value)``, stay as they are."""
    numbering: dict[int, int] = {}
    return tuple(
        tuple(
            tuple(
                numbering.setdefault(term, len(numbering))
                if type(term) is int
                else term
                for term in arguments
            )
            for arguments in side
        )
        for side in spelt
    )


def _pattern_facts(rule: Rule) -> PatternFacts:
    return PatternFacts(
        safe=bool(rule.body) and not _unsafe_variables(rule),
        connected=rule.is_connected(),
        constant_free=not _constants(rule),
    )


def _unsafe_variables(rule: Rule) -> list[Variable]:
    """The head variables no body atom binds, sorted by name."""
    body_vars = {v for atom in rule.body for v in atom.variables}
    return sorted(
        {v for atom in rule.head for v in atom.variables if v not in body_vars},
        key=str,
    )


def _constants(rule: Rule) -> list:
    """The rule's constant occurrences: head, then body, as written."""
    return [
        term
        for atom in itertools.chain(rule.head, rule.body)
        for term in atom.arguments
        if not isinstance(term, Variable)
    ]


@dataclass
class ProgramContext:
    """Everything the checks share: the program plus precomputed views.

    ``edb_schema`` is the *declared* data schema when one is known — taken
    from the compiled program's source OMQ (``program.source_omq``) unless
    passed explicitly; ``None`` means the EDB is open (any relation not
    derived by a rule is assumed to be data).

    One pass, :func:`rule_patterns`, does the per-rule work of the checks:
    ``keys`` holds each rule's canonical key (MD001 reads its relations,
    MD006 its duplicates) and ``facts`` the :class:`PatternFacts` of its
    argument pattern (MD002, MD007, MD101, MD102), computed once per
    distinct pattern.  A check runs its per-rule code only on the rules
    whose pattern fails a fact (:meth:`failing`), so its messages, rule
    indexes and order are those of a walk over every rule.
    """

    program: DisjunctiveDatalogProgram
    edb_schema: Schema | None = None
    instance_schema: Schema | None = None
    idb: set[str] = field(init=False)
    graph: dict[str, set[str]] = field(init=False)
    keys: list[tuple] = field(init=False)
    facts: list[PatternFacts] = field(init=False)
    patterns: int = field(init=False)

    def __post_init__(self) -> None:
        if self.edb_schema is None:
            source = getattr(self.program, "source_omq", None)
            if source is not None:
                self.edb_schema = getattr(source, "data_schema", None)
        self.idb = idb_names(self.program)
        self.graph = dependency_graph(self.program)
        self.keys, self.facts, self.patterns = rule_patterns(self.program.rules)

    def rules(self) -> Iterator[tuple[int, Rule]]:
        return enumerate(self.program.rules)

    def failing(self, fact: str) -> Iterator[tuple[int, Rule]]:
        """The rules whose pattern fails ``fact``, in program order."""
        fails = map(operator.not_, map(operator.attrgetter(fact), self.facts))
        for index in itertools.compress(itertools.count(), fails):
            yield index, self.program.rules[index]


def analyse(
    program: DisjunctiveDatalogProgram,
    edb_schema: Schema | None = None,
    instance=None,
) -> DiagnosticReport:
    """Run every registered check; returns the full diagnostic report.

    The no-evidence form (``edb_schema=None``, ``instance=None``) is cached
    on the program object — sessions, shards and the planner all vet the
    same compiled program once.  The checks share one pass over the rules
    (:class:`ProgramContext`) that keys each rule once and vets each
    distinct argument pattern once, so a compiled program whose thousands
    of rules fall into a handful of patterns costs a linear pass plus a
    capped quadratic subsumption stage, strictly off the evaluation hot
    path.  With telemetry on, counts ``analysis.rules`` and
    ``analysis.rule_patterns`` (the patterns whose facts were computed).
    """
    if edb_schema is None and instance is None:
        cached = getattr(program, "_analysis_report", None)
        if cached is not None:
            return cached
    instance_schema = instance.schema() if instance is not None else None
    context = ProgramContext(program, edb_schema, instance_schema)
    tel = _telemetry.ACTIVE
    if tel is not None:
        tel.count("analysis.rules", len(program.rules))
        tel.count("analysis.rule_patterns", context.patterns)
    found: list[Diagnostic] = []
    for check in _CHECKS:
        found.extend(check(context))
    report = DiagnosticReport(tuple(found))
    if edb_schema is None and instance is None:
        # A slotted/frozen program subclass just skips the cache.
        with contextlib.suppress(AttributeError):
            program._analysis_report = report
    return report


CHECK_MODES = ("warn", "strict", "off")


def vet_program(
    program: DisjunctiveDatalogProgram,
    check: str = "warn",
    label: str = "<program>",
) -> DiagnosticReport | None:
    """The compile-path hook behind every ``check=`` keyword.

    * ``"off"`` — do nothing, return ``None``.
    * ``"warn"`` — analyse and surface error/warning-severity findings as
      Python warnings; never fatal.
    * ``"strict"`` — analyse and raise :class:`ProgramAnalysisError` when
      any error-severity diagnostic is present, *before* any solver or
      session state is built.
    """
    if check == "off":
        return None
    if check not in CHECK_MODES:
        raise ValueError(
            f"check must be one of {CHECK_MODES}, got {check!r}"
        )
    report = analyse(program)
    if check == "strict":
        report.raise_if_errors(label)
    else:
        import warnings

        for diagnostic in report:
            if diagnostic.severity != INFO:
                warnings.warn(
                    f"{label}: {diagnostic}", stacklevel=3
                )
    return report


# ---------------------------------------------------------------------------
# MD0xx — program correctness
# ---------------------------------------------------------------------------


@register(
    CheckInfo(
        "MD001",
        "arity-clash",
        ERROR,
        "one relation name used with two different arities across rules, "
        "the declared data schema, or the instance",
    )
)
def check_arity_consistency(ctx: ProgramContext) -> Iterator[Diagnostic]:
    # name -> arity -> where first used: a rule index, or the evidence.
    seen: dict[str, dict[int, int | str]] = {}

    def observe(name: str, arity: int, where: int | str) -> None:
        seen.setdefault(name, {}).setdefault(arity, where)

    first_use: dict[tuple[str, int], int] = {}
    for index, (relations, _) in enumerate(ctx.keys):
        for side in relations:
            for relation in side:
                if relation not in first_use:
                    first_use[relation] = index
    for (name, arity), index in first_use.items():
        observe(name, arity, index)
    observe(ctx.program.goal_relation.name, ctx.program.goal_relation.arity, "goal")
    for schema, where in (
        (ctx.edb_schema, "declared data schema"),
        (ctx.instance_schema, "instance"),
    ):
        if schema is not None:
            for symbol in schema:
                observe(symbol.name, symbol.arity, where)
    for name, arities in sorted(seen.items()):
        expected = {ADOM: 1}.get(name)
        if expected is not None and list(arities) != [expected]:
            wrong = ", ".join(
                f"{arity} ({_where(where)})"
                for arity, where in sorted(arities.items())
                if arity != expected
            )
            yield Diagnostic(
                "MD001",
                ERROR,
                f"built-in relation {name} must have arity {expected}, "
                f"used with arity {wrong}",
                subject=name,
                suggestion=f"{ADOM} is the unary active-domain relation",
            )
        elif len(arities) > 1:
            uses = ", ".join(
                f"{arity} ({_where(where)})" for arity, where in sorted(arities.items())
            )
            yield Diagnostic(
                "MD001",
                ERROR,
                f"relation {name} is used with conflicting arities: {uses}",
                subject=name,
                suggestion="rename one of the relations or fix the argument list",
            )


def _where(where: int | str) -> str:
    return f"rule {where}" if isinstance(where, int) else where


@register(
    CheckInfo(
        "MD002",
        "unsafe-rule",
        ERROR,
        "a head variable is not bound by any positive body atom "
        "(range restriction), or a rule body is empty",
    )
)
def check_safety(ctx: ProgramContext) -> Iterator[Diagnostic]:
    # The Rule constructor enforces this too; the analyzer re-checks so
    # rules built by generators/translations that bypass the constructor
    # (or future negated contexts) still hit a structured error instead of
    # an empty join deep in the engine.
    for index, rule in ctx.failing("safe"):
        if not rule.body:
            yield Diagnostic(
                "MD002",
                ERROR,
                "rule body is empty; facts belong in the instance, not the program",
                rule_index=index,
                rule=str(rule),
                suggestion="assert the head as EDB facts instead",
            )
            continue
        for variable in _unsafe_variables(rule):
            yield Diagnostic(
                "MD002",
                ERROR,
                f"head variable {variable} is not bound by any positive body atom",
                rule_index=index,
                rule=str(rule),
                subject=str(variable),
                suggestion=f"add a body atom over {variable} "
                f"(adom({variable}) bounds it to the active domain)",
            )


@register(
    CheckInfo(
        "MD003",
        "unused-idb",
        WARNING,
        "an IDB relation is derived (by disjunction-free heads only) "
        "but never read by any rule body",
    )
)
def check_unused_idb(ctx: ProgramContext) -> Iterator[Diagnostic]:
    read = {
        atom.relation.name for _, rule in ctx.rules() for atom in rule.body
    }
    goal_name = ctx.program.goal_relation.name
    derived_plain: dict[str, int] = {}
    derived_disjunctive: set[str] = set()
    for index, rule in ctx.rules():
        for atom in rule.head:
            if len(rule.head) == 1:
                derived_plain.setdefault(atom.relation.name, index)
            else:
                # A predicate in a disjunctive head is semantically live
                # even when never read: choosing it is what *blocks* the
                # sibling disjuncts, so it must not be flagged (every
                # Theorem 3.3 type-guess rule would be a false positive).
                derived_disjunctive.add(atom.relation.name)
    for name, index in sorted(derived_plain.items()):
        if name in read or name in derived_disjunctive:
            continue
        if name in (goal_name, GOAL, ADOM):
            continue
        yield Diagnostic(
            "MD003",
            WARNING,
            f"IDB relation {name} is derived but never read and is not the goal",
            rule_index=index,
            rule=str(ctx.program.rules[index]),
            subject=name,
            suggestion="delete the rule(s) deriving it, or wire it into a "
            "body or the goal",
        )


@register(
    CheckInfo(
        "MD004",
        "underivable-predicate",
        WARNING,
        "the goal has no defining rule, or a body atom can match neither "
        "data (outside the declared schema) nor any rule head",
    )
)
def check_underivable(ctx: ProgramContext) -> Iterator[Diagnostic]:
    goal_name = ctx.program.goal_relation.name
    has_constraints = any(rule.is_constraint() for _, rule in ctx.rules())
    # A constraint-only program (e.g. a coCSP translation) derives the goal
    # through inconsistency: the answer is "yes" exactly when no model
    # satisfies the constraints.  A missing goal rule is only a defect when
    # the program has no constraints either.
    if not has_constraints and not any(rule.is_goal_rule() for _, rule in ctx.rules()):
        yield Diagnostic(
            "MD004",
            WARNING,
            f"no rule derives the goal relation {goal_name} and the program "
            "has no constraints; the query is empty on every instance",
            subject=goal_name,
            suggestion="add a goal rule or a constraint, or select a "
            "different goal relation",
        )
    if ctx.edb_schema is None:
        return
    declared = set(ctx.edb_schema.names)
    reported: set[str] = set()
    for index, rule in ctx.rules():
        for atom in rule.body:
            name = atom.relation.name
            if (
                name in declared
                or name in ctx.idb
                or name in (ADOM, goal_name)
                or name in reported
            ):
                continue
            reported.add(name)
            yield Diagnostic(
                "MD004",
                WARNING,
                f"body relation {name} is outside the declared data schema "
                "and no rule derives it; the atom never matches",
                rule_index=index,
                rule=str(rule),
                subject=name,
                suggestion="fix the relation name, or add it to the data schema",
            )


@register(
    CheckInfo(
        "MD005",
        "unreachable-rule",
        WARNING,
        "no chain of rules connects the rule's head to the goal or to "
        "any constraint: it can never influence certain answers",
    )
)
def check_unreachable_rules(ctx: ProgramContext) -> Iterator[Diagnostic]:
    goal_name = ctx.program.goal_relation.name
    roots = {goal_name, GOAL}
    for _, rule in ctx.rules():
        if rule.is_constraint():
            # Constraints are always observed (they decide consistency),
            # so everything they read is reachable.
            roots.update(
                atom.relation.name
                for atom in rule.body
                if atom.relation.name in ctx.idb
            )
    reachable = reachable_predicates(ctx.graph, roots)
    for index, rule in ctx.rules():
        if rule.is_constraint():
            continue
        if any(atom.relation.name in reachable for atom in rule.head):
            continue
        yield Diagnostic(
            "MD005",
            WARNING,
            "rule is unreachable from the goal and from every constraint "
            "in the predicate dependency graph",
            rule_index=index,
            rule=str(rule),
            suggestion="delete the rule, or connect its head towards the goal",
        )


@register(
    CheckInfo(
        "MD006",
        "subsumed-rule",
        WARNING,
        "a rule duplicates or is logically subsumed by another rule "
        "(weaker head, stronger body, up to variable renaming)",
    )
)
def check_subsumed_rules(ctx: ProgramContext) -> Iterator[Diagnostic]:
    rules = ctx.program.rules
    if len(rules) > MAX_SUBSUMPTION_RULES:
        # Quadratic stage gated; exact duplicates are still caught, by the
        # rule keys of the shared pass (equal up to variable renaming, with
        # constants by value).  The key puts atoms in ``_atom_order``, which
        # spells variables by name, so it depends on how they were written:
        # ``goal <- R(y,x) & R(x,z)`` is not reported as a duplicate of
        # ``goal <- R(x,y) & R(y,z)`` here, while the pairwise stage below
        # reports it.
        seen: dict[tuple, int] = {}
        for index, key in enumerate(ctx.keys):
            first = seen.setdefault(key, index)
            if first != index:
                yield _subsumption_diagnostic(ctx, index, first, "duplicates")
        return
    for j, later in enumerate(rules):
        for i in range(j):
            if _subsumes(rules[i], later):
                kind = (
                    "duplicates" if _subsumes(later, rules[i]) else "is subsumed by"
                )
                yield _subsumption_diagnostic(ctx, j, i, kind)
                break


def _subsumption_diagnostic(
    ctx: ProgramContext, redundant: int, by: int, kind: str
) -> Diagnostic:
    return Diagnostic(
        "MD006",
        WARNING,
        f"rule {kind} rule {by} ({ctx.program.rules[by]})",
        rule_index=redundant,
        rule=str(ctx.program.rules[redundant]),
        suggestion="delete the redundant rule",
    )


def _atom_order(atom: Atom) -> tuple:
    """A total order on atoms that never compares a variable with a constant
    (for ordering only: ``repr`` may not tell constants apart)."""
    return (
        atom.relation.name,
        atom.relation.arity,
        tuple(
            (True, t.name) if isinstance(t, Variable) else (False, repr(t))
            for t in atom.arguments
        ),
    )


def _subsumes(general: Rule, specific: Rule) -> bool:
    """Does ``general`` logically imply ``specific``?

    True when a substitution θ maps every body atom of ``general`` into the
    body of ``specific`` and every head atom into its head: the specific
    rule then adds nothing (a constraint — empty head — subsumes with the
    body condition alone).  Backtracking over atom images with a node
    budget; a blown budget reports "not subsumed", which only costs a
    missed warning.
    """
    if len(general.body) > len(specific.body) or len(general.head) > len(
        specific.head
    ):
        return False
    specific_body = list(specific.body)
    by_relation: dict = {}
    for atom in specific_body:
        by_relation.setdefault(atom.relation, []).append(atom)
    for atom in general.body:
        if atom.relation not in by_relation:
            return False
    head_targets = set(specific.head)

    budget = SUBSUMPTION_BUDGET
    body = sorted(
        general.body, key=lambda a: len(by_relation.get(a.relation, ()))
    )

    def bind(theta: dict, source: Atom, target: Atom) -> dict | None:
        extended = theta
        for s_term, t_term in zip(source.arguments, target.arguments):
            if isinstance(s_term, Variable):
                if s_term in extended:
                    if extended[s_term] != t_term:
                        return None
                else:
                    if extended is theta:
                        extended = dict(theta)
                    extended[s_term] = t_term
            elif s_term != t_term:
                return None
        return extended

    def match(position: int, theta: dict) -> bool:
        nonlocal budget
        if budget <= 0:
            return False
        budget -= 1
        if position == len(body):
            return all(
                atom.substitute(theta) in head_targets for atom in general.head
            )
        source = body[position]
        for target in by_relation[source.relation]:
            extended = bind(theta, source, target)
            if extended is not None and match(position + 1, extended):
                return True
        return False

    return match(0, {})


@register(
    CheckInfo(
        "MD007",
        "singleton-constant",
        WARNING,
        "a constant occurs exactly once across all rules — often a typo "
        "for another constant or a variable",
    )
)
def check_singleton_constants(ctx: ProgramContext) -> Iterator[Diagnostic]:
    occurrences: dict = {}
    for index, rule in ctx.failing("constant_free"):
        for term in _constants(rule):
            occurrences.setdefault(term, []).append((index, rule))
    for constant, where in sorted(occurrences.items(), key=lambda kv: repr(kv[0])):
        if len(where) != 1:
            continue
        index, rule = where[0]
        yield Diagnostic(
            "MD007",
            WARNING,
            f"constant {constant!r} occurs exactly once in the program",
            rule_index=index,
            rule=str(rule),
            subject=repr(constant),
            suggestion="check the spelling against the instance's constants",
        )


# ---------------------------------------------------------------------------
# MD1xx — shardability pre-diagnosis (mirrors service.shards at runtime)
# ---------------------------------------------------------------------------


@register(
    CheckInfo(
        "MD101",
        "shard-disconnected-body",
        INFO,
        "a rule body is not connected, so its groundings would couple "
        "facts that consistent-hash sharding places on different shards",
    ),
    CheckInfo(
        "MD102",
        "shard-constant",
        INFO,
        "a rule mentions a constant, which names the same element from "
        "every shard's grounding",
    ),
    CheckInfo(
        "MD103",
        "shard-nullary-idb",
        INFO,
        "a nullary IDB relation (other than goal) is a propositional atom "
        "shared by clauses grounded on different shards",
    ),
)
def check_shardability(ctx: ProgramContext) -> Iterator[Diagnostic]:
    yield from shardability_diagnostics(ctx.program, ctx.facts)


def shardability_diagnostics(
    program: DisjunctiveDatalogProgram,
    facts: Sequence[PatternFacts] | None = None,
) -> Iterator[Diagnostic]:
    """The exact conditions :class:`repro.service.shards.ShardedObdaSession`
    enforces, as structured diagnostics.

    The runtime raises these (as ``ProgramAnalysisError``) at construction;
    the linter reports them as *info* — a program that will never shard is
    perfectly serveable by a single session.  Same codes, same messages, so
    a lint run predicts the runtime rejection verbatim.  ``facts`` are the
    rules' :class:`PatternFacts` when the caller has them (the analyzer
    passes its shared pass's); otherwise they are computed here.
    """
    for symbol in sorted(program.idb_relations):
        if symbol.arity == 0 and symbol.name != GOAL:
            yield Diagnostic(
                "MD103",
                INFO,
                f"nullary IDB relation {symbol} is shared across shards",
                subject=symbol.name,
                suggestion="parameterize the relation by a data element, "
                "or serve the workload unsharded",
            )
    if facts is None:
        _, facts, _ = rule_patterns(program.rules)
    for index, pattern in enumerate(facts):
        if pattern.connected and pattern.constant_free:
            continue
        rule = program.rules[index]
        if not pattern.connected:
            yield Diagnostic(
                "MD101",
                INFO,
                f"rule body is not connected: {rule}",
                rule_index=index,
                rule=str(rule),
                suggestion="split the rule through an intermediate IDB "
                "relation joining the components, or serve unsharded",
            )
        for term in _constants(rule):
            yield Diagnostic(
                "MD102",
                INFO,
                f"constant {term!r} in rule: {rule}",
                rule_index=index,
                rule=str(rule),
                subject=repr(term),
                suggestion="lift the constant into a unary EDB "
                "relation, or serve unsharded",
            )


# ---------------------------------------------------------------------------
# MD2xx — tier-pinning explanations (the planner's syntactic plan record)
# ---------------------------------------------------------------------------


@register(
    CheckInfo(
        "MD201",
        "tier-pinned-adom",
        INFO,
        "the program derives the built-in adom relation, which only the "
        "ground+CDCL engine implements faithfully (pinned to tier 2)",
    ),
    CheckInfo(
        "MD202",
        "tier-pinned-disjunction",
        INFO,
        "disjunctive rules put the program on syntactic tier 2; only a "
        "successful semantic rewriting can route it off SAT",
    ),
    CheckInfo(
        "MD203",
        "tier-pinned-recursion",
        INFO,
        "recursion through the IDB dependency graph rules out the tier-0 "
        "UCQ unfolding (tier 1 at best)",
    ),
    CheckInfo(
        "MD204",
        "tier-pinned-unfolding-caps",
        INFO,
        "the UCQ unfolding exceeds the cost model's disjunct/atom caps, so "
        "the planner serves the program from the tier-1 fixpoint instead of "
        "tier 0",
    ),
)
def check_tier_pinning(ctx: ProgramContext) -> Iterator[Diagnostic]:
    from ..planner.plan import plan_program
    from ..planner.policy import PlanPolicy

    plan = plan_program(ctx.program, PlanPolicy(semantic=False))
    if plan.pin == "adom":
        yield Diagnostic(
            "MD201",
            INFO,
            "program derives the built-in adom relation: pinned to the "
            "ground+CDCL tier (2)",
            subject=ADOM,
            suggestion="treat adom as read-only input if tier 0/1 routing matters",
        )
    elif plan.pin == "disjunction":
        index, rule = next(
            (index, rule) for index, rule in ctx.rules() if len(rule.head) > 1
        )
        yield Diagnostic(
            "MD202",
            INFO,
            f"{plan.shape.disjunctive_rule_count} disjunctive rule(s): "
            "syntactic tier 2 (the semantic stage may still construct a "
            "tier-0/1 rewriting)",
            rule_index=index,
            rule=str(rule),
        )
    elif plan.pin == "recursion":
        recursive = plan.shape.recursive_relations
        yield Diagnostic(
            "MD203",
            INFO,
            "recursive through " + ", ".join(recursive[:4]) + ": tier-0 "
            "UCQ unfolding unavailable; served by the tier-1 fixpoint",
            subject=recursive[0],
        )
    elif plan.pin == "unfolding-caps":
        yield Diagnostic(
            "MD204",
            INFO,
            "nonrecursive and disjunction-free, but the UCQ unfolding "
            "exceeds the cost model's caps: served by the tier-1 fixpoint",
            suggestion="the fixpoint answers identically; to reach tier 0, "
            "shrink the goal's unfolding (fewer alternative IDB definitions "
            "or atoms per disjunct)",
        )
