"""The static analyzer: one mutation test per diagnostic code, the
``PlanPolicy(check=...)`` wiring on every compile path, the CLI, the
repo-invariant linter, and the committed-corpus sweep.

The mutation tests follow one pattern: a *seeder* builds a program
exhibiting exactly the defect a code describes, and the test asserts the
code fires (and that repairing the defect silences it, via the clean
baseline program which must produce zero diagnostics).
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import (
    CHECK_MODES,
    REGISTRY,
    Diagnostic,
    DiagnosticReport,
    ProgramAnalysisError,
    ProgramContext,
    all_codes,
    analyse,
    checks,
    merge_reports,
    shardability_diagnostics,
    vet_program,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.harvest import harvest_target
from repro.core.cq import Atom, Variable, canonical_atoms
from repro.core.instance import Fact
from repro.core.schema import RelationSymbol, Schema
from repro.datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from repro.obs import telemetry
from repro.omq.certain import compile_to_mddlog
from repro.planner.plan import plan_program
from repro.planner.policy import PlanPolicy
from repro.service.session import ObdaSession
from repro.service.shards import ShardedObdaSession
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    example_4_5_omq,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

x, y, z = Variable("x"), Variable("y"), Variable("z")
A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
E = RelationSymbol("E", 2)
Q = RelationSymbol("Q", 1)
P = RelationSymbol("P", 1)
GOAL0 = RelationSymbol(GOAL, 0)


def goal_rule(*body: Atom) -> Rule:
    return Rule((Atom(GOAL0, ()),), tuple(body))


def clean_program() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram([goal_rule(Atom(A, (x,)))])


def unsafe_rule(head: tuple[Atom, ...], body: tuple[Atom, ...]) -> Rule:
    """Build a Rule bypassing the constructor's safety check (the analyzer
    must catch rules produced by generators that skip validation)."""
    rule = object.__new__(Rule)
    object.__setattr__(rule, "head", head)
    object.__setattr__(rule, "body", body)
    return rule


# ---------------------------------------------------------------------------
# Seeders: one program per diagnostic code.
# ---------------------------------------------------------------------------


def seed_md001() -> DisjunctiveDatalogProgram:
    clash = RelationSymbol("A", 2)  # A used with arity 1 *and* 2
    return DisjunctiveDatalogProgram(
        [goal_rule(Atom(A, (x,))), goal_rule(Atom(clash, (x, y)))]
    )


def seed_md002() -> DisjunctiveDatalogProgram:
    rule = unsafe_rule((Atom(Q, (y,)),), (Atom(A, (x,)),))  # head y unbound
    return DisjunctiveDatalogProgram([rule, goal_rule(Atom(Q, (x,)))])


def seed_md003() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram(
        [Rule((Atom(Q, (x,)),), (Atom(A, (x,)),)), goal_rule(Atom(A, (x,)))]
    )


def seed_md004() -> DisjunctiveDatalogProgram:
    # No goal rule and no constraint: the query is empty on every instance.
    return DisjunctiveDatalogProgram(
        [Rule((Atom(Q, (x,)),), (Atom(A, (x,)),))],
        goal_relation=GOAL0,
    )


def seed_md005() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram(
        [goal_rule(Atom(A, (x,))), Rule((Atom(Q, (x,)),), (Atom(B, (x,)),))]
    )


def seed_md006() -> DisjunctiveDatalogProgram:
    # Same rule up to variable renaming.
    return DisjunctiveDatalogProgram(
        [goal_rule(Atom(A, (x,))), goal_rule(Atom(A, (y,)))]
    )


def seed_md007() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram(
        [goal_rule(Atom(A, (x,)), Atom(E, (x, "typo")))]
    )


def seed_md101() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram([goal_rule(Atom(A, (x,)), Atom(B, (y,)))])


def seed_md102() -> DisjunctiveDatalogProgram:
    return seed_md007()  # the constant is both a singleton and a shard blocker


def seed_md103() -> DisjunctiveDatalogProgram:
    nullary = RelationSymbol("flag", 0)
    return DisjunctiveDatalogProgram(
        [Rule((Atom(nullary, ()),), (Atom(A, (x,)),)), goal_rule(Atom(nullary, ()))]
    )


def seed_md201() -> DisjunctiveDatalogProgram:
    adom = RelationSymbol(ADOM, 1)
    return DisjunctiveDatalogProgram(
        [Rule((Atom(adom, (x,)),), (Atom(A, (x,)),)), goal_rule(Atom(A, (x,)))]
    )


def seed_md202() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (x,)), Atom(Q, (x,))), (Atom(A, (x,)),)),
            goal_rule(Atom(P, (x,))),
        ]
    )


def seed_md203() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(Q, (x,)),), (Atom(A, (x,)),)),
            Rule((Atom(Q, (y,)),), (Atom(E, (x, y)), Atom(Q, (x,)))),
            goal_rule(Atom(Q, (x,))),
        ]
    )


def wide_goal(atoms: int) -> DisjunctiveDatalogProgram:
    """One goal disjunct of ``atoms`` distinct unary EDB atoms."""
    body = tuple(Atom(RelationSymbol(f"A{i}", 1), (x,)) for i in range(atoms))
    return DisjunctiveDatalogProgram([goal_rule(*body)])


def seed_md204() -> DisjunctiveDatalogProgram:
    # Nonrecursive and disjunction-free, but the one unfolded disjunct is
    # past the cost model's hard atom ceiling (UNFOLD_ATOM_CEILING = 96).
    return wide_goal(97)


def branching_goal(predicates: int) -> DisjunctiveDatalogProgram:
    """``predicates`` two-rule unary IDB predicates conjoined in the goal:
    the unfolding has 2 ** predicates disjuncts."""
    rules = []
    goal_body = []
    for i in range(predicates):
        idb = RelationSymbol(f"P{i}", 1)
        for branch in ("L", "R"):
            edb = RelationSymbol(f"{branch}{i}", 1)
            rules.append(Rule((Atom(idb, (x,)),), (Atom(edb, (x,)),)))
        goal_body.append(Atom(idb, (x,)))
    return DisjunctiveDatalogProgram(rules + [goal_rule(*goal_body)])


SEEDERS = {
    "MD001": seed_md001,
    "MD002": seed_md002,
    "MD003": seed_md003,
    "MD004": seed_md004,
    "MD005": seed_md005,
    "MD006": seed_md006,
    "MD007": seed_md007,
    "MD101": seed_md101,
    "MD102": seed_md102,
    "MD103": seed_md103,
    "MD201": seed_md201,
    "MD202": seed_md202,
    "MD203": seed_md203,
    "MD204": seed_md204,
}


def test_every_registered_code_has_a_seeder():
    assert set(SEEDERS) == set(all_codes())


@pytest.mark.parametrize("code", sorted(SEEDERS))
def test_mutation_triggers_code(code):
    report = analyse(SEEDERS[code]())
    assert code in report.codes, report.format_text()
    for diagnostic in report.by_code(code):
        assert diagnostic.severity == REGISTRY[code].severity


#: The tier each MD2xx pin leaves the planner's syntactic plan on.
PIN_TIERS = {"MD201": 2, "MD202": 2, "MD203": 1, "MD204": 1}


@pytest.mark.parametrize(
    "make",
    [
        *(SEEDERS[code] for code in sorted(SEEDERS)),
        clean_program,
        lambda: wide_goal(25),  # past the historical 24-atom cap: tier 0
        lambda: branching_goal(9),  # 512 disjuncts, past 256: tier 0
    ],
    ids=[*sorted(SEEDERS), "clean", "wide-goal-25", "branching-goal-512"],
)
def test_tier_pins_match_the_syntactic_plan(make):
    """MD2xx and the planner read one soundness record: the code the
    analyzer reports names exactly the tier the planner serves."""
    program = make()
    plan = plan_program(program, PlanPolicy(semantic=False))
    pins = [code for code in analyse(program).codes if code in PIN_TIERS]
    assert len(pins) <= 1, pins
    assert (PIN_TIERS[pins[0]] if pins else 0) == plan.tier, plan.rationale


def test_clean_program_has_no_diagnostics():
    report = analyse(clean_program())
    assert len(report) == 0
    assert report.format_text() == "clean: no diagnostics"


def test_report_caching_on_program_object():
    program = clean_program()
    assert analyse(program) is analyse(program)
    # Evidence-bearing analyses are never cached.
    schema = Schema([A])
    assert analyse(program, edb_schema=schema) is not analyse(
        program, edb_schema=schema
    )


def test_md001_adom_arity_special_case():
    bad_adom = RelationSymbol(ADOM, 2)
    program = DisjunctiveDatalogProgram([goal_rule(Atom(bad_adom, (x, y)))])
    report = analyse(program)
    [diagnostic] = report.by_code("MD001")
    assert "adom" in diagnostic.message


def test_md004_body_atom_outside_declared_schema():
    program = DisjunctiveDatalogProgram([goal_rule(Atom(B, (x,)))])
    report = analyse(program, edb_schema=Schema([A]))
    assert any(
        d.code == "MD004" and d.subject == "B" for d in report
    ), report.format_text()


def test_md006_constraint_subsumes_on_body_alone():
    program = DisjunctiveDatalogProgram(
        [
            Rule((), (Atom(A, (x,)),)),
            Rule((), (Atom(A, (x,)), Atom(B, (x,)))),  # strictly stronger body
            goal_rule(Atom(A, (x,))),
        ]
    )
    report = analyse(program)
    assert any(
        d.code == "MD006" and d.rule_index == 1 for d in report
    ), report.format_text()


R = RelationSymbol("R", 2)
GOAL1 = RelationSymbol(GOAL, 1)


def _past_pairwise_limit(*rules: Rule) -> DisjunctiveDatalogProgram:
    """The rules after 300 clean fillers: MD006 only keys duplicates."""
    fillers = [
        Rule((Atom(GOAL1, (x,)),), (Atom(RelationSymbol(f"F{i}", 1), (x,)),))
        for i in range(300)
    ]
    return DisjunctiveDatalogProgram(fillers + list(rules))


class _Tag:
    """A constant whose ``repr`` does not tell its values apart."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Tag) and other.value == self.value

    def __hash__(self) -> int:
        return hash(("_Tag", self.value))

    def __repr__(self) -> str:
        return "tag"


def test_md006_past_the_pairwise_limit_keys_a_body_mixing_constants_and_variables():
    program = _past_pairwise_limit(
        Rule((Atom(GOAL1, (x,)),), (Atom(R, (x, "a")), Atom(R, (x, y)))),
        Rule((Atom(GOAL1, (x,)),), (Atom(R, ("a", x)),)),
    )
    report = analyse(program)
    assert report.errors == report.warnings == (), report.format_text()
    session = ObdaSession(program)  # check="warn" by default
    session.insert_facts([Fact(R, ("b", "a")), Fact(R, ("a", "c"))])
    assert session.certain_answers() == {("b",), ("c",)}


def test_md006_past_the_pairwise_limit_tells_equal_repr_constants_apart():
    program = _past_pairwise_limit(
        Rule((Atom(GOAL1, (x,)),), (Atom(R, (x, _Tag(1))),)),
        Rule((Atom(GOAL1, (x,)),), (Atom(R, (x, _Tag(2))),)),
        Rule((Atom(GOAL1, (x,)),), (Atom(R, (_Tag(1), x)),)),
        Rule((Atom(GOAL1, (x,)),), (Atom(R, (_Tag(2), x)),)),
    )
    assert analyse(program).by_code("MD006") == ()


@pytest.mark.parametrize(
    "first, second",
    [
        (
            Rule((Atom(GOAL1, (x,)),), (Atom(R, (x, y)), Atom(B, (y,)))),
            Rule((Atom(GOAL1, (z,)),), (Atom(B, (x,)), Atom(R, (z, x)))),
        ),
        (
            Rule((Atom(GOAL1, (x,)),), (Atom(R, (x, y)), Atom(R, (y, z)))),
            Rule((Atom(GOAL1, (x,)),), (Atom(R, (y, z)), Atom(R, (x, y)))),
        ),
    ],
    ids=["renamed", "same-predicate-body-permuted"],
)
def test_md006_past_the_pairwise_limit_reports_a_renamed_duplicate(first, second):
    program = _past_pairwise_limit(first, second)
    [diagnostic] = analyse(program).by_code("MD006")
    assert diagnostic.rule_index == 301
    assert diagnostic.message.startswith("rule duplicates rule 300")


# ---------------------------------------------------------------------------
# The shared rule pass against per-rule reference code: each reference below
# walks every rule, as the checks did before they read the rule keys and
# pattern facts of ProgramContext.
# ---------------------------------------------------------------------------


def reference_arity(ctx):
    seen = {}
    for index, rule in ctx.rules():
        for atom in itertools.chain(rule.head, rule.body):
            seen.setdefault(atom.relation.name, {}).setdefault(
                atom.relation.arity, f"rule {index}"
            )
    seen.setdefault(ctx.program.goal_relation.name, {}).setdefault(
        ctx.program.goal_relation.arity, "goal"
    )
    for schema, where in (
        (ctx.edb_schema, "declared data schema"),
        (ctx.instance_schema, "instance"),
    ):
        for symbol in schema or ():
            seen.setdefault(symbol.name, {}).setdefault(symbol.arity, where)
    for name, arities in sorted(seen.items()):
        if name == ADOM and list(arities) != [1]:
            wrong = ", ".join(
                f"{arity} ({where})"
                for arity, where in sorted(arities.items())
                if arity != 1
            )
            yield Diagnostic(
                "MD001",
                "error",
                f"built-in relation {name} must have arity 1, used with arity {wrong}",
                subject=name,
                suggestion=f"{ADOM} is the unary active-domain relation",
            )
        elif name != ADOM and len(arities) > 1:
            uses = ", ".join(
                f"{arity} ({where})" for arity, where in sorted(arities.items())
            )
            yield Diagnostic(
                "MD001",
                "error",
                f"relation {name} is used with conflicting arities: {uses}",
                subject=name,
                suggestion="rename one of the relations or fix the argument list",
            )


def reference_safety(ctx):
    for index, rule in ctx.rules():
        if not rule.body:
            yield Diagnostic(
                "MD002",
                "error",
                "rule body is empty; facts belong in the instance, not the program",
                rule_index=index,
                rule=str(rule),
                suggestion="assert the head as EDB facts instead",
            )
            continue
        body_vars = {v for atom in rule.body for v in atom.variables}
        unsafe = sorted(
            {v for atom in rule.head for v in atom.variables if v not in body_vars},
            key=str,
        )
        for variable in unsafe:
            yield Diagnostic(
                "MD002",
                "error",
                f"head variable {variable} is not bound by any positive body atom",
                rule_index=index,
                rule=str(rule),
                subject=str(variable),
                suggestion=f"add a body atom over {variable} "
                f"(adom({variable}) bounds it to the active domain)",
            )


def reference_md006_key(rule):
    numbering = {}
    return (
        canonical_atoms(sorted(rule.head, key=checks._atom_order), numbering),
        canonical_atoms(sorted(rule.body, key=checks._atom_order), numbering),
    )


def reference_subsumption(ctx):
    if len(ctx.program.rules) <= checks.MAX_SUBSUMPTION_RULES:
        yield from checks.check_subsumed_rules(ctx)  # the pairwise stage
        return
    seen = {}
    for index, rule in ctx.rules():
        key = reference_md006_key(rule)
        if key in seen:
            yield checks._subsumption_diagnostic(ctx, index, seen[key], "duplicates")
        else:
            seen[key] = index


def reference_singleton_constants(ctx):
    occurrences = {}
    for index, rule in ctx.rules():
        for atom in itertools.chain(rule.head, rule.body):
            for term in atom.arguments:
                if not isinstance(term, Variable):
                    occurrences.setdefault(term, []).append((index, rule))
    for constant, where in sorted(occurrences.items(), key=lambda kv: repr(kv[0])):
        if len(where) == 1:
            index, rule = where[0]
            yield Diagnostic(
                "MD007",
                "warning",
                f"constant {constant!r} occurs exactly once in the program",
                rule_index=index,
                rule=str(rule),
                subject=repr(constant),
                suggestion="check the spelling against the instance's constants",
            )


def reference_shardability(program):
    for symbol in sorted(program.idb_relations):
        if symbol.arity == 0 and symbol.name != GOAL:
            yield Diagnostic(
                "MD103",
                "info",
                f"nullary IDB relation {symbol} is shared across shards",
                subject=symbol.name,
                suggestion="parameterize the relation by a data element, "
                "or serve the workload unsharded",
            )
    for index, rule in enumerate(program.rules):
        if not rule.is_connected():
            yield Diagnostic(
                "MD101",
                "info",
                f"rule body is not connected: {rule}",
                rule_index=index,
                rule=str(rule),
                suggestion="split the rule through an intermediate IDB "
                "relation joining the components, or serve unsharded",
            )
        for atom in itertools.chain(rule.head, rule.body):
            for term in atom.arguments:
                if not isinstance(term, Variable):
                    yield Diagnostic(
                        "MD102",
                        "info",
                        f"constant {term!r} in rule: {rule}",
                        rule_index=index,
                        rule=str(rule),
                        subject=repr(term),
                        suggestion="lift the constant into a unary EDB "
                        "relation, or serve unsharded",
                    )


REFERENCE_CHECKS = {
    checks.check_arity_consistency: reference_arity,
    checks.check_safety: reference_safety,
    checks.check_subsumed_rules: reference_subsumption,
    checks.check_singleton_constants: reference_singleton_constants,
    checks.check_shardability: lambda ctx: reference_shardability(ctx.program),
}


def reference_report(program: DisjunctiveDatalogProgram) -> dict:
    context = ProgramContext(program)
    found = []
    for check in checks._CHECKS:
        found.extend(REFERENCE_CHECKS.get(check, check)(context))
    return DiagnosticReport(tuple(found)).describe()


w = Variable("w")
T = RelationSymbol("T", 3)
A2 = RelationSymbol("A", 2)  # clashes with A/1 (MD001)
PAIR = RelationSymbol("P", 2)
TERMS = (x, y, z, w, "a", "b", 0, _Tag(1), _Tag(2))
BODY_RELATIONS = (A, B, E, R, T, A2, Q)
HEAD_RELATIONS = (Q, PAIR, P, RelationSymbol("flag", 0))


def atoms_over(relations):
    return st.sampled_from(relations).flatmap(
        lambda relation: st.tuples(
            *(st.sampled_from(TERMS) for _ in range(relation.arity))
        ).map(lambda arguments: Atom(relation, arguments))
    )


@st.composite
def rule_lists(draw):
    """Rules built past the constructor (unsafe, empty-bodied or not), with
    renamed duplicates and duplicates whose bodies are permuted."""
    rules = [
        unsafe_rule(
            tuple(draw(st.lists(atoms_over(HEAD_RELATIONS), max_size=2))),
            tuple(draw(st.lists(atoms_over(BODY_RELATIONS), max_size=3))),
        )
        for _ in range(draw(st.integers(1, 6)))
    ]
    for _ in range(draw(st.integers(0, 3))):
        rule = draw(st.sampled_from(rules))
        renaming = dict(zip((x, y, z, w), draw(st.permutations((x, y, z, w)))))
        body = draw(st.permutations(rule.body))
        rules.append(
            unsafe_rule(
                tuple(atom.substitute(renaming) for atom in rule.head),
                tuple(atom.substitute(renaming) for atom in body),
            )
        )
    return rules


@settings(max_examples=60, deadline=None)
@given(rules=rule_lists(), past_pairwise_limit=st.booleans())
@example(  # one body pattern, a safe head and then an unsafe one
    rules=[
        Rule((Atom(Q, (x,)),), (Atom(A, (x,)),)),
        unsafe_rule((Atom(PAIR, (x, y)),), (Atom(B, (x,)),)),
    ],
    past_pairwise_limit=False,
)
@example(  # a constant, and a variable in its place
    rules=[
        Rule((Atom(Q, (x,)),), (Atom(E, (x, "a")),)),
        Rule((Atom(Q, (x,)),), (Atom(E, (x, y)),)),
    ],
    past_pairwise_limit=True,
)
@example(  # the same relations over different patterns
    rules=[
        Rule((Atom(Q, (x,)),), (Atom(E, (x, y)),)),
        Rule((Atom(Q, (x,)),), (Atom(E, (x, x)),)),
    ],
    past_pairwise_limit=True,
)
def test_shared_rule_pass_matches_per_rule_reference(rules, past_pairwise_limit):
    program = (
        _past_pairwise_limit(*rules)
        if past_pairwise_limit
        else DisjunctiveDatalogProgram(rules)
    )
    assert analyse(program).describe() == reference_report(program)
    assert list(shardability_diagnostics(program)) == list(
        reference_shardability(program)
    )


TABLE_1 = {
    "example_2_1": example_2_1_omq,
    "example_2_2_q1": example_2_2_q1_omq,
    "example_2_2_q2": example_2_2_q2_omq,
    "example_4_5": example_4_5_omq,
}


@pytest.mark.parametrize("name", sorted(TABLE_1))
def test_shared_rule_pass_matches_reference_on_table_1(name):
    program = compile_to_mddlog(TABLE_1[name]())
    assert analyse(program).describe() == reference_report(program)
    assert list(shardability_diagnostics(program)) == list(
        reference_shardability(program)
    )


def test_compiled_example_2_1_is_vetted_per_pattern():
    """7,698 rules, a handful of argument patterns: the analyzer computes
    pattern facts per pattern, not per rule."""
    program = compile_to_mddlog(example_2_1_omq())
    with telemetry.enabled() as tel:
        analyse(program)
    assert tel.counter("analysis.rules") == 7_698
    assert 1 <= tel.counter("analysis.rule_patterns") <= 10


def test_severity_views_and_merge():
    report = analyse(seed_md001())
    assert report.has_errors
    assert all(d.severity == "error" for d in report.errors)
    merged = merge_reports([report, analyse(seed_md003())])
    assert {"MD001", "MD003"} <= merged.codes


# ---------------------------------------------------------------------------
# PlanPolicy(check=...) wiring: sessions, planner, shards.
# ---------------------------------------------------------------------------


def test_vet_program_rejects_unknown_mode():
    assert CHECK_MODES == ("warn", "strict", "off")
    with pytest.raises(ValueError, match="check must be one of"):
        vet_program(clean_program(), check="loud")


def test_strict_session_refuses_broken_program_before_solver_work():
    with pytest.raises(ProgramAnalysisError) as excinfo:
        ObdaSession(seed_md001(), policy=PlanPolicy(check="strict"))
    assert any(d.code == "MD001" for d in excinfo.value.diagnostics)
    # ProgramAnalysisError is a ValueError: existing guards keep working.
    assert isinstance(excinfo.value, ValueError)


def test_warn_session_emits_warnings_and_still_answers():
    with pytest.warns(UserWarning) as record:
        session = ObdaSession(seed_md003(), policy=PlanPolicy(check="warn"))
    messages = " ".join(str(warning.message) for warning in record)
    assert "MD003" in messages and "MD005" in messages
    session.insert_facts([Fact(A, ("a",))])
    assert session.certain_answers() == frozenset({()})


def test_off_session_is_silent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ObdaSession(seed_md003(), policy=PlanPolicy(check="off"))


def test_plan_program_strict_refuses_errors():
    with pytest.raises(ProgramAnalysisError):
        plan_program(seed_md002(), PlanPolicy(check="strict"))
    # Default stays off: planning a warning-laden program is fine.
    plan_program(seed_md003())


def test_sharded_session_rejection_carries_diagnostic_code():
    with pytest.raises(ProgramAnalysisError, match="cannot be sharded") as excinfo:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ShardedObdaSession(seed_md102(), shards=2)
    error = excinfo.value
    assert error.diagnostics[0].code == "MD102"
    assert "[MD102]" in str(error)


def test_shardability_diagnostics_match_runtime_conditions():
    codes = {d.code for d in shardability_diagnostics(seed_md101())}
    assert codes == {"MD101"}
    codes = {d.code for d in shardability_diagnostics(seed_md103())}
    assert "MD103" in codes
    assert not list(shardability_diagnostics(clean_program()))


# ---------------------------------------------------------------------------
# The CLI (python -m repro.analysis / tools/check_program.py).
# ---------------------------------------------------------------------------


def _write_module(tmp_path: Path, name: str, body: str) -> str:
    path = tmp_path / f"{name}.py"
    path.write_text(body)
    return str(path)


FACTORY_PRELUDE = """\
from repro.core.cq import Atom, Variable
from repro.core.schema import RelationSymbol
from repro.datalog.ddlog import GOAL, DisjunctiveDatalogProgram, Rule

x = Variable("x")
A = RelationSymbol("A", 1)
GOAL0 = RelationSymbol(GOAL, 0)
"""


def test_cli_clean_target_exits_zero(tmp_path, capsys):
    target = _write_module(
        tmp_path,
        "clean_workload",
        FACTORY_PRELUDE
        + """
def the_query() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram([Rule((Atom(GOAL0, ()),), (Atom(A, (x,)),))])
""",
    )
    assert analysis_main([target]) == 0
    assert "ok" in capsys.readouterr().out


def test_cli_error_program_exits_one(tmp_path, capsys):
    target = _write_module(
        tmp_path,
        "broken_workload",
        FACTORY_PRELUDE
        + """
A2 = RelationSymbol("A", 2)
y = Variable("y")

def the_query() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram([
        Rule((Atom(GOAL0, ()),), (Atom(A, (x,)),)),
        Rule((Atom(GOAL0, ()),), (Atom(A2, (x, y)),)),
    ])
""",
    )
    assert analysis_main([target]) == 1
    assert "MD001" in capsys.readouterr().out


def test_cli_import_failure_exits_two(tmp_path, capsys):
    target = _write_module(tmp_path, "wont_import", "raise RuntimeError('boom')\n")
    assert analysis_main([target]) == 2
    assert "HARVEST FAILED" in capsys.readouterr().out


def test_cli_list_codes_covers_registry(capsys):
    assert analysis_main(["--list-codes"]) == 0
    out = capsys.readouterr().out
    for code in all_codes():
        assert code in out


def test_harvest_skips_underscored_and_reexported_factories(tmp_path):
    target = _write_module(
        tmp_path,
        "harvest_me",
        FACTORY_PRELUDE
        + """
def _private() -> DisjunctiveDatalogProgram:
    raise AssertionError("must not be called")

def visible() -> DisjunctiveDatalogProgram:
    return DisjunctiveDatalogProgram([Rule((Atom(GOAL0, ()),), (Atom(A, (x,)),))])
""",
    )
    programs, failures = harvest_target(target)
    assert not failures
    assert [p.label.rsplit(":", 1)[1] for p in programs] == ["visible"]


# ---------------------------------------------------------------------------
# Committed-corpus sweep: every workload module lints clean.
# ---------------------------------------------------------------------------


def _workload_modules() -> list[str]:
    package = REPO_ROOT / "src" / "repro" / "workloads"
    return sorted(
        f"repro.workloads.{path.stem}"
        for path in package.glob("*.py")
        if path.stem != "__init__"
    )


@pytest.mark.parametrize("module", _workload_modules())
def test_committed_workloads_lint_clean(module):
    programs, failures = harvest_target(module)
    assert not failures, failures
    for harvested in programs:
        report = analyse(harvested.program)
        assert not report.has_errors, f"{harvested.label}:\n{report.format_text()}"


# ---------------------------------------------------------------------------
# Repo-invariant linter (tools/lint_invariants.py).
# ---------------------------------------------------------------------------


def _load_linter():
    path = REPO_ROOT / "tools" / "lint_invariants.py"
    spec = importlib.util.spec_from_file_location("lint_invariants", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules.setdefault("lint_invariants", module)
    spec.loader.exec_module(module)
    return module


LINTER = _load_linter()

SEEDED_VIOLATIONS = {
    "RL001": (
        "clock.py",
        "import time\n\ndef f():\n    return time.perf_counter()\n",
    ),
    "RL002": (
        "spans.py",
        "from repro.obs import maybe_span\n\n"
        "def f(items):\n"
        "    for item in items:\n"
        "        with maybe_span('per-item'):\n"
        "            pass\n",
    ),
    "RL003": (
        "unguarded.py",
        "from repro.obs import telemetry\n\n"
        "def f():\n"
        "    tel = telemetry.ACTIVE\n"
        "    tel.count('events')\n",
    ),
    "RL004": (
        "privates.py",
        "def f(instance):\n    return instance._by_relation\n",
    ),
}


def test_linter_is_clean_on_src():
    violations = LINTER.lint_paths([REPO_ROOT / "src"])
    assert violations == [], "\n".join(str(v) for v in violations)


@pytest.mark.parametrize("code", sorted(SEEDED_VIOLATIONS))
def test_linter_catches_seeded_violation(tmp_path, code):
    name, body = SEEDED_VIOLATIONS[code]
    path = tmp_path / name
    path.write_text(body)
    found = {v.code for v in LINTER.lint_file(path)}
    assert code in found, found


@pytest.mark.parametrize("code", sorted(SEEDED_VIOLATIONS))
def test_linter_pragma_waives_finding(tmp_path, code):
    name, body = SEEDED_VIOLATIONS[code]
    path = tmp_path / name
    path.write_text(body)
    # Apply the waiver pragma on the exact line the linter reported.
    [violation] = [v for v in LINTER.lint_file(path) if v.code == code]
    lines = body.splitlines()
    lines[violation.line - 1] += f"  # lint: allow({code})"
    path.write_text("\n".join(lines) + "\n")
    assert [v for v in LINTER.lint_file(path) if v.code == code] == []


def test_linter_guard_idioms_are_accepted(tmp_path):
    path = tmp_path / "guarded.py"
    path.write_text(
        "from repro.obs import telemetry\n\n"
        "def guarded_if():\n"
        "    tel = telemetry.ACTIVE\n"
        "    if tel is not None:\n"
        "        tel.count('events')\n\n"
        "def early_return():\n"
        "    tel = telemetry.ACTIVE\n"
        "    if tel is None:\n"
        "        return\n"
        "    tel.record('latency', 1.0)\n"
    )
    assert LINTER.lint_file(path) == []


# ---------------------------------------------------------------------------
# Documentation: every code is documented.
# ---------------------------------------------------------------------------


def test_docs_reference_every_code():
    docs = (REPO_ROOT / "docs" / "diagnostics.md").read_text()
    for code in all_codes():
        assert code in docs, f"{code} missing from docs/diagnostics.md"
    for code in sorted(SEEDED_VIOLATIONS):
        assert code in docs, f"{code} missing from docs/diagnostics.md"


def test_diagnostic_str_and_describe_round_trip():
    diagnostic = Diagnostic(
        "MD001", "error", "boom", rule_index=3, rule="r", subject="s", suggestion="fix"
    )
    text = str(diagnostic)
    assert "MD001 error [rule 3]: boom (hint: fix)" == text
    info = diagnostic.describe()
    assert info["code"] == "MD001" and info["suggestion"] == "fix"
    report = DiagnosticReport((diagnostic,))
    assert report.describe()["errors"] == 1
