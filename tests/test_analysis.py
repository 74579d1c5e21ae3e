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
import sys
import warnings
from pathlib import Path

import pytest

from repro.analysis import (
    CHECK_MODES,
    REGISTRY,
    Diagnostic,
    DiagnosticReport,
    ProgramAnalysisError,
    all_codes,
    analyse,
    merge_reports,
    shardability_diagnostics,
    vet_program,
)
from repro.analysis.__main__ import main as analysis_main
from repro.analysis.harvest import harvest_target
from repro.core.cq import Atom, Variable
from repro.core.instance import Fact
from repro.core.schema import RelationSymbol, Schema
from repro.datalog.ddlog import ADOM, GOAL, DisjunctiveDatalogProgram, Rule
from repro.planner.plan import plan_program
from repro.planner.policy import PlanPolicy
from repro.service.session import ObdaSession
from repro.service.shards import ShardedObdaSession

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
