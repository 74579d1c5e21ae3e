"""Tests for disjunctive datalog programs, fragments and evaluation."""

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, vars_
from repro.datalog import (
    DatalogProgram,
    DisjunctiveDatalogProgram,
    Rule,
    adom_atom,
    conjoin_datalog_queries,
    evaluate,
    evaluate_boolean,
    goal_atom,
    holds,
    models,
    union_datalog_queries,
)

EDGE = RelationSymbol("edge", 2)
A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)
x, y, z = vars_("x", "y", "z")


def colouring_program():
    """goal() iff the graph is not 2-colourable."""
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (x,)), Atom(Q, (x,))), (adom_atom(x),)),
            Rule((), (Atom(P, (x,)), Atom(Q, (x,)))),
            Rule((goal_atom(),), (Atom(EDGE, (x, y)), Atom(P, (x,)), Atom(P, (y,)))),
            Rule((goal_atom(),), (Atom(EDGE, (x, y)), Atom(Q, (x,)), Atom(Q, (y,)))),
        ]
    )


def triangle():
    return Instance([Fact(EDGE, (1, 2)), Fact(EDGE, (2, 3)), Fact(EDGE, (3, 1))])


def square():
    return Instance(
        [Fact(EDGE, (1, 2)), Fact(EDGE, (2, 3)), Fact(EDGE, (3, 4)), Fact(EDGE, (4, 1))]
    )


def test_rule_validation():
    with pytest.raises(ValueError):
        Rule((Atom(P, (x,)),), ())  # empty body
    with pytest.raises(ValueError):
        Rule((), ())  # empty body of a constraint: its empty head skips no check
    with pytest.raises(ValueError):
        Rule((Atom(P, (y,)),), (Atom(A, (x,)),))  # unsafe head variable


def test_rule_properties():
    rule = Rule((Atom(P, (x,)),), (Atom(EDGE, (x, y)), Atom(A, (y,))))
    assert rule.is_connected()
    assert rule.is_frontier_guarded()
    assert not rule.is_goal_rule()
    disconnected = Rule((Atom(P, (x,)),), (Atom(A, (x,)), Atom(B, (y,))))
    assert not disconnected.is_connected()


def test_program_fragment_classification():
    program = colouring_program()
    assert program.is_monadic()
    assert program.is_boolean()
    assert program.is_connected()
    assert program.is_frontier_guarded()
    assert program.is_simple()  # each rule has at most one EDB atom (edge)
    assert {s.name for s in program.edb_relations} == {"edge"}


def test_goal_in_body_rejected():
    with pytest.raises(ValueError):
        DisjunctiveDatalogProgram(
            [Rule((Atom(P, (x,)),), (Atom(RelationSymbol("goal", 1), (x,)),))]
        )


def test_two_colourability_evaluation():
    program = colouring_program()
    assert evaluate_boolean(program, triangle()) is True
    assert evaluate_boolean(program, square()) is False
    assert holds(program, triangle(), ())
    assert not holds(program, square(), ())


def test_evaluation_matches_model_enumeration_semantics():
    program = colouring_program()
    for data in (triangle(), square()):
        clause_based = evaluate_boolean(program, data)
        naive = all(
            () in model.tuples(program.goal_relation)
            for model in models(program, data)
        )
        assert clause_based == naive


def test_unary_ddlog_program_answers():
    program = DisjunctiveDatalogProgram(
        [
            Rule((goal_atom(x),), (Atom(A, (x,)),)),
            Rule((goal_atom(x),), (Atom(EDGE, (x, y)), Atom(B, (y,)))),
        ]
    )
    data = Instance([Fact(A, (1,)), Fact(EDGE, (2, 3)), Fact(B, (3,))])
    assert evaluate(program, data) == {(1,), (2,)}


def test_plain_datalog_least_fixpoint_reachability():
    reach = RelationSymbol("Reach", 1)
    program = DatalogProgram(
        [
            Rule((Atom(reach, (x,)),), (Atom(A, (x,)),)),
            Rule((Atom(reach, (y,)),), (Atom(reach, (x,)), Atom(EDGE, (x, y)))),
            Rule((goal_atom(x),), (Atom(reach, (x,)),)),
        ]
    )
    data = Instance([Fact(A, (1,)), Fact(EDGE, (1, 2)), Fact(EDGE, (2, 3)), Fact(EDGE, (4, 5))])
    assert program.evaluate(data) == {(1,), (2,), (3,)}


def test_datalog_program_rejects_disjunction():
    with pytest.raises(ValueError):
        DatalogProgram([Rule((Atom(P, (x,)), Atom(Q, (x,))), (adom_atom(x),))])


def test_conjoin_and_union_of_datalog_queries():
    first = DatalogProgram([Rule((goal_atom(x),), (Atom(A, (x,)),))])
    second = DatalogProgram([Rule((goal_atom(x),), (Atom(B, (x,)),))])
    data = Instance([Fact(A, (1,)), Fact(B, (1,)), Fact(A, (2,))])
    both = conjoin_datalog_queries([first, second])
    either = union_datalog_queries([first, second])
    assert both.evaluate(data) == {(1,)}
    assert either.evaluate(data) == {(1,), (2,)}


def test_ddlog_certain_answers_is_intersection_of_models():
    """Disjunction means certain answers can be empty even when every model
    derives something."""
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (x,)), Atom(Q, (x,))), (Atom(A, (x,)),)),
            Rule((goal_atom(x),), (Atom(P, (x,)),)),
        ]
    )
    data = Instance([Fact(A, (1,))])
    assert evaluate(program, data) == frozenset()
