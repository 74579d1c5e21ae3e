"""Tests for ontology-mediated queries and the certain-answer engines,
including cross-checks between the complete engines and the bounded reference
engine on the paper's worked examples."""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Atom, ConjunctiveQuery, Fact, Instance, RelationSymbol, Schema, Variable, atomic_query
from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
from repro.omq import ForestEngine, OntologyMediatedQuery
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    example_4_5_omq,
    family_instance,
    medical_ontology,
    medical_schema,
    patient_instance,
)


def test_example_2_1_certain_answers():
    """The paper's Example 2.1: both patients are certain answers."""
    omq = example_2_1_omq()
    answers = omq.certain_answers(patient_instance())
    assert answers == {("patient1",), ("patient2",)}


def test_example_2_2_q1_is_a_ucq():
    """Example 2.2: q1 returns exactly the asserted Lyme/Listeriosis findings."""
    omq = example_2_2_q1_omq()
    assert omq.certain_answers(patient_instance()) == {("may7diag2",)}


def test_example_2_2_q2_recursion():
    """Example 2.2: the hereditary predisposition propagates down the chain."""
    omq = example_2_2_q2_omq()
    with_marker = family_instance(3, predisposed_root=True)
    without_marker = family_instance(3, predisposed_root=False)
    assert omq.certain_answers(with_marker) == {
        (f"person{i}",) for i in range(4)
    }
    assert omq.certain_answers(without_marker) == frozenset()


def test_example_4_5_matches_paper():
    omq = example_4_5_omq()
    data = family_instance(2, predisposed_root=True)
    assert omq.certain_answers(data) == {("person0",), ("person1",), ("person2",)}


def test_omq_language_name_and_size():
    omq = example_2_1_omq()
    assert omq.omq_language() == "(ALC, CQ)"
    assert example_2_2_q2_omq().omq_language() == "(ALC, AQ)"
    assert omq.size() > 0


def test_instance_schema_check():
    omq = example_4_5_omq()
    foreign = Instance([Fact(RelationSymbol("Unknown", 1), ("a",))])
    with pytest.raises(ValueError):
        omq.certain_answers(foreign)
    # the schema-free variant accepts it
    from repro.obda import schema_free_variant

    assert schema_free_variant(omq).certain_answers(foreign) == frozenset()


def test_engines_agree_on_medical_example():
    omq = example_2_1_omq()
    data = patient_instance()
    forest = omq.certain_answers(data, engine="forest")
    bounded = omq.certain_answers(data, engine="bounded")
    assert forest == bounded == {("patient1",), ("patient2",)}


def test_engines_agree_on_atomic_example():
    omq = example_4_5_omq()
    data = family_instance(2, predisposed_root=True)
    atomic = omq.certain_answers(data, engine="atomic")
    bounded = omq.certain_answers(data, engine="bounded")
    forest = omq.certain_answers(data, engine="forest")
    assert atomic == bounded == forest


def test_inconsistent_data_returns_all_tuples():
    bottom = ConceptInclusion(
        ConceptName("LymeDisease"), Exists(Role("HasParent"), ConceptName("X"))
    )
    ontology = Ontology(
        list(medical_ontology().axioms)
        + [
            ConceptInclusion(
                ConceptName("Listeriosis") & ConceptName("LymeDisease"),
                ConceptName("X") & ~ConceptName("X"),
            )
        ]
    )
    del bottom
    omq = OntologyMediatedQuery(
        ontology=ontology,
        query=atomic_query("BacterialInfection"),
        data_schema=medical_schema(),
    )
    data = Instance(
        [
            Fact(RelationSymbol("Listeriosis", 1), ("p",)),
            Fact(RelationSymbol("LymeDisease", 1), ("p",)),
        ]
    )
    assert omq.certain_answers(data) == {("p",)}


def test_disjunctive_ontology_certain_answers():
    """Disjunction: neither disjunct is certain, but a query covering both is."""
    ontology = Ontology(
        [ConceptInclusion(ConceptName("A"), ConceptName("B") | ConceptName("C"))]
    )
    schema = Schema.binary(["A", "B", "C"], [])
    data = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    for name, expected in [("B", frozenset()), ("C", frozenset())]:
        omq = OntologyMediatedQuery(
            ontology=ontology, query=atomic_query(name), data_schema=schema
        )
        assert omq.certain_answers(data) == expected
    x = Variable("x")
    either = OntologyMediatedQuery(
        ontology=ontology,
        query=ConjunctiveQuery((x,), [Atom(RelationSymbol("B", 1), (x,))]),
        data_schema=schema,
    )
    # As a UCQ covering both disjuncts the answer is certain.
    from repro.core import UnionOfConjunctiveQueries

    both = OntologyMediatedQuery(
        ontology=ontology,
        query=UnionOfConjunctiveQueries(
            [
                ConjunctiveQuery((x,), [Atom(RelationSymbol("B", 1), (x,))]),
                ConjunctiveQuery((x,), [Atom(RelationSymbol("C", 1), (x,))]),
            ]
        ),
        data_schema=schema,
    )
    assert either.certain_answers(data) == frozenset()
    assert both.certain_answers(data) == {("a",)}


def test_ucq_with_existential_tree_part():
    """A query that can only be satisfied inside the anonymous (tree) part is
    certain even though no data element witnesses it."""
    ontology = Ontology(
        [ConceptInclusion(ConceptName("A"), Exists(Role("R"), ConceptName("B")))]
    )
    schema = Schema.binary(["A", "B"], ["R"])
    x, y = Variable("x"), Variable("y")
    query = ConjunctiveQuery(
        (), [Atom(RelationSymbol("R", 2), (x, y)), Atom(RelationSymbol("B", 1), (y,))]
    )
    omq = OntologyMediatedQuery(ontology=ontology, query=query, data_schema=schema)
    data = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    assert omq.certain_answers(data) == {()}
    # ... but asking for a *named* witness of B is not certain.
    named = OntologyMediatedQuery(
        ontology=ontology, query=atomic_query("B"), data_schema=schema
    )
    assert named.certain_answers(data) == frozenset()


def test_forest_engine_consistency_check():
    omq = example_2_1_omq()
    engine = ForestEngine(omq)
    assert engine.is_consistent(patient_instance())


def test_bounded_engine_supports_functional_roles():
    from repro.workloads.separations import (
        functional_ok_instance,
        functional_role_omq,
        functional_violation_instance,
    )

    omq = functional_role_omq()
    # D = {R(a,b1), R(a,b2)} is inconsistent with func(R): everything is certain.
    answers = omq.certain_answers(functional_violation_instance(), engine="bounded")
    assert ("a",) in answers
    # D' = {R(a,b)} is consistent and A is not entailed anywhere.
    assert omq.certain_answers(functional_ok_instance(), engine="bounded") == frozenset()


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)),
        max_size=4,
    ),
    st.sets(st.integers(min_value=0, max_value=3), max_size=2),
)
def test_forest_engine_agrees_with_bounded_engine(edges, marked):
    """Property: on random HasParent data under the full medical ontology the
    two complete engines agree on q2 of Example 2.2, and both stay within the
    bounded engine (only its ``False`` verdicts are sound)."""
    omq = example_2_2_q2_omq()
    facts = [
        Fact(RelationSymbol("HasParent", 2), (f"p{a}", f"p{b}")) for a, b in edges
    ]
    facts += [
        Fact(RelationSymbol("HereditaryPredisposition", 1), (f"p{m}",)) for m in marked
    ]
    if not facts:
        return
    data = Instance(facts)
    forest = omq.certain_answers(data, engine="forest")
    atomic = omq.certain_answers(data, engine="atomic")
    bounded = omq.certain_answers(data, engine="bounded")
    assert forest == atomic
    assert forest <= bounded


_PATIENT_ROLES = ("HasFinding", "HasDiagnosis", "HasParent")
_PATIENT_CONCEPTS = ("ErythemaMigrans", "LymeDisease", "Listeriosis", "HereditaryPredisposition")


@st.composite
def patient_data(draw):
    """Random data over Example 2.1's schema with two to four elements."""
    size = draw(st.integers(min_value=2, max_value=4))
    element = st.integers(min_value=0, max_value=size - 1)
    roles = draw(
        st.lists(
            st.tuples(st.sampled_from(_PATIENT_ROLES), element, element),
            min_size=1,
            max_size=4,
        )
    )
    concepts = draw(
        st.lists(st.tuples(st.sampled_from(_PATIENT_CONCEPTS), element), max_size=3)
    )
    facts = [Fact(RelationSymbol(name, 2), (f"e{a}", f"e{b}")) for name, a, b in roles]
    facts += [Fact(RelationSymbol(name, 1), (f"e{a}",)) for name, a in concepts]
    data = Instance(facts)
    assume(len(data.active_domain) >= 2)
    return data


@settings(max_examples=20, deadline=None)
@given(patient_data())
def test_forest_engine_on_random_patient_data(data):
    """Property: Example 2.1's forest-engine answers equal its UCQ rewriting
    (a diagnosed bacterial infection, or an Erythema Migrans finding) and stay
    within the bounded engine's."""
    omq = example_2_1_omq()
    diagnosed = {
        (x,)
        for x, y in data.tuples("HasDiagnosis")
        if (y,) in data.tuples("LymeDisease") | data.tuples("Listeriosis")
    }
    found = {
        (x,) for x, y in data.tuples("HasFinding") if (y,) in data.tuples("ErythemaMigrans")
    }
    forest = omq.certain_answers(data, engine="forest")
    assert forest == diagnosed | found
    assert forest <= omq.certain_answers(data, engine="bounded")
