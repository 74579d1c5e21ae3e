"""Tests for DL concepts, ontologies, the FO translation and the reasoner."""

import itertools

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import Fact, Instance, RelationSymbol, Schema
from repro.dl import (
    And,
    Bottom,
    ConceptInclusion,
    ConceptName,
    Exists,
    Forall,
    FunctionalRole,
    Not,
    Ontology,
    Or,
    Role,
    RoleInclusion,
    Top,
    TransitiveRole,
    TypeSystem,
    UnsupportedOntologyError,
    concept_satisfiable,
    concept_subsumed,
    concept_to_fo,
    eliminate_inverse_roles,
    eliminate_role_hierarchies,
    eliminate_transitive_roles,
    fo_models_ontology,
    instance_consistent,
    inverse,
    is_in_nnf,
    ontology_consistent,
    shi_to_alc,
)
from repro.fo import is_gfo, is_unfo
from repro.omq.forest import ForestAbstraction
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    medical_ontology,
    patient_instance,
)

A, B, C = ConceptName("A"), ConceptName("B"), ConceptName("C")
R = Role("R")


def test_concept_construction_and_size():
    concept = Exists(R, A & B) | Forall(R, ~C)
    assert "∃R" in str(concept)
    assert concept.size() == 8
    assert concept.concept_names() == {"A", "B", "C"}
    assert concept.role_names() == {"R"}


def test_nnf_and_negation():
    concept = Not(Exists(R, A & B))
    nnf = concept.nnf()
    assert is_in_nnf(nnf)
    assert nnf == Forall(R, Or(Not(A), Not(B)))
    assert Not(Not(A)).nnf() == A
    assert Top().negate() == Bottom()


def test_inverse_and_universal_roles():
    assert inverse("R").is_inverse()
    assert inverse(inverse("R")) == R
    assert str(inverse("R")) == "R-"


def test_ontology_dialect_detection():
    assert medical_ontology().dialect() == "ALC"
    with_inverse = Ontology([ConceptInclusion(Exists(inverse("R"), A), B)])
    assert with_inverse.dialect() == "ALCI"
    shiu = Ontology(
        [
            TransitiveRole(R),
            RoleInclusion(Role("S"), R),
            ConceptInclusion(Exists(inverse("S"), A), B),
        ]
    )
    assert shiu.dialect() == "SHI"
    assert shiu.is_in_dialect("SHIU")
    assert not shiu.is_in_dialect("ALC")
    alcf = Ontology([FunctionalRole(R)])
    assert alcf.dialect() == "ALCF"


def test_ontology_signature_and_size():
    ontology = medical_ontology()
    signature = ontology.signature()
    assert "LymeDisease" in signature
    assert "HasParent" in signature
    assert ontology.size() > 0


def test_super_roles_closure():
    ontology = Ontology(
        [RoleInclusion(Role("R"), Role("S")), RoleInclusion(Role("S"), Role("T"))]
    )
    supers = ontology.super_roles(Role("R"))
    assert {r.name for r in supers} == {"R", "S", "T"}
    assert Role("T") in ontology.super_roles(Role("S"))


def test_fo_translation_matches_table_2():
    formula = concept_to_fo(Exists(R, A))
    assert "∃" in str(formula) and "R(" in str(formula)
    assert is_unfo(formula)
    # The translation of an ALC ontology lands in UNFO and GFO.
    from repro.dl import inclusion_to_fo

    for axiom in medical_ontology().concept_inclusions():
        sentence = inclusion_to_fo(axiom)
        assert is_unfo(sentence)
        assert is_gfo(sentence)


def test_fo_semantics_of_ontology():
    data = patient_instance()
    # The raw patient data is not a model (patient1 lacks the diagnosis), but
    # adding the required facts repairs it.
    assert not fo_models_ontology(data, medical_ontology())
    repaired = data.with_facts(
        [
            Fact(RelationSymbol("HasDiagnosis", 2), ("patient1", "d")),
            Fact(RelationSymbol("LymeDisease", 1), ("d",)),
            Fact(RelationSymbol("BacterialInfection", 1), ("d",)),
            Fact(RelationSymbol("BacterialInfection", 1), ("may7diag2",)),
        ]
    )
    assert fo_models_ontology(repaired, medical_ontology())


def test_concept_satisfiability():
    ontology = Ontology([ConceptInclusion(A, B)])
    assert concept_satisfiable(A, ontology)
    assert not concept_satisfiable(A & Not(B), ontology)
    assert concept_subsumed(A, B, ontology)
    assert not concept_subsumed(B, A, ontology)
    assert ontology_consistent(ontology)


def test_unsatisfiable_existential_chain():
    ontology = Ontology([ConceptInclusion(A, Exists(R, A) & Forall(R, Bottom()))])
    assert not concept_satisfiable(A, ontology)


def test_instance_consistency():
    ontology = Ontology([ConceptInclusion(A & B, Bottom())])
    consistent = Instance([Fact(RelationSymbol("A", 1), ("a",))])
    inconsistent = consistent.with_facts([Fact(RelationSymbol("B", 1), ("a",))])
    assert instance_consistent(consistent, ontology)
    assert not instance_consistent(inconsistent, ontology)
    assert instance_consistent(patient_instance(), medical_ontology())


def test_value_restriction_propagates_over_abox_edges():
    ontology = Ontology([ConceptInclusion(A, Forall(R, Bottom()))])
    data = Instance(
        [Fact(RelationSymbol("A", 1), ("a",)), Fact(RelationSymbol("R", 2), ("a", "b"))]
    )
    assert not instance_consistent(data, ontology)


def closure_scan_compatible(system, source, target, role):
    """The reference: may ``target`` label a ``role``-successor of ``source``,
    decided by one scan of the closure per pair."""
    supers = system.super_roles(role)
    for concept in system.closure:
        if (
            isinstance(concept, Forall)
            and concept in source
            and (concept.role in supers or concept.role.is_universal())
            and concept.filler.nnf() not in target
        ):
            return False
        if (
            isinstance(concept, Exists)
            and concept not in source
            and concept.role in supers
            and concept.filler.nnf() in target
        ):
            return False
    return True


_ROLES = [R, Role("S")]
_CONCEPTS = st.recursive(
    st.sampled_from([A, B, C, Top(), Bottom()]),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Exists, st.sampled_from(_ROLES), inner),
        st.builds(Forall, st.sampled_from(_ROLES), inner),
    ),
    max_leaves=3,
)


@st.composite
def alch_ontologies(draw):
    """Small ALCH ontologies: one to three concept inclusions over A, B, C
    and the roles R, S, plus one or both of R ⊑ S and S ⊑ R."""
    axioms = draw(
        st.lists(st.builds(ConceptInclusion, _CONCEPTS, _CONCEPTS), min_size=1, max_size=3)
    )
    inclusions = [RoleInclusion(R, Role("S")), RoleInclusion(Role("S"), R)]
    axioms += draw(st.lists(st.sampled_from(inclusions), min_size=1, max_size=2, unique=True))
    return Ontology(axioms)


@settings(max_examples=60, deadline=None)
@given(alch_ontologies())
def test_compatibility_rows_agree_with_closure_scan(ontology):
    """Property: the per-role bitset rows give the closure scan's verdict on
    every (source, target, role) over all types, for an unused role too."""
    system = TypeSystem(ontology)
    types = system.all_types()
    assume(len(types) <= 64)
    for role in [*_ROLES, Role("Q")]:
        rows = system.compatibility_rows(role)
        for source in types:
            for target in types:
                expected = closure_scan_compatible(system, source, target, role)
                assert system.compatible(source, target, role) == expected
                row = rows[system.type_id(source)]
                assert bool(row >> system.type_id(target) & 1) == expected


def reference_truth(concept, true_decisions):
    """The reference: a concept's truth under one decision assignment,
    evaluated recursively (∀R.C as the negation of its dual ∃R.¬C)."""
    if isinstance(concept, Top):
        return True
    if isinstance(concept, Bottom):
        return False
    if isinstance(concept, (ConceptName, Exists)):
        return concept in true_decisions
    if isinstance(concept, Not):
        return not reference_truth(concept.operand, true_decisions)
    if isinstance(concept, And):
        return reference_truth(concept.left, true_decisions) and reference_truth(
            concept.right, true_decisions
        )
    if isinstance(concept, Or):
        return reference_truth(concept.left, true_decisions) or reference_truth(
            concept.right, true_decisions
        )
    if isinstance(concept, Forall):
        dual = Exists(concept.role, concept.filler.negate())
        return not reference_truth(dual, true_decisions)
    raise TypeError(f"unknown concept constructor: {concept!r}")


def reference_types(system):
    """The reference enumeration: one assignment at a time, in
    ``itertools.product`` order, keeping those that respect every axiom."""
    decisions = system.concept_name_decisions + system.existential_decisions
    axioms = [(ci.lhs.nnf(), ci.rhs.nnf()) for ci in system.ontology.concept_inclusions()]
    types = []
    for bits in itertools.product((False, True), repeat=len(decisions)):
        true_decisions = frozenset(d for d, bit in zip(decisions, bits) if bit)
        if any(
            reference_truth(lhs, true_decisions) and not reference_truth(rhs, true_decisions)
            for lhs, rhs in axioms
        ):
            continue
        types.append(
            frozenset(c for c in system.closure if reference_truth(c, true_decisions))
        )
    return types


def assert_types_match_reference(system):
    types = system.all_types()
    assert types == reference_types(system)
    assert [system.type_id(t) for t in types] == list(range(len(types)))


@settings(max_examples=60, deadline=None)
@given(alch_ontologies())
def test_type_enumeration_matches_per_assignment_reference(ontology):
    """Property: the truth-mask enumeration yields the reference's types in
    the reference's order, so every type keeps its id."""
    assert_types_match_reference(TypeSystem(ontology))


@pytest.mark.parametrize(
    "factory", [example_2_1_omq, example_2_2_q1_omq, example_2_2_q2_omq]
)
def test_table_1_type_enumeration_matches_per_assignment_reference(factory):
    """The type systems behind the Table 1 compiles, with their UCQ's extra
    concepts: the same types in the same order as the reference."""
    omq = factory()
    assert_types_match_reference(ForestAbstraction(omq.ontology, omq.ucq()).system)


def test_reasoner_rejects_unsupported_ontologies():
    with pytest.raises(UnsupportedOntologyError):
        concept_satisfiable(A, Ontology([FunctionalRole(R)]))


def test_inverse_role_elimination_preserves_aq_answers():
    ontology = Ontology([ConceptInclusion(Exists(inverse("R"), A), B)])
    rewritten, _ = eliminate_inverse_roles(ontology)
    assert not rewritten.uses_inverse_roles()
    # A(a), R(a, b) entails B(b): after elimination the entailment must survive.
    data = Instance(
        [Fact(RelationSymbol("A", 1), ("a",)), Fact(RelationSymbol("R", 2), ("a", "b"))]
    )
    from repro.omq import OntologyMediatedQuery
    from repro.core import atomic_query

    omq = OntologyMediatedQuery(
        ontology=rewritten,
        query=atomic_query("B"),
        data_schema=Schema.binary(["A", "B"], ["R"]),
    )
    assert omq.certain_answers(data) == {("b",)}


def test_transitive_role_elimination():
    ontology = Ontology(
        [TransitiveRole(R), ConceptInclusion(Exists(R, A), B)]
    )
    rewritten = eliminate_transitive_roles(ontology)
    assert not rewritten.uses_transitive_roles()
    assert rewritten.concept_inclusions()


def test_role_hierarchy_elimination_requires_no_inverse():
    ontology = Ontology(
        [RoleInclusion(inverse("R"), Role("S")), ConceptInclusion(Exists(R, A), B)]
    )
    with pytest.raises(ValueError):
        eliminate_role_hierarchies(ontology)


def test_shi_to_alc_pipeline():
    ontology = Ontology(
        [
            TransitiveRole(R),
            RoleInclusion(Role("S"), R),
            ConceptInclusion(Exists(Role("S"), A), B),
        ]
    )
    rewritten = shi_to_alc(ontology)
    assert rewritten.dialect() == "ALC"
