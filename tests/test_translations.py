"""Semantic equivalence tests for the paper's translation theorems.

Each translation is checked on the paper's own examples and on exhaustive /
random families of small instances: source and target must return identical
answers.
"""


import hashlib

import pytest

from repro.core import (
    Atom,
    Fact,
    Instance,
    RelationSymbol,
    Schema,
    Variable,
    all_instances_over,
    atomic_query,
    vars_,
)
from repro.datalog import (
    DisjunctiveDatalogProgram,
    Rule,
    evaluate,
    evaluate_boolean,
    goal_atom,
)
from repro.fpp import ForbiddenPatternsProblem, colour_instance, make_palette
from repro.mmsnp import CoMMSNPQuery, Implication, MMSNPFormula, SchemaAtom, SOAtom, SOVariable
from repro.omq.certain import compile_to_mddlog
from repro.translations import (
    alc_aq_to_mddlog,
    alc_ucq_to_mddlog,
    csp_to_mddlog,
    csp_to_omq,
    fpp_to_mddlog,
    marked_csp_to_omq,
    mddlog_to_alc_aq,
    mddlog_to_alc_ucq,
    mddlog_to_fpp,
    mddlog_to_mmsnp,
    mmsnp_to_mddlog,
    omq_to_csp,
)
from repro.workloads.csp_zoo import clique_template, cycle_graph
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    example_4_5_omq,
    family_instance,
    patient_instance,
)

EDGE = RelationSymbol("edge", 2)
A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
x, y = vars_("x", "y")


def small_instances(schema, max_elements=2, max_facts=3):
    domain = [f"e{i}" for i in range(max_elements)]
    return [d for d in all_instances_over(schema, domain, max_facts) if not d.is_empty()]


# -- Theorem 3.4: (ALC, AQ) <-> unary connected simple MDDlog -------------------------


def test_alc_aq_to_mddlog_is_unary_connected_simple():
    program = alc_aq_to_mddlog(example_4_5_omq())
    assert program.is_monadic()
    assert program.is_unary()
    assert program.is_connected()
    assert program.is_simple()


def test_alc_aq_to_mddlog_equivalence_on_chains():
    omq = example_4_5_omq()
    program = alc_aq_to_mddlog(omq)
    for generations, marked in [(1, True), (2, True), (2, False)]:
        data = family_instance(generations, predisposed_root=marked)
        assert evaluate(program, data) == omq.certain_answers(data)


def test_alc_aq_to_mddlog_equivalence_exhaustive():
    omq = example_4_5_omq()
    program = alc_aq_to_mddlog(omq)
    for data in small_instances(omq.data_schema, max_elements=2, max_facts=2):
        assert evaluate(program, data) == omq.certain_answers(data), repr(data)


def test_mddlog_to_alc_aq_round_trip():
    """A hand-written unary connected simple MDDlog program and its (ALC, AQ)
    translation agree on all small instances."""
    P = RelationSymbol("P", 1)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (x,)),), (Atom(A, (x,)),)),
            Rule((Atom(P, (x,)),), (Atom(EDGE, (x, y)), Atom(P, (y,)))),
            Rule((goal_atom(x),), (Atom(P, (x,)),)),
        ]
    )
    omq = mddlog_to_alc_aq(program)
    assert omq.omq_language().endswith("AQ)")
    schema = Schema([A, EDGE])
    for data in small_instances(schema, max_elements=2, max_facts=2):
        assert evaluate(program, data) == omq.certain_answers(data), repr(data)


def test_mddlog_to_alc_aq_rejects_non_simple_programs():
    program = DisjunctiveDatalogProgram(
        [Rule((goal_atom(x),), (Atom(A, (x,)), Atom(B, (y,))))]
    )
    with pytest.raises(ValueError):
        mddlog_to_alc_aq(program)


# -- Theorem 3.3: (ALC, UCQ) <-> MDDlog ------------------------------------------------


def test_alc_ucq_to_mddlog_on_example_2_1():
    omq = example_2_1_omq()
    program = alc_ucq_to_mddlog(omq)
    assert program.is_monadic()
    data = patient_instance()
    assert evaluate(program, data) == omq.certain_answers(data)


def test_alc_ucq_to_mddlog_exhaustive_small_schema():
    """Equivalence on every instance over a two-element domain for an ontology
    with a disjunction and an existential."""
    from repro.dl import ConceptInclusion, ConceptName, Exists, Ontology, Role
    from repro.omq import OntologyMediatedQuery

    ontology = Ontology(
        [
            ConceptInclusion(
                ConceptName("A"), Exists(Role("edge"), ConceptName("B"))
            ),
            ConceptInclusion(ConceptName("B"), ConceptName("A") | ConceptName("C")),
        ]
    )
    schema = Schema.binary(["A", "B", "C"], ["edge"])
    query_b = atomic_query("C")
    omq = OntologyMediatedQuery(ontology=ontology, query=query_b, data_schema=schema)
    program = alc_ucq_to_mddlog(omq)
    for data in small_instances(schema, max_elements=2, max_facts=2):
        assert evaluate(program, data) == omq.certain_answers(data), repr(data)


def test_mddlog_to_alc_ucq_round_trip_two_colourability():
    """coCSP(K2) as MDDlog, translated to (ALC, UCQ), keeps its answers."""
    program = csp_to_mddlog(clique_template(2))
    omq = mddlog_to_alc_ucq(program)
    for data in [cycle_graph(3), cycle_graph(4), cycle_graph(5)]:
        expected = evaluate_boolean(program, data)
        got = omq.certain_answers(data, engine="forest") == {()}
        assert expected == got


@pytest.mark.parametrize(
    ("factory", "size", "digest"),
    [
        (example_2_1_omq, 7698, "ad0734988d90d94d"),
        (example_2_2_q1_omq, 7637, "167805df6e9a88bc"),
        (example_2_2_q2_omq, 7625, "1606717d25548854"),
    ],
)
def test_theorem_3_3_compile_output_is_pinned(factory, size, digest):
    """The Table 1 compiles emit the same rules in the same order.  The label
    order decides the clauses a serving session's solver sees, and with them
    its answer times, so a reordering must be deliberate."""
    program = compile_to_mddlog(factory())
    text = "\n".join(str(rule) for rule in program.rules)
    assert len(program.rules) == size
    assert hashlib.sha256(text.encode()).hexdigest().startswith(digest)


def test_theorem_3_3_compile_shares_its_atoms(monkeypatch):
    """Each label atom (over x and over y) and each EDB atom is built once per
    compile and shared by the rules that mention it.  Three fresh atoms per
    type-incompatibility constraint would make over 22k for Example 2.1's
    7,380 constraints; shared, the compile builds a few hundred."""
    omq = example_2_1_omq()
    built = 0
    check_arity = Atom.__post_init__

    def counting(atom):
        nonlocal built
        built += 1
        check_arity(atom)

    monkeypatch.setattr(Atom, "__post_init__", counting)
    program = compile_to_mddlog(omq)
    assert len(program.rules) == 7698
    assert built <= 1000


def test_alc_ucq_translation_size_is_bounded():
    omq = example_2_1_omq()
    program = alc_ucq_to_mddlog(omq)
    # single-exponential bound of Theorem 3.3 (vastly generous here)
    assert program.size() <= 2 ** (omq.size())


# -- Proposition 3.2: coFPP <-> Boolean MDDlog ----------------------------------------


def two_colour_fpp():
    schema = Schema([EDGE])
    palette = make_palette(2)
    monochromatic = []
    for colour in palette:
        pattern_data = Instance([Fact(EDGE, ("u", "v"))])
        monochromatic.append(
            colour_instance(pattern_data, palette, {"u": colour, "v": colour})
        )
    return ForbiddenPatternsProblem(schema, palette, monochromatic)


def test_fpp_semantics():
    problem = two_colour_fpp()
    assert problem.in_forb(cycle_graph(4))
    assert not problem.in_forb(cycle_graph(3))
    assert problem.co_fpp_query(cycle_graph(3))


def test_fpp_to_mddlog_equivalence():
    problem = two_colour_fpp()
    program = fpp_to_mddlog(problem)
    assert program.is_monadic() and program.is_boolean()
    for data in [cycle_graph(3), cycle_graph(4), cycle_graph(5)]:
        assert evaluate_boolean(program, data) == problem.co_fpp_query(data)


def test_mddlog_to_fpp_equivalence():
    program = csp_to_mddlog(clique_template(2))
    problem = mddlog_to_fpp(program)
    for data in [cycle_graph(3), cycle_graph(4)]:
        assert problem.co_fpp_query(data) == evaluate_boolean(program, data)


# -- Proposition 4.1: coMMSNP <-> MDDlog ------------------------------------------------


def two_colour_mmsnp():
    X = SOVariable("X")
    u, v = Variable("u"), Variable("v")
    implications = [
        Implication((SchemaAtom(EDGE, (u, v)), SOAtom(X, (u,)), SOAtom(X, (v,))), ()),
        Implication(
            (SchemaAtom(EDGE, (u, v)),),
            (SOAtom(X, (u,)), SOAtom(X, (v,))),
        ),
    ]
    return MMSNPFormula([X], implications)


def test_mmsnp_evaluation():
    formula = two_colour_mmsnp()
    assert formula.holds(cycle_graph(4))
    assert not formula.holds(cycle_graph(3))
    query = CoMMSNPQuery(formula)
    assert query.holds_in(cycle_graph(3))


def test_mmsnp_to_mddlog_equivalence():
    formula = two_colour_mmsnp()
    program = mmsnp_to_mddlog(formula)
    assert program.is_monadic()
    for data in [cycle_graph(3), cycle_graph(4), cycle_graph(5)]:
        assert evaluate_boolean(program, data) == (not formula.holds(data))


def test_mddlog_to_mmsnp_equivalence():
    program = csp_to_mddlog(clique_template(2))
    formula = mddlog_to_mmsnp(program)
    assert formula.is_mmsnp()
    for data in [cycle_graph(3), cycle_graph(4)]:
        assert (not formula.holds(data)) == evaluate_boolean(program, data)


def test_mddlog_to_mmsnp_unary_free_variable():
    P = RelationSymbol("P", 1)
    program = DisjunctiveDatalogProgram(
        [
            Rule((Atom(P, (x,)),), (Atom(A, (x,)),)),
            Rule((goal_atom(x),), (Atom(P, (x,)),)),
        ]
    )
    formula = mddlog_to_mmsnp(program)
    query = CoMMSNPQuery(formula)
    data = Instance([Fact(A, (1,)), Fact(EDGE, (1, 2))])
    assert query.evaluate(data) == evaluate(program, data)


# -- Theorem 4.6: atomic OMQs <-> (generalized, marked) coCSP ---------------------------


def test_omq_to_csp_example_4_5():
    """Example 4.5: the hereditary-predisposition AQ corresponds to a coCSP
    with one marked element, and the two sides agree on chains."""
    omq = example_4_5_omq()
    encoding = omq_to_csp(omq)
    assert not encoding.boolean
    assert encoding.marked_templates
    cocsp = encoding.as_cocsp_query()
    for generations, marker in [(1, True), (2, True), (2, False)]:
        data = family_instance(generations, predisposed_root=marker)
        assert cocsp.evaluate(data) == omq.certain_answers(data)


def test_omq_to_csp_boolean_case():
    from repro.core import boolean_atomic_query
    from repro.omq import OntologyMediatedQuery
    from repro.workloads.medical import example_4_5_ontology, example_4_5_schema

    omq = OntologyMediatedQuery(
        ontology=example_4_5_ontology(),
        query=boolean_atomic_query("HereditaryPredisposition"),
        data_schema=example_4_5_schema(),
    )
    encoding = omq_to_csp(omq)
    assert encoding.boolean
    cocsp = encoding.as_cocsp_query()
    data = family_instance(2, predisposed_root=True)
    assert cocsp.evaluate(data) == (omq.certain_answers(data) == {()})
    empty_case = family_instance(2, predisposed_root=False)
    assert cocsp.evaluate(empty_case) == (omq.certain_answers(empty_case) == {()})


def test_csp_to_mddlog_and_back_to_omq():
    template = clique_template(2)
    program = csp_to_mddlog(template)
    omq = csp_to_omq(template)
    for data in [cycle_graph(3), cycle_graph(4), cycle_graph(5)]:
        expected = not_has_hom = evaluate_boolean(program, data)
        assert (omq.certain_answers(data) == {()}) == expected
        del not_has_hom


def test_marked_csp_to_omq_round_trip():
    omq = example_4_5_omq()
    encoding = omq_to_csp(omq)
    rebuilt = marked_csp_to_omq(encoding.marked_templates, schema=omq.data_schema)
    for generations, marker in [(1, True), (2, False)]:
        data = family_instance(generations, predisposed_root=marker)
        assert rebuilt.certain_answers(data) == omq.certain_answers(data)
