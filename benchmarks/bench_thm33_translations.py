"""E-33 / E-34 / E-35 — Theorems 3.3 and 3.4: OMQ ↔ MDDlog translations.

Runs both directions of the translations on the paper's medical queries,
measures program sizes (the single-exponential upper bound shape of the
theorems and the blow-up evidence of Theorem 3.5), and re-checks semantic
equivalence on the worked examples.
"""

from repro.datalog import evaluate
from repro.translations import (
    alc_aq_to_mddlog,
    alc_ucq_to_mddlog,
    mddlog_to_alc_aq,
    mddlog_to_alc_ucq,
)
from repro.workloads.medical import (
    example_2_1_omq,
    example_4_5_omq,
    family_instance,
    patient_instance,
)


def test_thm33_alc_ucq_to_mddlog(benchmark):
    omq = example_2_1_omq()
    program = benchmark(lambda: alc_ucq_to_mddlog(omq))
    data = patient_instance()
    assert evaluate(program, data) == omq.certain_answers(data)
    print(
        f"\n[E-33] (ALC,UCQ) -> MDDlog: |Q| = {omq.size()}, |Π| = {program.size()}, "
        f"{len(program)} rules (single-exponential bound: {2 ** omq.size():.2e})"
    )


def test_thm33_mddlog_to_alc_ucq_round_trip(benchmark):
    omq = example_2_1_omq()
    program = alc_ucq_to_mddlog(omq)
    rebuilt = benchmark(lambda: mddlog_to_alc_ucq(program))
    print(
        f"\n[E-33] MDDlog -> (ALC,UCQ): |Π| = {program.size()}, |Q'| = {rebuilt.size()} "
        f"(linear in |Π| as Theorem 3.3 (2) states)"
    )
    assert rebuilt.size() <= 12 * program.size()


def test_thm33_mddlog_certain_answer_evaluation(benchmark):
    """E-33 hot path: certain answers of the translated MDDlog program.

    Exercises the engine end-to-end — join-planned grounding of the
    translated program (thousands of rules) and incremental candidate
    solving — on the paper's patient data.
    """
    omq = example_2_1_omq()
    program = alc_ucq_to_mddlog(omq)
    data = patient_instance()
    answers = benchmark(lambda: evaluate(program, data))
    assert answers == omq.certain_answers(data)
    print(
        f"\n[E-33] MDDlog evaluation: {len(program)} rules, "
        f"|adom| = {len(data.active_domain)}, answers = {sorted(answers)}"
    )


def test_thm34_alc_aq_to_mddlog(benchmark):
    omq = example_4_5_omq()
    program = benchmark(lambda: alc_aq_to_mddlog(omq))
    data = family_instance(2, predisposed_root=True)
    assert evaluate(program, data) == omq.certain_answers(data)
    print(
        f"\n[E-34] (ALC,AQ) -> unary connected simple MDDlog: |Q| = {omq.size()}, "
        f"|Π| = {program.size()}, unary={program.is_unary()}, "
        f"connected={program.is_connected()}, simple={program.is_simple()}"
    )


def test_thm34_round_trip(benchmark):
    omq = example_4_5_omq()
    program = alc_aq_to_mddlog(omq)
    rebuilt = benchmark(lambda: mddlog_to_alc_aq(program))
    data = family_instance(2, predisposed_root=True)
    assert rebuilt.certain_answers(data) == omq.certain_answers(data)
    print(f"\n[E-34] MDDlog -> (ALC,AQ): |O| = {rebuilt.ontology.size()} (linear in |Π|)")


def test_thm35_blowup_shape(benchmark):
    """E-35: the forward translation is exponential in the ontology size while
    the backward translation is linear — measured on growing chain ontologies."""
    from repro.core import atomic_query
    from repro.core.schema import Schema
    from repro.dl import ConceptInclusion, ConceptName, Ontology
    from repro.omq import OntologyMediatedQuery

    def omq_of_size(n: int) -> OntologyMediatedQuery:
        axioms = [
            ConceptInclusion(ConceptName(f"A{i}"), ConceptName(f"A{i+1}") | ConceptName(f"B{i}"))
            for i in range(n)
        ]
        schema = Schema.binary([f"A{i}" for i in range(n + 1)] + [f"B{i}" for i in range(n)], ["R"])
        return OntologyMediatedQuery(
            ontology=Ontology(axioms), query=atomic_query(f"A{n}"), data_schema=schema
        )

    def measure():
        rows = []
        for n in (1, 2, 3):
            omq = omq_of_size(n)
            program = alc_aq_to_mddlog(omq)
            rows.append((n, omq.size(), program.size()))
        return rows

    rows = benchmark(measure)
    print("\n[E-35] blow-up shape (n, |Q|, |Π|):")
    for n, q_size, p_size in rows:
        print(f"    n={n}:  |Q|={q_size:4d}   |Π|={p_size:6d}")
    assert rows[-1][2] > rows[0][2]
