"""Dispatcher for certain-answer computation over ontology-mediated queries.

The ``auto`` engine picks the strongest applicable complete procedure:

1. ``atomic`` — type-assignment search for AQ / BAQ (ALC, H, U; I, trans via
   the rewritings of Theorems 3.6 and 3.11, applied automatically);
2. ``forest`` — the forest counter-model engine for UCQs (ALC, H; I and trans
   via the same rewritings);
3. ``bounded`` — the bounded counter-model reference engine (used for
   functional roles, or on request as an independent cross-check).

The ``planned`` engine instead compiles the OMQ once into MDDlog (Theorem
3.3) and routes the compiled program through the tiered planner
(:mod:`repro.planner`) — UCQ rewriting, datalog fixpoint, or ground+CDCL,
whichever is cheapest and sound; this is the one-shot twin of the serving
sessions' routing.  When the OMQ has no complete MDDlog translation
(functional / transitive / universal roles), ``planned`` falls back to the
``auto`` selection.

All three procedures bottom out in the shared evaluation engine.  The atomic
and forest engines build one indexed homomorphism search
(:mod:`repro.core.homomorphism`) per instance, from the data into the Theorem
4.6 type template (:meth:`repro.dl.reasoner.TypeSystem.assignment_search`),
and re-solve it with ``domains`` narrowed per query: the atomic engine to the
types avoiding the query concept at the candidate answer, the forest engine
to the types whose labels show one non-matching combination of observables.
The bounded engine grounds into the incremental CDCL solver of
:mod:`repro.engine.sat` (one persistent solver per candidate domain, one
assumption query per candidate answer).
"""

from __future__ import annotations

from typing import Sequence

from ..core.instance import Instance
from ..dl.rewritings import (
    eliminate_inverse_roles,
    eliminate_transitive_roles,
)
from .atomic import AtomicEngine
from .bounded import BoundedModelEngine
from .forest import ForestEngine
from .query import OntologyMediatedQuery

ENGINES = ("auto", "atomic", "forest", "bounded", "planned")


def _normalise(omq: OntologyMediatedQuery) -> OntologyMediatedQuery:
    """Compile away transitive and inverse roles when present (Thms 3.6 / 3.11)."""
    ontology = omq.ontology
    query = omq.query
    if ontology.uses_functional_roles():
        return omq
    if ontology.uses_transitive_roles():
        if omq.is_atomic() or omq.is_boolean_atomic():
            ontology = eliminate_transitive_roles(ontology)
        else:
            return omq  # (S, UCQ) is strictly more expressive; keep as-is
    if ontology.uses_inverse_roles():
        ontology, rewritten = eliminate_inverse_roles(ontology, omq.ucq())
        if not (omq.is_atomic() or omq.is_boolean_atomic()):
            query = rewritten
    if ontology is omq.ontology and query is omq.query:
        return omq
    return OntologyMediatedQuery(
        ontology=ontology,
        query=query,
        data_schema=omq.data_schema,
        schema_free=omq.schema_free,
    )


def _select_engine(omq: OntologyMediatedQuery, engine: str):
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; expected one of {ENGINES}")
    if engine == "bounded":
        return BoundedModelEngine(omq)
    if engine == "atomic":
        return AtomicEngine(_normalise(omq))
    if engine == "forest":
        return ForestEngine(_normalise(omq))
    if engine == "planned":
        from ..planner import PlannedMddlogEngine

        try:
            program = compile_to_mddlog(omq)
        except ValueError:
            return _select_engine(omq, "auto")
        return PlannedMddlogEngine(program)
    # auto
    normalised = _normalise(omq)
    ontology = normalised.ontology
    if ontology.uses_functional_roles():
        return BoundedModelEngine(normalised)
    if normalised.is_atomic() or normalised.is_boolean_atomic():
        return AtomicEngine(normalised)
    if ontology.uses_transitive_roles() or ontology.uses_universal_role():
        return BoundedModelEngine(normalised)
    return ForestEngine(normalised)


def compile_to_mddlog(omq: OntologyMediatedQuery, check: str = "off"):
    """Compile the OMQ once into an equivalent MDDlog program (Theorem 3.3).

    This is the ahead-of-time path of the serving layer
    (:mod:`repro.service`): inverse and transitive roles are compiled away
    where the rewritings of Theorems 3.6 / 3.11 apply, then the normalised
    (ALC(H), UCQ) query is translated to monadic disjunctive datalog, which
    the session grounds incrementally under streaming updates.  Raises
    ``ValueError`` for ontology features with no complete MDDlog
    translation (functional roles; transitive or universal roles beyond the
    atomic-query rewritings).

    ``check`` runs the static analyzer (:mod:`repro.analysis`) over the
    compiled program: ``"warn"`` reports findings as Python warnings,
    ``"strict"`` raises :class:`repro.analysis.ProgramAnalysisError` on
    error-severity diagnostics, ``"off"`` (the default — the translation
    is trusted) skips it.
    """
    from ..translations.alc_ucq_mddlog import alc_ucq_to_mddlog

    normalised = _normalise(omq)
    ontology = normalised.ontology
    if ontology.uses_functional_roles():
        raise ValueError(
            "functional roles have no complete MDDlog translation "
            "(certain answering for ALCF is undecidable, Theorem 5.8)"
        )
    if ontology.uses_transitive_roles() or ontology.uses_universal_role():
        raise ValueError(
            "transitive / universal roles are not supported by the "
            "Theorem 3.3 translation for non-atomic queries"
        )
    program = alc_ucq_to_mddlog(normalised)
    # Record the (normalised) source OMQ on the compiled program: the
    # planner's semantic stage (repro.planner.semantic) uses it to build
    # the Theorem 4.6 CSP templates directly instead of bridging the
    # exponentially larger compiled program back through a type system.
    program.source_omq = normalised
    if check != "off":
        from ..analysis import vet_program

        vet_program(program, check, label=f"compiled({normalised.query})")
    return program


def certain_answers(
    omq: OntologyMediatedQuery, instance: Instance, engine: str = "auto"
) -> frozenset[tuple]:
    """The certain answers ``cert_{q,O}(D)`` of the OMQ on the instance."""
    omq.check_instance_schema(instance)
    return _select_engine(omq, engine).certain_answers(instance)


def is_certain_answer(
    omq: OntologyMediatedQuery,
    instance: Instance,
    answer: Sequence = (),
    engine: str = "auto",
) -> bool:
    """Does the tuple belong to the certain answers?"""
    omq.check_instance_schema(instance)
    return _select_engine(omq, engine).is_certain(instance, tuple(answer))
