"""The shared indexed evaluation engine.

This package hosts the two performance-critical primitives every compute
layer of the reproduction bottoms out in:

* **join-planned grounding** (:mod:`repro.engine.joins`,
  :mod:`repro.engine.grounder`) — rule bodies are satisfied by a greedy
  selectivity-ordered join over the instance's position indexes, and ground
  clause sets are deduplicated and subsumption-reduced;
* **incremental solving** (:mod:`repro.engine.sat`) — a watched-literal
  DPLL solver with assumption literals, so a program is grounded once per
  instance and all candidate answer tuples are decided against one
  persistent solver state.

The datalog, CSP, OMQ and OBDA layers all sit on this engine (together with
the indexed homomorphism search in :mod:`repro.core.homomorphism`); see
``ARCHITECTURE.md`` at the repository root for the layer diagram.
"""

from .grounder import Clause, GroundAtom, GroundProgram, ground_program
from .joins import (
    JoinPlan,
    canonical_key,
    compile_join,
    execute_join,
    extend_assignment,
    join_assignments,
    join_exists,
    matching_rows,
    order_atoms,
)
from .sat import ClauseSolver, TseitinAux, solver_for_clauses, tseitin_clauses, tseitin_encode

__all__ = [
    "Clause",
    "ClauseSolver",
    "GroundAtom",
    "GroundProgram",
    "JoinPlan",
    "TseitinAux",
    "canonical_key",
    "compile_join",
    "execute_join",
    "extend_assignment",
    "ground_program",
    "join_assignments",
    "join_exists",
    "matching_rows",
    "order_atoms",
    "solver_for_clauses",
    "tseitin_clauses",
    "tseitin_encode",
]
