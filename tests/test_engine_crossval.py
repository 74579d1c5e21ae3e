"""Randomized cross-validation of the evaluation engine.

Every component of the engine has an intentionally naive reference
counterpart; these tests generate small random inputs and assert agreement:

* ``evaluate`` / ``holds`` against the textbook ``models()`` enumerator
  (certain answers are the intersection over all models extending the data);
* the indexed homomorphism search against brute-force enumeration of all
  mappings between active domains;
* the engine's join planner against cartesian enumeration plus filtering;
* the CDCL solver against the reference ``_dpll`` on random clause sets;
* the per-constant / per-position instance indexes against linear scans.
"""

import itertools
import random

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.core.homomorphism import has_homomorphism, homomorphisms, is_homomorphism
from repro.datalog import (
    DisjunctiveDatalogProgram,
    Rule,
    adom_atom,
    evaluate,
    goal_atom,
    holds,
    models,
)
from repro.datalog.evaluation import _dpll, ground_clauses
from repro.engine import (
    ClauseSolver,
    ground_program,
    join_assignments,
    solver_for_clauses,
)

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = RelationSymbol("edge", 2)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)
EDB = [A, B, EDGE]
IDB = [P, Q]
X, Y = Variable("x"), Variable("y")


def _random_instance(rng: random.Random, domain: list) -> Instance:
    facts = []
    for element in domain:
        for symbol in (A, B):
            if rng.random() < 0.5:
                facts.append(Fact(symbol, (element,)))
    for source in domain:
        for target in domain:
            if rng.random() < 0.4:
                facts.append(Fact(EDGE, (source, target)))
    return Instance(facts)


def _random_body(rng: random.Random) -> tuple[Atom, ...]:
    pool = []
    for symbol in EDB + IDB:
        if symbol.arity == 1:
            pool.extend([Atom(symbol, (X,)), Atom(symbol, (Y,))])
        else:
            pool.extend(
                [Atom(symbol, (X, Y)), Atom(symbol, (Y, X)), Atom(symbol, (X, X))]
            )
    pool.extend([adom_atom(X), adom_atom(Y)])
    size = rng.randint(1, 3)
    return tuple(rng.sample(pool, size))


def _random_program(rng: random.Random, goal_arity: int) -> DisjunctiveDatalogProgram:
    rules = []
    for _ in range(rng.randint(2, 4)):
        body = _random_body(rng)
        body_vars = {v for atom in body for v in atom.variables}
        head_pool = [
            Atom(symbol, (v,)) for symbol in IDB for v in sorted(body_vars, key=str)
        ]
        kind = rng.random()
        if kind < 0.25:
            head: tuple[Atom, ...] = ()  # constraint
        elif kind < 0.55:
            if goal_arity == 0:
                head = (goal_atom(),)
            else:
                head = (goal_atom(rng.choice(sorted(body_vars, key=str))),)
        else:
            head = tuple(
                rng.sample(head_pool, min(len(head_pool), rng.randint(1, 2)))
            )
        rules.append(Rule(head, body))
    if not any(rule.is_goal_rule() for rule in rules):
        goal_head = (goal_atom(),) if goal_arity == 0 else (goal_atom(X),)
        rules.append(Rule(goal_head, (Atom(P, (X,)),)))
    return DisjunctiveDatalogProgram(rules)


def _naive_certain_answers(
    program: DisjunctiveDatalogProgram, instance: Instance
) -> frozenset:
    domain = sorted(instance.active_domain, key=repr)
    candidates = list(itertools.product(domain, repeat=program.arity))
    certain = set(candidates)
    for model in models(program, instance):
        goal_tuples = model.tuples(program.goal_relation)
        certain &= {c for c in certain if c in goal_tuples}
        if not certain:
            break
    return frozenset(certain)


@pytest.mark.parametrize("seed", range(30))
def test_evaluate_matches_model_enumeration(seed):
    rng = random.Random(seed)
    goal_arity = rng.choice([0, 1])
    program = _random_program(rng, goal_arity)
    domain = list(range(1, rng.randint(2, 3) + 1))
    instance = _random_instance(rng, domain)
    expected = _naive_certain_answers(program, instance)
    assert evaluate(program, instance) == expected
    adom = sorted(instance.active_domain, key=repr)
    for candidate in itertools.product(adom, repeat=goal_arity):
        assert holds(program, instance, candidate) == (candidate in expected)


@pytest.mark.parametrize("seed", range(40))
def test_homomorphisms_match_brute_force(seed):
    rng = random.Random(1000 + seed)
    source = _random_instance(rng, list(range(rng.randint(1, 3))))
    target = _random_instance(rng, ["a", "b", "c"][: rng.randint(1, 3)])
    source_domain = sorted(source.active_domain, key=repr)
    target_domain = sorted(target.active_domain, key=repr)
    brute = set()
    for images in itertools.product(target_domain, repeat=len(source_domain)):
        mapping = dict(zip(source_domain, images))
        if is_homomorphism(mapping, source, target):
            brute.add(tuple(sorted(mapping.items(), key=repr)))
    engine = {
        tuple(sorted(hom.items(), key=repr)) for hom in homomorphisms(source, target)
    }
    assert engine == brute
    # fixed-map variant: pin the first element to each possible image
    if source_domain:
        pivot = source_domain[0]
        for image in target_domain:
            fixed_engine = {
                tuple(sorted(hom.items(), key=repr))
                for hom in homomorphisms(source, target, fixed={pivot: image})
            }
            fixed_brute = {h for h in brute if dict(h)[pivot] == image}
            assert fixed_engine == fixed_brute


def test_nullary_facts_constrain_the_empty_homomorphism():
    """A source with only nullary facts has an empty active domain, but the
    empty map is a homomorphism only when those facts hold in the target."""
    nil = RelationSymbol("nil", 0)
    source = Instance([Fact(nil, ())])
    assert not has_homomorphism(source, Instance([]))
    assert not has_homomorphism(source, Instance([Fact(A, (1,))]))
    assert has_homomorphism(source, Instance([Fact(nil, ())]))
    assert has_homomorphism(Instance([]), Instance([]))
    assert list(homomorphisms(source, Instance([Fact(nil, ())]))) == [{}]


@pytest.mark.parametrize("seed", range(25))
def test_join_planner_matches_cartesian_filter(seed):
    rng = random.Random(2000 + seed)
    instance = _random_instance(rng, list(range(1, 4)))
    atoms = [a for a in _random_body(rng) if a.relation.name != "adom"]
    if not atoms:
        atoms = [Atom(EDGE, (X, Y))]
    variables = sorted({v for atom in atoms for v in atom.variables}, key=str)
    domain = sorted(instance.active_domain, key=repr)
    expected = set()
    for values in itertools.product(domain, repeat=len(variables)):
        assignment = dict(zip(variables, values))
        if all(
            tuple(
                assignment[t] if isinstance(t, Variable) else t
                for t in atom.arguments
            )
            in instance.tuples(atom.relation)
            for atom in atoms
        ):
            expected.add(tuple(assignment[v] for v in variables))
    got = {
        tuple(assignment[v] for v in variables)
        for assignment in join_assignments(atoms, instance)
    }
    assert got == expected


@pytest.mark.parametrize("seed", range(30))
def test_cdcl_matches_reference_dpll(seed):
    rng = random.Random(3000 + seed)
    atoms = [("v", i) for i in range(rng.randint(2, 6))]
    clauses = []
    for _ in range(rng.randint(1, 10)):
        chosen = rng.sample(atoms, rng.randint(1, min(3, len(atoms))))
        negative = frozenset(a for a in chosen if rng.random() < 0.5)
        positive = frozenset(a for a in chosen if a not in negative)
        clauses.append((negative, positive))
    forced = {a for a in atoms if rng.random() < 0.3}
    reference = _dpll(list(clauses), set(forced))
    solver = solver_for_clauses(clauses)
    assert solver.solve(false_atoms=forced) == reference
    # re-query the same persistent solver with different assumptions
    for atom in atoms[:2]:
        assert solver.solve(false_atoms=[atom]) == _dpll(list(clauses), {atom})
        assert solver.solve() == _dpll(list(clauses), set())


@pytest.mark.parametrize("seed", range(10))
def test_ground_clauses_agree_with_reference_dpll_verdicts(seed):
    """The engine's deduplicated/subsumed clause set is equisatisfiable with
    the reference solver's verdict for every goal assumption."""
    rng = random.Random(4000 + seed)
    goal_arity = rng.choice([0, 1])
    program = _random_program(rng, goal_arity)
    instance = _random_instance(rng, [1, 2])
    clauses = ground_clauses(program, instance)
    domain = sorted(instance.active_domain, key=repr)
    solver = solver_for_clauses(clauses)
    for candidate in itertools.product(domain, repeat=goal_arity):
        atom = (program.goal_relation, candidate)
        assert solver.solve(false_atoms=[atom]) == _dpll(list(clauses), {atom})


@pytest.mark.parametrize("seed", range(15))
def test_incremental_clause_addition_stays_sound(seed):
    """Clauses added between solve calls must respect root-level assignments.

    Regression test: watches placed on literals already (permanently) false
    at the root level are never revisited by propagation, so late-added
    clauses must be simplified first.  Cross-validates an add/solve
    interleaving against the reference DPLL on the final clause set.
    """
    rng = random.Random(6000 + seed)
    atoms = [("v", i) for i in range(rng.randint(3, 6))]
    solver = ClauseSolver()
    added = []

    def random_clause(max_width):
        chosen = rng.sample(atoms, rng.randint(1, min(max_width, len(atoms))))
        negative = frozenset(a for a in chosen if rng.random() < 0.5)
        return (negative, frozenset(a for a in chosen if a not in negative))

    for _round in range(4):
        for _ in range(rng.randint(1, 4)):
            clause = random_clause(3)
            added.append(clause)
            solver.add_clause(*clause)
        assumption = [rng.choice(atoms)] if rng.random() < 0.5 else []
        assert solver.solve(false_atoms=assumption) == _dpll(
            list(added), set(assumption)
        )
        if solver.solve():
            model = solver.last_model
            for negative, positive in added:
                assert any(not model[a] for a in negative) or any(
                    model[a] for a in positive
                )


def _eval_ground(formula, valuation):
    """Truth value of a ground formula under a fact valuation."""
    if isinstance(formula, bool):
        return formula
    tag = formula[0]
    if tag == "lit":
        _tag, fact, positive = formula
        value = valuation[fact]
        return value if positive else not value
    children = [_eval_ground(child, valuation) for child in formula[1]]
    return all(children) if tag == "and" else any(children)


def _ground_facts(formula, accumulator):
    if isinstance(formula, bool):
        return accumulator
    if formula[0] == "lit":
        accumulator.add(formula[1])
        return accumulator
    for child in formula[1]:
        _ground_facts(child, accumulator)
    return accumulator


@pytest.mark.parametrize("seed", range(20))
def test_miniscoped_cq_grounding_is_equivalent_to_flat(seed):
    """ground_cq's per-component enumeration equals the flat domain**k product."""
    import itertools as it

    from repro.core.cq import ConjunctiveQuery
    from repro.fo.grounding import ground_cq

    rng = random.Random(7000 + seed)
    variables = [Variable(f"y{i}") for i in range(rng.randint(1, 4))]
    answer = (Variable("x"),) if rng.random() < 0.5 else ()
    pool = list(variables) + list(answer)
    atoms = []
    for _ in range(rng.randint(1, 4)):
        symbol = rng.choice([A, B, EDGE])
        args = tuple(rng.choice(pool) for _ in range(symbol.arity))
        atoms.append(Atom(symbol, args))
    used = {v for atom in atoms for v in atom.variables}
    if answer and answer[0] not in used:
        atoms.append(Atom(A, (answer[0],)))
    query = ConjunctiveQuery(answer, atoms)
    domain = list(range(rng.randint(0, 3)))
    answer_values = tuple("c" for _ in answer)
    for positive in (True, False):
        grounded = ground_cq(query, domain, answer_values, positive=positive)
        # flat reference: one big product over every existential variable
        existential = sorted(query.variables - set(query.answer_variables), key=str)
        assignment = dict(zip(query.answer_variables, answer_values))
        flat_children = []
        for values in it.product(domain, repeat=len(existential)):
            extended = dict(assignment)
            extended.update(zip(existential, values))
            lits = []
            for atom in sorted(query.atoms, key=str):
                arguments = tuple(
                    extended[a] if isinstance(a, Variable) else a
                    for a in atom.arguments
                )
                lits.append(("lit", Fact(atom.relation, arguments), positive))
            conj = all if positive else any
            flat_children.append((conj, lits))
        facts = sorted(_ground_facts(grounded, set()), key=str)
        for _ in range(25):
            valuation = {}
            for _conj, lits in flat_children:
                for lit in lits:
                    valuation.setdefault(lit[1], rng.random() < 0.5)
            for fact in facts:
                valuation.setdefault(fact, rng.random() < 0.5)
            flat_value_parts = [
                (all if positive else any)(
                    (valuation[lit[1]] if lit[2] else not valuation[lit[1]])
                    for lit in lits
                )
                for _conj, lits in flat_children
            ]
            flat_value = (
                any(flat_value_parts) if positive else all(flat_value_parts)
            )
            assert _eval_ground(grounded, valuation) == flat_value


@pytest.mark.parametrize("seed", range(20))
def test_miniscoped_quantifier_grounding_is_equivalent_to_flat(seed):
    """ground()'s block-split quantifier enumeration preserves truth values."""
    import itertools as it

    from repro.fo.formulas import (
        AndF,
        ExistsF,
        ForallF,
        NotF,
        OrF,
        RelationalAtom,
    )
    from repro.fo.grounding import ground

    rng = random.Random(8000 + seed)
    fo_vars = [Variable(f"v{i}") for i in range(3)]

    def random_formula(depth, scope):
        choice = rng.random()
        if depth == 0 or choice < 0.3:
            symbol = rng.choice([A, B, EDGE])
            args = tuple(rng.choice(scope) for _ in range(symbol.arity))
            atom = RelationalAtom(symbol, args)
            return NotF(atom) if rng.random() < 0.3 else atom
        if choice < 0.5:
            return AndF(
                tuple(random_formula(depth - 1, scope) for _ in range(2))
            )
        if choice < 0.7:
            return OrF(
                tuple(random_formula(depth - 1, scope) for _ in range(2))
            )
        if choice < 0.82:
            # negation over a composite subformula: exercises the
            # double-negation cancellation of the miniscoped decomposition
            return NotF(random_formula(depth - 1, scope))
        quantifier = ExistsF if rng.random() < 0.5 else ForallF
        bound = tuple(
            rng.sample(fo_vars, rng.randint(1, 2))
        )
        return quantifier(bound, random_formula(depth - 1, list(scope) + list(bound)))

    quantifier = ExistsF if rng.random() < 0.5 else ForallF
    formula = quantifier(tuple(fo_vars), random_formula(2, fo_vars))
    domain = list(range(rng.randint(1, 3)))
    grounded = ground(formula, domain)

    def flat(node, values, positive):
        """Reference grounding evaluated directly under a valuation."""
        if isinstance(node, RelationalAtom):
            arguments = tuple(
                values[a] if isinstance(a, Variable) else a for a in node.arguments
            )
            result = valuation[Fact(node.relation, arguments)]
            return result if positive else not result
        if isinstance(node, NotF):
            return flat(node.operand, values, not positive)
        if isinstance(node, AndF):
            op = all if positive else any
            return op(flat(c, values, positive) for c in node.conjuncts)
        if isinstance(node, OrF):
            op = any if positive else all
            return op(flat(c, values, positive) for c in node.disjuncts)
        existential_node = isinstance(node, ExistsF)
        op = any if existential_node == positive else all
        results = []
        for assignment in it.product(domain, repeat=len(node.variables)):
            extended = dict(values)
            extended.update(zip(node.variables, assignment))
            results.append(flat(node.body, extended, positive))
        return op(results)

    all_facts = set()
    for symbol in (A, B, EDGE):
        for args in it.product(domain, repeat=symbol.arity):
            all_facts.add(Fact(symbol, args))
    _ground_facts(grounded, all_facts)
    for _ in range(25):
        valuation = {fact: rng.random() < 0.5 for fact in all_facts}
        assert _eval_ground(grounded, valuation) == flat(formula, {}, True)


def test_negated_junction_with_nested_negation_grounds_correctly():
    """Regression: ∀x ¬(¬A(x) ∧ B(x)) must ground to A(c) ∨ ¬B(c) — the
    miniscoped decomposition has to cancel the double negation, not stack
    a new one on top of it."""
    from repro.fo.formulas import AndF, ForallF, NotF, RelationalAtom
    from repro.fo.grounding import ground

    x = Variable("x")
    formula = ForallF(
        (x,),
        NotF(AndF((NotF(RelationalAtom(A, (x,))), RelationalAtom(B, (x,))))),
    )
    grounded = ground(formula, ["c"])
    fact_a, fact_b = Fact(A, ("c",)), Fact(B, ("c",))
    for value_a in (False, True):
        for value_b in (False, True):
            valuation = {fact_a: value_a, fact_b: value_b}
            assert _eval_ground(grounded, valuation) == (value_a or not value_b)


# ---------------------------------------------------------------------------
# Columnar engine vs tuple-at-a-time reference
# ---------------------------------------------------------------------------


def _random_datalog_program(rng: random.Random) -> "DatalogProgram":
    """A random *plain* (single-head, no-constraint) datalog program."""
    from repro.datalog import DatalogProgram

    rules = []
    for _ in range(rng.randint(2, 5)):
        body = _random_body(rng)
        body_vars = sorted(
            {v for atom in body for v in atom.variables}, key=str
        )
        if rng.random() < 0.3:
            head = goal_atom(*rng.sample(body_vars, min(len(body_vars), 1)))
        else:
            head = Atom(rng.choice(IDB), (rng.choice(body_vars),))
        rules.append(Rule((head,), body))
    if not any(rule.is_goal_rule() for rule in rules):
        rules.append(Rule((goal_atom(X),), (Atom(P, (X,)),)))
    return DatalogProgram(rules)


@pytest.mark.parametrize("seed", range(25))
def test_columnar_fixpoint_matches_tuple_engine(seed):
    """The interned set-at-a-time fixpoint equals the tuple-at-a-time
    reference — same facts, same schema, same active domain."""
    rng = random.Random(11000 + seed)
    program = _random_datalog_program(rng)
    instance = _random_instance(rng, list(range(1, rng.randint(3, 5))))
    columnar = program.least_fixpoint(instance)
    reference = program.least_fixpoint(instance, engine="tuple")
    assert columnar.facts == reference.facts
    assert columnar.active_domain == reference.active_domain
    assert program.evaluate(instance) == program.evaluate(
        instance, engine="tuple"
    )


@pytest.mark.parametrize("seed", range(20))
def test_columnar_grounding_matches_tuple_engine(seed):
    """Grounding through the batch executor emits the same clause set (after
    dedup/subsumption) as the tuple-join grounder, and the same answers.

    Auxiliary block atoms (:class:`GroundAux`) are numbered in grounding
    order, which differs between the engines' join orders — aux-mentioning
    clauses are compared by count, everything else exactly.
    """
    from repro.engine.grounder import GroundAux

    rng = random.Random(12000 + seed)
    goal_arity = rng.choice([0, 1])
    program = _random_program(rng, goal_arity)
    instance = _random_instance(rng, list(range(1, rng.randint(2, 4))))
    columnar = ground_program(program, instance, engine="columnar")
    reference = ground_program(program, instance, engine="tuple")

    def split(clauses):
        plain, aux = set(), []
        for negative, positive in clauses:
            if any(
                isinstance(lit, GroundAux)
                for lit in itertools.chain(negative, positive)
            ):
                aux.append((negative, positive))
            else:
                plain.add((negative, positive))
        return plain, aux

    columnar_plain, columnar_aux = split(columnar.clauses)
    reference_plain, reference_aux = split(reference.clauses)
    assert columnar_plain == reference_plain
    assert len(columnar_aux) == len(reference_aux)
    assert columnar.certain_answers() == reference.certain_answers()


@pytest.mark.parametrize("seed", range(25))
def test_execute_join_matches_join_assignments(seed):
    """The compiled batch executor agrees with the tuple-at-a-time join
    planner on random bodies — including constants in atoms (resolved
    lazily per interner) and partially bound seed rows."""
    from repro.engine import compile_join, execute_join, join_exists

    rng = random.Random(13000 + seed)
    instance = _random_instance(rng, list(range(1, 4)))
    atoms = [a for a in _random_body(rng) if a.relation.name != "adom"]
    if not atoms:
        atoms = [Atom(EDGE, (X, Y))]
    if rng.random() < 0.5:
        # pin one position of one atom to a constant (sometimes unknown)
        index = rng.randrange(len(atoms))
        atom = atoms[index]
        constant = rng.choice([1, 2, "missing"])
        position = rng.randrange(len(atom.arguments))
        arguments = list(atom.arguments)
        arguments[position] = constant
        atoms[index] = Atom(atom.relation, tuple(arguments))
    variables = sorted({v for atom in atoms for v in atom.variables}, key=str)
    expected = {
        tuple(sorted((v.name, a[v]) for v in variables))
        for a in join_assignments(atoms, instance)
    }
    plan = compile_join(atoms, instance)
    rows = execute_join(plan, instance)
    got = {
        tuple(sorted((v.name, a[v]) for v in variables))
        for a in plan.assignments(rows, instance.interner)
    }
    assert got == expected
    assert len(rows) == len(got)  # batches are duplicate-free
    assert join_exists(plan, instance) == bool(expected)
    # partially bound: seed the plan with each value of one variable
    if variables:
        pivot = rng.choice(variables)
        bound_plan = compile_join(atoms, instance, bound=[pivot])
        for value in [1, 2, 3, "missing"]:
            seed_row = bound_plan.intern_seed({pivot: value}, instance.interner)
            seeded = {
                tuple(sorted((v.name, a[v]) for v in variables))
                for a in bound_plan.assignments(
                    execute_join(bound_plan, instance, [seed_row]),
                    instance.interner,
                )
            }
            narrowed = {
                key for key in expected if (pivot.name, value) in key
            }
            assert seeded == narrowed
            assert join_exists(bound_plan, instance, seed_row) == bool(
                narrowed
            )


@pytest.mark.parametrize("seed", range(10))
def test_instance_indexes_match_linear_scans(seed):
    rng = random.Random(5000 + seed)
    instance = _random_instance(rng, list(range(1, 5)))
    for constant in list(instance.active_domain) + ["missing"]:
        assert instance.facts_with_constant(constant) == frozenset(
            f for f in instance.facts if constant in f.arguments
        )
    for symbol in (A, B, EDGE):
        rows = instance.tuples(symbol)
        for position in range(symbol.arity):
            values = {row[position] for row in rows}
            assert instance.position_values(symbol, position) == values
            for value in values | {"missing"}:
                assert instance.tuples_with(symbol, position, value) == frozenset(
                    row for row in rows if row[position] == value
                )
