"""The multi-tenant asyncio frontend: concurrency, faults, snapshots, caching.

The serving frontend multiplexes tenants over shared sessions with
group-commit writes, versioned snapshot reads, and admission control.  The
correctness bar mirrors the streaming suite, lifted to concurrency: every
concurrent read must equal a *serial twin* replaying the same committed
batches in commit order (``replay_commit_log``), and after every fault
storm the shared session must still agree with a from-scratch
recomputation.  Everything runs on plain ``asyncio.run`` — the harness
needs no asyncio pytest plugin.
"""

import asyncio
import random

import pytest

from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, goal_atom
from repro.engine.grounder import ground_program
from repro.obda.applications import serve_frontend_workload
from repro.obs.telemetry import Reservoir, enabled
from repro.planner import (
    PlanCache,
    clear_plan_artifacts,
    execute_plan,
    plan_program,
    program_identity_key,
)
from repro.service import (
    FaultInjector,
    Frontend,
    FrontendConfig,
    FrontendRejected,
    FrontendWriteFailed,
    ObdaSession,
    ShardedObdaSession,
    from_scratch_answers,
    replay_commit_log,
    validate_explain,
)

A = RelationSymbol("A", 1)
B = RelationSymbol("B", 1)
EDGE = RelationSymbol("edge", 2)
START = RelationSymbol("start", 1)
REACH = RelationSymbol("reach", 1)
P = RelationSymbol("P", 1)
Q = RelationSymbol("Q", 1)


def _reach_program(tag: str = "x") -> DisjunctiveDatalogProgram:
    """Tier 1 (recursive): goal = reachable from a start via edges.

    ``tag`` alpha-renames the variables, so every call returns a *fresh*
    object that is structurally identical to every other — the shape the
    plan cache must intern to one representative.
    """
    x, y = Variable(f"{tag}0"), Variable(f"{tag}1")
    return DisjunctiveDatalogProgram(
        (
            Rule((Atom(REACH, (x,)),), (Atom(START, (x,)),)),
            Rule((Atom(REACH, (y,)),), (Atom(REACH, (x,)), Atom(EDGE, (x, y)))),
            Rule((goal_atom(x),), (Atom(REACH, (x,)),)),
        )
    )


def _conj_program(tag: str = "x") -> DisjunctiveDatalogProgram:
    """Tier 0 (nonrecursive, disjunction-free): goal(x) <- A(x), B(x)."""
    x = Variable(f"{tag}0")
    return DisjunctiveDatalogProgram(
        (Rule((goal_atom(x),), (Atom(A, (x,)), Atom(B, (x,)))),)
    )


def _disjunctive_program(tag: str = "x") -> DisjunctiveDatalogProgram:
    """Tier 2 (disjunctive): P(x) v Q(x) <- A(x); goal from either."""
    x = Variable(f"{tag}0")
    return DisjunctiveDatalogProgram(
        (
            Rule((Atom(P, (x,)), Atom(Q, (x,))), (Atom(A, (x,)),)),
            Rule((goal_atom(x),), (Atom(P, (x,)),)),
            Rule((goal_atom(x),), (Atom(Q, (x,)),)),
        )
    )


def _universe(size: int = 5) -> list[Fact]:
    domain = [f"e{i}" for i in range(size)]
    facts = [Fact(START, (domain[0],))]
    for element in domain:
        facts.append(Fact(A, (element,)))
        facts.append(Fact(B, (element,)))
    for source, target in zip(domain, domain[1:]):
        facts.append(Fact(EDGE, (source, target)))
    facts.append(Fact(EDGE, (domain[-1], domain[0])))
    return facts


def run(coroutine):
    return asyncio.run(coroutine)


# ---------------------------------------------------------------------------
# Group-commit writes
# ---------------------------------------------------------------------------


def test_group_commit_batches_concurrent_writes():
    async def scenario():
        frontend = Frontend(
            workload={"q": _reach_program()},
            config=FrontendConfig(max_batch=4, max_delay_s=0.002),
        )
        frontend.register_tenant("t", tier=1)
        facts = _universe()
        versions = await asyncio.gather(
            *[frontend.insert("t", [fact]) for fact in facts]
        )
        # every op committed, in far fewer flushes than ops
        assert all(isinstance(version, int) for version in versions)
        log = frontend.commit_log()
        assert 1 <= len(log) < len(facts)
        assert [entry["version"] for entry in log] == list(
            range(1, len(log) + 1)
        )
        assert sum(entry["ops"] for entry in log) == len(facts)
        assert frontend.session().instance == Instance(facts)
        await frontend.close()

    run(scenario())


def test_batch_coalesces_insert_then_delete_to_noop():
    async def scenario():
        frontend = Frontend(
            workload={"q": _conj_program()},
            config=FrontendConfig(max_batch=16, max_delay_s=5.0),
        )
        frontend.register_tenant("t")
        fact = Fact(A, ("e0",))
        keep = Fact(B, ("e0",))
        insert = asyncio.ensure_future(frontend.insert("t", [fact, keep]))
        delete = asyncio.ensure_future(frontend.delete("t", [fact]))
        await asyncio.sleep(0)
        await frontend.drain()
        assert await insert == await delete == 1
        # the insert/delete pair cancelled out; only ``keep`` landed
        assert frontend.session().instance == Instance([keep])
        (entry,) = frontend.commit_log()
        assert entry["inserts"] == (keep,)
        assert entry["deletes"] == ()
        await frontend.close()

    run(scenario())


def test_flush_reasons_size_and_deadline():
    async def scenario():
        frontend = Frontend(
            workload={"q": _conj_program()},
            config=FrontendConfig(max_batch=2, max_delay_s=0.01),
        )
        frontend.register_tenant("t")
        # size-triggered: two ops fill the batch
        await asyncio.gather(
            frontend.insert("t", [Fact(A, ("e0",))]),
            frontend.insert("t", [Fact(B, ("e0",))]),
        )
        # deadline-triggered: a lone op must not wait for a sibling
        await frontend.insert("t", [Fact(A, ("e1",))])
        report = frontend.explain()["frontend"]["batching"]
        assert report["flushes"] == 2
        assert report["reasons"]["size"] == 1
        assert report["reasons"]["deadline"] == 1
        await frontend.close()

    run(scenario())


# ---------------------------------------------------------------------------
# Satellite 1: randomized multi-tenant interleaving vs. the serial twin
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(4))
def test_randomized_interleaving_matches_serial_twin(seed):
    async def scenario():
        frontend = Frontend(
            config=FrontendConfig(max_batch=4, max_delay_s=0.001, max_pending=64)
        )
        tenants = []
        for index in range(6):
            name = f"t{index}"
            maker = _reach_program if index % 2 == 0 else _conj_program
            frontend.register_tenant(
                name, workload={"q": maker(f"v{index}_")}, tier=1
            )
            tenants.append(name)
        # structurally identical workloads collapsed into two groups
        assert frontend.group_count == 2
        universe = _universe(5)
        reads = []

        async def tenant_task(name, task_rng):
            for _ in range(10):
                roll = task_rng.random()
                if roll < 0.45:
                    batch = task_rng.sample(universe, task_rng.randint(1, 3))
                    await frontend.insert(name, batch)
                elif roll < 0.60:
                    batch = task_rng.sample(universe, task_rng.randint(1, 2))
                    await frontend.delete(name, batch)
                else:
                    reads.append(await frontend.query(name, "q"))
                await asyncio.sleep(task_rng.random() * 0.002)

        await asyncio.gather(
            *(
                tenant_task(name, random.Random(seed * 100 + index))
                for index, name in enumerate(tenants)
            )
        )
        await frontend.drain()
        assert reads, "the random stream should include reads"
        # answer-for-answer: every read equals the serial twin at its version
        for representative in ("t0", "t1"):
            session = frontend.session(representative)
            log = frontend.commit_log(representative)
            group_reads = [
                read
                for read in reads
                if frontend.session(read.tenant) is session
            ]
            versions = {read.version for read in group_reads} | {len(log)}
            twin = replay_commit_log(
                frontend.programs(representative), log, versions=versions
            )
            for read in group_reads:
                assert read.answers == twin[read.version]["q"], (
                    f"read at version {read.version} diverged from the twin"
                )
            # the final committed state agrees with the twin and with a
            # from-scratch recomputation over the live instance
            final = session.certain_answers("q")
            assert final == twin[len(log)]["q"]
            assert final == from_scratch_answers(session, "q")
        await frontend.close()

    run(scenario())


# ---------------------------------------------------------------------------
# Satellite 2: fault injection
# ---------------------------------------------------------------------------


def test_injected_flush_fault_is_all_or_nothing():
    async def scenario():
        faults = FaultInjector(fail_flushes={1})
        frontend = Frontend(
            workload={"q": _reach_program()},
            config=FrontendConfig(max_batch=8, max_delay_s=5.0),
            faults=faults,
        )
        frontend.register_tenant("t")
        baseline = [Fact(START, ("e0",)), Fact(EDGE, ("e0", "e1"))]
        writers = [
            asyncio.ensure_future(frontend.insert("t", [fact]))
            for fact in baseline
        ]
        writers.append(
            asyncio.ensure_future(frontend.delete("t", [Fact(A, ("e9",))]))
        )
        await asyncio.sleep(0)
        await frontend.drain()
        outcomes = await asyncio.gather(*writers, return_exceptions=True)
        # the whole batch failed together, with a rationale
        assert all(
            isinstance(outcome, FrontendWriteFailed) for outcome in outcomes
        )
        assert "rolled back" in str(outcomes[0])
        assert faults.injected == 1
        # all-or-nothing: no partial state, no version advance
        assert frontend.version() == 0
        assert frontend.commit_log() == ()
        assert frontend.session().instance == Instance([])
        # the storm over, the next batch commits cleanly
        version = await frontend.insert("t", baseline)
        await frontend.drain()
        assert version == 1
        session = frontend.session()
        assert session.instance == Instance(baseline)
        assert session.certain_answers("q") == from_scratch_answers(session, "q")
        report = frontend.explain()["frontend"]["batching"]
        assert report["rollbacks"] == 1
        await frontend.close()

    run(scenario())


def test_cancelled_writer_withdraws_its_op():
    async def scenario():
        frontend = Frontend(
            workload={"q": _conj_program()},
            config=FrontendConfig(max_batch=16, max_delay_s=5.0),
        )
        frontend.register_tenant("t")
        keep_a = asyncio.ensure_future(frontend.insert("t", [Fact(A, ("e0",))]))
        doomed = asyncio.ensure_future(frontend.insert("t", [Fact(A, ("e1",))]))
        keep_b = asyncio.ensure_future(frontend.insert("t", [Fact(B, ("e0",))]))
        await asyncio.sleep(0)  # let all three enqueue
        doomed.cancel()
        await frontend.drain()
        assert await keep_a == await keep_b == 1
        with pytest.raises(asyncio.CancelledError):
            await doomed
        # the cancelled op never landed; the rest of the batch did
        assert frontend.session().instance == Instance(
            [Fact(A, ("e0",)), Fact(B, ("e0",))]
        )
        assert frontend.explain()["frontend"]["batching"]["withdrawn"] == 1
        await frontend.close()

    run(scenario())


def test_cancelled_reader_leaves_frontend_serving():
    async def scenario():
        frontend = Frontend(
            workload={"q": _conj_program()},
            faults=FaultInjector(query_delay_s=0.05),
        )
        frontend.register_tenant("t")
        await frontend.insert("t", [Fact(A, ("e0",)), Fact(B, ("e0",))])
        await frontend.drain()
        reader = asyncio.ensure_future(frontend.query("t", "q"))
        await asyncio.sleep(0.01)  # mid-query: parked on its delay
        assert frontend.queue_depth() == 1
        reader.cancel()
        with pytest.raises(asyncio.CancelledError):
            await reader
        assert frontend.queue_depth() == 0
        result = await frontend.query("t", "q")
        assert result.answers == {("e0",)}
        await frontend.close()

    run(scenario())


def test_per_request_timeouts():
    async def scenario():
        frontend = Frontend(
            workload={"q": _conj_program()},
            config=FrontendConfig(max_batch=64, max_delay_s=5.0),
            faults=FaultInjector(query_delay_s=0.2),
        )
        frontend.register_tenant("t")
        with pytest.raises(TimeoutError):
            await frontend.query("t", "q", timeout=0.01)
        # a timed-out write withdraws its op: nothing commits at drain
        with pytest.raises(TimeoutError):
            await frontend.insert("t", [Fact(A, ("e0",))], timeout=0.01)
        await frontend.drain()
        assert frontend.version() == 0
        assert frontend.session().instance == Instance([])
        tenant = frontend.explain()["frontend"]["tenants"]["t"]
        assert tenant["timeouts"] == 2
        await frontend.close()

    run(scenario())


def test_admission_storm_sheds_tier2_first_with_rationales():
    async def scenario():
        faults = FaultInjector(query_delay_s=0.05)
        frontend = Frontend(
            workload={"q": _conj_program()},
            config=FrontendConfig(
                max_batch=4, max_delay_s=0.001, max_pending=4, degrade_limit=2
            ),
            faults=faults,
        )
        frontend.register_tenant("gold", tier=1)
        frontend.register_tenant("best-effort", tier=2)
        await frontend.insert("gold", [Fact(A, ("e0",)), Fact(B, ("e0",))])
        await frontend.drain()
        warm = await frontend.query("best-effort", "q")  # caches answers
        assert not warm.degraded
        # hold the queue at the degrade limit with slow tier-1 readers
        holders = [
            asyncio.ensure_future(frontend.query("gold", "q"))
            for _ in range(2)
        ]
        await asyncio.sleep(0.01)
        assert frontend.queue_depth() == 2
        # tier-2 read degrades to the cached answers instead of rejecting
        degraded = await frontend.query("best-effort", "q")
        assert degraded.degraded
        assert degraded.answers == warm.answers
        # tier-2 writes shed outright, with a rationale
        with pytest.raises(FrontendRejected) as shed:
            await frontend.insert("best-effort", [Fact(A, ("e9",))])
        assert "degrade limit" in shed.value.rationale
        # tier-1 traffic still admitted until the hard cap...
        holders += [
            asyncio.ensure_future(frontend.query("gold", "q"))
            for _ in range(2)
        ]
        await asyncio.sleep(0.01)
        assert frontend.queue_depth() == 4
        with pytest.raises(FrontendRejected) as hard:
            await frontend.query("gold", "q")
        assert "max_pending" in hard.value.rationale
        for result in await asyncio.gather(*holders):
            assert result.answers == warm.answers
        # post-storm: consistent state, shed counters and rationales surfaced
        session = frontend.session()
        assert session.certain_answers("q") == from_scratch_answers(session, "q")
        report = frontend.explain()
        assert not validate_explain(report)
        admission = report["frontend"]["admission"]
        assert admission["rejected"] == 2
        assert admission["degraded"] == 1
        assert admission["by_tier"] == {1: 1, 2: 1}
        tenants = report["frontend"]["tenants"]
        assert "degrade limit" in tenants["best-effort"]["last_rejection"]
        assert "max_pending" in tenants["gold"]["last_rejection"]
        await frontend.close()

    run(scenario())


# ---------------------------------------------------------------------------
# Satellite 3: snapshot isolation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "maker", [_conj_program, _reach_program, _disjunctive_program]
)
def test_snapshot_pinned_at_version_n_survives_flushes(maker):
    async def scenario():
        frontend = Frontend(
            workload={"q": maker()},
            config=FrontendConfig(max_batch=2, max_delay_s=0.001),
        )
        frontend.register_tenant("t")
        base = [fact for fact in _universe(4) if fact.relation != EDGE]
        await frontend.insert("t", base)
        await frontend.drain()
        session = frontend.session()
        pinned = session.snapshot(version=frontend.version())
        before = pinned.certain_answers("q")
        # concurrent flushes advance the session from N to N+k
        for extra in ("x0", "x1", "x2"):
            await frontend.insert(
                "t",
                [
                    Fact(A, (extra,)),
                    Fact(B, (extra,)),
                    Fact(EDGE, ("e0", extra)),
                ],
            )
        await frontend.drain()
        assert frontend.version() > pinned.version
        assert session.instance is not pinned.instance
        # during: the pinned reader still sees exactly version N
        assert pinned.certain_answers("q") == before
        # after: a fresh snapshot sees the new state, the pinned one never does
        fresh = await frontend.query("t", "q")
        assert fresh.version == frontend.version()
        assert fresh.answers > before
        assert pinned.certain_answers("q") == before
        # the pinned answers are exact at N: the serial twin agrees
        twin = replay_commit_log(
            frontend.programs(),
            frontend.commit_log(),
            versions={pinned.version},
        )
        assert twin[pinned.version]["q"] == before
        await frontend.close()

    run(scenario())


@pytest.mark.parametrize(
    "maker", [_conj_program, _reach_program, _disjunctive_program]
)
def test_snapshot_lagging_recompute_matches_ground_truth(maker):
    # A snapshot read *after* the session moved on exercises the stateless
    # per-tier recompute path; it must equal grounding the pinned instance.
    session = ObdaSession({"q": maker()})
    base = [fact for fact in _universe(4) if fact.relation != EDGE]
    session.insert_facts(base)
    snapshot = session.snapshot()
    pinned_instance = snapshot.instance
    session.insert_facts([Fact(A, ("y0",)), Fact(B, ("y0",))])
    session.delete_facts([base[1]])
    assert not snapshot.is_current
    expected = ground_program(
        session.program("q"), pinned_instance
    ).certain_answers()
    assert snapshot.certain_answers("q") == expected
    assert snapshot.is_certain(next(iter(expected)), "q")


def test_sharded_session_snapshot_isolation():
    session = ShardedObdaSession({"q": _reach_program()}, shards=2)
    facts = [fact for fact in _universe(5) if fact.relation in (START, EDGE)]
    session.insert_facts(facts)
    snapshot = session.snapshot()
    before = snapshot.certain_answers("q")
    assert before == session.certain_answers("q")
    session.delete_facts([facts[1]])
    session.insert_facts([Fact(EDGE, ("e9", "e0"))])
    assert snapshot.certain_answers("q") == before
    expected = ground_program(
        session.program("q"), snapshot.instance
    ).certain_answers()
    assert before == expected


def test_execute_plan_is_stateless_per_tier():
    instance = Instance([fact for fact in _universe(4)])
    for maker in (_conj_program, _reach_program, _disjunctive_program):
        program = maker()
        plan = plan_program(program)
        expected = ground_program(program, instance).certain_answers()
        assert execute_plan(plan, instance) == expected
        # evaluating an older instance later must not see newer facts
        smaller = Instance([])
        assert execute_plan(plan, smaller) == ground_program(
            program, smaller
        ).certain_answers()


# ---------------------------------------------------------------------------
# Satellite 4: the LRU'd cross-tenant plan cache
# ---------------------------------------------------------------------------


def test_program_identity_key_canonicalizes_structure():
    # alpha-renaming and rule order do not matter
    assert program_identity_key(_reach_program("a")) == program_identity_key(
        _reach_program("b")
    )
    reordered = DisjunctiveDatalogProgram(
        tuple(reversed(_reach_program("c").rules))
    )
    assert program_identity_key(reordered) == program_identity_key(
        _reach_program("d")
    )
    # different structure does
    assert program_identity_key(_conj_program()) != program_identity_key(
        _reach_program()
    )

    # constants compare by equality, never by repr
    class Marker:
        def __init__(self, tag):
            self.tag = tag

        def __repr__(self):
            return "marker"

        def __eq__(self, other):
            return isinstance(other, Marker) and other.tag == self.tag

        def __hash__(self):
            return hash(("marker", self.tag))

    def with_constant(constant):
        x = Variable("x")
        return DisjunctiveDatalogProgram(
            (Rule((goal_atom(x),), (Atom(EDGE, (x, constant)),)),)
        )

    assert program_identity_key(with_constant(Marker(1))) == (
        program_identity_key(with_constant(Marker(1)))
    )
    assert program_identity_key(with_constant(Marker(1))) != (
        program_identity_key(with_constant(Marker(2)))
    )


def test_plan_cache_lru_eviction_clears_artifacts():
    programs = [_conj_program(), _reach_program(), _disjunctive_program()]
    for program in programs:
        plan_program(program)
        assert hasattr(program, "_planner_syntactic_plan")
    cache = PlanCache(capacity=2)
    cache.intern(programs[0])
    cache.intern(programs[1])
    cache.intern(programs[0])  # touch: 0 becomes most recent
    cache.intern(programs[2])  # evicts 1, the least recently used
    assert cache.evictions == 1
    assert not hasattr(programs[1], "_planner_syntactic_plan")
    assert hasattr(programs[0], "_planner_syntactic_plan")
    assert programs[0] in cache and programs[2] in cache
    assert programs[1] not in cache
    # eviction-then-recompile: same routing, same answers
    instance = Instance(_universe(4))
    replanned = plan_program(programs[1])
    assert replanned.tier == 1
    assert execute_plan(replanned, instance) == ground_program(
        programs[1], instance
    ).certain_answers()


def test_clear_plan_artifacts_reports_cleared_names():
    program = _conj_program()
    plan_program(program)
    cleared = clear_plan_artifacts(program)
    assert "_planner_syntactic_plan" in cleared
    assert clear_plan_artifacts(program) == ()  # idempotent


def test_cross_tenant_cache_hits_via_existing_counters():
    async def scenario():
        with enabled() as tel:
            frontend = Frontend()
            frontend.register_tenant("t1", workload={"q": _reach_program("m")})
            hits_before = tel.counter("planner.plan_cache_hits")
            frontend.register_tenant("t2", workload={"q": _reach_program("n")})
            # the structurally identical workload interned to the shared
            # representative and hit the per-program plan cache
            assert tel.counter("planner.program_cache_hits") == 1
            assert tel.counter("planner.plan_cache_hits") > hits_before
            assert frontend.group_count == 1
            assert frontend.session("t1") is frontend.session("t2")
            assert frontend.plan_cache.hits == 1
            # the shared session serves both tenants' data and reads
            await frontend.insert(
                "t1", [Fact(START, ("e0",)), Fact(EDGE, ("e0", "e1"))]
            )
            await frontend.drain()
            t2_read = await frontend.query("t2", "q")
            assert t2_read.answers == {("e0",), ("e1",)}
            await frontend.close()

    run(scenario())


def test_plan_cache_eviction_then_reregistration_same_answers():
    async def scenario():
        config = FrontendConfig(plan_cache_capacity=1, max_delay_s=0.001)
        frontend = Frontend(config=config)
        frontend.register_tenant("t1", workload={"q": _reach_program("p")})
        await frontend.insert(
            "t1", [Fact(START, ("e0",)), Fact(EDGE, ("e0", "e1"))]
        )
        await frontend.drain()
        first = await frontend.query("t1", "q")
        # a different workload evicts the reach representative (capacity 1)
        frontend.register_tenant("t2", workload={"q": _conj_program("p")})
        assert frontend.plan_cache.evictions == 1
        # re-registering re-interns a fresh representative: a new group,
        # recompiled from scratch — with identical answers for equal data
        frontend.register_tenant("t3", workload={"q": _reach_program("r")})
        assert frontend.group_count == 3
        await frontend.insert(
            "t3", [Fact(START, ("e0",)), Fact(EDGE, ("e0", "e1"))]
        )
        await frontend.drain()
        again = await frontend.query("t3", "q")
        assert again.answers == first.answers
        await frontend.close()

    run(scenario())


# ---------------------------------------------------------------------------
# explain contract, entry point, reservoir
# ---------------------------------------------------------------------------


def test_explain_frontend_block_validates_and_rejects_malformed():
    async def scenario():
        frontend = Frontend(workload={"q": _conj_program()})
        frontend.register_tenant("t", tier=2)
        await frontend.insert("t", [Fact(A, ("e0",)), Fact(B, ("e0",))])
        await frontend.drain()
        await frontend.query("t", "q")
        report = frontend.explain()
        assert not validate_explain(report)
        block = report["frontend"]
        assert block["snapshots"]["reads"] == 1
        assert block["tenants"]["t"]["tier"] == 2
        assert block["tenants"]["t"]["p50_s"] is not None
        # the validator knows the shape: break it and it must complain
        del block["admission"]["max_pending"]
        assert any(
            "max_pending" in problem for problem in validate_explain(report)
        )
        del report["frontend"]["snapshots"]
        assert any(
            "snapshots" in problem for problem in validate_explain(report)
        )
        await frontend.close()

    run(scenario())


def test_serve_frontend_workload_entry_point():
    async def scenario():
        frontend = serve_frontend_workload(
            {"q": _reach_program()},
            initial_instance=Instance([Fact(START, ("e0",))]),
            tenants=[("gold", 1), ("best-effort", 2)],
        )
        assert frontend.tenant_count == 2
        version = await frontend.insert("gold", [Fact(EDGE, ("e0", "e1"))])
        await frontend.drain()
        assert version == 1
        result = await frontend.query("best-effort", "q")
        assert result.answers == {("e0",), ("e1",)}
        assert not validate_explain(frontend.explain())
        await frontend.close()

    run(scenario())


def test_reservoir_quantiles():
    reservoir = Reservoir(capacity=200)
    assert reservoir.quantile(0.5) is None
    for value in range(1, 101):
        reservoir.observe(float(value))
    assert reservoir.quantile(0.5) == 50.0
    assert reservoir.quantile(0.99) == 99.0
    assert reservoir.quantile(1.0) == 100.0
    assert reservoir.quantile(0.0) == 1.0
    # bounded: old samples age out
    small = Reservoir(capacity=10)
    for value in range(100):
        small.observe(float(value))
    assert len(small) == 10
    assert small.quantile(0.0) == 90.0
    with pytest.raises(ValueError):
        reservoir.quantile(1.5)
