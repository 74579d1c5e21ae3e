"""The benchmark's three workloads, each driven inside one worker process.

A workload object is built from the worker's seed, then:

* ``setup()`` does everything a user pays before the first timed operation;
* ``unit(seconds)`` runs one unit of measured work and returns its latency
  samples (closed loops ignore ``seconds``: a unit is a fixed amount of work;
  the open loop offers requests for ``seconds``);
* ``verify()`` checks every recorded output outside the timed region and
  returns the number of operations whose outputs were wrong.

``attempted`` and ``failed`` count operations; a refused, degraded or
timed-out request counts as failed, and so does a wrong answer.  ``tiers``
records where each served query was routed, and ``routing_errors`` every
routing that differed from the expected tier (a silent re-route would make
the run measure something else).
"""

from __future__ import annotations

import asyncio
import contextvars
import random
import statistics
import time

from hostspeed import HostPace, ScaledClock
from repro.core import Atom, Fact, Instance, RelationSymbol, Variable
from repro.datalog import DisjunctiveDatalogProgram, Rule, goal_atom
from repro.engine.grounder import ground_program
from repro.omq.certain import compile_to_mddlog
from repro.service import (
    Frontend,
    FrontendError,
    ObdaSession,
    medical_universe,
    random_stream,
    replay_commit_log,
)
from repro.service.workload import DELETE, INSERT, StreamEvent
from repro.workloads.medical import (
    example_2_1_omq,
    example_2_2_q1_omq,
    example_2_2_q2_omq,
    family_instance,
    patient_instance,
)

now = time.perf_counter

HAS_FINDING = RelationSymbol("HasFinding", 2)
HAS_DIAGNOSIS = RelationSymbol("HasDiagnosis", 2)
HAS_PARENT = RelationSymbol("HasParent", 2)
ERYTHEMA_MIGRANS = RelationSymbol("ErythemaMigrans", 1)
LYME_DISEASE = RelationSymbol("LymeDisease", 1)
LISTERIOSIS = RelationSymbol("Listeriosis", 1)
PREDISPOSITION = RelationSymbol("HereditaryPredisposition", 1)
DERIVED = RelationSymbol("P__derived", 1)


def predisposition_rewriting(tag: str = "") -> DisjunctiveDatalogProgram:
    """Example 2.2's datalog rewriting of q2 (recursive, tier 1)."""
    x, y = Variable(f"{tag}x"), Variable(f"{tag}y")
    return DisjunctiveDatalogProgram(
        [
            Rule((Atom(DERIVED, (x,)),), (Atom(PREDISPOSITION, (x,)),)),
            Rule(
                (Atom(DERIVED, (x,)),),
                (Atom(HAS_PARENT, (x, y)), Atom(DERIVED, (y,))),
            ),
            Rule((goal_atom(x),), (Atom(DERIVED, (x,)),)),
        ]
    )


def bacterial_ucq_rewriting(tag: str = "") -> DisjunctiveDatalogProgram:
    """Example 2.1's UCQ rewriting (tier 0): a diagnosis of Lyme disease or
    Listeriosis, or a finding of Erythema Migrans."""
    x, y = Variable(f"{tag}x"), Variable(f"{tag}y")
    return DisjunctiveDatalogProgram(
        [
            Rule(
                (goal_atom(x),),
                (Atom(HAS_DIAGNOSIS, (x, y)), Atom(LYME_DISEASE, (y,))),
            ),
            Rule(
                (goal_atom(x),),
                (Atom(HAS_DIAGNOSIS, (x, y)), Atom(LISTERIOSIS, (y,))),
            ),
            Rule(
                (goal_atom(x),),
                (Atom(HAS_FINDING, (x, y)), Atom(ERYTHEMA_MIGRANS, (y,))),
            ),
        ]
    )


class _Workload:
    #: An open-loop unit offers requests for the whole time it is given;
    #: closed-loop units are fixed amounts of work, repeated to fill it.
    open_loop = False
    #: Windows an open-loop worker splits its time into.
    windows = 1

    def __init__(self, seed: int, index: int) -> None:
        self.index = index
        self.rng = random.Random(f"{seed}:{index}")
        self.units = 0
        self.attempted = 0
        self.failed = 0
        self.tiers: dict[str, int] = {}
        self.routing_errors: list[str] = []
        self.info: dict = {}

    def checkpoint(self) -> tuple:
        """The input cursor; :meth:`rewind` makes the next unit repeat."""
        return self.rng.getstate(), self.units

    def rewind(self, checkpoint: tuple) -> None:
        state, self.units = checkpoint
        self.rng.setstate(state)

    def _route(self, name: str, tier: int, expected: int) -> None:
        self.tiers[name] = tier
        if tier != expected:
            self.routing_errors.append(f"{name} routed to tier {tier}, expected {expected}")


# ---------------------------------------------------------------------------
# oneshot-table1: the paper's Table 1 as a one-shot user runs it
# ---------------------------------------------------------------------------


class OneshotTable1(_Workload):
    """Closed loop, one caller: certain answers and the Theorem 3.3 compile.

    Every pass builds fresh OMQs (no engine or type-system state survives
    between passes) over the paper's instances with their individuals
    renamed by the seed, which varies every name-ordered search without
    changing the answers the paper states.
    """

    def setup(self) -> None:
        suffix = f"_{self.rng.randrange(10**6)}"
        patients = patient_instance()
        family = family_instance(4)
        self.rename = {
            constant: f"{constant}{suffix}"
            for constant in patients.active_domain | family.active_domain
        }
        self.expected = {
            "ex21": {("patient1" + suffix,), ("patient2" + suffix,)},
            "q1": {("may7diag2" + suffix,)},
            "q2": {(f"person{i}{suffix}",) for i in range(5)},
        }
        self.outputs: list[tuple[str, frozenset]] = []
        self.compiled: dict[str, tuple] = {}
        self.clock: ScaledClock | None = None

    def unit(self, seconds: float) -> dict:
        if self.clock is None:
            self.clock = ScaledClock(gap_s=0.0)
        clock = self.clock
        samples = {"answer_ex21_ms": [], "answer_q1_ms": [], "answer_q2_ms": [], "update_ms": []}
        patients = patient_instance().rename(self.rename)
        family = family_instance(4).rename(self.rename)
        queries = (
            ("ex21", example_2_1_omq(), patients),
            ("q1", example_2_2_q1_omq(), patients),
            ("q2", example_2_2_q2_omq(), family),
        )
        for name, omq, data in queries:
            start = now()
            answers = omq.certain_answers(data, engine="auto")
            clock.record(samples[f"answer_{name}_ms"], now() - start)
            self.outputs.append((name, answers))
        for name, omq, data in queries:
            start = now()
            program = compile_to_mddlog(omq)
            clock.record(samples["update_ms"], now() - start)
            self.compiled[name] = (program, data)
            self.info.setdefault("rules", {})[name] = len(program.rules)
        clock.flush()
        samples["answer_ms"] = [samples[f"answer_{name}_ms"][0] for name, _omq, _data in queries]
        self.info["host_speed"] = clock.summary()
        self.attempted += 2 * len(queries)
        return samples

    def verify(self) -> int:
        wrong = sum(1 for name, answers in self.outputs if answers != self.expected[name])
        # A compiled MDDlog program must give the paper's certain answers
        # too.  Grounding 7.6k rules is not free, so the first three workers
        # of a run each check the last compile of one query.
        if self.index < len(self.compiled):
            name = sorted(self.compiled)[self.index]
            program, data = self.compiled[name]
            if ground_program(program, data).certain_answers() != self.expected[name]:
                wrong += 1
        return wrong


# ---------------------------------------------------------------------------
# serve-table1: the Table 1 update stream through one serving session
# ---------------------------------------------------------------------------


class ServeTable1(_Workload):
    """Closed loop, one client replaying the Table 1 update stream.

    The session serves compiled Example 2.1 (tier 2) and Example 2.2's q2
    datalog rewriting (tier 1) and answers every query after every update,
    as ``bench_service_streaming.py::test_streaming_medical_workload`` does.
    Each unit replays one 100-update stream from a fresh session over the
    same compiled programs; the first session is part of set-up.
    """

    STREAM_LENGTH = 100
    #: ``bench_service_streaming``'s stream seed.  Worker k of a run's five
    #: replays streams 11 + k, 11 + k + 5, ...: every run covers the same
    #: stream shapes (the shape alone moves query cost by a quarter), and
    #: the run seed varies the individuals' names, through them every
    #: name-ordered choice of the solver, and which worker gets which of the
    #: run's fixed hash seeds.
    FIRST_STREAM = 11
    STREAM_STRIDE = 5
    CHECKS_PER_STREAM = 1

    def setup(self) -> None:
        self.programs = {
            "q1_bacterial": compile_to_mddlog(example_2_1_omq()),
            "q2_predisposition": predisposition_rewriting(),
        }
        self.session = self._session()
        self.universe = medical_universe(patients=4, generations=3)
        self.suffix = f"_{self.rng.randrange(10**6)}"
        self.checks: list[tuple[object, dict]] = []
        self.clock: ScaledClock | None = None

    def _stream(self) -> list[StreamEvent]:
        seed = self.FIRST_STREAM + self.index + self.STREAM_STRIDE * self.units
        events = random_stream(self.universe, self.STREAM_LENGTH, seed=seed, query_every=1)
        return [
            StreamEvent(
                event.kind,
                tuple(
                    Fact(fact.relation, tuple(f"{value}{self.suffix}" for value in fact.arguments))
                    for fact in event.facts
                ),
            )
            for event in events
        ]

    def _session(self) -> ObdaSession:
        session = ObdaSession(self.programs)
        self._route("q1_bacterial", session.plan("q1_bacterial").tier, 2)
        self._route("q2_predisposition", session.plan("q2_predisposition").tier, 1)
        return session

    def unit(self, seconds: float) -> dict:
        session = self.session if self.session is not None else self._session()
        self.session = None
        events = self._stream()
        self.units += 1
        queries = sum(1 for event in events if event.kind not in (INSERT, DELETE))
        checked = set(self.rng.sample(range(queries), self.CHECKS_PER_STREAM))
        samples = {"answer_ms": [], "update_ms": [], "delete_ms": []}
        # Tier-2 candidate answers decided: the unary query asks about
        # every element of the active domain.
        candidates = 0
        query_index = 0
        if self.clock is None:
            self.clock = ScaledClock(gap_s=0.1)
        clock = self.clock
        for event in events:
            start = now()
            if event.kind == INSERT:
                session.insert_facts(event.facts)
                clock.record(samples["update_ms"], now() - start)
            elif event.kind == DELETE:
                session.delete_facts(event.facts)
                clock.record(samples["delete_ms"], now() - start)
            else:
                answers = session.answer_all()
                clock.record(samples["answer_ms"], now() - start)
                candidates += len(session.instance.active_domain)
                if query_index in checked:
                    self.checks.append((session.instance, answers))
                query_index += 1
        clock.flush()
        self.info["host_speed"] = clock.summary()
        samples["stream_s"] = [
            sum(sum(samples[kind]) for kind in ("answer_ms", "update_ms", "delete_ms")) / 1e3
        ]
        samples["events"] = [len(events)]
        samples["candidates"] = [candidates]
        self.attempted += len(events)
        return samples

    def verify(self) -> int:
        wrong = 0
        for instance, answers in self.checks:
            for name, program in self.programs.items():
                if ground_program(program, instance).certain_answers() != answers[name]:
                    wrong += 1
        return wrong


# ---------------------------------------------------------------------------
# frontend-rewritings: open-loop multi-tenant serving of the paper's rewritings
# ---------------------------------------------------------------------------

#: The read a request task is serving (for the traced run's latency split).
CURRENT_READ: contextvars.ContextVar = contextvars.ContextVar("current_read", default=None)


class _Request:
    __slots__ = (
        "kind", "tenant", "fact", "due", "slowdown", "start", "done", "version", "answers", "error",
        "eval_s",
    )

    def __init__(self, kind: str, tenant: str, fact, due: float) -> None:
        self.kind = kind
        self.tenant = tenant
        self.fact = fact
        self.due = due
        self.slowdown = 1.0
        self.start = self.done = 0.0
        self.version = None
        self.answers = None
        self.error = None
        self.eval_s = 0.0


class FrontendRewritings(_Workload):
    """Open loop over one frontend serving the paper's rewritings.

    Alpha-renamed tenants intern into two groups: Example 2.1's UCQ
    rewriting (tier 0) over a patient table and Example 2.2's q2 datalog
    rewriting (tier 1) over an ancestry forest in which everyone has two
    parents (so DRed deletions re-derive).  Requests arrive as a seeded
    Poisson process at a fixed offered rate, about four reads per write;
    writes delete and re-insert churn facts of either group.  Each request
    is timed from its due time, so a stall also delays the requests queued
    behind it, and the generator's own lateness is recorded.  The schedule
    is paced to the host's speed (``hostspeed.HostPace``), and latencies are
    reported at the reference speed.
    """

    open_loop = True
    #: Two windows per worker: the run's tails are medians over its six
    #: windows, so one window's stall episode does not decide them.
    windows = 2
    TENANTS = 1000
    RATE = 300.0
    READ_SHARE = 0.8
    PATIENTS = 150
    TREES, GENERATIONS, WIDTH = 8, 6, 4

    def __init__(self, seed: int, index: int) -> None:
        super().__init__(seed, index)
        # The generated inputs: what tenants submit, not work the system does.
        self.workloads = [
            {"q": (bacterial_ucq_rewriting if index % 2 == 0 else predisposition_rewriting)(f"v{index}_")}
            for index in range(self.TENANTS)
        ]
        self.patient_records = self._patients()
        self.seed_patients = [fact for record in self.patient_records for fact in record]
        self.seed_forest = self._forest()
        # Writes delete a present fact or re-insert a deleted one: the
        # disease facts and a third of the patients' links; the forest's
        # parent edges.
        patient_churn = [
            fact
            for fact in self.seed_patients
            if fact.relation.arity == 1 or self.rng.random() < 0.3
        ]
        forest_churn = [fact for fact in self.seed_forest if fact.relation == HAS_PARENT]
        #: group -> (present churn facts, deleted ones awaiting re-insertion)
        self.churn = {"ucq": (patient_churn, []), "q2": (forest_churn, [])}
        self.groups = {"ucq": "t0", "q2": "t1"}

    def setup(self) -> None:
        self.frontend = Frontend()
        for index, workload in enumerate(self.workloads):
            self.frontend.register_tenant(f"t{index}", workload=workload)
        # Keep only what the frontend itself retains alive.
        del self.workloads

        async def seed() -> None:
            await self.frontend.insert("t0", self.seed_patients)
            await self.frontend.insert("t1", self.seed_forest)
            await self.frontend.drain()
            for tenant in self.groups.values():
                await self.frontend.query(tenant, "q")

        asyncio.run(seed())
        self._route("ucq", self.frontend.session("t0").plan("q").tier, 0)
        self._route("q2", self.frontend.session("t1").plan("q").tier, 1)
        self.requests: list[_Request] = []

    def _patients(self) -> list[list[Fact]]:
        """One record per patient: a finding, a diagnosis, and at most one
        of Erythema Migrans, Listeriosis or Lyme disease on them."""
        records = []
        for index in range(self.PATIENTS):
            patient, finding, diagnosis = f"pat{index}", f"find{index}", f"diag{index}"
            record = [
                Fact(HAS_FINDING, (patient, finding)),
                Fact(HAS_DIAGNOSIS, (patient, diagnosis)),
            ]
            roll = self.rng.randrange(4)
            if roll == 0:
                record.append(Fact(ERYTHEMA_MIGRANS, (finding,)))
            elif roll == 1:
                record.append(Fact(LISTERIOSIS, (diagnosis,)))
            elif roll == 2:
                record.append(Fact(LYME_DISEASE, (diagnosis,)))
            records.append(record)
        return records

    def _forest(self) -> list[Fact]:
        """Family trees of ``GENERATIONS`` generations of ``WIDTH`` people;
        everyone below the top has two parents in the generation above, and
        half of the top generation carries the predisposition."""
        rng = self.rng
        facts = []
        for tree in range(self.TREES):
            people = [
                [f"p{tree}_{generation}_{slot}" for slot in range(self.WIDTH)]
                for generation in range(self.GENERATIONS)
            ]
            for generation in range(self.GENERATIONS - 1):
                for person in people[generation]:
                    for parent in rng.sample(people[generation + 1], 2):
                        facts.append(Fact(HAS_PARENT, (person, parent)))
            for ancestor in people[-1]:
                if rng.random() < 0.5:
                    facts.append(Fact(PREDISPOSITION, (ancestor,)))
        return facts

    def _schedule(self, seconds: float):
        rng = self.rng
        arrivals = []
        due = 0.0
        while True:
            due += rng.expovariate(self.RATE)
            if due >= seconds:
                return arrivals
            tenant_index = rng.randrange(self.TENANTS)
            tenant = f"t{tenant_index}"
            if rng.random() < self.READ_SHARE:
                arrivals.append(_Request("read", tenant, None, due))
                continue
            present, absent = self.churn["ucq" if tenant_index % 2 == 0 else "q2"]
            if absent and (len(absent) >= 8 or rng.random() < 0.5):
                arrivals.append(_Request("insert", tenant, absent.pop(0), due))
                present.append(arrivals[-1].fact)
            else:
                fact = present.pop(rng.randrange(len(present)))
                absent.append(fact)
                arrivals.append(_Request("delete", tenant, fact, due))

    async def _serve(self, request: _Request) -> None:
        request.start = now()
        frontend = self.frontend
        try:
            if request.kind == "read":
                CURRENT_READ.set(request)
                result = await frontend.query(request.tenant, "q")
                request.version = result.version
                request.answers = result.answers
                if result.degraded:
                    request.error = "degraded"
            elif request.kind == "insert":
                request.version = await frontend.insert(request.tenant, [request.fact])
            else:
                request.version = await frontend.delete(request.tenant, [request.fact])
        except FrontendError as error:
            request.error = type(error).__name__
        request.done = now()

    async def _segment(self, arrivals: list[_Request], lateness: list[float]) -> None:
        loop = asyncio.get_running_loop()
        tasks = []
        pace = HostPace()
        due = now() + 0.01
        offered = 0.0
        for request in arrivals:
            # ``request.due`` is in reference seconds from the window's start;
            # each gap is stretched by the slowdown the request is offered at.
            request.slowdown = pace.slowdown()
            due += (request.due - offered) * request.slowdown
            offered = request.due
            request.due = due
            delay = due - now()
            if delay > 0:
                await asyncio.sleep(delay)
            lateness.append((now() - due) / request.slowdown)
            tasks.append(loop.create_task(self._serve(request)))
        await asyncio.gather(*tasks)
        await self.frontend.drain()

    def unit(self, seconds: float) -> dict:
        arrivals = self._schedule(seconds)
        lateness: list[float] = []
        busy, wall = time.process_time(), now()
        asyncio.run(self._segment(arrivals, lateness))
        # The offered rate must keep the loop well under half busy, where
        # the tails still respond to the work done, not to queueing alone.
        self.info["loop_busy_share"] = (time.process_time() - busy) / (now() - wall)
        self.info.setdefault("slowdown", []).append(
            statistics.median(request.slowdown for request in arrivals)
        )
        self.requests.extend(arrivals)
        self.attempted += len(arrivals)
        self.failed += sum(1 for request in arrivals if request.error is not None)
        samples = {"answer_ms": [], "update_ms": [], "read_parts": []}
        for request in arrivals:
            latency = request.done - request.due
            scaled_ms = latency / request.slowdown * 1e3
            if request.kind == "read":
                samples["answer_ms"].append(scaled_ms)
                # Raw, like the traced run's busy times it is split against.
                samples["read_parts"].append(
                    [latency, request.start - request.due, request.eval_s]
                )
            else:
                samples["update_ms"].append(scaled_ms)
        samples["late_ms"] = [value * 1e3 for value in lateness]
        return samples

    def verify(self) -> int:
        wrong = 0
        for tenant in self.groups.values():
            group_session = self.frontend.session(tenant)
            reads = [
                request
                for request in self.requests
                if request.kind == "read"
                and request.error is None
                and self.frontend.session(request.tenant) is group_session
            ]
            log = self.frontend.commit_log(tenant)
            replayed = replay_commit_log(
                self.frontend.programs(tenant), log, versions={r.version for r in reads}
            )
            wrong += sum(1 for r in reads if r.answers != replayed[r.version]["q"])
        # Once per run: compiling and grounding Example 2.1 costs a second.
        if self.index == 0:
            wrong += self._rewriting_mismatch()
        return wrong

    def _rewriting_mismatch(self) -> int:
        """The hand-written UCQ rewriting agrees with compiled Example 2.1
        on a seeded sample of the patient table (grounding the compiled
        program over the whole table would take minutes)."""
        records = self.rng.sample(self.patient_records, 9)
        data = Instance([fact for record in records for fact in record])
        compiled = ground_program(compile_to_mddlog(example_2_1_omq()), data).certain_answers()
        rewritten = ground_program(bacterial_ucq_rewriting(), data).certain_answers()
        self.info["rewriting_check"] = {"patients": len(records), "answers": len(compiled)}
        return 0 if compiled == rewritten else 1


WORKLOADS = {
    "oneshot-table1": OneshotTable1,
    "serve-table1": ServeTable1,
    "frontend-rewritings": FrontendRewritings,
}
