"""Tour: sharded certain-answer serving.

The Theorem 3.3 reduction (ontology-mediated query -> one disjunctive
datalog program) leaves every candidate answer tuple independently
decidable, and the data itself splits into connected components that never
interact under connected, constant-free programs.  A
:class:`ShardedObdaSession` builds on both observations: it
consistent-hash-partitions the Table 1 medical fact stream across
per-shard compiled sessions and merges their certain answers — identical
to a single session, but every shard grounds and solves a fraction of the
data.

Run with ``PYTHONPATH=src python examples/sharded_obda.py``.
"""

import time

from repro.omq.certain import compile_to_mddlog
from repro.service import (
    ObdaSession,
    ShardedObdaSession,
    is_shardable,
    medical_universe,
)
from repro.workloads.medical import example_2_1_omq


def main() -> None:
    print("== compile the Table 1 workload once ==")
    program = compile_to_mddlog(example_2_1_omq())
    print(
        f"bacterial-infection UCQ -> MDDlog: {len(program.rules)} rules, "
        f"shardable={is_shardable(program)}"
    )
    universe = medical_universe(patients=10, generations=6)
    print(f"fact universe: {len(universe)} facts")

    print("\n== sharded serving ==")
    single = ObdaSession({"q1": program})
    sharded = ShardedObdaSession({"q1": program}, shards=4)

    def serve(session):
        started = time.perf_counter()
        session.insert_facts(universe)
        answers = [session.certain_answers("q1")]
        victims = sorted(universe, key=str)[::5]
        for fact in victims:  # churn: delete, re-answer, restore, re-answer
            session.delete_facts([fact])
            answers.append(session.certain_answers("q1"))
            session.insert_facts([fact])
            answers.append(session.certain_answers("q1"))
        return answers, time.perf_counter() - started

    single_answers, single_s = serve(single)
    sharded_answers, sharded_s = serve(sharded)
    assert sharded_answers == single_answers, "sharded answers must be identical"
    print(f"1 shard : {single_s:.2f}s")
    print(
        f"4 shards: {sharded_s:.2f}s ({single_s / sharded_s:.2f}x), "
        f"shard sizes {sharded.shard_sizes()}, "
        f"{sharded.stats.facts_migrated} facts migrated between shards"
    )
    patients = sorted(a[0] for a in sharded.certain_answers("q1"))
    print(f"certain bacterial-infection patients: {patients}")


if __name__ == "__main__":
    main()
