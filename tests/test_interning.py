"""Property tests for the interned columnar core.

The interner is the trust anchor of the whole evaluation path: every join,
fixpoint and grounding runs over its dense int codes and decodes back to
constants only at API boundaries.  These tests pin the two invariants the
design rests on — round-trip fidelity (intern → extern is the identity,
including for distinct constants whose ``repr`` collide) and append-only
code stability — plus the bucket/statistics consistency of the columnar
stores and the translation arrays behind instance union and shard merge.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Fact, Instance, RelationSymbol
from repro.core.instance import MutableIndexedInstance
from repro.core.interning import (
    ColumnarRelation,
    Interner,
    MutableColumnarRelation,
)

A = RelationSymbol("A", 1)
R = RelationSymbol("R", 2)


class SameRepr:
    """Distinct constants whose ``repr`` (and ``str``) collide on purpose.

    Interning must key on the constants themselves, never on their printed
    form — the invariant ``canonical_key`` documents for the join engine.
    """

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "<same>"

    def __eq__(self, other):
        return isinstance(other, SameRepr) and self.tag == other.tag

    def __hash__(self):
        return hash(("SameRepr", self.tag))


def _mixed_pool(rng: random.Random) -> list:
    # no True/1 or 1/1.0 pairs: those are *equal* constants under Python's
    # own semantics, so the interner (correctly) assigns them one code
    pool = [1, 2, "1", "2", (1, 2), ("a",), frozenset({1}), None]
    pool += [SameRepr(0), SameRepr(1)]
    rng.shuffle(pool)
    return pool


@pytest.mark.parametrize("seed", range(10))
def test_intern_extern_round_trip(seed):
    rng = random.Random(seed)
    pool = _mixed_pool(rng)
    interner = Interner()
    codes = {}
    for _ in range(200):
        value = rng.choice(pool)
        code = interner.intern(value)
        # append-only: re-interning returns the original code forever
        assert codes.setdefault(id_key(value), code) == code
        assert interner.value(code) is value or interner.value(code) == value
        assert interner.code(value) == code
        assert value in interner
    # dense: codes are exactly 0..n-1
    assert sorted(codes.values()) == list(range(len(interner)))
    # row round trip over random widths
    for _ in range(50):
        row_values = tuple(rng.choice(pool) for _ in range(rng.randint(0, 4)))
        row = interner.intern_row(row_values)
        assert interner.decode_row(row) == row_values
        assert tuple(interner.decode_many(row)) == row_values


def id_key(value):
    """Identity-ish key distinguishing equal-repr constants in the test."""
    return (type(value).__name__, repr(value), getattr(value, "tag", value))


def test_distinct_constants_with_equal_reprs_stay_distinct():
    left, right = SameRepr(0), SameRepr(1)
    assert repr(left) == repr(right) and left != right
    interner = Interner()
    code_left, code_right = interner.intern(left), interner.intern(right)
    assert code_left != code_right
    assert interner.value(code_left) == left
    assert interner.value(code_right) == right
    # the same invariant observed through the instance API
    instance = Instance([Fact(A, (left,)), Fact(R, (left, right))])
    assert instance.tuples_with(A, 0, left) == frozenset({(left,)})
    assert instance.tuples_with(A, 0, right) == frozenset()
    assert instance.facts_with_constant(right) == frozenset(
        {Fact(R, (left, right))}
    )
    assert len(instance.active_domain) == 2


def test_unknown_values_have_no_code():
    interner = Interner()
    interner.intern("known")
    assert interner.code("unknown") is None
    assert "unknown" not in interner
    assert len(interner) == 1


@pytest.mark.parametrize("seed", range(5))
def test_remap_from_translates_codes(seed):
    rng = random.Random(100 + seed)
    pool = _mixed_pool(rng)
    left, right = Interner(), Interner()
    for _ in range(30):
        left.intern(rng.choice(pool))
    for _ in range(30):
        right.intern(rng.choice(pool))
    mapping = left.remap_from(right)
    assert len(mapping) == len(right)
    for code in range(len(right)):
        assert left.value(mapping[code]) == right.value(code)
    # self-remap is the identity
    assert left.remap_from(left) == list(range(len(left)))


@pytest.mark.parametrize("seed", range(5))
def test_columnar_buckets_match_linear_scans(seed):
    rng = random.Random(200 + seed)
    rows = {
        (rng.randint(0, 5), rng.randint(0, 5)) for _ in range(rng.randint(0, 40))
    }
    frozen = ColumnarRelation(2, frozenset(rows))
    mutable = MutableColumnarRelation(2)
    mutable.bucket(0, 0)  # force buckets early: adds maintain them in place
    for row in rows:
        assert mutable.add(row)
        assert not mutable.add(row)
    for store in (frozen, mutable, mutable.freeze()):
        assert set(store.rows) == rows
        for position in (0, 1):
            for code in range(-1, 7):
                expected = frozenset(
                    row for row in rows if row[position] == code
                )
                assert frozenset(store.bucket(position, code)) == expected
        assert store.distinct_counts() == tuple(
            len({row[position] for row in rows}) for position in (0, 1)
        )
    assert frozen.sorted_rows() == tuple(sorted(rows))
    # no-op edits return the same object; real edits rebuild lazily
    assert frozen.with_rows(list(rows)) is frozen
    assert frozen.without_rows([(9, 9)]) is frozen
    grown = frozen.with_rows([(9, 9)])
    assert (9, 9) in grown.rows and (9, 9) not in frozen.rows


_S = RelationSymbol("S", 3)
_RELATIONS = (A, R, _S)
_POOL = ("c0", "c1", "c2", "c3", "c4")


def _fact_strategy():
    return st.sampled_from(_RELATIONS).flatmap(
        lambda relation: st.tuples(
            st.just(relation),
            st.tuples(*[st.sampled_from(_POOL)] * relation.arity),
        )
    ).map(lambda pair: Fact(*pair))


def _assert_matches_rebuilt(store: MutableIndexedInstance, live: set, universe: set) -> None:
    """Every observable of the in-place store equals a store rebuilt from
    the surviving facts: each built bucket (no stale or empty ones),
    ``distinct_counts``, ``column_stats``, ``len``, membership, decoded
    views and the active domain."""
    rebuilt = Instance(live)
    interner = store.interner
    assert len(store) == len(live)
    assert store.active_domain == set(rebuilt.active_domain)
    for relation in _RELATIONS:
        assert store.column_stats(relation) == rebuilt.column_stats(relation)
        assert store.tuples(relation) == rebuilt.tuples(relation)
        column = store._columns.get(relation)
        if column is None or column._buckets is None:
            continue
        assert column.distinct_counts() == rebuilt.column(relation).distinct_counts()
        for position, index in enumerate(column._buckets):
            assert {interner.value(code) for code in index} == rebuilt.position_values(
                relation, position
            )
            for code, bucket in index.items():
                decoded = frozenset(map(interner.decode_row, bucket))
                assert decoded == rebuilt.tuples_with(relation, position, interner.value(code))
    for fact in universe:
        assert (fact in store) == (fact in live)


@settings(max_examples=150, deadline=None)
@given(
    initial=st.lists(_fact_strategy(), max_size=8),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["add", "remove", "force", "view"]),
            _fact_strategy(),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=30,
    ),
)
def test_in_place_removal_matches_a_rebuilt_store(initial, steps):
    """Random row adds and removals over three relations, with buckets
    forced and decoded views cached at random points, leave the mutable
    store equal to one rebuilt from the surviving rows after every step,
    and ``freeze()`` equal to the instance of those facts."""
    live = set(initial)
    universe = live | {fact for _, fact, _ in steps}
    store = MutableIndexedInstance(Instance(initial))
    for kind, fact, pick in steps:
        if kind == "force":
            store.row_bucket(fact.relation, 0, store.interner.intern(fact.arguments[0]))
        elif kind == "view":
            store.tuples(fact.relation)
        else:
            if kind == "remove" and live and pick % 4:
                # mostly remove a live fact, so most removals change the store
                fact = sorted(live, key=str)[pick % len(live)]
            row = store.interner.intern_row(fact.arguments)
            if kind == "add":
                assert store.add_row(fact.relation, row) == (fact not in live)
                live.add(fact)
            else:
                assert store.remove_row(fact.relation, row) == (fact in live)
                live.discard(fact)
        _assert_matches_rebuilt(store, live, universe)
    frozen = store.freeze()
    assert frozen == Instance(live)
    assert frozen.active_domain == Instance(live).active_domain
