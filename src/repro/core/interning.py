"""Constant interning and columnar relation storage.

The evaluation core stores every relation as a set of *int rows*: tuples of
dense integer codes assigned to constants by an append-only
:class:`Interner`.  Joins, fixpoints, delta maintenance and grounding all
operate on int rows — hashing and comparing machine integers instead of
arbitrary (often tuple- or string-shaped) constants — and decode back to
constants only at API boundaries.

Two invariants make the design safe:

* **Interners are append-only.**  A code, once assigned, stands for the
  same constant forever; codes are never reused even when every fact
  mentioning the constant is deleted.  Delta copies of an instance therefore
  *share* their parent's interner (``with_facts`` / ``without_facts`` /
  fixpoint stores all extend one interner in place), and a row interned in
  one epoch stays valid in every later epoch.
* **Interning is injective on constants, not on reprs.**  Codes are keyed by
  the constants themselves (dict identity-of-equality), so distinct
  constants with identical ``repr`` stay distinct — the same invariant the
  join engine's ``canonical_key`` documents for assignment dedup.

:class:`ColumnarRelation` is the frozen per-relation store: a set of int
rows with a lazily sorted run (for merge-style comparisons) and lazily built
per-position secondary indexes mapping a code to the rows carrying it at
that position.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Iterator, Sequence

IntRow = tuple  # tuple[int, ...]

_EMPTY_ROWSET: frozenset = frozenset()


class Interner:
    """An append-only bidirectional constant ↔ dense-int mapping."""

    __slots__ = ("_codes", "_values")

    def __init__(self) -> None:
        self._codes: dict[Hashable, int] = {}
        self._values: list[Hashable] = []

    def __len__(self) -> int:
        return len(self._values)

    def __contains__(self, value: object) -> bool:
        return value in self._codes

    def intern(self, value: Hashable) -> int:
        """The code of ``value``, assigning the next dense int if it is new."""
        code = self._codes.get(value)
        if code is None:
            code = len(self._values)
            self._codes[value] = code
            self._values.append(value)
        return code

    def intern_row(self, arguments: Sequence[Hashable]) -> IntRow:
        """Intern a whole argument tuple into an int row."""
        codes = self._codes
        values = self._values
        row = []
        for value in arguments:
            code = codes.get(value)
            if code is None:
                code = len(values)
                codes[value] = code
                values.append(value)
            row.append(code)
        return tuple(row)

    def code(self, value: Hashable) -> int | None:
        """The code of ``value`` if it was ever interned, else ``None``."""
        return self._codes.get(value)

    def value(self, code: int) -> Hashable:
        """The constant a code stands for."""
        return self._values[code]

    def decode_row(self, row: IntRow) -> tuple:
        """Decode an int row back into a constant tuple."""
        values = self._values
        return tuple(values[code] for code in row)

    def decode_many(self, codes: Iterable[int]) -> Iterator[Hashable]:
        values = self._values
        return (values[code] for code in codes)

    def remap_from(self, other: "Interner") -> list[int]:
        """A translation array ``other`` code → ``self`` code.

        Used by interner-merge operations (instance union, shard merge):
        each *distinct* constant of ``other`` is interned once into
        ``self``, and rows are then translated by O(1) list lookups per
        occurrence instead of re-hashing every constant of every row.
        """
        if other is self:
            return list(range(len(self._values)))
        return [self.intern(value) for value in other._values]


class ColumnarRelation:
    """A frozen relation: a set of int rows plus lazy secondary structure.

    ``rows`` is the membership set; :meth:`sorted_rows` is the lazily
    computed sorted run (int rows sort lexicographically without touching
    the underlying constants); :meth:`bucket` serves the per-position
    secondary index (code → rows carrying the code at that position),
    built once per position family on first use and shared by delta copies
    for relations an update does not touch.
    """

    __slots__ = ("arity", "rows", "_sorted", "_buckets")

    def __init__(self, arity: int, rows: frozenset) -> None:
        self.arity = arity
        self.rows = rows
        self._sorted: tuple | None = None
        self._buckets: tuple[dict[int, frozenset], ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_rows(self) -> tuple:
        """The rows as one sorted run (cached)."""
        if self._sorted is None:
            self._sorted = tuple(sorted(self.rows))
        return self._sorted

    def _force_buckets(self) -> tuple[dict[int, frozenset], ...]:
        if self._buckets is None:
            builders: tuple[dict[int, set], ...] = tuple(
                {} for _ in range(self.arity)
            )
            for row in self.rows:
                for position, code in enumerate(row):
                    bucket = builders[position].get(code)
                    if bucket is None:
                        builders[position][code] = {row}
                    else:
                        bucket.add(row)
            self._buckets = tuple(
                {code: frozenset(rows) for code, rows in builder.items()}
                for builder in builders
            )
        return self._buckets

    def bucket(self, position: int, code: int) -> frozenset:
        """All rows carrying ``code`` at ``position``."""
        return self._force_buckets()[position].get(code, _EMPTY_ROWSET)

    def distinct_counts(self) -> tuple[int, ...]:
        """Distinct codes per position (the planner's column statistics)."""
        return tuple(len(index) for index in self._force_buckets())

    def with_rows(self, added: Iterable[IntRow]) -> "ColumnarRelation":
        """A new store with rows added (buckets rebuilt lazily)."""
        rows = self.rows | frozenset(added)
        if len(rows) == len(self.rows):
            return self
        return ColumnarRelation(self.arity, rows)

    def without_rows(self, removed: Iterable[IntRow]) -> "ColumnarRelation":
        """A new store with rows removed (buckets rebuilt lazily)."""
        rows = self.rows - frozenset(removed)
        if len(rows) == len(self.rows):
            return self
        return ColumnarRelation(self.arity, rows)


class MutableColumnarRelation:
    """The mutable counterpart used by in-place fixpoint stores.

    Rows live in one plain set updated by :meth:`add` and :meth:`remove`;
    the per-position buckets are built lazily and then maintained
    incrementally (a bucket emptied by a removal is dropped), so distinct
    counts and bucket probes stay exact and O(1) across fixpoint rounds and
    DRed epochs instead of being rebuilt.
    """

    __slots__ = ("arity", "rows", "_buckets")

    def __init__(self, arity: int, rows: Iterable[IntRow] = ()) -> None:
        self.arity = arity
        self.rows: set = set(rows)
        self._buckets: tuple[dict[int, set], ...] | None = None

    def __len__(self) -> int:
        return len(self.rows)

    def add(self, row: IntRow) -> bool:
        if row in self.rows:
            return False
        self.rows.add(row)
        if self._buckets is not None:
            for position, code in enumerate(row):
                bucket = self._buckets[position].get(code)
                if bucket is None:
                    self._buckets[position][code] = {row}
                else:
                    bucket.add(row)
        return True

    def remove(self, row: IntRow) -> bool:
        if row not in self.rows:
            return False
        self.rows.remove(row)
        if self._buckets is not None:
            for position, code in enumerate(row):
                index = self._buckets[position]
                bucket = index[code]
                if len(bucket) == 1:
                    del index[code]
                else:
                    bucket.remove(row)
        return True

    def _force_buckets(self) -> tuple[dict[int, set], ...]:
        if self._buckets is None:
            builders: tuple[dict[int, set], ...] = tuple(
                {} for _ in range(self.arity)
            )
            for row in self.rows:
                for position, code in enumerate(row):
                    bucket = builders[position].get(code)
                    if bucket is None:
                        builders[position][code] = {row}
                    else:
                        bucket.add(row)
            self._buckets = builders
        return self._buckets

    def bucket(self, position: int, code: int) -> set | frozenset:
        return self._force_buckets()[position].get(code, _EMPTY_ROWSET)

    def distinct_counts(self) -> tuple[int, ...]:
        return tuple(len(index) for index in self._force_buckets())

    def freeze(self) -> ColumnarRelation:
        """An immutable snapshot donating the built buckets."""
        frozen = ColumnarRelation(self.arity, frozenset(self.rows))
        if self._buckets is not None:
            frozen._buckets = tuple(
                {code: frozenset(rows) for code, rows in index.items()}
                for index in self._buckets
            )
        return frozen
