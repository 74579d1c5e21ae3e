"""Facts, instances and marked instances (Section 2 of the paper).

An *instance* over a schema ``S`` is a finite set of facts ``R(a1, ..., an)``
with ``R`` in ``S`` and constants ``ai``.  The *active domain* ``adom(D)`` is
the set of constants occurring in facts.  A *marked instance* additionally
carries a tuple of distinguished active-domain elements (Section 4.2).

Internally an instance is an **interned columnar store**: the active domain
is interned to dense integers by an append-only
:class:`~repro.core.interning.Interner`, and every relation is a
:class:`~repro.core.interning.ColumnarRelation` of int rows with lazily
built per-position secondary indexes (code → rows).  The evaluation engine
(:mod:`repro.engine.joins`) operates directly on int rows through the *row
protocol* — :meth:`Instance.relation_rows`, :meth:`Instance.row_bucket`,
:meth:`Instance.column_stats`, :meth:`Instance.sorted_rows` — so joins,
fixpoints and grounding hash machine integers instead of arbitrary
constants.  The classic constant-level views (``tuples``, ``tuples_with``,
``position_values``, ``facts_with_constant``) survive unchanged as lazily
decoded views over the interned store, so every pre-columnar consumer keeps
working.

Delta copies (:meth:`with_facts` / :meth:`without_facts`) *share* the
parent's interner — interners are append-only, so codes remain valid across
epochs — and share the columnar stores (buckets included) of every relation
the update does not touch.  :class:`MutableIndexedInstance` is the in-place
fixpoint store speaking the same row protocol over mutable columns;
:class:`TupleIndexedInstance` preserves the pre-columnar tuple-at-a-time
store for cross-validation and benchmarking against the interned core.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .interning import (
    ColumnarRelation,
    Interner,
    IntRow,
    MutableColumnarRelation,
)
from .schema import RelationSymbol, Schema

Constant = Hashable

_EMPTY_ROWS: frozenset = frozenset()


@dataclass(frozen=True, order=True)
class Fact:
    """A ground fact ``R(a1, ..., an)``."""

    relation: RelationSymbol
    arguments: tuple

    def __post_init__(self) -> None:
        if len(self.arguments) != self.relation.arity:
            raise ValueError(
                f"relation {self.relation} expects {self.relation.arity} "
                f"arguments, got {len(self.arguments)}"
            )

    def __str__(self) -> str:
        args = ", ".join(str(a) for a in self.arguments)
        return f"{self.relation.name}({args})"

    def map(self, mapping: Callable[[Constant], Constant]) -> "Fact":
        return Fact(self.relation, tuple(mapping(a) for a in self.arguments))


def _fact(relation: RelationSymbol, arguments: tuple) -> Fact:
    """Internal Fact constructor for decode paths: the arity is correct by
    construction (rows come from the relation's own column), so the
    dataclass ``__post_init__`` validation is skipped."""
    fact = object.__new__(Fact)
    object.__setattr__(fact, "relation", relation)
    object.__setattr__(fact, "arguments", arguments)
    return fact


class Instance:
    """A finite set of facts over a schema.

    Instances are immutable; set-like operations return new instances.
    The schema is inferred from the facts unless given explicitly (a schema
    may declare symbols that do not occur in any fact).
    """

    __slots__ = (
        "_facts",
        "_schema",
        "_adom",
        "_interner",
        "_columns",
        "_grouped",
        "_tuples_view",
        "_position_view",
        "_by_constant",
    )

    def __init__(
        self,
        facts: Iterable[Fact] = (),
        schema: Schema | None = None,
    ) -> None:
        self._facts: frozenset[Fact] | None = frozenset(facts)
        inferred = Schema(fact.relation for fact in self._facts)
        if schema is None:
            self._schema = inferred
        else:
            for sym in inferred:
                if sym not in schema:
                    raise ValueError(f"fact uses symbol {sym} outside the schema")
            self._schema = schema
        # Interning is lazy: an instance that only ever serves the decoded
        # constant-level API (homomorphism search, DL templates, set algebra
        # over facts) never pays the intern-then-decode round trip.  The
        # interner and columns materialize on first touch of the row
        # protocol — i.e. the first time the instance is joined.
        self._interner: Interner | None = None
        self._columns: dict[RelationSymbol, ColumnarRelation] | None = None
        self._adom: frozenset | None = None
        self._grouped = False
        self._tuples_view: dict[RelationSymbol, frozenset] = {}
        self._position_view: dict[
            RelationSymbol, tuple[dict[Constant, frozenset[tuple]], ...]
        ] = {}
        self._by_constant: dict[Constant, frozenset[Fact]] | None = None

    # -- basic accessors -------------------------------------------------------

    def _force_facts(self) -> frozenset[Fact]:
        if self._facts is None:
            decode = self._interner.decode_row
            self._facts = frozenset(
                _fact(relation, decode(row))
                for relation, column in self._columns.items()
                for row in column.rows
            )
        return self._facts

    def _force_columns(self) -> dict[RelationSymbol, ColumnarRelation]:
        if self._columns is None:
            interner = Interner()
            grouped: dict[RelationSymbol, set] = {}
            for fact in self._facts:
                grouped.setdefault(fact.relation, set()).add(
                    interner.intern_row(fact.arguments)
                )
            self._interner = interner
            self._columns = {
                relation: ColumnarRelation(relation.arity, frozenset(rows))
                for relation, rows in grouped.items()
            }
        return self._columns

    @property
    def facts(self) -> frozenset[Fact]:
        return self._force_facts()

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def active_domain(self) -> frozenset:
        adom = self._adom
        if adom is None:
            adom = self._adom = frozenset(
                argument
                for fact in self._facts
                for argument in fact.arguments
            )
        return adom

    def adom(self) -> frozenset:
        """Alias matching the paper's notation ``adom(D)``."""
        return self.active_domain

    def __iter__(self) -> Iterator[Fact]:
        return iter(self._force_facts())

    def __len__(self) -> int:
        if self._facts is not None:
            return len(self._facts)
        return sum(len(column.rows) for column in self._columns.values())

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        if self._columns is None:
            return fact in self._facts
        column = self._columns.get(fact.relation)
        if column is None:
            return False
        code_of = self._interner.code
        row = []
        for argument in fact.arguments:
            code = code_of(argument)
            if code is None:
                return False
            row.append(code)
        return tuple(row) in column.rows

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Instance):
            return NotImplemented
        if self is other:
            return True
        if (
            self._columns is not None
            and self._interner is other._interner
        ):
            # Same code space: row sets compare without decoding.
            mine = {r: c.rows for r, c in self._columns.items()}
            theirs = {r: c.rows for r, c in other._columns.items()}
            return mine == theirs
        return self._force_facts() == other._force_facts()

    def __hash__(self) -> int:
        return hash(self._force_facts())

    def __repr__(self) -> str:
        shown = ", ".join(sorted(str(f) for f in self._force_facts()))
        return f"Instance({{{shown}}})"

    def is_empty(self) -> bool:
        if self._facts is not None:
            return not self._facts
        return not self._columns

    # -- the interned row protocol ---------------------------------------------

    @property
    def interner(self) -> Interner:
        """The instance's (delta-copy-shared, append-only) interner."""
        self._force_columns()
        return self._interner

    def column(self, relation: RelationSymbol) -> ColumnarRelation | None:
        """The columnar store of ``relation`` (None when it has no facts)."""
        return self._force_columns().get(relation)

    def relation_rows(self, relation: RelationSymbol) -> frozenset:
        """The interned rows of ``relation``."""
        column = self._force_columns().get(relation)
        return column.rows if column is not None else _EMPTY_ROWS

    def row_bucket(
        self, relation: RelationSymbol, position: int, code: int
    ) -> frozenset:
        """All interned rows carrying ``code`` at ``position``."""
        column = self._force_columns().get(relation)
        if column is None:
            return _EMPTY_ROWS
        return column.bucket(position, code)

    def sorted_rows(self, relation: RelationSymbol) -> tuple:
        """The interned rows as one sorted run (cached on the column)."""
        column = self._force_columns().get(relation)
        return column.sorted_rows() if column is not None else ()

    def column_stats(
        self, relation: RelationSymbol | str
    ) -> tuple[int, tuple[int, ...]]:
        """O(1)-amortised ``(row count, per-position distinct counts)``.

        The planner's selectivity estimates read these on every atom; they
        come straight from the column's bucket index sizes, so repeated
        estimation costs dictionary-length lookups, not scans.
        """
        symbol = self._resolve(relation)
        if symbol is None:
            return 0, ()
        column = self._force_columns().get(symbol)
        if column is None:
            return 0, ()
        return len(column.rows), column.distinct_counts()

    # -- indexed access (decoded constant-level views) -------------------------

    def tuples(self, relation: RelationSymbol | str) -> frozenset[tuple]:
        """All argument tuples of facts over ``relation``.

        A lazily decoded (and cached) view over the interned column; delta
        copies share the parent's view for untouched relations.
        """
        if isinstance(relation, str):
            sym = self._schema.get(relation)
            if sym is None:
                return _EMPTY_ROWS
            relation = sym
        view = self._tuples_view.get(relation)
        if view is None:
            if self._columns is not None:
                column = self._columns.get(relation)
                if column is None:
                    return _EMPTY_ROWS
                decode = self._interner.decode_row
                view = frozenset(decode(row) for row in column.rows)
                self._tuples_view[relation] = view
            else:
                # fact-space instance: one grouping pass fills every
                # relation's view without interning anything
                self._group_facts()
                view = self._tuples_view.get(relation, _EMPTY_ROWS)
        return view

    def _group_facts(self) -> None:
        if not self._grouped:
            grouped: dict[RelationSymbol, set[tuple]] = {}
            for fact in self._facts:
                grouped.setdefault(fact.relation, set()).add(fact.arguments)
            for relation, rows in grouped.items():
                self._tuples_view.setdefault(relation, frozenset(rows))
            self._grouped = True

    def _resolve(self, relation: RelationSymbol | str) -> RelationSymbol | None:
        if isinstance(relation, str):
            return self._schema.get(relation)
        return relation

    def _position_index(
        self, relation: RelationSymbol
    ) -> tuple[dict[Constant, frozenset[tuple]], ...]:
        cached = self._position_view.get(relation)
        if cached is None:
            builders: tuple[dict[Constant, set[tuple]], ...] = tuple(
                {} for _ in range(relation.arity)
            )
            for row in self.tuples(relation):
                for position, value in enumerate(row):
                    builders[position].setdefault(value, set()).add(row)
            cached = tuple(
                {value: frozenset(rows) for value, rows in builder.items()}
                for builder in builders
            )
            self._position_view[relation] = cached
        return cached

    def tuples_with(
        self, relation: RelationSymbol | str, position: int, value: Constant
    ) -> frozenset[tuple]:
        """All tuples of ``relation`` carrying ``value`` at ``position``."""
        symbol = self._resolve(relation)
        if symbol is None:
            return _EMPTY_ROWS
        return self._position_index(symbol)[position].get(value, _EMPTY_ROWS)

    def position_values(
        self, relation: RelationSymbol | str, position: int
    ) -> frozenset:
        """The set of constants occurring at ``position`` of ``relation``."""
        symbol = self._resolve(relation)
        if symbol is None:
            return _EMPTY_ROWS
        return frozenset(self._position_index(symbol)[position])

    def position_value_count(
        self, relation: RelationSymbol | str, position: int
    ) -> int:
        """How many distinct constants occur at ``position`` of ``relation``.

        Served from the interned column statistics, so the join planner's
        selectivity estimates stay O(1) per position.
        """
        symbol = self._resolve(relation)
        if symbol is None:
            return 0
        if self._columns is None:
            # fact-space instance: count through the decoded position index
            # rather than forcing interning for a statistics read
            return len(self._position_index(symbol)[position])
        column = self._columns.get(symbol)
        if column is None:
            return 0
        return column.distinct_counts()[position]

    def _force_by_constant(self) -> dict[Constant, frozenset[Fact]]:
        if self._by_constant is None:
            index: dict[Constant, set[Fact]] = {}
            for fact in self._force_facts():
                for argument in fact.arguments:
                    index.setdefault(argument, set()).add(fact)
            self._by_constant = {
                value: frozenset(facts) for value, facts in index.items()
            }
        return self._by_constant

    def facts_with_constant(self, constant: Constant) -> frozenset[Fact]:
        """All facts mentioning ``constant`` (served from the per-constant index)."""
        return self._force_by_constant().get(constant, _EMPTY_ROWS)

    # -- construction ----------------------------------------------------------

    @classmethod
    def _from_parts(
        cls,
        facts: frozenset[Fact] | None,
        schema: Schema,
        adom: frozenset,
        interner: Interner,
        columns: dict[RelationSymbol, ColumnarRelation],
        tuples_view: dict[RelationSymbol, frozenset] | None = None,
        position_view: (
            dict[RelationSymbol, tuple[dict[Constant, frozenset[tuple]], ...]] | None
        ) = None,
        by_constant: dict[Constant, frozenset[Fact]] | None = None,
    ) -> "Instance":
        """Internal fast path for delta copies, fixpoint freezes and interner
        merges: trust prebuilt parts.  ``facts`` may be ``None`` — the fact
        set is then decoded lazily from the columns on first use."""
        instance = cls.__new__(cls)
        instance._facts = facts
        instance._schema = schema
        instance._adom = adom
        instance._interner = interner
        instance._columns = columns
        instance._grouped = False
        instance._tuples_view = tuples_view if tuples_view is not None else {}
        instance._position_view = (
            position_view if position_view is not None else {}
        )
        instance._by_constant = by_constant
        return instance

    def _derived_position_view(
        self, touched: set[RelationSymbol]
    ) -> dict[RelationSymbol, tuple[dict[Constant, frozenset[tuple]], ...]]:
        """Share the parent's decoded per-position views for untouched
        relations; touched relations rebuild lazily on demand."""
        return {
            rel: index
            for rel, index in self._position_view.items()
            if rel not in touched
        }

    def _derived_tuples_view(
        self,
        delta_rows: dict[RelationSymbol, set[tuple]],
        removing: bool,
    ) -> dict[RelationSymbol, frozenset]:
        """Delta-update the decoded ``tuples`` views the parent has built.

        Views the parent never built stay unbuilt in the child (they decode
        lazily if and when queried); built views are updated from the
        constant-level delta instead of being re-decoded.
        """
        view: dict[RelationSymbol, frozenset] = {}
        for rel, cached in self._tuples_view.items():
            delta = delta_rows.get(rel)
            if delta is None:
                view[rel] = cached
            elif removing:
                remaining = cached - delta
                if remaining:
                    view[rel] = remaining
            else:
                view[rel] = cached | delta
        return view

    def with_facts(self, facts: Iterable[Fact]) -> "Instance":
        """Extend by facts, delta-copying the interned columnar store.

        The child shares the parent's interner (append-only: codes stay
        valid) and the column objects — buckets included — of every
        relation the delta does not touch.  The schema is the parent schema
        grown by the symbols of the new facts — declared-but-empty
        relations are preserved, so a compiled query mentioning a relation
        keeps resolving it across the whole update stream.
        """
        added = {f for f in facts if f not in self}
        if not added:
            return self
        self._force_columns()
        new_facts = self._force_facts() | added
        adom = self.active_domain | {a for fact in added for a in fact.arguments}
        interner = self._interner
        added_rows: dict[RelationSymbol, set[IntRow]] = {}
        added_tuples: dict[RelationSymbol, set[tuple]] = {}
        for fact in added:
            added_rows.setdefault(fact.relation, set()).add(
                interner.intern_row(fact.arguments)
            )
            added_tuples.setdefault(fact.relation, set()).add(fact.arguments)
        touched = set(added_rows)
        columns = dict(self._columns)
        for relation, rows in added_rows.items():
            column = columns.get(relation)
            if column is None:
                columns[relation] = ColumnarRelation(
                    relation.arity, frozenset(rows)
                )
            else:
                columns[relation] = column.with_rows(rows)
        by_constant = None
        if self._by_constant is not None:
            by_constant = dict(self._by_constant)
            for fact in added:
                for argument in fact.arguments:
                    by_constant[argument] = by_constant.get(
                        argument, _EMPTY_ROWS
                    ) | {fact}
        new_symbols = [rel for rel in touched if rel not in self._schema]
        schema = (
            self._schema.union(new_symbols) if new_symbols else self._schema
        )
        return Instance._from_parts(
            new_facts,
            schema,
            adom,
            interner,
            columns,
            self._derived_tuples_view(added_tuples, removing=False),
            self._derived_position_view(touched),
            by_constant,
        )

    def without_facts(self, facts: Iterable[Fact]) -> "Instance":
        """Remove facts, delta-copying the interned columnar store.

        Constants are dropped from the active domain through the
        per-constant index (built once on the parent and carried forward),
        so a long chain of streaming deletions costs one scan total instead
        of one per step.  The interner is still shared — codes of dropped
        constants simply go stale until (if ever) the constant returns.
        The parent schema is preserved even when a relation loses its last
        fact: shrinking it made a compiled session/query that still
        mentions the relation unable to resolve it by name on the
        delete-to-empty instance (and re-inference on the next insert
        flip-flopped the schema), so an emptied relation stays declared.
        """
        removed_set = {f for f in facts if f in self}
        if not removed_set:
            return self
        self._force_columns()
        new_facts = self._force_facts() - removed_set
        interner = self._interner
        removed_rows: dict[RelationSymbol, set[IntRow]] = {}
        removed_tuples: dict[RelationSymbol, set[tuple]] = {}
        for fact in removed_set:
            removed_rows.setdefault(fact.relation, set()).add(
                interner.intern_row(fact.arguments)
            )
            removed_tuples.setdefault(fact.relation, set()).add(fact.arguments)
        touched = set(removed_rows)
        columns = dict(self._columns)
        for relation, rows in removed_rows.items():
            column = columns[relation].without_rows(rows)
            if column.rows:
                columns[relation] = column
            else:
                del columns[relation]
        # The per-constant index decides which constants leave the domain.
        by_constant = dict(self._force_by_constant())
        dropped: set[Constant] = set()
        for constant in {a for fact in removed_set for a in fact.arguments}:
            remaining_facts = by_constant.get(constant, _EMPTY_ROWS) - removed_set
            if remaining_facts:
                by_constant[constant] = remaining_facts
            else:
                by_constant.pop(constant, None)
                dropped.add(constant)
        return Instance._from_parts(
            new_facts,
            self._schema,
            self.active_domain - dropped,
            interner,
            columns,
            self._derived_tuples_view(removed_tuples, removing=True),
            self._derived_position_view(touched),
            by_constant,
        )

    def union(self, other: "Instance") -> "Instance":
        """Set union, implemented as interner merge + column concatenation.

        When both operands share one interner (delta copies of a common
        ancestor — the frequent case inside sessions), rows union directly;
        otherwise the right operand's code space is translated through one
        ``remap_from`` pass (one dict probe per *distinct* constant) and
        its rows are re-coded by O(1) array lookups — never by re-hashing
        every constant of every fact.
        """
        if other is self or other.is_empty():
            return self
        if self.is_empty() and self._schema == other._schema:
            return other
        self._force_columns()
        other._force_columns()
        interner = self._interner
        if other._interner is interner:

            def translate(rows: frozenset) -> frozenset:
                return rows
        else:
            mapping = interner.remap_from(other._interner)

            def translate(rows: frozenset) -> frozenset:
                return frozenset(
                    tuple(mapping[code] for code in row) for row in rows
                )

        columns = dict(self._columns)
        touched: set[RelationSymbol] = set()
        for relation, column in other._columns.items():
            mine = columns.get(relation)
            if mine is None:
                columns[relation] = ColumnarRelation(
                    relation.arity, translate(column.rows)
                )
                touched.add(relation)
            else:
                merged = mine.with_rows(translate(column.rows))
                if merged is not mine:
                    columns[relation] = merged
                    touched.add(relation)
        new_symbols = [
            rel for rel in other._columns if rel not in self._schema
        ]
        schema = (
            self._schema.union(new_symbols) if new_symbols else self._schema
        )
        facts = None
        if self._facts is not None and other._facts is not None:
            facts = self._facts | other._facts
        return Instance._from_parts(
            facts,
            schema,
            self.active_domain | other.active_domain,
            interner,
            columns,
            self._derived_tuples_view(
                {rel: set(other.tuples(rel)) for rel in touched},
                removing=False,
            ),
            self._derived_position_view(touched),
        )

    def __or__(self, other: "Instance") -> "Instance":
        return self.union(other)

    @classmethod
    def merge(
        cls, instances: Sequence["Instance"], extra_facts: Iterable[Fact] = ()
    ) -> "Instance":
        """The union of many instances by interner merge + row translation.

        The shard-merge primitive: the largest operand donates its interner
        and columns, every other operand ships its rows plus a one-shot
        code-translation dictionary.  Constants are hashed once per
        distinct value per operand, not once per occurrence.
        """
        instances = [inst for inst in instances if not inst.is_empty()]
        if not instances:
            return cls(extra_facts)
        base = max(instances, key=len)
        merged = base
        for inst in instances:
            if inst is not base:
                merged = merged.union(inst)
        extra = list(extra_facts)
        if extra:
            merged = merged.with_facts(extra)
        return merged

    def restrict_to_schema(self, schema: Schema) -> "Instance":
        """The reduct of this instance to the given schema."""
        return Instance(
            (f for f in self._force_facts() if f.relation in schema),
            schema=schema,
        )

    def restrict_to_domain(self, elements: Iterable[Constant]) -> "Instance":
        """The induced sub-instance on the given elements."""
        kept = set(elements)
        return Instance(
            f for f in self._force_facts() if all(a in kept for a in f.arguments)
        )

    def rename(self, mapping: Mapping[Constant, Constant]) -> "Instance":
        """Apply a renaming of constants (identity outside the mapping).

        Runs in the interned code space: the mapping is applied once per
        *distinct* constant to build a code-translation array, rows are
        re-coded by array lookups, and the fact set decodes lazily.  The
        renaming need not be injective — collapsed rows deduplicate in the
        row sets exactly as collapsed facts used to.
        """
        self._force_columns()
        old = self._interner
        interner = Interner()
        translate = [
            interner.intern(mapping.get(value, value))
            for value in old.decode_many(range(len(old)))
        ]
        columns = {
            relation: ColumnarRelation(
                relation.arity,
                frozenset(
                    tuple(translate[code] for code in row)
                    for row in column.rows
                ),
            )
            for relation, column in self._columns.items()
        }
        adom = frozenset(
            mapping.get(value, value) for value in self.active_domain
        )
        return Instance._from_parts(
            None, Schema(columns), adom, interner, columns
        )

    def disjoint_union(self, other: "Instance") -> "Instance":
        """Disjoint union; elements are tagged with 0 / 1 to force disjointness."""
        left = self.rename({a: (0, a) for a in self.active_domain})
        right = other.rename({a: (1, a) for a in other.active_domain})
        return left.union(right)

    # -- convenience builders --------------------------------------------------

    @classmethod
    def from_tuples(
        cls,
        schema: Schema,
        data: Mapping[str, Iterable[Sequence]],
    ) -> "Instance":
        """Build an instance from ``{relation name: iterable of tuples}``."""
        facts = []
        for name, rows in data.items():
            sym = schema[name]
            for row in rows:
                row = tuple(row) if not isinstance(row, tuple) else row
                facts.append(Fact(sym, row))
        return cls(facts, schema=schema)


class MutableIndexedInstance:
    """A mutable interned fact store speaking the engine's row protocol.

    :meth:`repro.datalog.plain.DatalogProgram.least_fixpoint` keeps **one**
    mutable columnar store across all semi-naive rounds, and
    :class:`repro.service.delta.IncrementalFixpoint` keeps one as the live
    materialization for its whole life.  Per-relation row sets and
    lazily-built per-position buckets are updated in place by
    :meth:`add_row` and :meth:`remove_row`, and the batch join executor
    reads them live through the same row protocol (``relation_rows`` /
    ``row_bucket`` / ``column_stats``) it uses on frozen instances.  The
    store shares (and extends, in place — interners are append-only) the
    seed instance's interner, so rows interned here remain valid on every
    delta copy of the seed.

    Removal keeps every built bucket, the distinct counts and the domain
    codes exact: the first removal counts each code's occurrences once,
    and both mutators maintain the counts from then on.  Decoded
    :meth:`tuples` views are cached per relation until it next changes.

    Callers must not mutate while a join over the store is being consumed
    (the fixpoint loops buffer a round's derivations and apply them between
    rounds), and must not hold returned row sets across a mutation.
    :meth:`freeze` emits a regular immutable :class:`Instance` (a copy;
    the store stays live).
    """

    __slots__ = (
        "_interner",
        "_columns",
        "_domain_codes",
        "_code_counts",
        "_decoded",
        "_size",
        "_declared_schema",
    )

    def __init__(self, instance: Instance) -> None:
        self._interner = instance.interner
        self._columns: dict[RelationSymbol, MutableColumnarRelation] = {}
        size = 0
        for relation in instance.schema:
            column = instance.column(relation)
            if column is not None:
                self._columns[relation] = MutableColumnarRelation(
                    column.arity, column.rows
                )
                size += len(column.rows)
        self._size = size
        code_of = self._interner.code
        self._domain_codes: set[int] = {
            code_of(value) for value in instance.active_domain
        }
        # code -> occurrences over all rows; built by the first removal
        self._code_counts: dict[int, int] | None = None
        self._decoded: dict[RelationSymbol, frozenset[tuple]] = {}
        self._declared_schema = instance.schema

    def __contains__(self, fact: object) -> bool:
        if not isinstance(fact, Fact):
            return False
        column = self._columns.get(fact.relation)
        if column is None:
            return False
        code_of = self._interner.code
        row = []
        for argument in fact.arguments:
            code = code_of(argument)
            if code is None:
                return False
            row.append(code)
        return tuple(row) in column.rows

    def __len__(self) -> int:
        return self._size

    @property
    def interner(self) -> Interner:
        return self._interner

    @property
    def active_domain(self) -> set:
        value = self._interner.value
        return {value(code) for code in self._domain_codes}

    @property
    def domain_codes(self) -> set[int]:
        return self._domain_codes

    def add_row(self, relation: RelationSymbol, row: IntRow) -> bool:
        """Add one interned row, updating every built index; True if new."""
        column = self._columns.get(relation)
        if column is None:
            column = MutableColumnarRelation(relation.arity)
            self._columns[relation] = column
        if not column.add(row):
            return False
        self._size += 1
        self._domain_codes.update(row)
        counts = self._code_counts
        if counts is not None:
            for code in row:
                counts[code] = counts.get(code, 0) + 1
        if self._decoded:
            self._decoded.pop(relation, None)
        return True

    def remove_row(self, relation: RelationSymbol, row: IntRow) -> bool:
        """Remove one interned row, updating every built index; True if it
        was present.  A code leaves the domain with its last occurrence."""
        column = self._columns.get(relation)
        if column is None or row not in column.rows:
            return False
        counts = self._code_counts
        if counts is None:
            counts = self._code_counts = {}
            for other in self._columns.values():
                for stored in other.rows:
                    for code in stored:
                        counts[code] = counts.get(code, 0) + 1
        column.remove(row)
        if not column.rows:
            del self._columns[relation]
        self._size -= 1
        for code in row:
            left = counts[code] - 1
            if left:
                counts[code] = left
            else:
                del counts[code]
                self._domain_codes.discard(code)
        self._decoded.pop(relation, None)
        return True

    def has_row(self, relation: RelationSymbol, row: IntRow) -> bool:
        column = self._columns.get(relation)
        return column is not None and row in column.rows

    # -- the engine's row protocol --------------------------------------------

    def relation_rows(self, relation: RelationSymbol) -> set | frozenset:
        """The live interned row set (do not mutate, do not hold)."""
        column = self._columns.get(relation)
        return column.rows if column is not None else _EMPTY_ROWS

    def row_bucket(
        self, relation: RelationSymbol, position: int, code: int
    ) -> set | frozenset:
        column = self._columns.get(relation)
        if column is None:
            return _EMPTY_ROWS
        return column.bucket(position, code)

    def column_stats(
        self, relation: RelationSymbol
    ) -> tuple[int, tuple[int, ...]]:
        column = self._columns.get(relation)
        if column is None:
            return 0, ()
        return len(column.rows), column.distinct_counts()

    # -- decoded views ---------------------------------------------------------

    def tuples(self, relation: RelationSymbol) -> frozenset[tuple]:
        """A decoded snapshot of the relation, cached until the relation
        next changes (engine paths read :meth:`relation_rows` instead)."""
        view = self._decoded.get(relation)
        if view is None:
            column = self._columns.get(relation)
            if column is None:
                return _EMPTY_ROWS
            decode = self._interner.decode_row
            view = self._decoded[relation] = frozenset(map(decode, column.rows))
        return view

    # -- freezing --------------------------------------------------------------

    def freeze(self) -> Instance:
        """One immutable :class:`Instance` copying the columns and built
        buckets (the store stays live).

        The fact set decodes lazily on first use; the interner is the
        (shared) seed interner.
        """
        used = Schema(self._columns)
        schema = (
            self._declared_schema.union(used)
            if self._declared_schema is not None
            else used
        )
        columns = {
            relation: column.freeze()
            for relation, column in self._columns.items()
            if column.rows
        }
        value = self._interner.value
        adom = frozenset(value(code) for code in self._domain_codes)
        return Instance._from_parts(
            None, schema, adom, self._interner, columns
        )


class TupleIndexedInstance:
    """The pre-columnar tuple-at-a-time mutable store (reference twin).

    Kept verbatim for cross-validation and benchmarking of the interned
    columnar core against the previous representation: plain sets of
    constant tuples with per-position constant-keyed buckets, speaking the
    classic ``tuples`` / ``tuples_with`` / ``position_value_count``
    protocol of the tuple-at-a-time join path.
    """

    def __init__(self, instance: Instance) -> None:
        self._facts: set[Fact] = set(instance.facts)
        self._domain: set[Constant] = set(instance.active_domain)
        self._by_relation: dict[RelationSymbol, set[tuple]] = {
            relation: set(instance.tuples(relation))
            for relation in {fact.relation for fact in self._facts}
        }
        self._by_position: dict[
            RelationSymbol, tuple[dict[Constant, set[tuple]], ...]
        ] = {}
        self._declared_schema = instance.schema

    def __contains__(self, fact: object) -> bool:
        return fact in self._facts

    def __len__(self) -> int:
        return len(self._facts)

    def is_empty(self) -> bool:
        return not self._facts

    @property
    def active_domain(self) -> set:
        return self._domain

    def add(self, fact: Fact) -> bool:
        """Add one fact, updating every built index; True if it was new."""
        if fact in self._facts:
            return False
        self._facts.add(fact)
        self._domain.update(fact.arguments)
        self._by_relation.setdefault(fact.relation, set()).add(fact.arguments)
        positional = self._by_position.get(fact.relation)
        if positional is not None:
            for position, value in enumerate(fact.arguments):
                positional[position].setdefault(value, set()).add(fact.arguments)
        return True

    # -- the tuple-at-a-time join protocol -------------------------------------

    def tuples(self, relation: RelationSymbol) -> set[tuple]:
        """The live row set of ``relation`` (do not mutate, do not hold)."""
        return self._by_relation.get(relation, _EMPTY_ROWS)

    def _position_index(
        self, relation: RelationSymbol
    ) -> tuple[dict[Constant, set[tuple]], ...]:
        cached = self._by_position.get(relation)
        if cached is None:
            cached = tuple({} for _ in range(relation.arity))
            for row in self._by_relation.get(relation, ()):
                for position, value in enumerate(row):
                    cached[position].setdefault(value, set()).add(row)
            self._by_position[relation] = cached
        return cached

    def tuples_with(
        self, relation: RelationSymbol, position: int, value: Constant
    ) -> set[tuple]:
        if relation not in self._by_relation:
            return _EMPTY_ROWS
        return self._position_index(relation)[position].get(value, _EMPTY_ROWS)

    def position_values(self, relation: RelationSymbol, position: int) -> frozenset:
        if relation not in self._by_relation:
            return frozenset()
        return frozenset(self._position_index(relation)[position])

    def position_value_count(self, relation: RelationSymbol, position: int) -> int:
        if relation not in self._by_relation:
            return 0
        return len(self._position_index(relation)[position])

    # -- freezing --------------------------------------------------------------

    def freeze(self) -> Instance:
        """One immutable :class:`Instance` over the accumulated facts."""
        schema = (
            self._declared_schema.union(Schema(self._by_relation))
            if self._declared_schema is not None
            else Schema(self._by_relation)
        )
        return Instance(self._facts, schema=schema)


@dataclass(frozen=True)
class MarkedInstance:
    """An n-ary marked instance ``(D, d1, ..., dn)`` (Section 4.2).

    Every marked element must belong to the active domain of ``D``.
    """

    instance: Instance
    marks: tuple

    def __post_init__(self) -> None:
        for mark in self.marks:
            if mark not in self.instance.active_domain:
                raise ValueError(f"marked element {mark!r} is not in adom(D)")

    @property
    def arity(self) -> int:
        return len(self.marks)

    @property
    def schema(self) -> Schema:
        return self.instance.schema

    def to_unmarked(self, mark_symbols: Sequence[RelationSymbol]) -> Instance:
        """The instance ``(D, d)^c`` of Section 5.3: replace marks by fresh unary facts."""
        if len(mark_symbols) != len(self.marks):
            raise ValueError("need one unary symbol per marked element")
        extra = []
        for sym, mark in zip(mark_symbols, self.marks):
            if sym.arity != 1:
                raise ValueError(f"mark symbol {sym} must be unary")
            extra.append(Fact(sym, (mark,)))
        return self.instance.with_facts(extra)

    def __str__(self) -> str:
        return f"({self.instance!r}, {self.marks})"


def singleton_instance(facts_by_name: Mapping[str, int], element: Constant = "a") -> Instance:
    """A singleton instance: one element carrying the given relations reflexively.

    ``facts_by_name`` maps relation names to arities; each relation holds on the
    all-``element`` tuple.  Useful for the singleton-instance arguments of
    Theorems 3.5 and 3.8.
    """
    facts = []
    for name, arity in facts_by_name.items():
        sym = RelationSymbol(name, arity)
        facts.append(Fact(sym, tuple([element] * arity)))
    return Instance(facts)
