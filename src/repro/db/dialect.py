"""Compile conjunctive explanation-template queries to parameterized SQL.

The in-memory :class:`~repro.db.executor.Executor` evaluates
:class:`~repro.db.query.ConjunctiveQuery` objects with its own hash-join
pipeline; this module lowers the *same* query objects to SQL text a
relational backend can run, so audits push down to SQLite (and, via new
:class:`~repro.db.backend.Driver` implementations, to other engines)
without touching the template language.

Compilation is dialect-light on purpose: only `?`-style positional
placeholders, double-quoted identifiers, and ``SELECT``/``JOIN``-free
comma FROM lists are emitted — the common denominator of SQLite,
Postgres (via a trivial placeholder rewrite), and DuckDB.  Four query
forms cover the executor's public surface:

* :func:`compile_execute` — ``SELECT [DISTINCT] projection`` (the
  ``execute`` path);
* :func:`compile_count_distinct` — ``SELECT COUNT(*) FROM (SELECT
  DISTINCT attr ...)``.  Deliberately *not* ``COUNT(DISTINCT attr)``:
  SQL's ``COUNT(DISTINCT …)`` ignores NULL, while the in-memory
  executor counts NULL as one distinct value; the subquery form counts
  the NULL row and stays byte-identical to the differential oracle;
* :func:`compile_distinct_values` — ``SELECT DISTINCT attr ...``
  (NULL included, matching the in-memory set semantics);
* :func:`compile_distinct_values_in` — the batch-semijoin form, which
  appends ``alias.attr IN ({placeholders})`` as the *last* WHERE term so
  binding-set values always bind after the query's own literals; the
  driver substitutes the marker per chunk (host-parameter limits).

NULL semantics match the differential oracle end to end: every
comparison is SQL three-valued, so a condition touching a NULL (stored
value *or* a NULL literal bound as a parameter) excludes the row —
exactly the in-memory ``_compare`` rule.

The paper's *Reducing Result Multiplicity* rewrite (Section 3.2.1) is
honored: with ``distinct_reduction`` on, each tuple variable whose final
output is distinct is replaced by a ``(SELECT DISTINCT needed-attrs FROM
table)`` subquery.  Non-distinct projections are never reduced — the
rewrite would change result multiplicity, which the differential suite
pins.

Values cross the wire through :func:`encode_value`/:func:`decode_value`:
booleans ride as 0/1 integers, datetimes as ISO-8601 text (``isoformat``
pads microseconds, so lexicographic order equals chronological order and
range conditions on DATE columns stay correct).  Parameters compared
against a column bind through :func:`encode_param`, which keeps SQL
comparison affinity from equating values the in-memory executor keeps
apart (``'5'`` and ``5``).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from collections.abc import Iterable, Mapping
from typing import Any

from .errors import QueryError
from .query import (
    AttrRef,
    Condition,
    ConjunctiveQuery,
    Literal,
    cond_attr_refs,
)
from .schema import ColumnType, TableSchema

#: Marker substituted by the driver with one ``?`` per binding value
#: (chunked to the backend's host-parameter limit).
IN_MARKER = "{__in_placeholders__}"

#: SQL column affinity per declared column type (SQLite-compatible and
#: portable: every emitted name exists in standard SQL or degrades to a
#: sensible affinity).
_AFFINITY: dict[ColumnType, str] = {
    ColumnType.INT: "INTEGER",
    ColumnType.FLOAT: "REAL",
    ColumnType.STR: "TEXT",
    ColumnType.DATE: "TEXT",
    ColumnType.BOOL: "INTEGER",
}


def quote_ident(name: str) -> str:
    """Double-quote an identifier (schema names are pre-validated to be
    alphanumeric/underscore, so quoting cannot be subverted)."""
    return '"' + name.replace('"', '""') + '"'


def column_affinity(ctype: ColumnType) -> str:
    """The SQL column affinity a declared column type maps to."""
    return _AFFINITY[ctype]


def encode_value(value: Any) -> Any:
    """Encode one Python value for storage / parameter binding.

    ``bool`` is checked before ``int`` (it subclasses int); datetimes
    become ISO-8601 text whose lexicographic order is chronological.
    """
    if value is None:
        return None
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, dt.datetime):
        return value.isoformat()
    return value


#: Python types whose values can equal a stored value of each declared
#: column type under the in-memory executor's (Python) equality.
_DOMAIN: dict[ColumnType, tuple[type, ...]] = {
    ColumnType.INT: (int, float),
    ColumnType.FLOAT: (int, float),
    ColumnType.BOOL: (int, float),
    ColumnType.STR: (str,),
    ColumnType.DATE: (dt.datetime,),
}


def encode_param(value: Any, ctype: ColumnType) -> Any:
    """Encode one parameter compared against a column of type ``ctype``.

    A value outside the column's domain never equals a stored value in
    memory, but SQL comparison affinity would convert it (``'5'`` against
    an INTEGER column, ``5`` against a TEXT one) and match.  Such a value
    binds as a BLOB, which affinity leaves alone and which equals no
    INTEGER, REAL or TEXT value.
    """
    if value is not None and not isinstance(value, _DOMAIN[ctype]):
        return repr(value).encode()
    return encode_value(value)


def decode_value(value: Any, ctype: ColumnType) -> Any:
    """Decode one stored value back to the declared Python domain."""
    if value is None:
        return None
    if ctype is ColumnType.DATE:
        return dt.datetime.fromisoformat(value)
    if ctype is ColumnType.BOOL:
        return bool(value)
    return value


def create_table_sql(schema: TableSchema) -> str:
    """``CREATE TABLE IF NOT EXISTS`` DDL for one table schema.

    Constraints are intentionally *not* emitted — validation happens in
    the Python tier (same code path as the in-memory backend), so both
    backends reject exactly the same rows with exactly the same errors.
    """
    cols = ", ".join(
        f"{quote_ident(c.name)} {column_affinity(c.ctype)}"
        for c in schema.columns
    )
    return f"CREATE TABLE IF NOT EXISTS {quote_ident(schema.name)} ({cols})"


def insert_sql(schema: TableSchema) -> str:
    """Parameterized single-row INSERT for one table schema."""
    cols = ", ".join(quote_ident(c.name) for c in schema.columns)
    marks = ", ".join("?" for _ in schema.columns)
    return (
        f"INSERT INTO {quote_ident(schema.name)} ({cols}) VALUES ({marks})"
    )


def index_sql(schema: TableSchema) -> list[str]:
    """One single-column index per column (join/probe acceleration).

    Explanation templates join and filter on arbitrary single attributes
    (the in-memory backend lazily hash-indexes every probed column);
    eagerly indexing each column keeps the SQL backend's point and
    semijoin paths index-driven too.
    """
    out = []
    for col in schema.columns:
        name = quote_ident(f"idx_{schema.name}_{col.name}")
        out.append(
            f"CREATE INDEX IF NOT EXISTS {name} ON "
            f"{quote_ident(schema.name)} ({quote_ident(col.name)})"
        )
    return out


@dataclass(frozen=True)
class CompiledQuery:
    """One lowered query: SQL text plus everything needed to run it.

    ``sql`` may contain :data:`IN_MARKER` (when ``has_in_marker`` is
    True); the driver replaces it with ``?`` placeholders per binding
    chunk.  ``param_types`` is the declared type of the column each of
    the query's own literal parameters is compared against — binding-set
    values always bind *after* them, against ``in_type``.  ``decoders``
    carries the declared column type of each output column so result
    rows can be decoded back to the Python domain.
    """

    sql: str
    param_types: tuple[ColumnType, ...]
    decoders: tuple[ColumnType, ...]
    has_in_marker: bool = False
    in_type: ColumnType | None = None

    def params(self, query: ConjunctiveQuery) -> tuple[Any, ...]:
        """The encoded literal parameters of ``query`` (a query of the
        compiled shape), in condition order — exactly the order
        :func:`_render_condition` emits placeholders."""
        values = [
            c.right.value for c in query.conditions if isinstance(c.right, Literal)
        ]
        return tuple(map(encode_param, values, self.param_types))

    def in_params(self, values: Iterable[Any]) -> list[Any]:
        """The encoded binding-set values of the batch-semijoin form."""
        assert self.in_type is not None
        return [encode_param(v, self.in_type) for v in values]


def _alias_tables(query: ConjunctiveQuery) -> dict[str, str]:
    return {v.alias: v.table for v in query.tuple_vars}


def _needed_attrs(
    query: ConjunctiveQuery, extra: tuple[AttrRef, ...]
) -> dict[str, set[str]]:
    """Attributes each alias must expose (conditions + projection + extras)."""
    needed: dict[str, set[str]] = {v.alias: set() for v in query.tuple_vars}
    for cond in query.conditions:
        for ref in cond_attr_refs(cond):
            needed[ref.alias].add(ref.attr)
    for ref in list(query.projection) + list(extra):
        needed[ref.alias].add(ref.attr)
    return needed


def check_connected(query: ConjunctiveQuery, allow_cartesian: bool) -> None:
    """Raise :class:`QueryError` when the join graph is disconnected.

    Mirrors :func:`repro.db.optimizer.build_plan`: only equality
    conditions between two attribute refs of *different* aliases are join
    edges (inequalities filter, they do not connect), and the error
    message is identical so callers cannot tell the backends apart.
    """
    if allow_cartesian or len(query.tuple_vars) <= 1:
        return
    adjacent: dict[str, set[str]] = {v.alias: set() for v in query.tuple_vars}
    for cond in query.conditions:
        if cond.is_join:
            assert isinstance(cond.right, AttrRef)
            adjacent[cond.left.alias].add(cond.right.alias)
            adjacent[cond.right.alias].add(cond.left.alias)
    start = query.tuple_vars[0].alias
    seen = {start}
    frontier = [start]
    while frontier:
        for neighbor in adjacent[frontier.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                frontier.append(neighbor)
    if len(seen) != len(query.tuple_vars):
        raise QueryError(
            "query join graph is disconnected (cartesian product "
            "required); pass allow_cartesian=True to permit it"
        )


def _from_clause(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    *,
    reduce_tables: bool,
    extra: tuple[AttrRef, ...],
) -> str:
    """The FROM list, optionally with per-variable DISTINCT subselects
    (the paper's multiplicity-reduction rewrite)."""
    parts = []
    needed = _needed_attrs(query, extra) if reduce_tables else {}
    for var in query.tuple_vars:
        table = quote_ident(var.table)
        alias = quote_ident(var.alias)
        attrs = sorted(needed.get(var.alias, ()))
        if reduce_tables and attrs:
            cols = ", ".join(quote_ident(a) for a in attrs)
            parts.append(f"(SELECT DISTINCT {cols} FROM {table}) {alias}")
        else:
            parts.append(f"{table} {alias}")
    return "FROM " + ", ".join(parts)


def _render_condition(cond: Condition) -> str:
    """One WHERE term; literal operands become ``?`` placeholders."""
    left = f"{quote_ident(cond.left.alias)}.{quote_ident(cond.left.attr)}"
    if isinstance(cond.right, Literal):
        right = "?"
    else:
        right = f"{quote_ident(cond.right.alias)}.{quote_ident(cond.right.attr)}"
    return f"{left} {cond.op} {right}"


def _where_clause(query: ConjunctiveQuery, in_attr: AttrRef | None) -> str:
    terms = [_render_condition(c) for c in query.conditions]
    if in_attr is not None:
        terms.append(
            f"{quote_ident(in_attr.alias)}.{quote_ident(in_attr.attr)} "
            f"IN ({IN_MARKER})"
        )
    if not terms:
        return ""
    return " WHERE " + " AND ".join(terms)


def _decoder_for(
    ref: AttrRef,
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
) -> ColumnType:
    table = _alias_tables(query)[ref.alias]
    return schemas[table].column(ref.attr).ctype


def _param_types(
    query: ConjunctiveQuery, schemas: Mapping[str, TableSchema]
) -> tuple[ColumnType, ...]:
    return tuple(
        _decoder_for(c.left, query, schemas)
        for c in query.conditions
        if isinstance(c.right, Literal)
    )


def compile_execute(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    *,
    distinct_reduction: bool = True,
) -> CompiledQuery:
    """Lower the ``execute`` form: ``SELECT [DISTINCT] projection``.

    Multiplicity reduction applies only to distinct projections (see the
    module docstring); non-distinct queries must preserve the join's raw
    multiplicity to stay oracle-identical.
    """
    head = "SELECT DISTINCT" if query.distinct else "SELECT"
    cols = ", ".join(
        f"{quote_ident(r.alias)}.{quote_ident(r.attr)}"
        for r in query.projection
    )
    frm = _from_clause(
        query,
        schemas,
        reduce_tables=distinct_reduction and query.distinct,
        extra=(),
    )
    sql = f"{head} {cols} {frm}{_where_clause(query, None)}"
    return CompiledQuery(
        sql=sql,
        param_types=_param_types(query, schemas),
        decoders=tuple(
            _decoder_for(r, query, schemas) for r in query.projection
        ),
    )


def compile_distinct_values(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
    *,
    distinct_reduction: bool = True,
) -> CompiledQuery:
    """Lower the ``distinct_values`` form: ``SELECT DISTINCT attr``.

    NULL is included when present (SQL DISTINCT keeps one NULL row),
    matching the in-memory executor's value-set semantics.
    """
    col = f"{quote_ident(attr.alias)}.{quote_ident(attr.attr)}"
    frm = _from_clause(
        query, schemas, reduce_tables=distinct_reduction, extra=(attr,)
    )
    sql = f"SELECT DISTINCT {col} {frm}{_where_clause(query, None)}"
    return CompiledQuery(
        sql=sql,
        param_types=_param_types(query, schemas),
        decoders=(_decoder_for(attr, query, schemas),),
    )


def compile_count_distinct(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
    *,
    distinct_reduction: bool = True,
) -> CompiledQuery:
    """Lower the ``count_distinct`` form.

    Emitted as ``SELECT COUNT(*) FROM (SELECT DISTINCT attr ...)`` so a
    NULL counts as one distinct value — ``COUNT(DISTINCT attr)`` would
    silently drop it and disagree with the in-memory executor.
    """
    inner = compile_distinct_values(
        query, schemas, attr, distinct_reduction=distinct_reduction
    )
    return CompiledQuery(
        sql=f"SELECT COUNT(*) FROM ({inner.sql})",
        param_types=inner.param_types,
        decoders=(ColumnType.INT,),
    )


def compile_distinct_values_in(
    query: ConjunctiveQuery,
    schemas: Mapping[str, TableSchema],
    attr: AttrRef,
    in_attr: AttrRef,
    *,
    distinct_reduction: bool = True,
) -> CompiledQuery:
    """Lower the batch-semijoin form: ``distinct_values`` restricted by
    ``in_attr IN ({binding set})``.

    The IN term is appended *last*, so the driver binds the query's own
    literal parameters first and the (chunked) binding values after —
    :meth:`repro.db.backend.Driver.execute_batch` fills the marker.  A
    stored NULL never matches IN, and NULL binding values are stripped by
    the executor before compilation, matching the in-memory semantics.
    """
    col = f"{quote_ident(attr.alias)}.{quote_ident(attr.attr)}"
    frm = _from_clause(
        query, schemas, reduce_tables=distinct_reduction, extra=(attr, in_attr)
    )
    sql = f"SELECT DISTINCT {col} {frm}{_where_clause(query, in_attr)}"
    return CompiledQuery(
        sql=sql,
        param_types=_param_types(query, schemas),
        decoders=(_decoder_for(attr, query, schemas),),
        has_in_marker=True,
        in_type=_decoder_for(in_attr, query, schemas),
    )
