"""Compilation of expression ASTs into Python closures.

The prototype's one-variable query processor interprets qualifications
tuple-by-tuple; here each expression compiles once per statement execution
into a closure evaluated per tuple -- the hot path of every scan.

A closure is built relative to:

* ``var``       -- the *loop variable*: its attributes read from the closure's
  row argument;
* ``layouts``   -- per-variable :class:`VarLayout` mapping attribute names to
  tuple positions (relations and temporaries share this shape);
* ``bindings``  -- a mutable dict the interpreter updates as outer loops bind
  variables; closures for non-loop variables read through it.

Temporal operands evaluate to ``(start, stop)`` chronon pairs -- the
half-open period of :class:`~repro.temporal.interval.Period`, with an event
``t`` as ``(t, t + 1)`` -- or ``None`` for an empty period.  A stored tuple's
valid time becomes a pair after the same range check ``Period`` applies, so
an out-of-range chronon raises the same ``ChrononRangeError`` from the same
rows, while no ``Period`` object is built per row.

Temporal string constants (including ``"now"``) resolve against the
database clock at compile time, i.e. once per statement execution, matching
the prototype where a statement executes at one instant.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from repro.errors import ExecutionError, TQuelSemanticError
from repro.temporal.chronon import CHRONON_MIN, FOREVER, check_chronon
from repro.temporal.interval import Period
from repro.tquel import ast

# id(schema) -> its VarLayout.  Executor construction runs per statement
# (the prepared-statement hot path), while a relation's schema and field
# order are fixed for its lifetime, so the layout is computed once per
# schema object.  Keyed by id because RelationSchema is an unhashable
# dataclass; a finalizer evicts the entry when the schema is collected,
# before its id can be reused.
_LAYOUTS_BY_SCHEMA: "dict[int, VarLayout]" = {}


@dataclass(frozen=True)
class VarLayout:
    """Where a variable's attributes live inside its row tuples."""

    positions: "dict[str, int]"
    tx: "tuple[int, int] | None" = None  # (transaction_start, transaction_stop)
    valid: "tuple[int, int] | None" = None  # (valid_from, valid_to)
    valid_at: "int | None" = None

    @classmethod
    def for_schema(cls, schema) -> "VarLayout":
        key = id(schema)
        layout = _LAYOUTS_BY_SCHEMA.get(key)
        if layout is not None:
            return layout
        positions = {
            spec.name: index for index, spec in enumerate(schema.fields)
        }
        tx = None
        if schema.type.has_transaction_time:
            tx = (positions["transaction_start"], positions["transaction_stop"])
        valid = None
        valid_at = None
        if schema.type.has_valid_time:
            if "valid_at" in positions:
                valid_at = positions["valid_at"]
            else:
                valid = (positions["valid_from"], positions["valid_to"])
        layout = cls(positions=positions, tx=tx, valid=valid, valid_at=valid_at)
        _LAYOUTS_BY_SCHEMA[key] = layout
        weakref.finalize(schema, _LAYOUTS_BY_SCHEMA.pop, key, None)
        return layout

    @classmethod
    def for_fields(cls, fields) -> "VarLayout":
        """Layout of a temporary relation carrying copied time attributes."""
        positions = {spec.name: index for index, spec in enumerate(fields)}
        tx = None
        if "transaction_start" in positions:
            tx = (positions["transaction_start"], positions["transaction_stop"])
        valid = None
        valid_at = positions.get("valid_at")
        if "valid_from" in positions:
            valid = (positions["valid_from"], positions["valid_to"])
        return cls(positions=positions, tx=tx, valid=valid, valid_at=valid_at)


def _truncating_div(left, right):
    if right == 0:
        raise ExecutionError("division by zero")
    if isinstance(left, int) and isinstance(right, int):
        quotient = abs(left) // abs(right)
        return quotient if (left >= 0) == (right >= 0) else -quotient
    return left / right


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": _truncating_div,
}

_COMPARE = {
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

# The loop row's attribute at position p against a constant v.
_COMPARE_CONST = {
    "=": lambda p, v: lambda row: row[p] == v,
    "!=": lambda p, v: lambda row: row[p] != v,
    "<": lambda p, v: lambda row: row[p] < v,
    "<=": lambda p, v: lambda row: row[p] <= v,
    ">": lambda p, v: lambda row: row[p] > v,
    ">=": lambda p, v: lambda row: row[p] >= v,
}

# The loop row's attribute at position p against slots[k][q], read per
# call: a bound variable's attribute (bindings[var][position]) or a
# parameter (bindings["$params"][name]).
_COMPARE_SLOT = {
    "=": lambda p, s, k, q: lambda row: row[p] == s[k][q],
    "!=": lambda p, s, k, q: lambda row: row[p] != s[k][q],
    "<": lambda p, s, k, q: lambda row: row[p] < s[k][q],
    "<=": lambda p, s, k, q: lambda row: row[p] <= s[k][q],
    ">": lambda p, s, k, q: lambda row: row[p] > s[k][q],
    ">=": lambda p, s, k, q: lambda row: row[p] >= s[k][q],
}

# a OP b == b MIRROR[OP] a
_MIRROR = {"=": "=", "!=": "!=", "<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _is_loop_attr(expr, var) -> bool:
    return (
        var is not None
        and isinstance(expr, ast.Attr)
        and (expr.var is None or expr.var == var)
    )


def _compare_loop_attr(expr, var, layouts, bindings):
    """A direct closure for a loop attribute compared with a constant, a
    ``$param`` or a bound variable's attribute; ``None`` for any other
    comparison.  The other side cannot raise, except an unbound ``$param``,
    which takes the general path so it raises only when reached."""
    op, attr, other = expr.op, expr.left, expr.right
    if not _is_loop_attr(attr, var):
        # Mirror ``value OP attr``, except for a $param: its value's type
        # is unchecked, and a mixed-type TypeError names operands in order.
        if not _is_loop_attr(other, var) or isinstance(attr, ast.Param):
            return None
        op, attr, other = _MIRROR[op], other, attr
    position = layouts[var].positions[attr.name]
    if isinstance(other, ast.Const):
        return _COMPARE_CONST[op](position, other.value)
    if isinstance(other, ast.Param):
        # "$params" is set once, before compilation, per executor.
        if other.name not in bindings.get("$params", ()):
            return None
        return _COMPARE_SLOT[op](position, bindings, "$params", other.name)
    if isinstance(other, ast.Attr) and other.var not in (None, var):
        slot = layouts[other.var].positions[other.name]
        return _COMPARE_SLOT[op](position, bindings, other.var, slot)
    return None


def compile_scalar(expr, var: "str | None", layouts, bindings):
    """Compile a scalar expression into ``fn(row) -> value``."""
    if isinstance(expr, ast.Const):
        value = expr.value
        return lambda row: value
    if isinstance(expr, ast.Param):
        # Parameter values live in the interpreter's bindings dict under
        # the reserved "$params" key ("$" cannot start a range variable),
        # so prepared statements re-execute with fresh values without
        # recompiling any closure.
        name = expr.name

        def param_value(row):
            values = bindings.get("$params")
            if values is None or name not in values:
                raise ExecutionError(
                    f"parameter ${name} is not bound (pass params=...)"
                )
            return values[name]

        return param_value
    if isinstance(expr, ast.Attr):
        owner = expr.var if expr.var is not None else var
        layout = layouts[owner]
        position = layout.positions[expr.name]
        if owner == var:
            return lambda row: row[position]
        return lambda row: bindings[owner][position]
    if isinstance(expr, ast.UnaryOp):
        inner = compile_scalar(expr.operand, var, layouts, bindings)
        return lambda row: -inner(row)
    if isinstance(expr, ast.BinOp):
        left = compile_scalar(expr.left, var, layouts, bindings)
        right = compile_scalar(expr.right, var, layouts, bindings)
        op = _ARITH[expr.op]
        return lambda row: op(left(row), right(row))
    if isinstance(expr, ast.Compare):
        direct = _compare_loop_attr(expr, var, layouts, bindings)
        if direct is not None:
            return direct
        left = compile_scalar(expr.left, var, layouts, bindings)
        right = compile_scalar(expr.right, var, layouts, bindings)
        op = _COMPARE[expr.op]
        return lambda row: op(left(row), right(row))
    if isinstance(expr, ast.BoolOp):
        parts = [
            compile_scalar(operand, var, layouts, bindings)
            for operand in expr.operands
        ]
        if expr.op == "and":
            return lambda row: all(part(row) for part in parts)
        return lambda row: any(part(row) for part in parts)
    if isinstance(expr, ast.NotOp):
        inner = compile_scalar(expr.operand, var, layouts, bindings)
        return lambda row: not inner(row)
    raise ExecutionError(f"cannot compile scalar node {expr!r}")


def _event_pair(at):
    """``Period.event(at)`` as a pair, with its range check."""
    check_chronon(at)
    if at == FOREVER:
        # Pinned to the last representable chronon, as Period.event does.
        return FOREVER - 1, FOREVER
    return at, at + 1


def _checked_pair(start, stop):
    """A stored ``(start, stop)`` that failed the fast in-range interval
    test: an event-shaped (``stop <= start``) version, or an out-of-range
    chronon, which raises exactly as constructing its ``Period`` would."""
    if stop > start:
        check_chronon(start)
        check_chronon(stop)
        return start, stop
    return _event_pair(start)


def valid_reader(layout: VarLayout):
    """``fn(row) -> (start, stop)``: a row's valid period or event.

    A version with ``valid_to <= valid_from`` reads as the event at its
    start.  The chained comparison is the whole range check for an
    in-range interval; anything else takes the checked path.
    """
    if layout.valid is not None:
        start_pos, stop_pos = layout.valid

        def interval(row):
            start = row[start_pos]
            stop = row[stop_pos]
            if CHRONON_MIN <= start < stop <= FOREVER:
                return start, stop
            return _checked_pair(start, stop)

        return interval
    if layout.valid_at is not None:
        at_pos = layout.valid_at

        def event(row):
            at = row[at_pos]
            if CHRONON_MIN <= at < FOREVER:
                return at, at + 1
            return _event_pair(at)

        return event

    def no_valid_time(row):
        raise ExecutionError("variable has no valid time")

    return no_valid_time


def compile_temporal(expr, var, layouts, bindings, clock):
    """Compile a temporal operand into ``fn(row) -> (start, stop) | None``.

    ``None`` denotes an empty period (an ``overlap`` of disjoint operands)
    and propagates: predicates over it are false, ``extend`` ignores the
    empty side.  Both operands of a binary operator are evaluated, left
    first, before either is tested, so a range error in either surfaces.
    """
    if isinstance(expr, ast.TempConst):
        pair = _event_pair(clock.parse(expr.text))
        return lambda row: pair
    if isinstance(expr, ast.TempVar):
        read = valid_reader(layouts[expr.var])
        if expr.var == var:
            return read
        name = expr.var
        return lambda row: read(bindings[name])
    if isinstance(expr, ast.TempEdge):
        inner = compile_temporal(expr.operand, var, layouts, bindings, clock)
        if expr.which == "start":

            def start_of(row):
                period = inner(row)
                if period is None:
                    return None
                start = period[0]
                return start, start + 1

            return start_of

        def end_of(row):
            # The last chronon; for a current version (stop == FOREVER)
            # this is the event pinned at FOREVER, as Period.end_event.
            period = inner(row)
            if period is None:
                return None
            stop = period[1]
            return stop - 1, stop

        return end_of
    if isinstance(expr, ast.TempBin):
        left = compile_temporal(expr.left, var, layouts, bindings, clock)
        right = compile_temporal(expr.right, var, layouts, bindings, clock)
        if expr.op == "overlap":

            def intersection(row):
                a = left(row)
                b = right(row)
                if a is None or b is None:
                    return None
                start = a[0] if a[0] > b[0] else b[0]
                stop = a[1] if a[1] < b[1] else b[1]
                return (start, stop) if start < stop else None

            return intersection
        if expr.op == "extend":

            def span(row):
                a = left(row)
                b = right(row)
                if a is None:
                    return b
                if b is None:
                    return a
                return (
                    a[0] if a[0] < b[0] else b[0],
                    a[1] if a[1] > b[1] else b[1],
                )

            return span
        raise TQuelSemanticError(
            f"'{expr.op}' cannot be used as a temporal operand"
        )
    raise ExecutionError(f"cannot compile temporal node {expr!r}")


def _overlaps_constant(layout: VarLayout, pair):
    """``fn(row) -> bool``: the row's valid interval overlaps the constant
    *pair* -- ``x overlap "now"`` with no call beyond the closure's own."""
    start_pos, stop_pos = layout.valid
    c_start, c_stop = pair

    def overlaps_constant(row):
        start = row[start_pos]
        stop = row[stop_pos]
        if not CHRONON_MIN <= start < stop <= FOREVER:
            start, stop = _checked_pair(start, stop)
        return start < c_stop and c_start < stop

    return overlaps_constant


def compile_when(node, var, layouts, bindings, clock):
    """Compile a when-clause predicate into ``fn(row) -> bool``."""
    if isinstance(node, ast.BoolOp):
        parts = [
            compile_when(operand, var, layouts, bindings, clock)
            for operand in node.operands
        ]
        if node.op == "and":
            return conjunction(parts)
        return lambda row: any(part(row) for part in parts)
    if isinstance(node, ast.NotOp):
        inner = compile_when(node.operand, var, layouts, bindings, clock)
        return lambda row: not inner(row)
    if isinstance(node, ast.TempBin) and node.op in ("overlap", "precede"):
        left = compile_temporal(node.left, var, layouts, bindings, clock)
        right = compile_temporal(node.right, var, layouts, bindings, clock)
        if node.op == "overlap":
            for own, other, constant in (
                (node.left, node.right, right),
                (node.right, node.left, left),
            ):
                if (
                    isinstance(own, ast.TempVar)
                    and own.var == var
                    and layouts[var].valid is not None
                    and isinstance(other, ast.TempConst)
                ):
                    return _overlaps_constant(layouts[var], constant(None))

            def overlap_pred(row):
                a = left(row)
                b = right(row)
                return (
                    a is not None
                    and b is not None
                    and a[0] < b[1]
                    and b[0] < a[1]
                )

            return overlap_pred

        def precede_pred(row):
            # TQuel precede: a's last chronon is not after b's first.
            a = left(row)
            b = right(row)
            return a is not None and b is not None and a[1] - 1 <= b[0]

        return precede_pred
    raise ExecutionError(f"cannot compile when node {node!r}")


def make_asof_filter(layout: VarLayout, period: Period):
    """``fn(row) -> bool``: the version's transaction period overlaps the
    as-of period (the rollback visibility rule)."""
    tx_start, tx_stop = layout.tx
    p_start, p_stop = period.start, period.stop

    def visible(row):
        start = row[tx_start]
        stop = row[tx_stop]
        if stop <= start:
            stop = start + 1  # degenerate: created and stamped at once
        return start < p_stop and p_start < stop

    return visible


def conjunction(filters):
    """Combine row filters into one ``f1(row) and f2(row) and ...`` chain,
    evaluated in order and short-circuiting; an empty list accepts
    everything."""
    if not filters:
        return lambda row: True
    if len(filters) == 1:
        return filters[0]
    first, second = filters[0], filters[1]
    if len(filters) == 2:
        return lambda row: first(row) and second(row)
    rest = conjunction(filters[2:])
    return lambda row: first(row) and second(row) and rest(row)


def batch_conjunction(filters):
    """Fuse row filters into one ``fn(rows) -> list`` applied per batch.

    The batch execution kernel hands each page's decoded rows to this
    closure in one call, replacing a per-tuple closure invocation with a
    single list comprehension over the page; the filters chain inside it
    as in :func:`conjunction`.
    """
    if not filters:
        return lambda rows: rows
    if len(filters) == 1:
        check = filters[0]
        return lambda rows: [row for row in rows if check(row)]
    first, second = filters[0], filters[1]
    if len(filters) == 2:
        return lambda rows: [row for row in rows if first(row) and second(row)]
    rest = conjunction(filters[2:])
    return lambda rows: [
        row for row in rows if first(row) and second(row) and rest(row)
    ]
