"""Differential test of the compiled temporal predicates.

``repro.tquel.compile`` evaluates temporal operands as ``(start, stop)``
chronon pairs.  Hypothesis builds random operand trees (``overlap``,
``extend``, ``start of``, ``end of``) under ``overlap`` / ``precede`` /
``and`` / ``or`` / ``not`` over an interval variable and an event
variable, with rows whose stop does not follow their start, ``FOREVER``
endpoints, empty intersections and out-of-range chronons.  Every result
-- a pair, ``None`` for an empty period, a truth value, or the error
raised -- must equal what the ``Period`` methods of
:mod:`repro.temporal.interval` give.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ChrononRangeError
from repro.temporal.chronon import FOREVER
from repro.temporal.interval import Period
from repro.tquel import ast
from repro.tquel.compile import VarLayout, compile_temporal, compile_when


class _Clock:
    """Constants are spelled as their chronon in the generated trees."""

    @staticmethod
    def parse(text):
        return int(text)


# The loop variable x has an interval layout; the bound variable e is an
# event relation (valid_at) read through the bindings.
LAYOUTS = {
    "x": VarLayout(
        positions={"id": 0, "valid_from": 1, "valid_to": 2}, valid=(1, 2)
    ),
    "e": VarLayout(positions={"id": 0, "valid_at": 1}, valid_at=1),
}

in_range = st.one_of(
    st.integers(0, 6),
    st.sampled_from([FOREVER - 2, FOREVER - 1, FOREVER]),
)
chronons = st.one_of(in_range, in_range, in_range, st.integers(-3, -1))

operands = st.recursive(
    st.one_of(
        st.sampled_from([ast.TempVar("x"), ast.TempVar("e")]),
        in_range.map(lambda c: ast.TempConst(str(c))),
    ),
    lambda inner: st.one_of(
        st.builds(ast.TempEdge, st.sampled_from(["start", "end"]), inner),
        st.builds(
            ast.TempBin, st.sampled_from(["overlap", "extend"]), inner, inner
        ),
    ),
    max_leaves=5,
)

predicates = st.recursive(
    st.builds(
        ast.TempBin, st.sampled_from(["overlap", "precede"]), operands, operands
    ),
    lambda inner: st.one_of(
        st.builds(ast.NotOp, inner),
        st.builds(
            ast.BoolOp,
            st.sampled_from(["and", "or"]),
            st.lists(inner, min_size=2, max_size=3).map(tuple),
        ),
    ),
    max_leaves=4,
)


def reference_operand(expr, rows):
    """The operand's Period (or None) through the interval algebra."""
    if isinstance(expr, ast.TempConst):
        return Period.event(int(expr.text))
    if isinstance(expr, ast.TempVar):
        row = rows[expr.var]
        if expr.var == "e":
            return Period.event(row[1])
        start, stop = row[1], row[2]
        return Period(start, stop) if stop > start else Period.event(start)
    if isinstance(expr, ast.TempEdge):
        period = reference_operand(expr.operand, rows)
        if period is None:
            return None
        if expr.which == "start":
            return period.start_event()
        return period.end_event()
    left = reference_operand(expr.left, rows)
    right = reference_operand(expr.right, rows)
    if expr.op == "overlap":
        if left is None or right is None:
            return None
        return left.intersect(right)
    if left is None:
        return right
    if right is None:
        return left
    return left.extend(right)


def reference_predicate(node, rows) -> bool:
    if isinstance(node, ast.NotOp):
        return not reference_predicate(node.operand, rows)
    if isinstance(node, ast.BoolOp):
        parts = (reference_predicate(part, rows) for part in node.operands)
        return all(parts) if node.op == "and" else any(parts)
    left = reference_operand(node.left, rows)
    right = reference_operand(node.right, rows)
    if left is None or right is None:
        return False
    if node.op == "overlap":
        return left.overlaps(right)
    return left.precedes(right)


def outcome(fn, *args):
    """A comparable record of a call: its value or the error it raised."""
    try:
        return ("value", fn(*args))
    except ChrononRangeError as error:
        return ("error", str(error))


def as_pair(period):
    return None if period is None else (period.start, period.stop)


@st.composite
def scenarios(draw, trees):
    tree = draw(trees)
    x_row = (1, draw(chronons), draw(chronons))
    e_row = (2, draw(chronons))
    return tree, {"x": x_row, "e": e_row}


@settings(max_examples=400, deadline=None)
@given(scenarios(operands))
def test_operand_pairs_match_periods(scenario):
    expr, rows = scenario
    bindings = {"e": rows["e"]}
    fn = compile_temporal(expr, "x", LAYOUTS, bindings, _Clock())
    compiled = outcome(fn, rows["x"])
    expected = outcome(lambda: as_pair(reference_operand(expr, rows)))
    assert compiled == expected


@settings(max_examples=400, deadline=None)
@given(scenarios(predicates))
def test_when_predicates_match_periods(scenario):
    node, rows = scenario
    bindings = {"e": rows["e"]}
    fn = compile_when(node, "x", LAYOUTS, bindings, _Clock())
    compiled = outcome(fn, rows["x"])
    expected = outcome(lambda: reference_predicate(node, rows))
    assert compiled == expected


@settings(max_examples=400, deadline=None)
@given(
    st.sampled_from(["overlap", "precede"]),
    st.sampled_from(["x", "e"]),
    in_range,
    st.booleans(),
    st.tuples(chronons, chronons),
    chronons,
)
def test_variable_against_constant(op, var, constant, swap, x_valid, e_at):
    """The direct ``x overlap "now"`` shape, in either operand order."""
    operands = (ast.TempVar(var), ast.TempConst(str(constant)))
    if swap:
        operands = operands[::-1]
    node = ast.TempBin(op, *operands)
    rows = {"x": (1, *x_valid), "e": (2, e_at)}
    fn = compile_when(node, "x", LAYOUTS, {"e": rows["e"]}, _Clock())
    compiled = outcome(fn, rows["x"])
    expected = outcome(lambda: reference_predicate(node, rows))
    assert compiled == expected
