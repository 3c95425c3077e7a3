"""Unit tests for expression compilation (closures over rows/bindings)."""

import pytest

from repro.errors import ExecutionError
from repro.temporal.chronon import Clock, FOREVER
from repro.temporal.interval import Period
from repro.tquel import ast
from repro.tquel.compile import (
    VarLayout,
    batch_conjunction,
    compile_scalar,
    compile_temporal,
    compile_when,
    conjunction,
    make_asof_filter,
)


class _FakeClock:
    """Duck-typed 'clock' with the .parse() the compiler expects."""

    def __init__(self, now=1000):
        self._clock = Clock(start=now)

    def parse(self, text):
        from repro.temporal.parse import parse_temporal

        return parse_temporal(text, clock=self._clock)


LAYOUT = VarLayout(
    positions={"id": 0, "valid_from": 1, "valid_to": 2},
    valid=(1, 2),
)


class TestScalar:
    def test_attr_of_loop_var_reads_row(self):
        fn = compile_scalar(ast.Attr("h", "id"), "h", {"h": LAYOUT}, {})
        assert fn((7, 0, 1)) == 7

    def test_attr_of_bound_var_reads_bindings(self):
        bindings = {}
        fn = compile_scalar(ast.Attr("h", "id"), None, {"h": LAYOUT}, bindings)
        bindings["h"] = (9, 0, 1)
        assert fn(None) == 9

    def test_bindings_read_live(self):
        bindings = {}
        fn = compile_scalar(ast.Attr("h", "id"), None, {"h": LAYOUT}, bindings)
        bindings["h"] = (1, 0, 1)
        first = fn(None)
        bindings["h"] = (2, 0, 1)
        assert (first, fn(None)) == (1, 2)

    def test_unqualified_attr_uses_loop_var(self):
        fn = compile_scalar(ast.Attr(None, "id"), "h", {"h": LAYOUT}, {})
        assert fn((5, 0, 1)) == 5

    def test_arith_tree(self):
        expr = ast.BinOp(
            "+", ast.Attr("h", "id"), ast.BinOp("*", ast.Const(2), ast.Const(3))
        )
        fn = compile_scalar(expr, "h", {"h": LAYOUT}, {})
        assert fn((10, 0, 1)) == 16

    def test_truncating_division_like_c(self):
        fn = compile_scalar(
            ast.BinOp("/", ast.Const(-7), ast.Const(2)), None, {}, {}
        )
        assert fn(None) == -3  # trunc toward zero, not floor

    def test_division_by_zero(self):
        fn = compile_scalar(
            ast.BinOp("/", ast.Const(1), ast.Const(0)), None, {}, {}
        )
        with pytest.raises(ExecutionError):
            fn(None)

    def test_boolean_ops(self):
        expr = ast.BoolOp(
            "and",
            (
                ast.Compare(">", ast.Attr("h", "id"), ast.Const(5)),
                ast.NotOp(ast.Compare("=", ast.Attr("h", "id"), ast.Const(9))),
            ),
        )
        fn = compile_scalar(expr, "h", {"h": LAYOUT}, {})
        assert fn((7, 0, 1)) is True
        assert fn((9, 0, 1)) is False
        assert fn((3, 0, 1)) is False

    @pytest.mark.parametrize("op", ["=", "!=", "<", "<=", ">", ">="])
    def test_loop_attr_against_constant_param_and_bound_attr(self, op):
        import operator

        python_op = {
            "=": operator.eq, "!=": operator.ne, "<": operator.lt,
            "<=": operator.le, ">": operator.gt, ">=": operator.ge,
        }[op]
        layouts = {"h": LAYOUT, "g": LAYOUT}
        bindings = {"$params": {"p": 5}, "g": (5, 0, 1)}
        attr = ast.Attr("h", "id")
        for other in (ast.Const(5), ast.Param("p"), ast.Attr("g", "id")):
            for left, right in ((attr, other), (other, attr)):
                fn = compile_scalar(
                    ast.Compare(op, left, right), "h", layouts, bindings
                )
                for value in (4, 5, 6):
                    operands = (value, 5) if left is attr else (5, value)
                    assert fn((value, 0, 1)) is python_op(*operands)

    def test_unbound_param_raises_only_when_reached(self):
        fn = compile_scalar(
            ast.Compare("=", ast.Attr("h", "id"), ast.Param("p")),
            "h", {"h": LAYOUT}, {},
        )
        with pytest.raises(ExecutionError, match=r"\$p is not bound"):
            fn((1, 0, 1))


class TestTemporal:
    def test_const_resolves_once(self):
        fn = compile_temporal(ast.TempConst("now"), None, {}, {}, _FakeClock(500))
        assert fn(None) == (500, 501)

    def test_var_period_from_row(self):
        fn = compile_temporal(
            ast.TempVar("h"), "h", {"h": LAYOUT}, {}, _FakeClock()
        )
        assert fn((1, 100, 200)) == (100, 200)

    def test_overlap_is_intersection_as_operand(self):
        expr = ast.TempBin("overlap", ast.TempVar("h"), ast.TempConst("forever"))
        fn = compile_temporal(expr, "h", {"h": LAYOUT}, {}, _FakeClock())
        result = fn((1, 100, FOREVER))
        assert result == (FOREVER - 1, FOREVER)

    def test_empty_intersection_is_none_and_propagates(self):
        inner = ast.TempBin(
            "overlap", ast.TempVar("h"), ast.TempConst("beginning")
        )
        outer = ast.TempEdge("start", inner)
        fn = compile_temporal(outer, "h", {"h": LAYOUT}, {}, _FakeClock())
        assert fn((1, 100, 200)) is None

    def test_extend_ignores_empty_side(self):
        empty = ast.TempBin(
            "overlap", ast.TempVar("h"), ast.TempConst("beginning")
        )
        expr = ast.TempBin("extend", ast.TempVar("h"), empty)
        fn = compile_temporal(expr, "h", {"h": LAYOUT}, {}, _FakeClock())
        assert fn((1, 100, 200)) == (100, 200)

    def test_when_predicates(self):
        overlap = ast.TempBin("overlap", ast.TempVar("h"), ast.TempConst("now"))
        fn = compile_when(overlap, "h", {"h": LAYOUT}, {}, _FakeClock(150))
        assert fn((1, 100, 200)) is True
        assert fn((1, 300, 400)) is False

    def test_when_precede(self):
        precede = ast.TempBin(
            "precede", ast.TempVar("h"), ast.TempConst("now")
        )
        fn = compile_when(precede, "h", {"h": LAYOUT}, {}, _FakeClock(500))
        assert fn((1, 100, 200)) is True
        assert fn((1, 100, 900)) is False


class TestLayouts:
    def test_for_fields_detects_time_attributes(self):
        from repro.storage.record import FieldSpec

        fields = [
            FieldSpec.parse("id", "i4"),
            FieldSpec.parse("valid_from", "time"),
            FieldSpec.parse("valid_to", "time"),
        ]
        layout = VarLayout.for_fields(fields)
        assert layout.valid == (1, 2)
        assert layout.tx is None

    def test_degenerate_period_becomes_event(self):
        fn = compile_temporal(
            ast.TempVar("h"), "h", {"h": LAYOUT}, {}, _FakeClock()
        )
        assert fn((1, 100, 100)) == (100, 101)


class TestFilters:
    def test_asof_filter_visibility(self):
        layout = VarLayout(
            positions={"transaction_start": 0, "transaction_stop": 1},
            tx=(0, 1),
        )
        visible = make_asof_filter(layout, Period.event(150))
        assert visible((100, 200))
        assert visible((150, FOREVER))
        assert not visible((200, 300))
        assert not visible((100, 150))  # stamped out exactly at 150

    def test_asof_filter_degenerate_version(self):
        layout = VarLayout(
            positions={"transaction_start": 0, "transaction_stop": 1},
            tx=(0, 1),
        )
        visible = make_asof_filter(layout, Period.event(100))
        assert visible((100, 100))  # created and stamped at the same chronon

    def test_conjunction_empty_accepts(self):
        assert conjunction([])(None) is True

    def test_conjunction_combines(self):
        # A filter that divides by zero: calling it raises.
        boom = compile_scalar(
            ast.Compare(
                "=", ast.BinOp("/", ast.Const(1), ast.Const(0)), ast.Const(0)
            ),
            None, {}, {},
        )
        for count in (2, 3, 4):
            # Filter k accepts r > k, so row r is first rejected by filter r.
            checks = [lambda r, k=k: r > k for k in range(count)]
            fn, batch = conjunction(checks), batch_conjunction(checks)
            assert fn(count)
            assert batch([count, 0, count - 1]) == [count]
            assert not any(fn(rejected) for rejected in range(count))
            # A filter after a false one is never called.
            guarded = checks[:-1] + [boom]
            fn, batch = conjunction(guarded), batch_conjunction(guarded)
            for rejected in range(count - 1):
                assert not fn(rejected)
                assert batch([rejected]) == []
            with pytest.raises(ExecutionError):
                fn(count)
            with pytest.raises(ExecutionError):
                batch([count])
