"""Integration tests for error handling across the statement surface."""

import pytest

from repro import FOREVER
from repro.errors import (
    CatalogError,
    ChrononRangeError,
    ExecutionError,
    TQuelSemanticError,
    TQuelSyntaxError,
    UnknownRelationError,
)


@pytest.fixture
def basic(db):
    db.execute("create persistent interval r (id = i4, v = i4)")
    db.execute("range of x is r")
    db.execute("append to r (id = 1, v = 10)")
    return db


class TestDdlErrors:
    def test_modify_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("modify ghost to hash on id")

    def test_modify_unknown_structure(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to rtree on id")

    def test_modify_keyed_without_key(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to hash")

    def test_modify_unknown_key_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("modify r to hash on ghost")

    def test_modify_unknown_option(self, basic):
        with pytest.raises(TQuelSemanticError):
            basic.execute("modify r to hash on id where sparkle = 1")

    def test_modify_bad_history_layout(self, basic):
        with pytest.raises(CatalogError):
            basic.execute(
                'modify r to twolevel on id where history = "holographic"'
            )

    def test_index_duplicate_name(self, basic):
        basic.execute("index on r is v_idx (v)")
        with pytest.raises(CatalogError):
            basic.execute("index on r is v_idx (v)")

    def test_index_bad_levels(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("index on r is v2 (v) where levels = 3")

    def test_index_isam_structure_rejected(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("index on r is v2 (v) where structure = isam")

    def test_index_unknown_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("index on r is v2 (ghost)")

    def test_destroy_unknown(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("destroy ghost")

    def test_create_reserved_attribute(self, basic):
        from repro.errors import SchemaError

        with pytest.raises(SchemaError):
            basic.execute("create t (valid_from = i4)")

    def test_create_shadowing_system_relation(self, basic):
        from repro.errors import DuplicateRelationError

        with pytest.raises(DuplicateRelationError):
            basic.execute("create relations (x = i4)")

    def test_create_bad_type(self, basic):
        from repro.errors import RecordCodecError

        with pytest.raises(RecordCodecError):
            basic.execute("create t (x = blob)")


class TestStatementErrors:
    def test_range_over_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute("range of q is ghost")

    def test_empty_input(self, basic):
        with pytest.raises(ExecutionError):
            basic.execute("   ")

    def test_syntax_error_position(self, basic):
        with pytest.raises(TQuelSyntaxError) as info:
            basic.execute("retrieve (x.id,, x.v)")
        assert "line 1" in str(info.value)

    def test_append_value_overflow(self, basic):
        from repro.errors import RecordCodecError

        with pytest.raises(RecordCodecError):
            basic.execute("append to r (id = 1, v = 3000000000)")

    def test_copy_rows_arity(self, basic):
        with pytest.raises(ExecutionError):
            basic.copy_in("r", [(1,)])

    def test_multi_statement_results(self, basic):
        results = basic.execute(
            "retrieve (x.id); retrieve (x.v)"
        )
        assert isinstance(results, list) and len(results) == 2

    def test_as_of_through_before_at(self, basic):
        with pytest.raises(ExecutionError):
            basic.execute('retrieve (x.id) as of "1981" through "1980"')

    def test_vacuum_unknown_relation(self, basic):
        with pytest.raises(UnknownRelationError):
            basic.execute('vacuum ghost before "now"')


class TestStatementAtomicityOfErrors:
    def test_failed_statement_leaves_data_queryable(self, basic):
        with pytest.raises(TQuelSemanticError):
            basic.execute('retrieve (x.id) when x overlap "now" '
                          "where x.ghost = 1")
        assert basic.execute("retrieve (x.id)").rows

    def test_failed_ddl_keeps_catalog_consistent(self, basic):
        with pytest.raises(CatalogError):
            basic.execute("modify r to rtree on id")
        # The old structure still answers queries.
        assert basic.execute("retrieve (x.v) where x.id = 1").rows


class TestStoredChrononOutOfRange:
    """A stored chronon outside [0, 2^31-1] raises from exactly the rows
    and clauses that reach it.  The row is written below the language,
    since no statement can store one."""

    MESSAGE = r"^chronon -5 outside \[0, 2147483647\]$"

    @pytest.fixture
    def bad(self, db):
        db.execute("create interval s (id = i4)")
        db.execute("range of y is s")
        db.execute("append to s (id = 1)")
        db.relation("s").storage.insert((2, -5, FOREVER))
        db.pool.flush_statement()
        return db

    @pytest.mark.parametrize(
        "text",
        [
            'retrieve (y.id) when y overlap "now"',
            'retrieve (y.id) when start of y precede "now"',
            "retrieve (y.id)",  # the default result valid time
        ],
    )
    def test_clause_reading_the_row_raises(self, bad, text):
        with pytest.raises(ChrononRangeError, match=self.MESSAGE):
            bad.execute(text)

    def test_row_filtered_earlier_does_not_raise(self, bad):
        result = bad.execute(
            'retrieve (y.id) where y.id = 1 when y overlap "now"'
        )
        assert [row[0] for row in result.rows] == [1]
