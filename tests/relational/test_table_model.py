"""``Table`` against a plain list-of-tuples model.

A table stores one ``ColumnBatch`` and nothing derived from it; these
tests hold that storage to the obvious row-list semantics: same rows,
same order, same return counts, first-writer-wins on the unique key,
all-or-nothing under validation failure — and a batch a scan was handed
never changes under a later mutation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.relational import ColumnBatch, Table, schema
from repro.relational.types import SchemaError, check_value

small = st.integers(min_value=0, max_value=5)
valid_rows = st.lists(st.tuples(small, st.one_of(st.none(), small)), max_size=8)
bad_value = st.sampled_from(["text", 1.5, True])


class TableModel(RuleBasedStateMachine):
    unique_key = None

    def __init__(self):
        super().__init__()
        self.table = Table(schema("t", "a:int", "b:int", unique_key=self.unique_key))
        self.model = []
        #: (batch a scan got, its rows at that time)
        self.handed_out = []

    def expected_insert(self, rows):
        """What the model stores of ``rows``: everything, or — keyed on
        ``a`` — the first row of each key not stored yet."""
        if self.unique_key is None:
            return list(rows)
        seen = {row[0] for row in self.model}
        fresh = []
        for row in rows:
            if row[0] not in seen:
                seen.add(row[0])
                fresh.append(row)
        return fresh

    @rule(rows=valid_rows, as_batch=st.booleans())
    def insert(self, rows, as_batch):
        fresh = self.expected_insert(rows)
        if as_batch:
            stored = self.table.insert_batch(ColumnBatch.from_rows(["a", "b"], rows))
        else:
            stored = self.table.insert(iter(rows))
        assert stored == len(fresh)
        self.model.extend(fresh)

    @rule(rows=valid_rows, bad=bad_value, where=st.integers(0, 8), column=st.integers(0, 1))
    def rejected_insert(self, rows, bad, where, column):
        where = min(where, len(rows))
        broken = (bad, 0) if column == 0 else (0, bad)
        with pytest.raises(SchemaError):
            self.table.insert(rows[:where] + [broken] + rows[where:])

    @rule(column=st.sampled_from(["a", "b"]), values=st.sets(st.one_of(st.none(), small)))
    def delete_in(self, column, values):
        pos = 0 if column == "a" else 1
        kept = [row for row in self.model if row[pos] not in values]
        removed = self.table.delete_in([column], {(value,) for value in values})
        assert removed == len(self.model) - len(kept)
        self.model = kept

    @rule()
    def truncate(self):
        self.table.truncate()
        self.model = []

    @precondition(lambda self: len(self.handed_out) < 4)
    @rule()
    def scan(self):
        batch = self.table.column_batch()
        self.handed_out.append((batch, batch.nrows, batch.to_rows()))

    @invariant()
    def table_equals_model(self):
        assert self.table.rows == self.model
        assert list(self.table) == self.model
        assert len(self.table) == len(self.model)
        assert self.table.project(["b", "a"]) == [(b, a) for a, b in self.model]

    @invariant()
    def handed_out_batches_never_change(self):
        for batch, nrows, rows in self.handed_out:
            assert batch.nrows == nrows and batch.to_rows() == rows


class KeyedTableModel(TableModel):
    unique_key = ["a"]


TestKeylessTable = TableModel.TestCase
TestKeyedTable = KeyedTableModel.TestCase
for case in (TestKeylessTable, TestKeyedTable):
    case.settings = settings(max_examples=40, stateful_step_count=20, deadline=None)


class TestPinnedValidation:
    """``np.asarray([1, True])`` is a clean int64 array: validation must
    look at the Python values, whichever kind the columns are."""

    def test_bool_is_not_an_int(self, list_columns):
        table = Table(schema("t", "a:int", "b:int"))
        table.insert([(1, 2)])
        table.column_batch().int_array(1)  # warm the numpy view, if any
        for rows in ([(1, True)], [(3, 4), (False, 5)]):
            with pytest.raises(SchemaError, match="invalid for column"):
                table.insert(rows)
        assert table.rows == [(1, 2)]

    def test_int_and_float_fit_a_float_column(self, list_columns):
        table = Table(schema("t", "a:int", "b:float"))
        assert table.insert([(1, 2.0), (2, 3), (3, None)]) == 3
        with pytest.raises(SchemaError):
            table.insert([(4, True)])
        with pytest.raises(SchemaError):
            table.insert([(4.0, 1.0)])  # a float is not an int
        assert table.rows == [(1, 2.0), (2, 3), (3, None)]

    @pytest.mark.parametrize(
        "rows",
        [[(1, 2), (3,)], [(1,), (3, 4)], [(1, 2), (3, 4, 5)], [(1, 2, 3)], [()]],
    )
    def test_ragged_client_row_is_rejected_not_truncated(self, list_columns, rows):
        table = Table(schema("t", "a:int", "b:int"))
        for validate in (True, False):
            with pytest.raises(SchemaError, match="row arity"):
                table.insert(rows, validate=validate)
        assert table.rows == []


values = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(allow_nan=False),
    st.text(max_size=2),
)


@given(
    rows=st.lists(st.tuples(values, values, values), max_size=12),
    types=st.tuples(*[st.sampled_from(["int", "float", "text"])] * 3),
)
@settings(max_examples=200, deadline=None)
def test_validate_batch_is_check_value_over_the_batch(rows, types):
    """Column-major validation accepts and rejects exactly what the
    per-value check does, and names the offender a row-major scan finds
    first."""
    table_schema = schema("t", *[f"c{i}:{tag}" for i, tag in enumerate(types)])
    offenders = [
        (value, pos)
        for row in rows
        for pos, value in enumerate(row)
        if not check_value(value, types[pos])
    ]
    batch = ColumnBatch.from_rows(table_schema.column_names, rows)
    if not offenders:
        table_schema.validate_batch(batch)
        return
    value, pos = offenders[0]
    with pytest.raises(SchemaError) as caught:
        table_schema.validate_batch(batch)
    assert str(caught.value) == (
        f"value {value!r} invalid for column t.c{pos} of type {types[pos]}"
    )
