"""Fixtures shared by the relational engine's suites."""

import pytest

import repro.mpp.cluster as cluster_module
import repro.relational.table as table_module
from repro.relational.columnar import ColumnBatch, values_of


def listed(batch):
    """``batch`` with every column a Python list: the same values, in the
    kind that selects each kernel's list path."""
    return ColumnBatch(batch.columns, [values_of(col) for col in batch.cols], batch.nrows)


@pytest.fixture(params=[False, True], ids=["numpy", "no-numpy"])
def list_columns(request, monkeypatch):
    """Run the test twice: client rows enter the engine as the columns
    ``column_of`` gives them (``numpy``: arrays where the values allow),
    then as list columns (``no-numpy``: no array anywhere in the input),
    so each kernel takes its list path on the same data.  Columns a
    statement builds itself (a concat, a constant, an id range) are
    still decided by ``column_of``."""
    if request.param:
        rows_to_batch = table_module.batch_of_rows

        def batch_of_lists(schema, rows):
            return listed(rows_to_batch(schema, rows))

        monkeypatch.setattr(table_module, "batch_of_rows", batch_of_lists)
        monkeypatch.setattr(cluster_module, "batch_of_rows", batch_of_lists)
    return request.param
