"""Fixtures shared by the relational engine's suites."""

import pytest

from repro.relational.columnar import numpy_enabled, set_numpy


@pytest.fixture(params=[False, True], ids=["numpy", "no-numpy"])
def no_numpy(request):
    """Run the test twice: numpy fast paths on, then switched off (the
    switch ``PROBKB_NO_NUMPY`` sets for a whole process)."""
    before = numpy_enabled()
    set_numpy(not request.param)
    yield request.param
    set_numpy(before)
