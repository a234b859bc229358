"""The row engine as the differential suites' reference.

No config reaches :class:`~repro.relational.executor.Executor`: a
``Database`` always runs the columnar executor, so the suites that hold
the columnar operators (and through them sqlite and MPP) to the row
engine build it by hand over the database's own tables and clock.
"""

from repro.relational.executor import Executor

ENGINES = ("rows", "columnar")


def run_query(db, plan, engine="rows"):
    """Run ``plan`` as one read-only statement of ``db``.

    ``"columnar"`` is ``db.query``; ``"rows"`` is the reference executor
    over the same catalog, charging the same statement overhead to the
    same clock, so results *and* ``db.clock.snapshot()`` are comparable.
    """
    if engine == "columnar":
        return db.query(plan)
    assert engine == "rows", engine
    db.clock.charge_query()
    return Executor(db.tables, db.clock).run(plan)
