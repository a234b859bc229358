"""Columnar batches and vectorized kernels for the relational engine.

Grounding is dominated by a handful of relational operators over
integer key columns (Section 4 of the paper pushes grounding into
exactly these operators), so this module implements them over
:class:`ColumnBatch` — one typed array or one list per column — with
two kernel paths:

* a **numpy path** over :class:`TypedColumn` s: a gather of a
  large batch hands on row indexes (:class:`DeferredColumn`), a small
  one and a concat are one array operation per column; multi-column
  integer keys are encoded into a single ``int64`` code array and
  joins / anti-joins / distinct / group-by run as ``argsort`` /
  ``searchsorted`` / ``isin`` / ``unique`` / ``bincount`` over the
  codes, and a join or anti-join against a table's stored batch probes
  that batch's sorted :class:`KeyIndex` instead of encoding it;
* a **pure-Python path** with identical semantics (dict/set loops
  over zipped key columns), which the inputs select: a column that is a
  list (see :func:`column_of`), a key column with NULLs, or keys too
  wide for one ``int64`` code.

Both paths produce the *same rows in the same order* as the row engine
and charge the *same* :class:`~repro.relational.cost.CostClock`
counters, so the row engine stays usable as the reference the
differential tests compare against.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import (
    Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union,
)

import numpy as np

from .expr import COMPARE_OPS, And, Col, Compare, Const, Expr, IsNull, Not, Or
from .types import FLOAT, INT, ExecutionError, Row, Value, first_invalid

__all__ = ["ColumnBatch", "TypedColumn"]

#: Largest combined key range the int64 encoding may cover; above this
#: the multi-column Horner encoding could overflow and we fall back.
_MAX_CODE_RANGE = 2 ** 62

#: Fewest keys a sorted-code probe (:meth:`KeyIndex.runs`) finds with one
#: binary search: below it two ``searchsorted`` calls cost less than the
#: one search's extra array steps (measured on 10^4-10^6 codes).
_ONE_SEARCH_MIN_KEYS = 256


def numpy_enabled() -> bool:
    """True: numpy is a required dependency and no switch turns its
    kernels off.  ``benchmarks/e2e/run.py`` records it per run."""
    return True


IndexSeq = Union[Sequence[int], Any]  # list of ints or np.ndarray


class TypedColumn:
    """An ``int64`` or ``float64`` array plus an optional boolean null
    mask (True = NULL; ``values`` under a set bit is unspecified).
    Immutable, like a column list."""

    __slots__ = ("values", "mask")

    def __init__(self, values: Any, mask: Any = None) -> None:
        self.values = values
        self.mask = mask if mask is not None and mask.any() else None

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, row: int) -> Value:
        if self.mask is not None and self.mask[row]:
            return None
        return self.values[row].item()

    def tolist(self) -> List[Value]:
        out = self.values.tolist()  # Python scalars, never numpy's
        if self.mask is not None:
            for row in self.mask.nonzero()[0].tolist():
                out[row] = None
        return out

    def take(self, indices: IndexSeq) -> "TypedColumn":
        return TypedColumn(
            self.values[indices], None if self.mask is None else self.mask[indices]
        )


class DeferredColumn(TypedColumn):
    """``base`` gathered at ``index``, not yet copied: what a gather (a
    join's, a filter's, a motion piece's) hands on.  ``values`` and
    ``mask`` are gathered the first time something reads them and kept
    in their slots, so every later read is a plain attribute read.
    ``base`` is never deferred itself: gathering a deferred column
    composes its index instead.  It pickles as the plain column it
    stands for, so only its own rows travel."""

    __slots__ = ("base", "index")

    def __init__(self, base: TypedColumn, index: Any) -> None:
        self.base, self.index = base, index
        if base.mask is None:
            self.mask = None

    def __getattr__(self, name: str) -> Any:  # a slot not filled yet
        if name == "values":
            self.values = self.base.values[self.index]
            return self.values
        if name == "mask":
            mask = self.base.mask[self.index]
            self.mask = mask if mask.any() else None
            return self.mask
        raise AttributeError(name)

    def __len__(self) -> int:
        return len(self.index)

    def take(self, indices: IndexSeq) -> TypedColumn:
        return self.base.take(self.index[indices])

    def __reduce__(self) -> Tuple[Any, ...]:
        return TypedColumn, (self.values, self.mask)


ColumnData = Union[List[Value], TypedColumn]

#: Fewest rows a gather defers its typed columns for.  Below it a column
#: is copied at once: a deferred one costs a Python object and a first
#: read through ``__getattr__`` per column, more than the copy it saves
#: on a small batch (the MPP segments' many per-segment pieces).
_DEFER_MIN_ROWS = 1024


def settled(column: ColumnData) -> ColumnData:
    """The column with its values gathered and its base let go."""
    if isinstance(column, DeferredColumn):
        return TypedColumn(column.values, column.mask)
    return column


def column_of(values: List[Value]) -> ColumnData:
    """The column for Python values entering the engine — the one place
    a column's kind is decided.  Ints become an ``int64`` array, floats
    a ``float64`` one, NULLs the mask (nothing but NULLs: ``int64``).
    The list itself is the column when an array would retype a value
    (text, ``bool``, ints mixed with floats, an int beyond int64) or
    lose its identity (the row engine's sets find a NaN by ``is``)."""
    kinds = set(map(type, values))
    nullable = type(None) in kinds
    kinds.discard(type(None))
    if not (kinds <= {int} or kinds == {float}):
        return values
    mask, filled = None, values
    if nullable:
        mask = np.array([value is None for value in values])
        filled = [0 if value is None else value for value in values]
    try:
        array = np.array(filled, dtype=np.float64 if kinds == {float} else np.int64)
    except OverflowError:
        return values
    if array.dtype.kind == "f" and np.isnan(array).any():
        return values
    return TypedColumn(array, mask)


def constant_column(value: Value, nrows: int) -> ColumnData:
    """``nrows`` copies of ``value``, of the kind :func:`column_of`
    gives them; a NULL (``int64`` under a full mask) and an ``int64``
    int are built as the array directly."""
    if value is None:
        return TypedColumn(np.zeros(nrows, np.int64), np.ones(nrows, bool))
    if type(value) is int and -(2 ** 63) <= value < 2 ** 63:
        return TypedColumn(np.full(nrows, value, np.int64))
    return column_of([value] * nrows)


def int_range(start: int, stop: int) -> ColumnData:
    """``range(start, stop)`` as a column of the kind :func:`column_of`
    gives it, built by ``np.arange`` when it fits in an ``int64``."""
    if -(2 ** 63) <= start and stop <= 2 ** 63:
        return TypedColumn(np.arange(start, stop, dtype=np.int64))
    return column_of(list(range(start, stop)))


def values_of(column: ColumnData) -> List[Value]:
    """The column as a list of Python scalars."""
    return column.tolist() if isinstance(column, TypedColumn) else column


def gather_columns(cols: Sequence[ColumnData], indices: IndexSeq) -> List[ColumnData]:
    """Every column at ``indices`` (with repetition).  From
    :data:`_DEFER_MIN_ROWS` rows on a typed column is deferred
    (:class:`DeferredColumn`), not copied: the columns of one input share
    one index, and a deferred input's index is composed with ``indices``
    once per distinct index, not once per column.  Below it each typed
    column is one fancy index.  A list column is gathered at once, by
    one comprehension; the index sequence is converted at most once each
    way."""
    typed = [isinstance(col, TypedColumn) for col in cols]
    if any(typed):
        array = np.asarray(indices, dtype=np.intp)
    plain = indices.tolist() if hasattr(indices, "tolist") and not all(typed) else indices
    if len(indices) < _DEFER_MIN_ROWS:
        return [
            col.take(array) if is_typed else [col[i] for i in plain]
            for col, is_typed in zip(cols, typed)
        ]
    composed: Dict[int, Any] = {}
    out: List[ColumnData] = []
    for col, is_typed in zip(cols, typed):
        if not is_typed:
            out.append([col[i] for i in plain])
        elif isinstance(col, DeferredColumn):
            index = composed.get(id(col.index))
            if index is None:
                index = composed[id(col.index)] = col.index[array]
            out.append(DeferredColumn(col.base, index))
        else:
            out.append(DeferredColumn(col, array))
    return out


def concat_columns(parts: Sequence[ColumnData]) -> ColumnData:
    """The parts appended in order: one ``np.concatenate`` when they are
    typed alike.  NULL has no type, so an all-NULL part takes its
    neighbours' dtype; any other mix goes back through the Python
    values, which decide the kind again."""
    if all(isinstance(part, TypedColumn) for part in parts):
        nulls = [part.mask is not None and part.mask.all() for part in parts]
        dtypes = {part.values.dtype for part, null in zip(parts, nulls) if not null}
        if len(dtypes) <= 1:
            dtype = dtypes.pop() if dtypes else np.int64
            values = [
                np.zeros(len(part), dtype) if null else part.values
                for part, null in zip(parts, nulls)
            ]
            if all(part.mask is None for part in parts):
                return TypedColumn(np.concatenate(values))
            masks = [
                np.zeros(len(part), bool) if part.mask is None else part.mask
                for part in parts
            ]
            return TypedColumn(np.concatenate(values), np.concatenate(masks))
    return column_of([value for part in parts for value in values_of(part)])


def first_invalid_row(column: ColumnData, type_tag: str) -> Optional[int]:
    """Row of the first value a ``type_tag`` column rejects, or None: a
    dtype test for a typed column (no ``bool`` gets into one),
    :func:`~.types.first_invalid` over the values of a list."""
    if not isinstance(column, TypedColumn):
        return first_invalid(column, type_tag)
    if type_tag == FLOAT or (type_tag == INT and column.values.dtype.kind == "i"):
        return None
    rows = range(len(column)) if column.mask is None else (~column.mask).nonzero()[0]
    return int(rows[0]) if len(rows) else None


class ColumnBatch:
    """A materialized relation stored one column at a time.

    ``cols[i]`` is column ``i`` — a :class:`TypedColumn` or a Python
    list, see :func:`column_of` — and ``cols[i][j]`` its value in row
    ``j``.  Columns are immutable once a batch is built (kernels never
    write into one), so batches may share them: projecting a column is a
    reference, not a copy, and a gathered column may be a deferred view
    of its input.  A batch is also what a :class:`~.table.Table` stores:
    a mutation replaces the table's batch, so one handed out by a scan
    never changes.

    Only Python scalars leave a batch: :meth:`tuples`, :meth:`to_rows`
    and ``cols[i][j]`` never hand out a numpy scalar.  It pickles as its
    columns, a typed one as its array buffers (a deferred one as its own
    rows).
    """

    __slots__ = ("columns", "cols", "nrows", "indexes", "__weakref__")

    def __init__(
        self,
        columns: Sequence[str],
        cols: Sequence[ColumnData],
        nrows: Optional[int] = None,
    ) -> None:
        self.columns = list(columns)
        self.cols = list(cols)
        if nrows is None:
            nrows = len(self.cols[0]) if self.cols else 0
        self.nrows = nrows
        #: a table's stored batch: key positions -> its :class:`KeyIndex`
        #: (None when the key cannot be indexed), filled by :func:`key_index`;
        #: None for every other batch
        self.indexes: Optional[Dict[Tuple[int, ...], Optional["KeyIndex"]]] = None

    def __reduce__(self) -> Tuple[Any, ...]:
        return ColumnBatch, (self.columns, self.cols, self.nrows)  # never an index

    @classmethod
    def from_rows(cls, columns: Sequence[str], rows: Sequence[Row]) -> "ColumnBatch":
        transposed = zip(*rows) if rows else [() for _ in columns]
        return cls(columns, [column_of(list(values)) for values in transposed], len(rows))

    @classmethod
    def concat(
        cls, columns: Sequence[str], batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        """The batches' rows appended in order, under ``columns``.  A
        single non-empty input is not copied: its columns are shared."""
        filled = [batch for batch in batches if batch.nrows]
        if len(filled) == 1:
            return filled[0].rename(columns)
        if not filled:
            return cls.from_rows(columns, ())
        cols = [concat_columns(parts) for parts in zip(*(b.cols for b in filled))]
        return cls(columns, cols, sum(batch.nrows for batch in filled))

    def tuples(self, positions: Optional[Sequence[int]] = None) -> Iterator[Row]:
        """The rows (projected on ``positions``), lazily."""
        cols = self.cols if positions is None else [self.cols[p] for p in positions]
        return zip(*map(values_of, cols)) if cols else itertools.repeat((), self.nrows)

    def to_rows(self) -> List[Row]:
        return list(self.tuples())

    def __len__(self) -> int:
        return self.nrows

    def rename(self, columns: Sequence[str]) -> "ColumnBatch":
        """Same data under different column names (columns and key
        indexes are shared)."""
        out = ColumnBatch(columns, self.cols, self.nrows)
        out.indexes = self.indexes
        return out

    def project(self, positions: Sequence[int]) -> "ColumnBatch":
        """The columns at ``positions`` (shared), as a batch."""
        names = [self.columns[pos] for pos in positions]
        return ColumnBatch(names, [self.cols[pos] for pos in positions], self.nrows)

    def gather(self, indices: IndexSeq) -> "ColumnBatch":
        """Rows at ``indices`` (with repetition), as a new batch."""
        return ColumnBatch(
            self.columns, gather_columns(self.cols, indices), len(indices)
        )

    def int_array(self, pos: int) -> Any:
        """The column's ``int64`` array, or None.  Floats are excluded so
        the key encoding can never equate ``2**60`` with ``2.0**60``'s
        rounding neighbours."""
        arr = self.num_array(pos)
        return arr if arr is not None and arr.dtype.kind == "i" else None

    def num_array(self, pos: int) -> Any:
        """The column's array, or None for a list or a column with NULLs."""
        col = self.cols[pos]
        return col.values if isinstance(col, TypedColumn) and col.mask is None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch({self.columns}, {self.nrows} rows)"


# -- integer key encoding ----------------------------------------------------


def _encode(*sides: Tuple[ColumnBatch, Sequence[int]]) -> Optional[List[Any]]:
    """One int64 code array per ``(batch, key positions)`` side, by
    Horner's rule over the key columns' value ranges.  Ranges are taken
    over all sides together, so equal tuples — and only equal tuples —
    get equal codes.  None (→ pure-Python fallback) unless every side
    has rows, every key column an ``int_array``, and the combined range
    fits in an int64."""
    if not all(batch.nrows for batch, _ in sides):
        return None
    keys = [[batch.int_array(pos) for pos in positions] for batch, positions in sides]
    if any(arr is None for arrays in keys for arr in arrays):
        return None
    codes = [np.zeros(batch.nrows, dtype=np.int64) for batch, _ in sides]
    total = 1
    for arrays in zip(*keys):
        low = min(int(arr.min()) for arr in arrays)
        span = max(int(arr.max()) for arr in arrays) - low + 1
        total *= span
        if total > _MAX_CODE_RANGE:
            return None
        codes = [code * span + (arr - low) for code, arr in zip(codes, arrays)]
    return codes


class KeyIndex:
    """A stored batch's key columns, sorted: ``codes`` holds each row's
    Horner code over fixed per-column ranges (``lows`` / ``spans``) in
    ascending order, ties in row order, and ``rows`` the row of each.
    An append makes a new index (:meth:`merged`)."""

    __slots__ = ("lows", "spans", "codes", "rows", "_runs")

    def __init__(
        self, lows: Tuple[int, ...], spans: Tuple[int, ...], codes: Any = None, rows: Any = None
    ) -> None:
        self.lows, self.spans, self.codes, self.rows = lows, spans, codes, rows
        #: ``(distinct codes, bounds)``: the ``i``-th distinct code's rows
        #: are ``codes[bounds[i]:bounds[i + 1]]``; found by :meth:`runs`
        self._runs: Any = None

    def encode(self, batch: ColumnBatch, positions: Sequence[int]) -> Any:
        """``batch``'s codes on ``positions`` under these ranges, -1
        where a value falls outside them; None unless every key column
        is an ``int_array``."""
        arrays = [batch.int_array(pos) for pos in positions]
        if any(arr is None for arr in arrays):
            return None
        codes, inside = 0, True
        for arr, low, span in zip(arrays, self.lows, self.spans):
            shifted = arr - low
            # as unsigned, a value below the range lands above it
            inside = inside & (shifted.view(np.uint64) < span)
            codes = codes * span + shifted  # wraps only where not inside
        return np.where(inside, codes, -1)

    def lookup(
        self, batch: ColumnBatch, positions: Sequence[int]
    ) -> Optional[Tuple[Any, Any]]:
        """Per ``batch`` row, ``(lo, hi)``: the stored rows with its key
        are ``rows[lo:hi]``.  None when the batch cannot be encoded."""
        codes = self.encode(batch, positions)
        return None if codes is None else self.runs(codes)

    def runs(self, keys: Any) -> Tuple[Any, Any]:
        """``(lo, hi)`` per code of ``keys``: ``codes[lo:hi]`` equal it.
        One ``searchsorted`` over the distinct codes finds each key's
        run, whose bounds give both.  The runs are found once per index,
        by the first probe of at least a sixteenth as many keys as codes
        (they cost about as much as searching that many keys again);
        until then, and for fewer than :data:`_ONE_SEARCH_MIN_KEYS` keys,
        it is the two searches."""
        codes = self.codes
        if keys.size < _ONE_SEARCH_MIN_KEYS or not codes.size or (
            self._runs is None and keys.size * 16 < codes.size
        ):
            return codes.searchsorted(keys, "left"), codes.searchsorted(keys, "right")
        if self._runs is None:
            starts = np.flatnonzero(codes[1:] != codes[:-1]) + 1
            self._runs = codes[np.append(0, starts)], np.concatenate(([0], starts, [codes.size]))
        distinct, bounds = self._runs
        run = distinct.searchsorted(keys, "left")
        found = distinct.take(run, mode="clip") == keys
        return bounds.take(run), bounds.take(run + found)

    def merged(
        self, batch: ColumnBatch, positions: Sequence[int], offset: int
    ) -> Optional["KeyIndex"]:
        """The index after ``batch`` is appended at row ``offset``, or
        None when one of its keys falls outside the ranges."""
        codes = self.encode(batch, positions)
        if codes is None or (codes < 0).any():
            return None
        order = np.argsort(codes, kind="stable")
        at = self.codes.searchsorted(codes[order], "right")  # after equal stored keys
        return KeyIndex(
            self.lows,
            self.spans,
            np.insert(self.codes, at, codes[order]),
            np.insert(self.rows, at, order + offset),
        )


def key_index(batch: ColumnBatch, positions: Sequence[int]) -> Optional[KeyIndex]:
    """The index of a stored batch (see :class:`~.table.Table`) on
    ``positions``, built on first use; None for any other batch, or for
    keys it cannot hold (not NULL-free ints, or too wide a range).  Each
    column's range is its stored values' with their width again on each
    side, so appends of nearby keys merge into it."""
    key = tuple(positions)
    if batch.indexes is None or not batch.nrows or not key:
        return None
    if key not in batch.indexes:
        arrays = [batch.int_array(pos) for pos in key]
        index = None
        if all(arr is not None for arr in arrays):
            lows, spans = [], []
            for arr in arrays:
                low, high = int(arr.min()), int(arr.max())
                pad = high - low + 1
                low, high = max(low - pad, -2 ** 63), min(high + pad, 2 ** 63 - 2)
                lows.append(low)
                spans.append(high - low + 1)
            if math.prod(spans) <= _MAX_CODE_RANGE:
                index = KeyIndex(tuple(lows), tuple(spans))
                codes = index.encode(batch, key)
                order = np.argsort(codes, kind="stable")
                index.codes, index.rows = codes[order], order
        batch.indexes[key] = index
    return batch.indexes[key]


def _probe(
    indexed: ColumnBatch, ipos: Sequence[int], other: ColumnBatch, opos: Sequence[int]
) -> Optional[Tuple[Any, Any, Any]]:
    """``(rows, lo, hi)`` of ``other``'s keys looked up in ``indexed``'s
    key index (see :meth:`KeyIndex.lookup`), or None when either side
    cannot take part."""
    index = key_index(indexed, ipos)
    found = None if index is None else index.lookup(other, opos)
    return None if found is None else (index.rows, *found)


def _expand(rows: Any, lo: Any, hi: Any) -> Tuple[Any, Any]:
    """``(rows[lo[j]:hi[j]] for every j, concatenated; the j of each)``."""
    counts = hi - lo
    total = int(counts.sum())
    if not total:
        return lo[:0], lo[:0]
    owner = np.repeat(np.arange(lo.size), counts)
    # position within each run of matches
    intra = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
    return rows[np.repeat(lo, counts) + intra], owner


# -- join kernels ------------------------------------------------------------


def join_indices(
    left: ColumnBatch,
    right: ColumnBatch,
    lpos: Sequence[int],
    rpos: Sequence[int],
) -> Tuple[IndexSeq, IndexSeq, int, int]:
    """Matching (left_idx, right_idx) pairs of an equi-join.

    Returns ``(left_idx, right_idx, built, probed)`` where the clock
    charges mirror the row engine: the smaller input (ties: left) is
    the build side.  Pair order is exactly the row engine's — probe
    rows in input order, matches within a key in build-input order —
    so downstream operators see identical row streams.  NULL keys
    never match.
    """
    build_left = left.nrows <= right.nrows
    (build, bpos), (probe, ppos) = (
        ((left, lpos), (right, rpos)) if build_left else ((right, rpos), (left, lpos))
    )
    by_build = _probe(build, bpos, probe, ppos)
    by_probe = None if by_build is not None else _probe(probe, ppos, build, bpos)
    if by_build is not None:  # a stored build side: its index is the sorted hash table
        build_idx, probe_idx = _expand(*by_build)
    elif by_probe is not None:  # a stored probe side: its rows per build key, probe-major
        probe_idx, build_idx = _expand(*by_probe)
        order = np.argsort(probe_idx, kind="stable")
        build_idx, probe_idx = build_idx[order], probe_idx[order]
    elif (codes := _encode((build, bpos), (probe, ppos))) is not None:
        build_idx, probe_idx = _np_join(*codes)
    elif build.nrows:
        build_idx, probe_idx = _dict_join(build, probe, bpos, ppos)
    else:
        build_idx, probe_idx = [], []  # nothing to match: skip the probe
    if build_left:
        return build_idx, probe_idx, build.nrows, probe.nrows
    return probe_idx, build_idx, build.nrows, probe.nrows


def _np_join(bcode: Any, pcode: Any) -> Tuple[Any, Any]:
    order = np.argsort(bcode, kind="stable")
    build = KeyIndex((), (), bcode[order], order)  # probed like a stored index
    return _expand(order, *build.runs(pcode))


def _dict_join(
    build: ColumnBatch,
    probe: ColumnBatch,
    bpos: Sequence[int],
    ppos: Sequence[int],
) -> Tuple[List[int], List[int]]:
    table: Dict[Tuple[Value, ...], List[int]] = defaultdict(list)
    for i, key in enumerate(build.tuples(bpos)):
        if None in key:
            continue  # SQL semantics: NULL keys never join
        table[key].append(i)
    build_idx: List[int] = []
    probe_idx: List[int] = []
    for j, key in enumerate(probe.tuples(ppos)):
        matches = table.get(key)
        if not matches:
            continue
        build_idx.extend(matches)
        probe_idx.extend([j] * len(matches))
    return build_idx, probe_idx


def anti_join_indices(
    left: ColumnBatch,
    right: ColumnBatch,
    lpos: Sequence[int],
    rpos: Sequence[int],
) -> IndexSeq:
    """Indices of left rows with no key match on the right.

    Matches the row engine's set semantics exactly: *every* right key
    tuple (including NULL-bearing ones) enters the existing-set, and a
    left row survives iff its tuple is absent.
    """
    if not left.nrows:
        return []
    if not right.nrows:
        return np.arange(left.nrows)
    found = _probe(right, rpos, left, lpos)
    if found is not None:  # a stored right side
        _, lo, hi = found
        return np.nonzero(lo == hi)[0]
    found = _probe(left, lpos, right, rpos)
    if found is not None:  # a stored left side: drop the rows the keys hit
        keep = np.ones(left.nrows, dtype=bool)
        keep[_expand(*found)[0]] = False
        return np.nonzero(keep)[0]
    codes = _encode((left, lpos), (right, rpos))
    if codes is not None:
        return np.nonzero(~np.isin(*codes))[0]
    existing = set(right.tuples(rpos))
    return [i for i, key in enumerate(left.tuples(lpos)) if key not in existing]


# -- distinct / grouping -----------------------------------------------------


def distinct_indices(batch: ColumnBatch) -> IndexSeq:
    """Indices of the first occurrence of each distinct row, in input
    order (first writer wins, as in the row engine's set-based dedup)."""
    if not batch.nrows:
        return []
    codes = _encode((batch, range(len(batch.cols))))
    if codes is not None:
        return np.sort(np.unique(codes[0], return_index=True)[1])
    groups = group_indices(batch, range(len(batch.cols)))
    return [rows[0] for rows in groups.values()]


def fresh_key_indices(
    batch: ColumnBatch, stored: ColumnBatch, positions: Sequence[int]
) -> IndexSeq:
    """Indices of the ``batch`` rows a unique key on ``positions`` lets
    into ``stored``: the key is neither stored nor carried by an earlier
    row of the batch (first writer wins)."""
    keys = batch.project(positions)
    first = distinct_indices(keys)
    if not stored.nrows:
        return first
    absent = anti_join_indices(
        keys.gather(first), stored, range(len(positions)), positions
    )
    return first[absent] if hasattr(first, "dtype") else [first[i] for i in absent]


def key_groups(
    batch: ColumnBatch, positions: Sequence[int]
) -> Optional[Tuple[Any, Any]]:
    """``(first, group)`` over an int-encodable key: ``first[g]`` is the
    row where the ``g``-th distinct key first occurs (groups in
    first-occurrence order), ``group[i]`` the group of row ``i``.
    None → the caller's Python loop."""
    codes = _encode((batch, positions))
    if codes is None:
        return None
    _, first, inverse = np.unique(codes[0], return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return first[order], rank[inverse]


def group_indices(
    batch: ColumnBatch, group_pos: Sequence[int]
) -> "Dict[Tuple[Value, ...], List[int]]":
    """Row indices per group key, keys in first-occurrence order
    (matching the row engine's dict-insertion iteration order)."""
    if not group_pos:
        return {(): list(range(batch.nrows))}
    groups: Dict[Tuple[Value, ...], List[int]] = defaultdict(list)
    for i, key in enumerate(batch.tuples(group_pos)):
        groups[key].append(i)
    return dict(groups)


#: Each aggregate but COUNT, over the non-NULL values of one group in
#: input order.
_REDUCERS: Dict[str, Callable[[List[Value]], Value]] = {
    "count_distinct": lambda values: len(set(values)),
    "min": lambda values: min(values) if values else None,
    "max": lambda values: max(values) if values else None,
    "sum": lambda values: sum(values) if values else None,
}


def _reducer(func: str, col: Optional[ColumnData]) -> Callable[[List[Value]], Value]:
    if col is None:
        raise ExecutionError(f"aggregate {func!r} requires a column")
    if func not in _REDUCERS:
        raise ExecutionError(f"unknown aggregate {func!r}")
    return _REDUCERS[func]


def aggregate_column(
    func: str, col: Optional[List[Value]], indices: Sequence[int]
) -> Value:
    """One aggregate over one group, columnar form of executor._aggregate."""
    if func == "count":
        if col is None:
            return len(indices)
        return sum(1 for i in indices if col[i] is not None)
    return _reducer(func, col)([col[i] for i in indices if col[i] is not None])


def _aggregate_typed(
    func: str, col: Optional[TypedColumn], group: Any, ngroups: int
) -> ColumnData:
    """One aggregate over every group of :func:`key_groups` at once."""
    values = None if col is None else col.values
    if col is not None and col.mask is not None:
        valid = ~col.mask
        group, values = group[valid], values[valid]
    counts = np.bincount(group, minlength=ngroups).astype(np.int64, copy=False)
    if func == "count":
        return TypedColumn(counts)
    reduce = _reducer(func, col)
    if func in ("min", "max") and values.dtype.kind == "i":
        info = np.iinfo(np.int64)
        out = np.full(ngroups, info.max if func == "min" else info.min, np.int64)
        (np.minimum if func == "min" else np.maximum).at(out, group, values)
        return TypedColumn(out, counts == 0)
    # float ties (0.0 / -0.0), the order a sum is added in, int sums
    # beyond int64: Python's own reduction over each group's values, in
    # input order, is the reference — one call per group, no row loop
    ordered = values[np.argsort(group, kind="stable")].tolist()
    ends = np.cumsum(counts).tolist()
    return column_of(
        [reduce(ordered[start:end]) for start, end in zip([0] + ends, ends)]
    )


def grouped_aggregates(
    batch: ColumnBatch,
    group_pos: Sequence[int],
    funcs: Sequence[str],
    agg_pos: Sequence[Optional[int]],
) -> Tuple[List[ColumnData], int]:
    """The group-key columns, then one column per aggregate (``funcs``
    over the columns at ``agg_pos``, None for ``COUNT(*)``), and the
    number of groups — groups in first-occurrence order."""
    agg_cols = [None if pos is None else batch.cols[pos] for pos in agg_pos]
    typed = all(col is None or isinstance(col, TypedColumn) for col in agg_cols)
    groups = key_groups(batch, group_pos) if typed else None
    if groups is not None:
        first, group = groups
        out = gather_columns([batch.cols[pos] for pos in group_pos], first)
        for func, col in zip(funcs, agg_cols):
            out.append(_aggregate_typed(func, col, group, len(first)))
        return out, len(first)
    index = group_indices(batch, group_pos)
    keys = zip(*index) if index else [() for _ in group_pos]
    out = [column_of(list(values)) for values in keys]
    for func, col in zip(funcs, agg_cols):
        values = None if col is None else values_of(col)
        out.append(column_of(
            [aggregate_column(func, values, rows) for rows in index.values()]
        ))
    return out, len(index)


# -- vectorized predicates ---------------------------------------------------


def predicate_mask(expr: Expr, batch: ColumnBatch) -> Any:
    """A boolean selection array for ``expr`` over ``batch``, or None.

    Only shapes whose NULL semantics are provably identical to the
    bound-row evaluator vectorize: comparisons between NULL-free typed
    columns and such columns / numeric constants, IS [NOT] NULL over
    typed columns (the mask), and AND/OR/NOT over vectorizable
    operands.  Anything else returns None and the caller falls back to
    the row loop.
    """
    if not batch.nrows:
        return None
    return _mask(expr, batch)


def _typed_column(expr: Expr, batch: ColumnBatch) -> Optional[TypedColumn]:
    if not isinstance(expr, Col):
        return None
    try:
        col = batch.cols[expr.position(batch.columns)]
    except Exception:
        return None
    return col if isinstance(col, TypedColumn) else None


def _operand_array(expr: Expr, batch: ColumnBatch) -> Any:
    if isinstance(expr, Const) and isinstance(expr.value, (int, float, bool)):
        return np.asarray(expr.value)
    col = _typed_column(expr, batch)
    return None if col is None or col.mask is not None else col.values


def _mask(expr: Expr, batch: ColumnBatch) -> Any:
    if isinstance(expr, Compare):
        left = _operand_array(expr.left, batch)
        right = _operand_array(expr.right, batch)
        if left is None or right is None:
            return None
        if left.ndim == 0 and right.ndim == 0:
            return None  # const-vs-const: leave to the row path
        with np.errstate(invalid="ignore"):  # a NaN constant
            return COMPARE_OPS[expr.op](left, right)
    if isinstance(expr, IsNull):
        col = _typed_column(expr.operand, batch)
        if col is None:
            return None  # a list column: the row path decides
        nulls = np.zeros(batch.nrows, dtype=bool) if col.mask is None else col.mask
        return ~nulls if expr.negated else nulls
    if isinstance(expr, (And, Or)):
        masks = [_mask(op, batch) for op in expr.operands]
        if any(m is None for m in masks):
            return None
        combine = np.logical_and if isinstance(expr, And) else np.logical_or
        return combine.reduce(masks)
    if isinstance(expr, Not):
        inner = _mask(expr.operand, batch)
        return None if inner is None else ~inner
    return None


def filter_batch_indices(predicate: Expr, batch: ColumnBatch) -> IndexSeq:
    """Indices of rows satisfying ``predicate`` (vectorized if possible)."""
    mask = predicate_mask(predicate, batch)
    if mask is not None:
        return np.nonzero(mask)[0]
    bound = predicate.bind(batch.columns)
    return [i for i, row in enumerate(batch.tuples()) if bound(row)]
