"""Columnar batches and vectorized kernels for the relational engine.

The row-at-a-time executor spends most of its time building Python
tuples and probing dicts one row at a time.  Grounding is dominated by
a handful of relational operators over integer key columns (Section 4
of the paper pushes grounding into exactly these operators), so this
module re-implements them over :class:`ColumnBatch` — one array per
column — with two interchangeable kernel backends:

* a **numpy fast path**: multi-column integer keys are encoded into a
  single ``int64`` code array and joins/anti-joins/distinct run as
  ``argsort``/``searchsorted``/``unique``/``isin`` over the codes;
* a **pure-Python fallback** with identical semantics (dict/set row
  loops over zipped key columns), used when numpy is unavailable,
  disabled via ``PROBKB_NO_NUMPY``, or when a column is not losslessly
  int64-convertible (NULLs, strings, floats, huge ints).

Both paths produce the *same rows in the same order* as the row engine
and charge the *same* :class:`~repro.relational.cost.CostClock`
counters, so the row engine stays usable as the reference the
differential tests compare against.
"""

from __future__ import annotations

import itertools
import os
from collections import defaultdict
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .expr import And, Col, Compare, Const, Expr, IsNull, Not, Or
from .types import ExecutionError, Row, Value

__all__ = [
    "ColumnBatch",
    "get_numpy",
    "numpy_enabled",
]

_TRUTHY = frozenset({"1", "true", "yes", "on"})

#: Largest combined key range the int64 encoding may cover; above this
#: the multi-column Horner encoding could overflow and we fall back.
_MAX_CODE_RANGE = 2 ** 62

_np_module: Any = None
_np_import_failed = False


def get_numpy() -> Any:
    """The numpy module, or None (not importable or ``PROBKB_NO_NUMPY``).

    The env var is consulted on every call so tests (and the no-numpy
    CI lane) can flip it without re-importing the engine.
    """
    global _np_module, _np_import_failed
    if os.environ.get("PROBKB_NO_NUMPY", "").strip().lower() in _TRUTHY:
        return None
    if _np_module is None and not _np_import_failed:
        try:
            import numpy

            _np_module = numpy
        except ImportError:  # pragma: no cover - exercised by the CI lane
            _np_import_failed = True
    return _np_module


def numpy_enabled() -> bool:
    """True when the columnar kernels may use their numpy fast paths."""
    return get_numpy() is not None


#: Sentinel in the per-batch numpy cache: "tried, not convertible".
_NOT_CONVERTIBLE = False

IndexSeq = Union[Sequence[int], Any]  # list of ints or np.ndarray


class ColumnBatch:
    """A materialized relation stored one list per column.

    ``cols[i][j]`` is column ``i`` of row ``j``.  Column lists are
    immutable once a batch is built — kernels always allocate fresh
    lists — so batches may share columns (projection of a column is a
    reference, not a copy).  A batch is also what a
    :class:`~.table.Table` stores: a mutation replaces the table's
    batch, so one handed out by a scan never changes.

    Numpy views of individual columns are derived lazily and cached:
    ``_np_cache[pos]`` holds the raw ``np.asarray`` result, or
    ``False`` when the column is not cleanly array-convertible.
    """

    __slots__ = ("columns", "cols", "nrows", "_np_cache")

    def __init__(
        self,
        columns: Sequence[str],
        cols: Sequence[List[Value]],
        nrows: Optional[int] = None,
    ) -> None:
        self.columns = list(columns)
        self.cols = list(cols)
        if nrows is None:
            nrows = len(self.cols[0]) if self.cols else 0
        self.nrows = nrows
        self._np_cache: Dict[int, Any] = {}

    @classmethod
    def from_rows(cls, columns: Sequence[str], rows: Sequence[Row]) -> "ColumnBatch":
        if rows:
            cols: List[List[Value]] = [list(values) for values in zip(*rows)]
        else:
            cols = [[] for _ in columns]
        return cls(columns, cols, len(rows))

    @classmethod
    def concat(
        cls, columns: Sequence[str], batches: Sequence["ColumnBatch"]
    ) -> "ColumnBatch":
        """The batches' rows appended in order, under ``columns``.  A
        single non-empty input is not copied: its columns are shared."""
        filled = [batch for batch in batches if batch.nrows]
        if len(filled) == 1:
            return filled[0].rename(columns)
        cols: List[List[Value]] = [[] for _ in columns]
        for batch in batches:
            for out, col in zip(cols, batch.cols):
                out.extend(col)
        return cls(columns, cols, sum(batch.nrows for batch in batches))

    def __reduce__(self) -> Tuple[Any, ...]:
        # ship the column lists only: ``_np_cache`` is derived, and its
        # ndarrays would double every motion piece on the wire
        return ColumnBatch, (self.columns, self.cols, self.nrows)

    def tuples(self, positions: Optional[Sequence[int]] = None) -> Iterator[Row]:
        """The rows (projected on ``positions``), lazily."""
        cols = self.cols if positions is None else [self.cols[p] for p in positions]
        return zip(*cols) if cols else itertools.repeat((), self.nrows)

    def to_rows(self) -> List[Row]:
        return list(self.tuples())

    def __len__(self) -> int:
        return self.nrows

    def rename(self, columns: Sequence[str]) -> "ColumnBatch":
        """Same data under different column names (columns are shared)."""
        renamed = ColumnBatch(columns, self.cols, self.nrows)
        renamed._np_cache = self._np_cache  # same columns, same arrays
        return renamed

    def gather(self, indices: IndexSeq) -> "ColumnBatch":
        """Rows at ``indices`` (with repetition), as a new batch."""
        return ColumnBatch(
            self.columns,
            [gather_column(col, indices) for col in self.cols],
            _index_count(indices),
        )

    # -- numpy views -------------------------------------------------------

    def _raw_array(self, pos: int) -> Any:
        """``np.asarray`` of a column, cached; None if not convertible."""
        np = get_numpy()
        if np is None:
            return None
        cached = self._np_cache.get(pos)
        if cached is not None:
            return None if cached is _NOT_CONVERTIBLE else cached
        try:
            arr = np.asarray(self.cols[pos])
        except (ValueError, OverflowError, TypeError):
            arr = None
        if arr is not None and (arr.ndim != 1 or arr.dtype.kind == "O"):
            arr = None
        self._np_cache[pos] = arr if arr is not None else _NOT_CONVERTIBLE
        return arr

    def int_array(self, pos: int) -> Any:
        """Column as an ``int64`` array, or None.

        Only pure int/bool columns qualify: floats are excluded so the
        encoding can never equate ``2**60`` with ``2.0**60``'s rounding
        neighbours, and NULLs force the object dtype (excluded).
        """
        arr = self._raw_array(pos)
        if arr is None or arr.dtype.kind not in "bi":
            return None
        np = get_numpy()
        return arr.astype(np.int64, copy=False)

    def num_array(self, pos: int) -> Any:
        """Column as a numeric array (int/float/bool), or None."""
        arr = self._raw_array(pos)
        if arr is None or arr.dtype.kind not in "bif":
            return None
        return arr

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnBatch({self.columns}, {self.nrows} rows)"


def _index_count(indices: IndexSeq) -> int:
    size = getattr(indices, "size", None)
    return int(size) if size is not None else len(indices)


def gather_column(col: List[Value], indices: IndexSeq) -> List[Value]:
    """``[col[i] for i in indices]``, vectorized when indices is an array."""
    np = get_numpy()
    if np is not None and isinstance(indices, np.ndarray):
        arr = np.empty(len(col), dtype=object)
        arr[:] = col
        return list(arr[indices])
    return [col[i] for i in indices]


# -- integer key encoding ----------------------------------------------------


def _encode_pair(
    left: ColumnBatch,
    right: ColumnBatch,
    lpos: Sequence[int],
    rpos: Sequence[int],
) -> Optional[Tuple[Any, Any]]:
    """Encode both sides' key columns into comparable int64 code arrays.

    Returns None (→ pure-Python fallback) unless every key column on
    both sides is int64-convertible and the combined key range fits in
    an int64.  Offsets/ranges are computed over the union of both
    sides, so equal tuples — and only equal tuples — get equal codes.
    """
    np = get_numpy()
    if np is None or not left.nrows or not right.nrows:
        return None
    larrs = [left.int_array(pos) for pos in lpos]
    rarrs = [right.int_array(pos) for pos in rpos]
    if any(a is None for a in larrs) or any(a is None for a in rarrs):
        return None
    lcode = np.zeros(left.nrows, dtype=np.int64)
    rcode = np.zeros(right.nrows, dtype=np.int64)
    total = 1
    for la, ra in zip(larrs, rarrs):
        low = min(int(la.min()), int(ra.min()))
        high = max(int(la.max()), int(ra.max()))
        span = high - low + 1
        total *= span
        if total > _MAX_CODE_RANGE:
            return None
        lcode = lcode * span + (la - low)
        rcode = rcode * span + (ra - low)
    return lcode, rcode


def _encode_one(batch: ColumnBatch, positions: Sequence[int]) -> Any:
    """Encode one side's key columns into an int64 code array, or None."""
    np = get_numpy()
    if np is None or not batch.nrows:
        return None
    arrays = [batch.int_array(pos) for pos in positions]
    if any(a is None for a in arrays):
        return None
    code = np.zeros(batch.nrows, dtype=np.int64)
    total = 1
    for arr in arrays:
        low = int(arr.min())
        span = int(arr.max()) - low + 1
        total *= span
        if total > _MAX_CODE_RANGE:
            return None
        code = code * span + (arr - low)
    return code


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
    if build_left:
        build, probe = left, right
        bpos, ppos = lpos, rpos
    else:
        build, probe = right, left
        bpos, ppos = rpos, lpos

    pair = _encode_pair(build, probe, bpos, ppos)
    if pair is not None:
        build_idx, probe_idx = _np_join(pair[0], pair[1])
    else:
        build_idx, probe_idx = _dict_join(build, probe, bpos, ppos)
    if build_left:
        return build_idx, probe_idx, build.nrows, probe.nrows
    return probe_idx, build_idx, build.nrows, probe.nrows


def _np_join(bcode: Any, pcode: Any) -> Tuple[Any, Any]:
    np = get_numpy()
    order = np.argsort(bcode, kind="stable")
    sorted_codes = bcode[order]
    lo = np.searchsorted(sorted_codes, pcode, side="left")
    hi = np.searchsorted(sorted_codes, pcode, side="right")
    counts = hi - lo
    total = int(counts.sum())
    probe_idx = np.repeat(np.arange(pcode.size), counts)
    cum = np.cumsum(counts)
    # position within each probe row's run of matches
    intra = np.arange(total) - np.repeat(cum - counts, counts)
    build_idx = order[np.repeat(lo, counts) + intra]
    return build_idx, probe_idx


def _dict_join(
    build: ColumnBatch,
    probe: ColumnBatch,
    bpos: Sequence[int],
    ppos: Sequence[int],
) -> Tuple[List[int], List[int]]:
    table: Dict[Tuple[Value, ...], List[int]] = defaultdict(list)
    for i, key in enumerate(zip(*[build.cols[pos] for pos in bpos])):
        if None in key:
            continue  # SQL semantics: NULL keys never join
        table[key].append(i)
    build_idx: List[int] = []
    probe_idx: List[int] = []
    for j, key in enumerate(zip(*[probe.cols[pos] for pos in ppos])):
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
    np = get_numpy()
    if not left.nrows:
        return []
    if not right.nrows:
        return np.arange(left.nrows) if np is not None else list(range(left.nrows))
    pair = _encode_pair(left, right, lpos, rpos)
    if pair is not None:
        lcode, rcode = pair
        kept = ~np.isin(lcode, rcode)
        return np.nonzero(kept)[0]
    existing = set(zip(*[right.cols[pos] for pos in rpos]))
    return [
        i
        for i, key in enumerate(zip(*[left.cols[pos] for pos in lpos]))
        if key not in existing
    ]


# -- distinct / grouping -----------------------------------------------------


def distinct_indices(batch: ColumnBatch) -> IndexSeq:
    """Indices of the first occurrence of each distinct row, in input
    order (first writer wins, as in the row engine's set-based dedup)."""
    if not batch.nrows:
        return []
    code = _encode_one(batch, range(len(batch.cols)))
    if code is not None:
        np = get_numpy()
        _, first = np.unique(code, return_index=True)
        return np.sort(first)
    seen: set = set()
    kept: List[int] = []
    for i, row in enumerate(zip(*batch.cols)):
        if row not in seen:
            seen.add(row)
            kept.append(i)
    return kept


def group_indices(
    batch: ColumnBatch, group_pos: Sequence[int]
) -> "Dict[Tuple[Value, ...], List[int]]":
    """Row indices per group key, keys in first-occurrence order
    (matching the row engine's dict-insertion iteration order)."""
    groups: Dict[Tuple[Value, ...], List[int]] = defaultdict(list)
    if not group_pos:
        groups[()] = list(range(batch.nrows))
        if not batch.nrows:
            groups[()] = []
        return groups
    for i, key in enumerate(zip(*[batch.cols[pos] for pos in group_pos])):
        groups[key].append(i)
    return dict(groups)


def aggregate_column(
    func: str, col: Optional[List[Value]], indices: Sequence[int]
) -> Value:
    """One aggregate over one group, columnar form of executor._aggregate."""
    if func == "count":
        if col is None:
            return len(indices)
        return sum(1 for i in indices if col[i] is not None)
    if col is None:
        raise ExecutionError(f"aggregate {func!r} requires a column")
    values = [col[i] for i in indices if col[i] is not None]
    if func == "count_distinct":
        return len(set(values))
    if not values:
        return None
    if func == "min":
        return min(values)
    if func == "max":
        return max(values)
    if func == "sum":
        return sum(values)
    raise ExecutionError(f"unknown aggregate {func!r}")


# -- vectorized predicates ---------------------------------------------------


def predicate_mask(expr: Expr, batch: ColumnBatch) -> Any:
    """A boolean selection array for ``expr`` over ``batch``, or None.

    Only shapes whose NULL semantics are provably identical to the
    bound-row evaluator vectorize: comparisons between numeric columns
    and numeric columns/constants (numeric dtypes cannot hold NULLs;
    IEEE NaN comparisons agree elementwise with Python's), IS [NOT]
    NULL over numeric columns, and AND/OR/NOT over vectorizable
    operands.  Anything else returns None and the caller falls back to
    the row loop.
    """
    np = get_numpy()
    if np is None or not batch.nrows:
        return None
    return _mask(expr, batch)


def _operand_array(expr: Expr, batch: ColumnBatch) -> Any:
    np = get_numpy()
    if isinstance(expr, Col):
        from .expr import resolve_column

        try:
            pos = resolve_column(expr.name, batch.columns)
        except Exception:
            return None
        return batch.num_array(pos)
    if isinstance(expr, Const) and isinstance(expr.value, (int, float, bool)):
        return np.asarray(expr.value)
    return None


def _mask(expr: Expr, batch: ColumnBatch) -> Any:
    np = get_numpy()
    if isinstance(expr, Compare):
        left = _operand_array(expr.left, batch)
        right = _operand_array(expr.right, batch)
        if left is None or right is None:
            return None
        if left.ndim == 0 and right.ndim == 0:
            return None  # const-vs-const: leave to the row path
        with np.errstate(invalid="ignore"):
            if expr.op == "=":
                result = left == right
            elif expr.op == "<>":
                result = left != right
            elif expr.op == "<":
                result = left < right
            elif expr.op == "<=":
                result = left <= right
            elif expr.op == ">":
                result = left > right
            else:
                result = left >= right
        return result
    if isinstance(expr, IsNull):
        if not isinstance(expr.operand, Col):
            return None
        operand = _operand_array(expr.operand, batch)
        if operand is None:
            return None  # column may hold NULLs: row path decides
        # numeric dtype → no NULLs in the column
        value = bool(expr.negated)
        return np.full(batch.nrows, value, dtype=bool)
    if isinstance(expr, And):
        masks = [_mask(op, batch) for op in expr.operands]
        if any(m is None for m in masks):
            return None
        combined = masks[0]
        for m in masks[1:]:
            combined = combined & m
        return combined
    if isinstance(expr, Or):
        masks = [_mask(op, batch) for op in expr.operands]
        if any(m is None for m in masks):
            return None
        combined = masks[0]
        for m in masks[1:]:
            combined = combined | m
        return combined
    if isinstance(expr, Not):
        inner = _mask(expr.operand, batch)
        return None if inner is None else ~inner
    return None


def filter_batch_indices(predicate: Expr, batch: ColumnBatch) -> IndexSeq:
    """Indices of rows satisfying ``predicate`` (vectorized if possible)."""
    mask = predicate_mask(predicate, batch)
    if mask is not None:
        np = get_numpy()
        return np.nonzero(mask)[0]
    bound = predicate.bind(batch.columns)
    return [i for i, row in enumerate(zip(*batch.cols)) if bound(row)]
