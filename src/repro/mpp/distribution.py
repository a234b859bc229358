"""Distribution policies for the shared-nothing MPP simulator.

A hash-distributed table assigns each row to a segment by a stable hash
of its distribution-key columns (Greenplum's ``DISTRIBUTED BY``).  A
replicated table keeps a full copy on every segment.  Randomly
distributed tables round-robin rows (``DISTRIBUTED RANDOMLY``).

:func:`route` applies a policy to one motion's or DML statement's rows:
one stable sort by home segment and one gather per target, each
target's rows one run in ascending source order.  Per-(source, target)
pieces are cut from those runs only where a worker pool ships them.
"""

from __future__ import annotations

import itertools
import zlib
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..relational.columnar import ColumnBatch
from ..relational.types import Row, Value


def stable_hash(values: Sequence[Value]) -> int:
    """A process-stable hash of a key tuple (crc32 over a canonical form).

    Python's builtin ``hash`` is salted per process for strings, which
    would make segment assignment non-deterministic across runs; crc32
    keeps the simulator reproducible.  Equal numbers hash alike, so a
    join or a distinct finds them on one segment: an integral float
    (``1.0``, ``-0.0``) or a bool hashes as the int it equals.
    """
    payload = "\x1f".join(
        f"int:{int(v)}" if (type(v) is float and v.is_integer()) or type(v) is bool
        else f"{type(v).__name__}:{v!r}"
        for v in values
    ).encode("utf-8")
    return zlib.crc32(payload)


# -- stable_hash of int64 key columns, vectorised ------------------------------
#
# crc32 is affine in a message's bytes: zlib starts its register at
# 0xFFFFFFFF, shifts it over each byte and XORs in that byte's term (both
# linear steps), and inverts it at the end.  So "int:<a>\x1fint:<b>..." can
# advance the register a whole field at a time: shift it over the
# field's length (four lookups, one per register byte), then XOR in the
# field's terms — one for its head ("int:" or "\x1fint:", and the sign),
# one per group of three digits.  The tables come from zlib, once.


def _linear(message: bytes, after: int = 0) -> int:
    """The XOR share of ``message`` and ``after`` zero bytes in a crc32."""
    return zlib.crc32(message + bytes(after)) ^ zlib.crc32(bytes(len(message) + after))


def _shifted(shift: Any, register: Any, n: Any) -> Any:
    """``register`` after ``n`` more zero bytes (``n`` may be an array)."""
    base = n * 1024
    return (
        shift[base + (register & 0xFF)] ^ shift[base + 256 + (register >> 8 & 0xFF)]
        ^ shift[base + 512 + (register >> 16 & 0xFF)] ^ shift[base + 768 + (register >> 24)]
    )


def _crc_tables() -> Tuple[Any, Any, Any, Any]:
    """Flattened ``shift[n, i, b]`` (a register holding only ``b``, in
    byte ``i``, after ``n`` zero bytes), ``groups[k, s, c]`` (the last
    ``s`` digits of ``c`` as the ``k``-th group of three from a field's
    end), ``heads[h, d]`` (head ``h`` before ``d`` digits); powers of 10."""
    byte = np.array([_linear(bytes([b])) for b in range(256)], np.uint32)
    shift = np.zeros((26, 4, 256), np.uint32)  # a field is at most 25 bytes
    shift[0] = np.arange(256, dtype=np.uint32) << np.arange(0, 32, 8, dtype=np.uint32)[:, None]
    for n in range(25):
        shift[n + 1] = (shift[n] >> 8) ^ byte[shift[n] & 0xFF]
    shift = shift.reshape(-1)
    groups = np.zeros((7, 4, 1000), np.uint32)
    for s in (1, 2, 3):
        groups[0, s] = [_linear(f"{c % 10 ** s:0{s}d}".encode()) for c in range(1000)]
    for k in range(1, 7):
        groups[k] = _shifted(shift, groups[k - 1], 3)
    heads = np.array(
        [[_linear(h, d) for d in range(20)] for h in (b"int:", b"\x1fint:", b"int:-", b"\x1fint:-")],
        np.uint32,
    )
    powers = 10 ** np.arange(20, dtype=np.uint64)
    return shift, groups.reshape(-1), heads.reshape(-1), powers


_CRC = _crc_tables()


def stable_hash_int64(arrays: Sequence[Any], nrows: int) -> Any:
    """:func:`stable_hash` of every row of the ``int64`` key columns
    ``arrays``, as ``uint32``, with no per-key Python and no string.
    Digits come from the ``uint64`` magnitude (so ``-2**63`` works),
    their count from ``searchsorted`` over the powers of ten."""
    shift, groups, heads, powers = _CRC
    register = np.full(nrows, 0xFFFFFFFF, np.uint32)
    for field, values in enumerate(arrays):
        negative = values < 0
        magnitude = values.view(np.uint64)
        magnitude = np.where(negative, ~magnitude + np.uint64(1), magnitude)
        ndigits = np.searchsorted(powers[1:], magnitude, side="right") + 1
        terms = heads[(2 * negative + (field > 0)) * 20 + ndigits]
        for k in range((int(ndigits.max()) + 2) // 3 if nrows else 0):
            group = (magnitude % np.uint64(1000)).astype(np.intp)
            terms ^= groups[(4 * k + np.clip(ndigits - 3 * k, 0, 3)) * 1000 + group]
            magnitude = magnitude // np.uint64(1000)
        length = ndigits + negative + 4 + (field > 0)
        register = _shifted(shift, register, length) ^ terms
    return ~register


class DistributionPolicy:
    """Base class; concrete policies say where each row lives."""

    def segment_of(self, key: Row, nseg: int) -> int:
        """Home segment of a row, given its distribution-key values."""
        raise NotImplementedError

    @property
    def key_columns(self) -> Optional[Tuple[str, ...]]:
        """Hash-key column names, or None for non-hash policies."""
        return None

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class HashDistribution(DistributionPolicy):
    """``DISTRIBUTED BY (columns...)``."""

    columns: Tuple[str, ...]

    def __init__(self, columns: Sequence[str]) -> None:
        object.__setattr__(self, "columns", tuple(columns))

    def segment_of(self, key: Row, nseg: int) -> int:
        return stable_hash(key) % nseg

    @property
    def key_columns(self) -> Tuple[str, ...]:
        return self.columns

    def describe(self) -> str:
        return f"DISTRIBUTED BY ({', '.join(self.columns)})"


class RandomDistribution(DistributionPolicy):
    """``DISTRIBUTED RANDOMLY`` — round-robin for determinism."""

    def __init__(self) -> None:
        self._next = 0

    def segment_of(self, key: Row, nseg: int) -> int:
        seg = self._next % nseg
        self._next += 1
        return seg

    def describe(self) -> str:
        return "DISTRIBUTED RANDOMLY"


class ReplicatedDistribution(DistributionPolicy):
    """Every segment holds a full copy (Greenplum replicated tables)."""

    def segment_of(self, key: Row, nseg: int) -> int:
        raise AssertionError("replicated tables are copied, not partitioned")

    def describe(self) -> str:
        return "DISTRIBUTED REPLICATED"


#: Fewer rows than this in one routing call take the scalar path: the
#: kernel and its array fan-out cost ≈40-130 µs more than the list one
#: whatever the size, and ``stable_hash`` ≈0.6-1 µs a row.  On a 2-core
#: host (CPU time, 1 or 8 source parts, one- or two-column keys) the
#: two paths cross at 80-125 rows.
_KERNEL_MIN_ROWS = 96


def _homes(
    batch: ColumnBatch,
    policy: DistributionPolicy,
    key_positions: Sequence[int],
    nseg: int,
) -> Any:
    """Home segment of every row of ``batch`` in order: an array when a
    hash key is all ``int64`` over enough rows, else a list."""
    keys = batch.project(key_positions)
    arrays = [keys.int_array(pos) for pos in range(len(key_positions))]
    if (
        isinstance(policy, HashDistribution)
        and keys.nrows >= _KERNEL_MIN_ROWS
        and all(array is not None for array in arrays)
    ):
        return stable_hash_int64(arrays, keys.nrows) % nseg
    return [policy.segment_of(key, nseg) for key in keys.tuples()]


def route(
    batch: ColumnBatch,
    sizes: Sequence[int],
    policy: DistributionPolicy,
    key_positions: Sequence[int],
    nseg: int,
) -> Tuple[List[ColumnBatch], List[List[int]]]:
    """Route one motion's or DML statement's rows — ``batch``, source
    parts of ``sizes`` rows concatenated — to ``nseg`` segments: the one
    router.  The keys are hashed once (a random policy's round-robin
    runs across the parts in order) and one stable sort by home segment
    makes each segment's rows one run, in ascending source order.
    Returns the runs and ``counts[segment][part]`` (one ``bincount``),
    from which callers charge shipping.  A replicated policy, or one
    segment, gives every segment the whole batch."""
    if isinstance(policy, ReplicatedDistribution) or nseg == 1:
        return [batch] * nseg, [list(sizes)] * nseg
    homes = _homes(batch, policy, key_positions, nseg)
    if isinstance(homes, list):
        counts = [[0] * len(sizes) for _ in range(nseg)]
        parts = itertools.chain.from_iterable(map(itertools.repeat, range(len(sizes)), sizes))
        for home, part in zip(homes, parts):
            counts[home][part] += 1
        order: Any = sorted(range(batch.nrows), key=homes.__getitem__)
    else:
        part_of = np.repeat(np.arange(len(sizes)), sizes)
        cells = np.bincount(homes * len(sizes) + part_of, minlength=nseg * len(sizes))
        counts = cells.reshape(nseg, len(sizes)).tolist()
        order = np.argsort(homes, kind="stable")
    bounds = [0, *itertools.accumulate(map(sum, counts))]
    return [batch.gather(order[lo:hi]) for lo, hi in zip(bounds, bounds[1:])], counts
