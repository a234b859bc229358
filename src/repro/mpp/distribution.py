"""Distribution policies for the shared-nothing MPP simulator.

A hash-distributed table assigns each row to a segment by a stable hash
of its distribution-key columns (Greenplum's ``DISTRIBUTED BY``).  A
replicated table keeps a full copy on every segment.  Randomly
distributed tables round-robin rows (``DISTRIBUTED RANDOMLY``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..relational.columnar import ColumnBatch, get_numpy, key_groups
from ..relational.types import Row, Value


def stable_hash(values: Sequence[Value]) -> int:
    """A process-stable hash of a key tuple (crc32 over a canonical form).

    Python's builtin ``hash`` is salted per process for strings, which
    would make segment assignment non-deterministic across runs; crc32
    keeps the simulator reproducible.
    """
    payload = "\x1f".join(
        f"{type(v).__name__}:{v!r}" for v in values
    ).encode("utf-8")
    return zlib.crc32(payload)


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


def partition_batch(
    batch: ColumnBatch,
    policy: DistributionPolicy,
    key_positions: Sequence[int],
    nseg: int,
) -> List[ColumnBatch]:
    """Split a batch into per-segment batches according to a policy,
    preserving row order within each — the one partitioner, for motions
    and DML alike.  A replicated policy puts the same (immutable) batch
    on every segment.

    Callers charge shipping costs themselves — who pays depends on the
    statement (redistribute charges receivers, broadcast charges copies).
    """
    if isinstance(policy, ReplicatedDistribution):
        return [batch] * nseg
    hashed = isinstance(policy, HashDistribution)
    groups = key_groups(batch, key_positions) if hashed else None
    if groups is not None:
        # int keys: hash each distinct key once, fan the rows out by group
        np = get_numpy()
        first, group = groups
        distinct = batch.project(key_positions).gather(first).tuples()
        home = np.array([stable_hash(key) % nseg for key in distinct])[group]
        return [batch.gather(np.nonzero(home == seg)[0]) for seg in range(nseg)]
    targets: List[List[int]] = [[] for _ in range(nseg)]
    for index, key in enumerate(batch.tuples(key_positions)):
        targets[policy.segment_of(key, nseg)].append(index)
    return [batch.gather(indices) for indices in targets]
