"""Edge-update records and batches — the unit of graph evolution.

An evolving-graph workload is a stream of :class:`EdgeUpdate` records.  The
ingestion engine applies them in order; :func:`batched` groups them into
:class:`UpdateBatch` rounds.  Weight changes are modelled as delete+insert at
the notification level (see :mod:`repro.streaming.ingest`), which keeps the
incremental maintainers' contracts simple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, List

from repro.errors import WorkloadError


class UpdateKind(Enum):
    INSERT = "insert"
    DELETE = "delete"


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation.

    ``weight`` is required for inserts and ignored for deletes (the live
    graph knows the weight being removed).
    """

    kind: UpdateKind
    src: int
    dst: int
    weight: float = 1.0

    @classmethod
    def insert(cls, src: int, dst: int, weight: float = 1.0) -> "EdgeUpdate":
        return cls(UpdateKind.INSERT, src, dst, weight)

    @classmethod
    def delete(cls, src: int, dst: int) -> "EdgeUpdate":
        return cls(UpdateKind.DELETE, src, dst)

    def __repr__(self) -> str:
        if self.kind is UpdateKind.INSERT:
            return f"+({self.src},{self.dst},{self.weight})"
        return f"-({self.src},{self.dst})"


class UpdateBatch:
    """An ordered group of updates applied as one epoch."""

    def __init__(self, updates: Iterable[EdgeUpdate]) -> None:
        self._updates: List[EdgeUpdate] = list(updates)
        if not self._updates:
            raise WorkloadError("an update batch must contain at least one update")

    def __len__(self) -> int:
        return len(self._updates)

    def __iter__(self) -> Iterator[EdgeUpdate]:
        return iter(self._updates)

    def __getitem__(self, idx: int) -> EdgeUpdate:
        return self._updates[idx]

    @property
    def num_inserts(self) -> int:
        return sum(1 for u in self._updates if u.kind is UpdateKind.INSERT)

    @property
    def num_deletes(self) -> int:
        return len(self._updates) - self.num_inserts

    def __repr__(self) -> str:
        return (
            f"UpdateBatch(n={len(self)}, +{self.num_inserts}, "
            f"-{self.num_deletes})"
        )


def batched(
    updates: Iterable[EdgeUpdate], batch_size: int
) -> Iterator[UpdateBatch]:
    """Split a stream of updates into fixed-size batches (last may be short)."""
    if batch_size < 1:
        raise WorkloadError("batch_size must be >= 1")
    bucket: List[EdgeUpdate] = []
    for update in updates:
        bucket.append(update)
        if len(bucket) == batch_size:
            yield UpdateBatch(bucket)
            bucket = []
    if bucket:
        yield UpdateBatch(bucket)
