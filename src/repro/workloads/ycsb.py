"""YCSB workload generator: workloads A-D as the paper runs them (§4.1.1).

* **A** — 50 % read / 50 % update, Zipfian;
* **B** — 95 % read / 5 % update, Zipfian;
* **C** — 100 % read, Zipfian;
* **D** — 95 % read / 5 % insert, latest distribution.

Record size defaults to the YCSB default the paper uses: 1 KB values.
The generator draws operations in blocks.  It hands them out one
:class:`Operation` at a time, for a client that drives it closed-loop,
or as arrays of keys and write flags, for a server that resolves a whole
epoch at once.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterator, List, NamedTuple, Tuple

import numpy as np

from ..errors import WorkloadError
from ..units import KIB
from .distributions import KeyChooser, LatestChooser, ScrambledZipfianChooser, UniformChooser

__all__ = ["OpType", "Operation", "YcsbSpec", "YcsbGenerator", "WORKLOADS"]


class OpType(enum.Enum):
    """YCSB operation kinds used by the paper's workloads."""

    READ = "read"
    UPDATE = "update"
    INSERT = "insert"


class Operation(NamedTuple):
    """One request: an op type and the key it targets."""

    op: OpType
    key: int

    @property
    def is_write(self) -> bool:
        """Updates and inserts write the value; reads do not."""
        return self.op is not OpType.READ


@dataclass(frozen=True)
class YcsbSpec:
    """A YCSB workload definition."""

    name: str
    read_fraction: float
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    distribution: str = "zipfian"  # zipfian | latest | uniform
    value_size: int = KIB  # 1 KB, the YCSB default used in §4.1.1

    def __post_init__(self) -> None:
        total = self.read_fraction + self.update_fraction + self.insert_fraction
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"operation mix must sum to 1, got {total}")
        if self.distribution not in ("zipfian", "latest", "uniform"):
            raise WorkloadError(f"unknown distribution {self.distribution!r}")
        if self.value_size <= 0:
            raise WorkloadError("value_size must be positive")

    @property
    def write_fraction(self) -> float:
        """Fraction of ops that write (updates + inserts)."""
        return self.update_fraction + self.insert_fraction


#: The four workloads of Fig. 5, by YCSB letter.
WORKLOADS: Dict[str, YcsbSpec] = {
    "A": YcsbSpec("YCSB-A", read_fraction=0.5, update_fraction=0.5),
    "B": YcsbSpec("YCSB-B", read_fraction=0.95, update_fraction=0.05),
    "C": YcsbSpec("YCSB-C", read_fraction=1.0),
    "D": YcsbSpec(
        "YCSB-D", read_fraction=0.95, insert_fraction=0.05, distribution="latest"
    ),
}

#: Uniform variates drawn from the generator's stream per refill.
_BLOCK = 2048

_OP_TYPES = (OpType.READ, OpType.UPDATE, OpType.INSERT)


class YcsbGenerator:
    """Draws a stream of operations for a spec over ``record_count`` keys.

    Operations are drawn in blocks, but the stream is the one a per-op
    draw gives: each operation takes one variate for its type, and each
    read or update takes the next variate for its key.  Inserts append
    a fresh key at the end of the space, and later draws see the grown
    space.  The generator owns ``rng``: it draws ahead of the operations
    handed out, so nothing else may draw from the same stream.

    :meth:`next_operation` and :meth:`next_batch` hand out the same
    stream and may be interleaved.  A block is kept as arrays; its
    :class:`Operation` tuples are built only once :meth:`next_operation`
    reaches it.
    """

    def __init__(
        self,
        spec: YcsbSpec,
        record_count: int,
        rng: np.random.Generator,
    ) -> None:
        if record_count <= 0:
            raise WorkloadError("record_count must be positive")
        self.spec = spec
        self._rng = rng
        self._chooser = self._make_chooser(record_count)
        self._keys = np.empty(0, dtype=np.int64)
        self._kinds = np.empty(0, dtype=np.int64)  # indices into _OP_TYPES
        self._ops: List[Operation] = []  # the block's tuples, once built
        self._next = 0
        self._inserted: List[int] = [0]  # inserts among the first i ops of the block
        self._block_count = record_count  # key-space size at the block's start
        self._carry = np.empty(0)  # a drawn op-type variate still awaiting its key

    def _make_chooser(self, record_count: int) -> KeyChooser:
        if self.spec.distribution == "zipfian":
            return ScrambledZipfianChooser(record_count)
        if self.spec.distribution == "latest":
            return LatestChooser(record_count)
        return UniformChooser(record_count)

    @property
    def record_count(self) -> int:
        """Keys in the space after the operations handed out so far."""
        return self._block_count + self._inserted[self._next]

    def next_operation(self) -> Operation:
        """Draw the next operation."""
        if self._next >= len(self._ops):
            self._build_ops()
        op = self._ops[self._next]
        self._next += 1
        return op

    def next_batch(self, count: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``count`` operations as ``(keys, is_write)`` arrays.

        The same operations ``count`` calls of :meth:`next_operation`
        hand out, without building a tuple per operation.
        """
        keys: List[np.ndarray] = []
        kinds: List[np.ndarray] = []
        while count > 0:
            if self._next == len(self._keys):
                self._draw_block()
            end = min(self._next + count, len(self._keys))
            keys.append(self._keys[self._next : end])
            kinds.append(self._kinds[self._next : end])
            count -= end - self._next
            self._next = end
        return np.concatenate(keys), np.concatenate(kinds) != 0

    def operations(self, count: int) -> Iterator[Operation]:
        """Yield ``count`` operations."""
        for _ in range(count):
            yield self.next_operation()

    def _build_ops(self) -> None:
        """The current block's tuples; draws the next block when it is used up."""
        if self._next == len(self._keys):
            self._draw_block()
        self._ops = list(
            map(Operation, map(_OP_TYPES.__getitem__, self._kinds.tolist()),
                self._keys.tolist())
        )

    def _draw_block(self) -> None:
        """Turn the carried variate plus a fresh block into operations."""
        self._block_count = self.record_count
        u = np.concatenate((self._carry, self._rng.random(_BLOCK)))
        update_cut = self.spec.read_fraction + self.spec.update_fraction
        # Variate i opens an operation unless it is the key of a read or
        # update opened at i - 1.  An insert variate is never followed by
        # a key, so the pattern restarts after any variate at or above
        # the insert cut (after a key variate the next one opens an op
        # anyway); between restarts, op-type and key variates alternate.
        at = np.arange(len(u))
        restart = np.zeros(len(u), dtype=bool)
        restart[0] = True
        restart[1:] = u[:-1] >= update_cut
        opens = at[(at - np.maximum.accumulate(np.where(restart, at, 0))) % 2 == 0]
        first = u[opens]
        kinds = (first >= self.spec.read_fraction).astype(np.int64) + (
            first >= update_cut
        )
        if kinds[-1] != 2 and opens[-1] == len(u) - 1:
            # The last read or update's key variate is in the next block.
            self._carry = u[-1:]
            opens, kinds = opens[:-1], kinds[:-1]
        else:
            self._carry = np.empty(0)
        inserts = kinds == 2
        inserted = np.concatenate(([0], np.cumsum(inserts)))
        counts = self._block_count + inserted[:-1]
        keys = counts.copy()  # an insert's key is the space size before it
        keyed = ~inserts
        keys[keyed] = self._chooser.keys(u[opens[keyed] + 1], counts[keyed])
        self._keys, self._kinds = keys, kinds
        self._ops = []
        self._inserted = inserted.tolist()
        self._next = 0
