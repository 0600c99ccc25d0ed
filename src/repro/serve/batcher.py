"""Micro-batching: drain a bounded queue of row blocks into engine batches.

The batch engine amortises its per-tick cost across lanes, so serving
throughput is maximised by coalescing requests into one
``decision_function`` call. The queued unit is a :class:`Block`: the
rows one admission (a ``score_many`` slice or a ``submit``) could not
answer from the cache. Dispatch as soon as ``max_batch_size`` rows are
collected, or ``max_wait_ms`` after the first block was taken, whichever
comes first. A block that does not fit is split, and its remainder
heads the queue.

One refinement serves closed-loop callers. When a batch resolves the
last row of a ``score_many`` call (a :class:`ScoreCall`), its caller is
*released*: it is waking up to pick up its results and, in a closed
loop, to submit its next call. A batch collected meanwhile stays open
until every released caller has picked up, and then for ``max_wait_ms``
after the last pickup, so callers released together by one batch do not
race the wait against their own thread wake-ups.
"""

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class BatchPolicy:
    """The two-knob micro-batching policy.

    Attributes:
        max_batch_size: dispatch when this many rows are collected.
        max_wait_ms: dispatch this long after the first block was
            taken (0 disables coalescing: every drain takes whatever is
            immediately available).
    """

    max_batch_size: int = 32
    max_wait_ms: float = 2.0

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_wait_ms < 0:
            raise ConfigurationError(
                f"max_wait_ms must be >= 0, got {self.max_wait_ms}"
            )


#: Guards every :class:`ScoreCall` countdown and each batcher's release
#: count; a sharded call's blocks are scored by several batchers.
_release_lock = threading.Lock()


class ScoreCall:
    """One admission's rows, counted down as their blocks resolve.

    Attributes:
        values: one result per row, in row order; cache hits are filled
            at admission, queued rows as their batches are scored.
        pending: queued rows not yet resolved.
        error: the first failure of any of its rows, or ``None``.
        future: resolved once, when ``pending`` reaches 0, with
            ``values`` (``values[0]`` for a ``submit``) or ``error``.
        releaser: the batcher that resolved the last row of a
            ``score_many`` call without error, else ``None``.
    """

    __slots__ = ("values", "pending", "error", "future", "single", "releaser")

    def __init__(self, rows: int, single: bool = False) -> None:
        self.values: List[Any] = [None] * rows
        self.pending = 0
        self.error: Optional[BaseException] = None
        self.future: Future = Future()
        self.single = single
        self.releaser: Optional["MicroBatcher"] = None

    def settle(self, rows: Sequence[int], values: Optional[Sequence[Any]] = None,
               error: Optional[BaseException] = None,
               releaser: Optional["MicroBatcher"] = None) -> None:
        """Write a block's values (or note its ``error``) and count its
        rows off; the last rows resolve :attr:`future`. ``releaser``, the
        batcher that scored them, counts a ``score_many`` call completed
        without error as released before its caller can wake."""
        if error is None:
            for row, value in zip(rows, values):
                self.values[row] = value
        with _release_lock:
            if error is not None and self.error is None:
                self.error = error
            self.pending -= len(rows)
            if self.pending:
                return
            if self.error is None and releaser is not None and not self.single:
                self.releaser = releaser
                releaser._released += 1
        self.resolve()

    def resolve(self) -> None:
        """Resolve :attr:`future` from the rows' values or the error."""
        if self.error is not None:
            self.future.set_exception(self.error)
        else:
            self.future.set_result(self.values[0] if self.single else self.values)

    def picked_up(self) -> None:
        """The caller holds its results; no batch waits for it any more."""
        if self.releaser is not None:
            self.releaser._picked_up()


@dataclass(eq=False)
class Block:
    """Queued rows of one :class:`ScoreCall`.

    Attributes:
        call: the admission the rows belong to.
        rows: each row's index into ``call.values``.
        matrix: the rows' ``(k, f)`` features.
        keys: the rows' content keys, or ``None`` when none were needed.
        trace_ids: the rows' trace ids.
        deadline: absolute clock deadline of every row, or ``None``.
        enqueued_at: admission time (for latencies).
    """

    call: ScoreCall
    rows: Sequence[int]
    matrix: np.ndarray
    keys: Optional[List[bytes]]
    trace_ids: List[str]
    deadline: Optional[float]
    enqueued_at: float

    def __len__(self) -> int:
        return len(self.trace_ids)

    def select(self, index: Union[slice, Sequence[int]]) -> "Block":
        """The block of the rows at ``index`` (a slice or positions)."""
        if isinstance(index, slice):
            def pick(items):
                return items[index]
        else:
            def pick(items):
                return [items[i] for i in index]
        return Block(
            self.call, pick(self.rows), self.matrix[index],
            None if self.keys is None else pick(self.keys),
            pick(self.trace_ids), self.deadline, self.enqueued_at,
        )

    def expired(self, now: float) -> bool:
        """Whether the deadline has passed at time ``now``.

        The boundary is inclusive: a result is only delivered strictly
        before the deadline, so a ``timeout_s=0`` submission never
        completes.
        """
        return self.deadline is not None and now >= self.deadline


class MicroBatcher:
    """A bounded FIFO of row blocks, collected into batches under a policy.

    Capacity and depth count rows. Admission, the only producer, checks
    room (``capacity - rows``) before :meth:`put`; the service's one
    dispatch thread per batcher executes each batch :meth:`collect`
    returns.

    Args:
        capacity: the most rows the queue may hold.
        policy: batching policy.
        on_expired: called with each block whose deadline lapsed while
            it waited in the queue — such blocks are dropped from the
            batch (they never occupy a batch slot).
        clock: monotonic time source (injectable for tests).
    """

    def __init__(self, capacity: int, policy: BatchPolicy,
                 on_expired: Optional[Callable[[Block], None]] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.capacity = capacity
        self.rows = 0
        self.policy = policy
        self.on_expired = on_expired
        self.clock = clock
        self._blocks: "deque[Block]" = deque()
        self._ready = threading.Condition(threading.Lock())
        self._released = 0
        self._last_pickup = float("-inf")

    def put(self, block: Block) -> None:
        """Queue ``block``."""
        with self._ready:
            self._blocks.append(block)
            self.rows += len(block)
            self._ready.notify()

    def take(self, limit: int, timeout: float = 0.0) -> Optional[Block]:
        """Dequeue at most ``limit`` rows of the head block, or ``None``.

        Waits up to ``timeout`` for a block. A head block of more than
        ``limit`` rows is split, and its remainder stays at the head.
        """
        with self._ready:
            if not self._blocks and (
                timeout <= 0 or not self._ready.wait_for(lambda: self._blocks, timeout)
            ):
                return None
            block = self._blocks[0]
            if len(block) > limit:
                self._blocks[0] = block.select(slice(limit, None))
                block = block.select(slice(limit))
            else:
                self._blocks.popleft()
            self.rows -= len(block)
            return block

    def _picked_up(self) -> None:
        with _release_lock:
            self._released -= 1
            self._last_pickup = self.clock()

    def _close_at(self, started: float, budget: float) -> float:
        """When a batch begun at ``started`` may close (see module doc)."""
        with _release_lock:
            if self._released:
                return self.clock() + budget
            return max(started, self._last_pickup) + budget

    def _admit(self, block: Block, batch: List[Block]) -> int:
        """Place ``block`` into ``batch`` or expire it; rows placed."""
        if block.expired(self.clock()):
            if self.on_expired is not None:
                self.on_expired(block)
            return 0
        batch.append(block)
        return len(block)

    def collect(self, block_s: float = 0.05) -> List[Block]:
        """One batch of live blocks (possibly empty).

        Blocks up to ``block_s`` for the first block; once one arrives,
        keeps draining until the batch holds ``max_batch_size`` rows or
        the policy's wait budget is spent, counted from taking the first
        block or from the last pickup of a released caller, whichever is
        later, and not running out while a released caller has yet to
        pick up. Expired blocks are handed to ``on_expired`` and never
        occupy a slot.

        Args:
            block_s: how long to wait for a first block before giving
                up (keeps worker shutdown responsive).

        Returns:
            Unexpired blocks of between 0 and ``max_batch_size`` rows in
            all.
        """
        batch: List[Block] = []
        room = self.policy.max_batch_size
        first = self.take(room, block_s)
        if first is None:
            return batch
        room -= self._admit(first, batch)

        started = self.clock()
        budget = self.policy.max_wait_ms / 1e3
        close_at = started + budget
        while room > 0:
            block = self.take(room, close_at - self.clock())
            if block is None:
                held = self._close_at(started, budget) if budget > 0 else close_at
                if held <= close_at:
                    break
                close_at = held
                continue
            room -= self._admit(block, batch)
        return batch


__all__ = ["BatchPolicy", "Block", "MicroBatcher", "ScoreCall"]
