"""Content-addressed LRU result cache.

Repeated pyramid windows (flat sky, road, walls) and duplicate traffic
are common in detection workloads; a window that was already scored by
an identical model never needs to re-enter the simulator. Keys are a
digest of the model identity plus the exact feature bytes, so a hit is
only possible when the simulator would have produced the same result —
provided the model is deterministic per window (see
``TrueNorthBinaryScorer(coding="content")``).
"""

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Iterable, List, Sequence, Tuple

import numpy as np

#: What :meth:`LruResultCache.lookup_many` returns for an absent key.
MISS = object()


def content_key(model_id: str, features: np.ndarray) -> bytes:
    """Cache key of one feature row under one model identity.

    Args:
        model_id: stable identity of the scoring model (weights, coding
            entropy, readout — see ``TrueNorthBinaryScorer.model_id``).
        features: the exact feature row the model would score.

    Returns:
        A 16-byte digest; equal keys imply equal scores for a
        deterministic model.
    """
    arr = np.ascontiguousarray(features, dtype=np.float64)
    return content_keys(model_id, arr[None])[0]


def content_keys(model_id: str, matrix: np.ndarray) -> List[bytes]:
    """:func:`content_key` of every row of ``matrix``, in one pass.

    The digest state after the model id and row shape is shared by all
    rows, so it is hashed once and copied per row; each key equals
    ``content_key(model_id, row)`` byte for byte.
    """
    arr = np.ascontiguousarray(matrix, dtype=np.float64)
    prefix = hashlib.blake2b(digest_size=16)
    prefix.update(model_id.encode())
    prefix.update(str(arr.shape[1:]).encode())
    keys = []
    for row in arr:
        digest = prefix.copy()
        digest.update(row.tobytes())
        keys.append(digest.digest())
    return keys


class LruResultCache:
    """Bounded, thread-safe LRU mapping of content keys to results.

    Args:
        capacity: maximum number of cached results (>= 1).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()

    def lookup_many(self, keys: Sequence[bytes]) -> List[Any]:
        """The cached value of each key, or :data:`MISS`, under one lock.

        Keys are looked up in order; a hit refreshes its recency.
        """
        out = []
        with self._lock:
            for key in keys:
                value = self._entries.get(key, MISS)
                if value is not MISS:
                    self._entries.move_to_end(key)
                out.append(value)
        return out

    def put_many(self, items: Iterable[Tuple[bytes, Any]]) -> None:
        """Insert (or refresh) each ``(key, value)`` pair under one lock.

        Pairs are inserted in order, then least-recently-used entries
        are evicted down to capacity.
        """
        with self._lock:
            for key, value in items:
                self._entries[key] = value
                self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


__all__ = ["MISS", "LruResultCache", "content_key", "content_keys"]
