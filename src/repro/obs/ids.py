"""Fork-safe trace and span id minting.

Every request gets a ``trace_id`` at submission and every span gets a
``span_id`` at entry. Ids are random (drawn from ``os.urandom``), which
is fine in one process — but the sharded serving tier forks worker
processes that mint their own ids, and two processes drawing from the
same 16-hex-char space have no *structural* guarantee against collision
(and a collision would silently merge two unrelated traces during
assembly).

The fix is a per-process namespace: the parent mints bare 16-hex-char
ids, while each forked shard worker calls :func:`configure_namespace`
with a per-shard prefix (``"s0"``, ``"s1"``, ...) before minting
anything. Namespaced ids look like
``s0-3f9a1c2b4d5e`` — the ``-`` separator cannot appear in a bare hex
id, so parent-minted and worker-minted ids are disjoint *by
construction*, and two shards' ids are disjoint from each other by the
prefix. ``tests/test_obs_ids.py`` pins this across a real fork.
"""

import os
import threading
from typing import List, Optional

_lock = threading.Lock()
_namespace: Optional[str] = None

#: Random hex digits kept when a namespace prefix is applied.
NAMESPACED_HEX_DIGITS = 12


def configure_namespace(namespace: Optional[str]) -> None:
    """Set this process's id namespace (``None`` = bare 16-hex ids).

    Forked shard workers call this with a per-shard prefix before
    minting any id; the parent process never sets one. The namespace
    must not contain ``-`` (it is the prefix/entropy separator) and must
    be exposition-label-safe.

    Raises:
        ValueError: on a namespace containing ``-`` or whitespace.
    """
    global _namespace
    if namespace is not None:
        if "-" in namespace or namespace.strip() != namespace or not namespace:
            raise ValueError(
                f"id namespace must be non-empty, without '-' or "
                f"surrounding whitespace, got {namespace!r}"
            )
    with _lock:
        _namespace = namespace


def _mint(n: int) -> List[str]:
    """``n`` fresh ids drawn from one ``os.urandom`` call."""
    with _lock:
        namespace = _namespace
    width = 16 if namespace is None else NAMESPACED_HEX_DIGITS
    blob = os.urandom(width // 2 * n).hex()
    ids = [blob[i : i + width] for i in range(0, width * n, width)]
    if namespace is None:
        return ids
    return [f"{namespace}-{hex_id}" for hex_id in ids]


def new_trace_id() -> str:
    """A fresh request trace id (namespaced when configured).

    Bare ids are 16 hex chars; namespaced ids are
    ``{namespace}-{12 hex chars}`` — the two shapes cannot collide.
    """
    return _mint(1)[0]


def new_trace_ids(n: int) -> List[str]:
    """``n`` fresh trace ids minted in one pass.

    Same shapes as :func:`new_trace_id`; the chunked serve admission
    path mints one id per row this way.
    """
    return _mint(n)


def new_span_id() -> str:
    """A fresh span id, from the same namespaced pool as trace ids."""
    return _mint(1)[0]


__all__ = [
    "NAMESPACED_HEX_DIGITS",
    "configure_namespace",
    "new_span_id",
    "new_trace_id",
    "new_trace_ids",
]
