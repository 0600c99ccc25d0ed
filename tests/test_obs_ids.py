"""Fork-safe trace/span id minting (``repro.obs.ids``).

The load-bearing property: ids minted by the parent process and ids
minted by a forked, namespaced worker are disjoint *by construction*
(bare 16-hex vs ``ns-12hex`` shapes), so cross-process trace assembly
can never merge two unrelated traces on an id collision. The fork test
exercises a real ``fork`` child, matching what
``ShardedInferenceService`` workers do.
"""

import multiprocessing
import re

import pytest

from repro.obs.ids import (
    NAMESPACED_HEX_DIGITS,
    configure_namespace,
    new_span_id,
    new_trace_id,
    new_trace_ids,
)


@pytest.fixture(autouse=True)
def bare_namespace():
    configure_namespace(None)
    yield
    configure_namespace(None)


class TestShapes:
    def test_bare_ids_are_16_hex(self):
        for _ in range(32):
            assert re.fullmatch(r"[0-9a-f]{16}", new_trace_id())
            assert re.fullmatch(r"[0-9a-f]{16}", new_span_id())
        for trace_id in new_trace_ids(32):
            assert re.fullmatch(r"[0-9a-f]{16}", trace_id)

    def test_namespaced_ids_carry_the_prefix(self):
        configure_namespace("s3")
        pattern = rf"s3-[0-9a-f]{{{NAMESPACED_HEX_DIGITS}}}"
        for _ in range(32):
            assert re.fullmatch(pattern, new_trace_id())
            assert re.fullmatch(pattern, new_span_id())
        for trace_id in new_trace_ids(32):
            assert re.fullmatch(pattern, trace_id)

    def test_ids_are_unique_within_a_process(self):
        ids = {new_trace_id() for _ in range(512)}
        ids.update(new_trace_ids(512))
        assert len(ids) == 1024

    def test_validation_rejects_unsafe_namespaces(self):
        for bad in ("", "a-b", " s0", "s0 ", "-"):
            with pytest.raises(ValueError):
                configure_namespace(bad)
        # rejected values never stick
        assert re.fullmatch(r"[0-9a-f]{16}", new_trace_id())


def _worker_mint(namespace, count, queue):
    configure_namespace(namespace)
    queue.put([new_trace_id() for _ in range(count)])


class TestForkDisjointness:
    def test_parent_and_forked_worker_ids_never_collide(self):
        """Regression: a forked worker's ids are disjoint from the
        parent's and from a sibling worker's, even though all three
        processes inherited identical interpreter state at fork."""
        parent_ids = {new_trace_id() for _ in range(256)}
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        workers = [
            ctx.Process(target=_worker_mint, args=(f"s{i}", 256, queue))
            for i in range(2)
        ]
        for process in workers:
            process.start()
        shipped = [queue.get(timeout=30.0) for _ in workers]
        for process in workers:
            process.join(timeout=30.0)
        child_a, child_b = (set(ids) for ids in shipped)
        assert len(child_a) == 256 and len(child_b) == 256
        assert not parent_ids & child_a
        assert not parent_ids & child_b
        assert not child_a & child_b
        # the shapes themselves are disjoint: no child id parses as bare
        assert all("-" in tid for tid in child_a | child_b)
        assert all("-" not in tid for tid in parent_ids)
        # the fork did not leak the namespace back into the parent
        assert "-" not in new_trace_id()
