"""Batched spike coding of ``TrueNorthBinaryScorer`` against per-row oracles.

The scorer codes a whole chunk at once: content coding hashes every row,
derives every row's ``SeedSequence`` state in numpy and reseeds one
``PCG64`` per lane; stream coding takes one ``(n, ticks, n_in)`` draw.
The oracles below are the per-row paths those replaced — one seeded
``Generator`` and one ``StochasticEncoder.encode`` per row — and every
raster must match them bit for bit.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.stochastic import StochasticEncoder
from repro.detection.pipeline import TrueNorthBinaryScorer, _content_seed_states
from repro.eedn.layers import ThresholdActivation, TrinaryDense
from repro.eedn.network import EednNetwork

N_IN = 36
TICKS = 5
ENTROPIES = (0, 2**32 - 1, 2**32, 2**63 - 1)


def _network():
    return EednNetwork(
        [
            TrinaryDense(N_IN, 16, rng=0),
            ThresholdActivation(0.0),
            TrinaryDense(16, 2, rng=1),
        ]
    )


def _scorer(rng, coding="content"):
    return TrueNorthBinaryScorer(_network(), ticks=TICKS, rng=rng, coding=coding)


class _PinnedGenerator(np.random.Generator):
    """A Generator whose integer draw is pinned, to reach 2**63 - 1."""

    def integers(self, *args, **kwargs):
        return 2**63 - 1


def _content_rng(entropy: int, row: np.ndarray) -> np.random.Generator:
    """Oracle: a Generator seeded from the entropy and the row bytes."""
    digest = hashlib.blake2b(
        np.ascontiguousarray(row, dtype=np.float64).tobytes(), digest_size=8
    ).digest()
    word = int.from_bytes(digest, "big")
    return np.random.default_rng(np.random.SeedSequence([entropy, word]))


def _oracle_content_rasters(entropy: int, x: np.ndarray) -> np.ndarray:
    encoder = StochasticEncoder(TICKS)
    return np.stack([encoder.encode(row, rng=_content_rng(entropy, row)) for row in x])


def _rows(seed: int, n: int) -> np.ndarray:
    """``n`` rows in [0, 1] with exact 0.0 and 1.0 rows and entries."""
    rng = np.random.default_rng(seed)
    x = rng.random((n, N_IN))
    x[rng.random((n, N_IN)) < 0.1] = 0.0
    x[rng.random((n, N_IN)) < 0.1] = 1.0
    x[rng.random(n) < 0.2] = 0.0
    x[rng.random(n) < 0.2] = 1.0
    return x


_SCORERS = {entropy: _scorer(entropy) for entropy in ENTROPIES[:3]}
_SCORERS[2**63 - 1] = _scorer(_PinnedGenerator(np.random.PCG64(0)))


class TestSeedStates:
    @pytest.mark.parametrize("entropy", ENTROPIES + (7, 2**40 + 3, 2**64 - 1))
    def test_matches_seed_sequence(self, entropy):
        words = [0, 5, 2**32 - 1, 2**32, 2**63 + 9, 2**64 - 1]
        states = _content_seed_states(entropy, np.array(words, dtype=np.uint64))
        for word, state in zip(words, states):
            expected = np.random.SeedSequence([entropy, word]).generate_state(
                4, np.uint64
            )
            np.testing.assert_array_equal(state, expected)

    def test_content_coding_rejects_entropy_past_the_pool(self):
        with pytest.raises(ValueError, match="below 2\\*\\*64"):
            _scorer(2**64)


class TestContentCoding:
    def test_generator_seed_reaches_the_top_entropy(self):
        assert _SCORERS[2**63 - 1]._entropy == 2**63 - 1

    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        entropy=st.sampled_from(ENTROPIES),
    )
    @settings(max_examples=40, deadline=None)
    def test_rasters_equal_the_per_row_oracle(self, n, seed, entropy):
        x = _rows(seed, n)
        rasters = _SCORERS[entropy]._encode(x)
        np.testing.assert_array_equal(
            rasters[:, :TICKS], _oracle_content_rasters(entropy, x)
        )
        assert not rasters[:, TICKS:].any()

    def test_generator_rng_rasters_equal_the_oracle(self):
        scorer = _scorer(np.random.default_rng(3))
        x = _rows(4, 9)
        np.testing.assert_array_equal(
            scorer._encode(x)[:, :TICKS], _oracle_content_rasters(scorer._entropy, x)
        )

    @given(
        n=st.integers(1, 64),
        seed=st.integers(0, 2**32 - 1),
        entropy=st.sampled_from(ENTROPIES),
        chunk=st.integers(1, 64),
    )
    @settings(max_examples=25, deadline=None)
    def test_permuted_or_rechunked_rows_score_equally(self, n, seed, entropy, chunk):
        scorer = _SCORERS[entropy]
        x = _rows(seed, n)
        scores = scorer.decision_function(x)
        perm = np.random.default_rng(seed).permutation(n)
        np.testing.assert_array_equal(scorer.decision_function(x[perm]), scores[perm])
        rechunked = np.concatenate(
            [scorer.decision_function(x[i : i + chunk]) for i in range(0, n, chunk)]
        )
        np.testing.assert_array_equal(rechunked, scores)


class TestStreamCoding:
    @pytest.mark.parametrize("chunks", [(1,), (7,), (3, 1, 4), (1, 1, 1, 1, 1, 1, 1)])
    def test_one_draw_per_chunk_equals_per_row_draws(self, chunks):
        n = sum(chunks)
        x = _rows(5, n)
        scorer = _scorer(17, coding="stream")
        bounds = np.cumsum((0,) + chunks)
        rasters = np.concatenate(
            [scorer._encode(x[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        )
        encoder, stream = StochasticEncoder(TICKS), np.random.default_rng(17)
        expected = np.stack([encoder.encode(row, rng=stream) for row in x])
        np.testing.assert_array_equal(rasters[:, :TICKS], expected)
        assert not rasters[:, TICKS:].any()

    def test_chunking_does_not_change_scores(self):
        x = _rows(6, 12)
        whole = _scorer(23, coding="stream").decision_function(x)
        chunked = _scorer(23, coding="stream")
        parts = [chunked.decision_function(x[i : i + 5]) for i in range(0, 12, 5)]
        np.testing.assert_array_equal(np.concatenate(parts), whole)
