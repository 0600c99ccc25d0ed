"""Random-number-generator plumbing.

Every stochastic component in the package accepts either a seed or a
:class:`numpy.random.Generator`, and resolves it through
:func:`resolve_rng` so experiments are reproducible end to end.
"""

from typing import List, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator]


def resolve_rng(rng: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``rng``.

    Args:
        rng: ``None`` for a fresh unseeded generator, an ``int`` seed, or an
            existing generator (returned unchanged so state is shared).

    Returns:
        A ready-to-use generator.

    Raises:
        TypeError: if ``rng`` is of an unsupported type.
    """
    if rng is None:
        return np.random.default_rng()
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, (int, np.integer)):
        return np.random.default_rng(int(rng))
    raise TypeError(
        f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}"
    )


def spawn_generators(rng: RngLike, n: int) -> List[np.random.Generator]:
    """``n`` independent generators, reproducibly derived from ``rng``.

    This is the lane-seeding rule shared by the reference and batch
    simulation engines: lane ``i`` of an ``n``-lane batch run consumes the
    stream of ``spawn_generators(rng, n)[i]``, so the two engines (and any
    external reference harness) can be compared bit for bit. For ``None``
    or integer seeds the derivation goes through
    ``np.random.SeedSequence(seed).spawn(n)`` and is stateless: calling
    twice with the same seed yields identical generators. Passing a
    ``Generator`` advances its spawn counter instead (successive calls give
    fresh, still collision-free, children).

    Args:
        rng: parent seed/generator specification.
        n: number of lanes.

    Returns:
        List of ``n`` generators with mutually independent streams.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if isinstance(rng, np.random.Generator):
        return list(rng.spawn(n))
    if rng is None:
        sequence = np.random.SeedSequence()
    elif isinstance(rng, (int, np.integer)):
        sequence = np.random.SeedSequence(int(rng))
    else:
        raise TypeError(
            f"rng must be None, an int seed, or a numpy Generator, got {type(rng)!r}"
        )
    return [np.random.default_rng(child) for child in sequence.spawn(n)]


__all__ = ["RngLike", "resolve_rng", "spawn_generators"]
