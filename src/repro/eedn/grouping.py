"""Filter/layer grouping for the 256x256 crossbar constraint.

"Eedn partitions layers and the corresponding filters into multiple
groups to ensure the filters are sized such that they can be implemented
using the 256x256 TrueNorth core crossbars" (paper, Section 2.2). A
filter's fan-in — synapses per output neuron — must not exceed a core's
256 axons.
"""

from typing import List

from repro.eedn.layers import TrinaryConv2D, TrinaryDense
from repro.eedn.network import EednNetwork

CROSSBAR_FAN_IN = 256
"""Maximum synapses per neuron on one neurosynaptic core."""


def group_channels(in_channels: int, ksize: int, limit: int = CROSSBAR_FAN_IN) -> int:
    """Smallest group count making a conv filter fit the crossbar.

    Args:
        in_channels: layer input channels.
        ksize: square kernel edge.
        limit: fan-in bound (defaults to 256).

    Returns:
        The smallest divisor ``g`` of ``in_channels`` with
        ``(in_channels / g) * ksize**2 <= limit``.

    Raises:
        ValueError: when even ``g = in_channels`` (one channel per group)
            exceeds the bound, i.e. ``ksize**2 > limit``.
    """
    if in_channels < 1 or ksize < 1:
        raise ValueError("in_channels and ksize must be >= 1")
    for groups in range(1, in_channels + 1):
        if in_channels % groups:
            continue
        if (in_channels // groups) * ksize * ksize <= limit:
            return groups
    raise ValueError(
        f"kernel {ksize}x{ksize} alone exceeds the crossbar fan-in {limit}"
    )


def fan_in_violations(network: EednNetwork, limit: int = CROSSBAR_FAN_IN) -> List[str]:
    """Describe every layer whose per-neuron fan-in exceeds the crossbar.

    Dense layers with large fan-in are not errors — they deploy as trees
    of partial sums (see :func:`repro.eedn.mapping.core_count`) — but the
    report makes the extra resource cost visible.

    Args:
        network: the network to audit.
        limit: fan-in bound.

    Returns:
        Human-readable violation strings, empty when all layers fit.
    """
    problems = []
    for index, layer in enumerate(network.layers):
        if isinstance(layer, TrinaryConv2D) and layer.fan_in() > limit:
            problems.append(
                f"layer {index}: conv fan-in {layer.fan_in()} > {limit}; "
                f"raise groups (currently {layer.groups})"
            )
        elif isinstance(layer, TrinaryDense) and layer.n_in > limit:
            problems.append(
                f"layer {index}: dense fan-in {layer.n_in} > {limit}; "
                "deploys as a partial-sum tree"
            )
    return problems


__all__ = ["CROSSBAR_FAN_IN", "fan_in_violations", "group_channels"]
