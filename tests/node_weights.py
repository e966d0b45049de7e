"""Reference node weights for the K-node oracle sums of the tests.

A scheme stores its rule as R ring weights; the brute-force references
sum over all K = R * A nodes instead, so they need one weight per node.
The rule itself is checked against 50-digit values in test_quadrature.
"""

import math

import numpy as np


def node_weights(scheme):
    """Weights of the K = R * A nodes of ``scheme``, in ``z_nodes`` order:
    the ring weight w_r e^(t_r) times 2pi/A on every node of ring r, so
    that sum_k weights[k] f(z_k) ~ integral f dx dy."""
    count = scheme.angular_count
    return np.repeat(scheme.ring_weights * (2.0 * math.pi / count), count)
