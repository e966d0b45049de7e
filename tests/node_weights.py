"""Reference node weights for the K-node oracle sums of the tests.

A scheme stores its rule as R ring weights; the brute-force references
sum over all K = R * A nodes instead, so they need one weight per node.
"""

import math

import numpy as np
from scipy.special import roots_laguerre


def node_weights(scheme):
    """Weights of the K = R * A nodes of ``scheme``, in ``z_nodes`` order,
    straight from the Gauss-Laguerre rule: w_r e^(t_r) 2pi/A on every node
    of ring r, so that sum_k weights[k] f(z_k) ~ integral f dx dy.  Checks
    the scheme's nodes and ring weights against the same rule."""
    t, w = roots_laguerre(len(scheme.radial_nodes))
    ring = np.exp(np.log(w) + t)
    assert np.array_equal(scheme.radial_nodes, t)
    assert np.allclose(scheme.ring_weights, ring, rtol=1e-13, atol=0.0)
    count = scheme.angular_count
    return np.repeat(ring * (2.0 * math.pi / count), count)
