"""Reference node weights for the K-node oracle sums of the tests.

A scheme stores its rule as R ring weights; the brute-force references
sum over all K = R * A nodes instead, so they need one weight per node.
The rule itself is checked against 50-digit values in test_quadrature.

``ring_grid`` lays any number A' of uniform angles on the rings of a
rule.  With A' < 2N - 1 the angular sum no longer separates every pair
of charges of the first N levels: it folds together charges that differ
by a multiple of A' (``folded``), and leaves every other pair exact.
"""

import math

import numpy as np

from hsqm.quadrature import QuadratureScheme


def rule(n, radial, angular):
    """The rule for N = ``n``, checked to have ``radial`` rings of ``angular`` angles."""
    scheme = QuadratureScheme(n)
    assert (len(scheme.radial_nodes), scheme.angular_count) == (radial, angular)
    return scheme


def node_weights(scheme):
    """Weights of the K = R * A nodes of ``scheme``, in ``z_nodes`` order:
    the ring weight w_r e^(t_r) times 2pi/A on every node of ring r, so
    that sum_k weights[k] f(z_k) ~ integral f dx dy."""
    count = scheme.angular_count
    return np.repeat(scheme.ring_weights * (2.0 * math.pi / count), count)


def ring_grid(scheme, angular):
    """Nodes z and weights of ``angular`` uniform angles on each ring of
    ``scheme``, ring by ring: the scheme's own nodes and ``node_weights``
    when ``angular`` is its A, a coarser grid on the same rings otherwise."""
    phi = 2.0 * math.pi * np.arange(angular) / angular
    z = (np.sqrt(scheme.radial_nodes)[:, None] * np.exp(1j * phi)[None, :]).ravel()
    return z, np.repeat(scheme.ring_weights * (2.0 * math.pi / angular), angular)


def grid(n, radial, angular):
    """The rule for N = ``n``, checked to have ``radial`` rings, with the
    nodes and weights of ``ring_grid(rule, angular)``."""
    scheme = QuadratureScheme(n)
    assert len(scheme.radial_nodes) == radial
    return (scheme, *ring_grid(scheme, angular))


def folded(charge, angular):
    """Pairs (i, j) of unequal charges charge[i], charge[j] that differ by
    a multiple of ``angular``: the angular sum over that many uniform
    angles keeps them, where the integral is 0."""
    difference = np.subtract.outer(charge, charge)
    return (difference % angular == 0) & (difference != 0)
