"""Dense forms of the phase-plane frames, the tests' oracles.

``resolution_operator`` returns the block columns one charge diagonal at
a time; ``dense_block`` scatters them into the dense N^2 x M array of the
columns ``block_indices(space)``, the form the full-frame references
give.  ``ring_gram`` is the full node sum of a stack of radial matrices
and ``classical_frame`` the one of the coherent columns, both from the
R rings and the charge rule.  ``column_block_norm`` is the dense-norm
oracle of a column block.
"""

import math

import numpy as np

from hsqm.thermal import resolution_operator


def block_indices(space):
    """Row-major indices n*N + l of the |n><l| with n, l <= N/4."""
    keep = np.arange(space.dim // 4 + 1)
    return (keep[:, None] * space.dim + keep[None, :]).ravel()


def ring_gram(scheme, mats):
    """The node sum (1/2pi) integral vec(M) vec(M)^† dx dy, where
    M = e^(i(m-n) phi_a) mats[r] at node (r, a) and (m, n) indexes the
    last two axes of ``mats`` (shape (R, M, M')).

    Only pairs of entries of equal charge m - n survive the angular sum.
    Real, shape (M*M', M*M').
    """
    rings, rows, cols = mats.shape
    charge = np.subtract.outer(np.arange(rows), np.arange(cols)).ravel()
    vecs = mats.reshape(rings, rows * cols)
    return np.where(charge[:, None] == charge, (vecs.T * scheme.ring_weights) @ vecs, 0.0)


def classical_frame(space, scheme):
    """(1/2 pi) integral |z><z| dx dy over the normalized coherent vectors
    <n|z>, column 0 of D(z): the ring Gram of the radial columns, real and
    diagonal, the identity up to truncation tails."""
    return ring_gram(scheme, scheme._radial_column(space)[:, :, None])


def dense_block(space, spec, scheme):
    """``resolution_operator``'s blocks scattered into the dense N^2 x M
    block columns, rows row-major, every entry outside the blocks 0."""
    blocks, charges = resolution_operator(space, spec, scheme)
    n, cols = space.dim, block_indices(space)
    dense = np.zeros((n * n, cols.size))
    for block, c in zip(blocks, charges):
        p = np.arange(n - abs(c))
        entries = (p + max(c, 0)) * n + p + max(-c, 0)  # |m><n| on diagonal c, by min(m, n)
        inside = np.searchsorted(cols, entries[np.isin(entries, cols)])
        dense[np.ix_(entries, inside)] = block[: p.size, : inside.size]
    return dense


def column_block_norm(block):
    """Operator 2-norm of a real column block D, sqrt(lambda_max(D^T D)) from its small Gram."""
    return math.sqrt(max(np.linalg.eigvalsh(block.T @ block)[-1], 0.0))
