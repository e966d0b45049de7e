"""Dense forms of the thermal block columns, the tests' oracles.

``resolution_operator`` returns the block columns grouped by charge class
mod A; ``dense_block`` scatters them into the dense N^2 x M array of the
columns ``block_indices(space)``, the form the full-frame references
give.  ``column_block_norm`` is the dense-norm oracle of a column block.
"""

import math

import numpy as np

from hsqm.hs_space import block_indices
from hsqm.thermal import resolution_operator


def dense_block(space, spec, scheme):
    """``resolution_operator``'s blocks scattered into the dense N^2 x M
    block columns, rows row-major, every entry outside the blocks 0."""
    blocks, rows, columns = resolution_operator(space, spec, scheme)
    cols = block_indices(space)
    dense = np.zeros((space.dim**2, cols.size))
    for block, row, column in zip(blocks, rows, columns):
        dense[np.ix_(row[row >= 0], np.searchsorted(cols, column[column >= 0]))] = block[np.ix_(row >= 0, column >= 0)]
    return dense


def column_block_norm(block):
    """Operator 2-norm of a real column block D, sqrt(lambda_max(D^T D)) from its small Gram."""
    return math.sqrt(max(np.linalg.eigvalsh(block.T @ block)[-1], 0.0))
