"""The rows an in-order greedy rank scan keeps: the reference for kept rows.

`logical_operators` extends the stabilizer rows to a basis of the
normalizer by picking kernel rows off one elimination of the generators on
the kernel's free columns.  The tests check that pick against this scan
over the whole stack of generators and kernel.  It is a helper module, not
a test module, so pytest does not collect it.
"""

import numpy as np

from eaqc.gf2 import BinaryMatrix, RowBasis


def independent_rows(a: BinaryMatrix) -> np.ndarray:
    """Indices of the rows that an in-order greedy rank scan keeps.

    Row i is kept when it lies outside the span of rows 0..i-1, which makes
    the kept rows exactly the pivot columns of the echelon form of aᵀ.
    """
    return RowBasis.build(a.transpose()).pivot_cols
