"""The dense Gram solve, the banded interpolation solver's test oracle.

It factors the Gram matrix of translates (maternlab.assemble_gram) by an
unpivoted LAPACK Cholesky, O(N^3) time and O(N^2) memory, and gives the
coefficients a = A^{-1} y that the banded solver never forms.
"""

from typing import NamedTuple

import numpy as np
from scipy.linalg import cho_solve
from scipy.linalg.lapack import dpotrf

from maternlab import CONDITIONING_FLOOR, ConditioningError, assemble_gram, kernel_eval


def cholesky_floor(A, floor, detail=""):
    """Unpivoted lower Cholesky factor of A, computed in place in A.

    The pivot checked is the diagonal remainder before its square root,
    L[j, j]**2; a value at or below the floor means the matrix is
    numerically not positive definite at scale and raises ConditioningError.
    """
    # dpotrf stops at the first pivot <= 0 (info = j + 1); only the block it
    # completed before that has final diagonals to check.
    diag = A.diagonal().copy()
    # A is symmetric, so its transpose is the same matrix in Fortran order
    # and LAPACK works on it without a copy.
    L, info = dpotrf(A.T, lower=1, overwrite_a=1)
    if info < 0:
        raise ValueError(f"dpotrf rejected argument {-info}")
    done = A.shape[0] if info == 0 else info - 1
    low = np.flatnonzero(np.diagonal(L)[:done] ** 2 <= floor)
    if low.size:
        j = int(low[0])
    elif info > 0:
        j = info - 1
    else:
        return L
    raise ConditioningError(j, diag[j] - L[j, :j] @ L[j, :j], floor, detail)


class DenseSolve(NamedTuple):
    coefficients: np.ndarray  # a = A^{-1} y
    norm_sq: float  # a . y
    min_pivot: float  # the smallest Cholesky pivot L[j, j]**2


def solve_dense(k, X, values):
    """Interpolate values at X with kernel k by the dense Cholesky of A,
    refusing a pivot at or below the package's floor 1e-13 K(0)."""
    floor = CONDITIONING_FLOOR * kernel_eval(k, 0.0)
    L = cholesky_floor(assemble_gram(k, X), floor, f"at N={len(X)}")
    vals = np.array(values, dtype=float)
    a = cho_solve((L, True), vals)
    return DenseSolve(a, float(a @ vals), float(np.min(np.diagonal(L)) ** 2))
