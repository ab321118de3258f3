"""Dense zero-mode count: the test oracle for `NetworkModel.zero_count`.

Sylvester's law of inertia on one Bunch-Kaufman LDL^T (LAPACK dsytrf) of
the densified A - tau I, tau = ZERO_MODE_RTOL * max(lambda_max, 0): each
1 x 1 block of D at or below 0 counts one, and each 2 x 2 block, whose
determinant is negative, counts one. `gnmqsim` takes the same count from
the pivots of its sparse LDL^T of A - tau I.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from gnmqsim.network import ZERO_MODE_RTOL


def dense_zero_count(A: np.ndarray, lambda_max: float) -> int:
    """The number of eigenvalues of the dense symmetric A at or below
    ZERO_MODE_RTOL * max(lambda_max, 0), from its inertia."""
    n = A.shape[0]
    shifted = np.array(A, dtype=float)
    shifted.flat[::n + 1] -= ZERO_MODE_RTOL * max(lambda_max, 0.0)
    lwork = int(lapack.dsytrf_lwork(n, lower=1)[0])
    ldu, ipiv, info = lapack.dsytrf(shifted, lower=1, lwork=lwork, overwrite_a=1)
    assert info >= 0, f"dsytrf: illegal argument {-info}"
    return int(np.sum(ldu.diagonal()[ipiv > 0] <= 0.0) + np.sum(ipiv < 0) // 2)
