"""Extreme eigenvalues of symmetric operators by Lanczos.

``extreme_eigenvalue`` runs the three-term Lanczos recurrence and keeps no
basis: three vectors of the operator's size and the tridiagonal's scalars.
Everything operates on 64-bit floats.  The solve is pure: the same inputs
yield bitwise-identical outputs in the (default) sequential build.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.blas import daxpy

__all__ = [
    "EigenResult",
    "extreme_eigenvalue",
]


@dataclass
class EigenResult:
    """A Ritz value, the Lanczos estimate of the residual ``||A x - value x||`` of its
    unit Ritz vector ``x``, whether the solve converged, and its operator applications."""

    value: float
    residual: float
    converged: bool
    iterations: int


# A solve stops unconverged after MAX_APPLICATIONS operator applications, and
# converges on a residual of TOL relative to its Ritz value (see extreme_eigenvalue).
# Convergence is checked after each of the first CHECK_EVERY_UP_TO applications,
# then after every k // CHECK_SPACING more: a check solves the k x k tridiagonal,
# cheap at small k and costly at large k (timings: CHANGES.md).
MAX_APPLICATIONS = 5000
TOL = 1e-10
CHECK_EVERY_UP_TO = 32
CHECK_SPACING = 8


def extreme_eigenvalue(apply, size: int, which: str = "max") -> EigenResult:
    """Largest (``which="max"``) or smallest (``"min"``) eigenvalue of a symmetric operator.

    ``apply`` maps a vector of length ``size`` to the operator applied to it.
    Lanczos starts from a PCG64 vector drawn from seed 0, so every solve of one
    operator is reproduced exactly.  After ``k`` applications the recurrence
    ``beta_k v_{k+1} = A v_k - alpha_k v_k - beta_{k-1} v_{k-1}`` has built
    the tridiagonal ``T_k``; its extreme eigenvalue ``theta`` (eigenvector
    ``s``) is the Ritz value reported, and ``|beta_k s_k|`` the residual.  In
    exact arithmetic that is ``||A x - theta x||`` for the Ritz vector ``x``;
    in floating point the basis loses orthogonality as Ritz values converge,
    and the estimate is taken on Paige's (1980) result that a Ritz value with
    a small estimate lies that close to an eigenvalue, up to rounding of the
    size of ``eps ||A||``.  The solve stops, converged, on ARPACK's test
    ``residual <= TOL * max(eps^(2/3), |theta|)``, or unconverged after
    ``MAX_APPLICATIONS`` applications, reporting the last Ritz value and estimate.
    """
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    v = np.random.Generator(np.random.PCG64(0)).standard_normal(size)
    v /= np.linalg.norm(v)
    r = np.zeros(size)  # v_{k-1}, then the recurrence's remainder, then v_{k+1}
    alphas, betas = [], []
    floor = np.finfo(np.float64).eps ** (2.0 / 3.0)
    beta, check = 0.0, 1
    for k in range(1, MAX_APPLICATIONS + 1):
        w = np.asarray(apply(v), dtype=np.float64)
        alphas.append(float(v @ w))
        r *= -beta
        r += w
        daxpy(v, r, a=-alphas[-1])
        beta = float(np.linalg.norm(r))
        # beta = 0 is an invariant subspace: its residual is 0 and the Ritz value exact
        if k == check or k == MAX_APPLICATIONS or beta == 0.0:
            i = k - 1 if which == "max" else 0
            theta, s = eigh_tridiagonal(alphas, betas, select="i", select_range=(i, i))
            theta, residual = float(theta[0]), beta * abs(float(s[-1, 0]))
            if residual <= TOL * max(floor, abs(theta)):
                return EigenResult(theta, residual, True, k)
            check = k + (1 if k < CHECK_EVERY_UP_TO else k // CHECK_SPACING)
        betas.append(beta)
        r /= beta
        r, v = v, r
    return EigenResult(theta, residual, False, MAX_APPLICATIONS)
