"""Extreme eigenvalues of symmetric operators by Lanczos, and Matrix Market export.

Everything operates on 64-bit floats; sparse matrices are plain scipy CSR
matrices.  Both functions are pure: the same inputs yield bitwise-identical
outputs in the (default) sequential build, so results are safe to share
across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

__all__ = [
    "EigenResult",
    "extreme_eigenvalue",
    "write_matrix_market",
]


@dataclass
class EigenResult:
    """An eigenvalue, the residual ``||A x - value x||`` of its unit vector ``x``,
    whether the solve converged, and the number of operator applications it took."""

    value: float
    residual: float
    converged: bool
    iterations: int


# Lanczos basis size (scipy's default is 20).  On one core of a 2-vCPU VM, a
# general-variant operator of size 32,000 took 107 applications in 0.12 s with
# 8 vectors (a 2.0 MiB basis), 83 in 0.14 s with 20 (4.9 MiB); freeing the
# larger basis also raises glibc's mmap threshold, which moved later timings.
KRYLOV_BASIS = 8


def extreme_eigenvalue(apply, size: int, which: str = "max", iters: int = 5000, tol: float = 1e-10) -> EigenResult:
    """Largest (``which="max"``) or smallest (``"min"``) eigenvalue of a symmetric operator.

    ``apply`` maps a vector of length ``size`` to the operator applied to it.
    The solve is ARPACK's implicitly restarted Lanczos (``eigsh``) from a
    PCG64 start vector drawn from seed 0, so every solve of one operator is
    reproduced exactly.  ``iters`` caps the operator applications; ``tol`` is the
    relative accuracy of the Ritz value.  ARPACK returns no Ritz pair before
    one converges, so a solve that stops early reports the start vector's
    Rayleigh quotient with ``converged=False``.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    rng = np.random.Generator(np.random.PCG64(0))
    v0 = rng.standard_normal(size)
    v0 /= np.linalg.norm(v0)
    calls = 0

    def rayleigh(x):
        nonlocal calls
        calls += 1
        ax = np.asarray(apply(x), dtype=np.float64)
        theta = float(x @ ax)
        return theta, float(np.linalg.norm(ax - theta * x))

    theta, residual = rayleigh(v0)
    # A random start vector lies in the null space of a nonzero operator with
    # probability 0, so an annihilated one (||A v0||^2 = theta^2 + r^2) means
    # the zero operator, on which ARPACK fails with error -9; a 1x1 operator
    # is its own answer.
    if size == 1 or np.hypot(theta, residual) < 1e-300:
        return EigenResult(theta, residual, True, calls)

    def matvec(x):
        nonlocal calls
        if calls >= iters - 1:  # keep one application for the residual
            raise ArpackNoConvergence("operator application cap reached", np.zeros(0), np.zeros((size, 0)))
        calls += 1
        return apply(x)

    op = LinearOperator((size, size), matvec=matvec, dtype=np.float64)
    kind = "LA" if which == "max" else "SA"
    try:
        _, vec = eigsh(op, 1, which=kind, v0=v0, ncv=min(KRYLOV_BASIS, size), maxiter=iters, tol=tol, rng=rng)
    except ArpackNoConvergence:
        return EigenResult(theta, residual, False, calls)
    theta, residual = rayleigh(vec[:, 0] / np.linalg.norm(vec[:, 0]))
    return EigenResult(theta, residual, True, calls)


def write_matrix_market(s, target) -> None:
    """Write a canonical CSR matrix in Matrix Market coordinate format (1-based indices)."""
    own = isinstance(target, (str, bytes))
    f = open(target, "w", encoding="utf-8") if own else target
    try:
        f.write("%%MatrixMarket matrix coordinate real general\n")
        f.write(f"{s.shape[0]} {s.shape[1]} {s.nnz}\n")
        for i in range(s.shape[0]):
            for p in range(s.indptr[i], s.indptr[i + 1]):
                f.write(f"{i + 1} {int(s.indices[p]) + 1} {float(s.data[p])!r}\n")
    finally:
        if own:
            f.close()
