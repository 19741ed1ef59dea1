"""Sparse-dense products, diagonal scaling and extreme-eigenvalue estimation.

Everything operates on 64-bit floats.  Sparse matrices are plain scipy CSR
matrices; dense matrices are 2-D ``numpy.ndarray``; diagonal matrices are
represented by their 1-D diagonal.  All functions are pure: the same inputs
yield bitwise-identical outputs in the (default) sequential build, so results
are safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "spmm",
    "EigenResult",
    "extreme_eigenvalue",
    "gershgorin_interval",
    "row_scale",
    "write_matrix_market",
]


def _as_f64(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a


def spmm(s, d: np.ndarray) -> np.ndarray:
    """Exact product ``s @ d`` of a scipy sparse matrix and a 2-D array."""
    d = _as_f64(d)
    if d.ndim != 2 or s.shape[1] != d.shape[0]:
        raise ValueError(f"spmm: cannot multiply {s.shape} by {d.shape}")
    return s @ d


@dataclass
class EigenResult:
    """Outcome of a power-iteration run.

    ``residual`` is ``||A v - value v||_2`` for the returned estimate; a run
    that exhausts its iteration budget is returned with ``converged=False``
    and carries the best estimate found.
    """

    value: float
    residual: float
    converged: bool
    iterations: int


def extreme_eigenvalue(
    apply,
    size: int,
    which: str = "max",
    iters: int = 500,
    tol: float = 1e-9,
    shift: float | None = None,
    seed: int = 0,
) -> EigenResult:
    """Estimate an extreme eigenvalue of a symmetric operator via power iteration.

    ``apply`` maps a vector of length ``size`` to the operator applied to it.
    For ``which="min"`` a spectral shift is required (typically the Gershgorin
    upper bound of the operator) and the iteration runs on ``shift*I - A``.
    For ``which="max"`` an optional nonnegative ``shift`` lifts an indefinite
    operator to positive semidefinite so the dominant eigenvalue is the
    algebraic maximum.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if which not in ("max", "min"):
        raise ValueError(f"which must be 'max' or 'min', got {which!r}")
    if which == "min" and shift is None:
        raise ValueError("which='min' requires a spectral shift (Gershgorin upper bound)")
    c = 0.0 if shift is None else float(shift)

    def apply_shifted(v):
        av = np.asarray(apply(v), dtype=np.float64)
        if which == "max":
            return av + c * v
        return c * v - av

    rng = np.random.Generator(np.random.PCG64(seed))
    v = rng.standard_normal(size)
    v /= np.linalg.norm(v)
    ray = 0.0
    residual = np.inf
    converged = False
    it = 0
    w = apply_shifted(v)
    for it in range(1, iters + 1):
        norm_w = np.linalg.norm(w)
        if norm_w < 1e-300:
            # operator annihilates the iterate: eigenvalue 0 of the shifted map
            ray = 0.0
            residual = 0.0
            converged = True
            break
        v = w / norm_w
        w = apply_shifted(v)
        ray = float(v @ w)
        # for a symmetric operator the eigenvalue error is at most the residual
        residual = float(np.linalg.norm(w - ray * v))
        if residual <= tol * max(1.0, abs(ray)):
            converged = True
            break
    value = ray - c if which == "max" else c - ray
    return EigenResult(value=value, residual=residual, converged=converged, iterations=it)


def gershgorin_interval(a) -> tuple[float, float]:
    """Gershgorin disc bounds (lo, hi) on the spectrum of a symmetric matrix."""
    a = _as_f64(a)
    diag = np.diag(a)
    radius = np.abs(a).sum(axis=1) - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def row_scale(diag: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product ``D @ y`` for a diagonal matrix given by its 1-D diagonal."""
    diag, y = _as_f64(diag), _as_f64(y)
    if diag.ndim != 1 or diag.shape[0] != y.shape[0]:
        raise ValueError(f"row_scale: diagonal of size {diag.shape} for {y.shape}")
    return diag[:, None] * y


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
