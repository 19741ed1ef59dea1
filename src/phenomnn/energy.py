"""Hypergraph energies, their gradients, and the brute-force summation oracle.

Two energy variants are provided.  The simple variant penalizes the quadratic
forms of the clique and normalized-star Laplacians:

    E_simple(Y) = ||Y - Fx||_F^2 + lambda0 tr[Y^T L_C Y] + lambda1 tr[Y^T L_S_bar Y]

The general variant replaces the two graph terms with compatibility-projected
sums, with the edge embedding eliminated by its per-edge mean ``Z* = D_H^{-1} B^T Y``:

    E_general(Y) = ||Y - Fx||_F^2
                 + (lambda0 / 2) * sum_e sum_{i,j in e} ||y_i H0 - y_j||^2
                 + lambda1 * sum_e sum_{i in e} ||y_i H1 - z*_e||^2

The pairwise term is weighted ``lambda0 / 2`` (the double sum counts every
ordered pair) so that ``H0 = H1 = I`` recovers E_simple exactly, gradient and
update included, at the same ``(lambda0, lambda1)``.

The nonnegativity barrier is never represented as an infinite float: every
evaluation returns the smooth value together with a feasibility flag.

Every adjacency product is applied through the incidence matrix, one
``B^T`` product followed by one ``B`` product (``adjacency_simple``,
``adjacency_general``); no n x n matrix is formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hypergraph import ExpansionOperators, Hypergraph
from .linalg import row_scale, spmm

__all__ = [
    "EnergyParams",
    "EnergyValue",
    "prox_nonneg",
    "z_star",
    "energy_simple",
    "energy_general",
    "energy_bruteforce",
    "grad_simple",
    "grad_general",
    "laplacian_quad",
    "adjacency_simple",
    "adjacency_general",
]


@dataclass(eq=False)
class EnergyParams:
    """Energy-shape parameters: compatibility matrices, expansion weights, step size."""

    h0: np.ndarray
    h1: np.ndarray
    lambda0: float
    lambda1: float
    alpha: float = 0.5

    def __post_init__(self):
        self.h0 = np.asarray(self.h0, dtype=np.float64)
        self.h1 = np.asarray(self.h1, dtype=np.float64)
        if self.h0.shape != self.h1.shape or self.h0.ndim != 2 or self.h0.shape[0] != self.h0.shape[1]:
            raise ValueError(f"h0/h1 must be square with matching size, got {self.h0.shape} and {self.h1.shape}")
        if self.lambda0 < 0 or self.lambda1 < 0:
            raise ValueError("lambda0 and lambda1 must be nonnegative")
        # alpha = 0 is a valid degenerate step at the layer level; training
        # configs require a strictly positive step via ModelConfig
        if self.alpha < 0:
            raise ValueError("alpha must be nonnegative")

    @classmethod
    def identity(cls, d: int, lambda0: float, lambda1: float, alpha: float = 0.5) -> "EnergyParams":
        return cls(np.eye(d), np.eye(d), lambda0, lambda1, alpha)

    @property
    def d(self) -> int:
        return self.h0.shape[0]


@dataclass
class EnergyValue:
    """Smooth energy value plus feasibility of the nonnegativity barrier."""

    smooth: float
    feasible: bool


def _check_ops_params(ops: ExpansionOperators, params: EnergyParams) -> None:
    if ops.lambda0 != params.lambda0 or ops.lambda1 != params.lambda1:
        raise ValueError(
            "expansion operators were built for "
            f"(lambda0={ops.lambda0}, lambda1={ops.lambda1}) but params carry "
            f"({params.lambda0}, {params.lambda1})"
        )


def prox_nonneg(v: np.ndarray) -> np.ndarray:
    """Proximal map of the nonnegativity barrier: elementwise max(0, v)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def z_star(hg: Hypergraph, y: np.ndarray) -> np.ndarray:
    """Optimal edge embeddings ``D_H^{-1} B^T Y``: row k is the mean of y over edge k."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != hg.n:
        raise ValueError(f"z_star: expected ({hg.n}, d) embeddings, got {y.shape}")
    return row_scale(1.0 / hg.edge_sizes, spmm(hg.incidence.T, y))


def adjacency_simple(y: np.ndarray, ops: ExpansionOperators) -> np.ndarray:
    """Combined adjacency product ``(lambda0 A_C + lambda1 A_S_bar) Y``.

    Applied as ``B [(lambda0 + lambda1 / m_e) * (B^T Y)]``.
    """
    return spmm(ops.b, row_scale(ops.lambda0 + ops.lambda1 / ops.d_h, spmm(ops.bt, y)))


def adjacency_general(y: np.ndarray, ops: ExpansionOperators, h0_sym: np.ndarray, h1_sym: np.ndarray) -> np.ndarray:
    """Compatibility-projected adjacency ``(lambda0/2) A_C Y S0 + lambda1 A_S_bar Y (S1 - I)``.

    ``S0 = H0 + H0^T`` and ``S1 = H1 + H1^T``; applied as
    ``B [(lambda0/2) P S0 + lambda1 D_H^{-1} P (S1 - I)]`` with ``P = B^T Y``.
    """
    p = spmm(ops.bt, y)
    q = 0.5 * ops.lambda0 * (p @ h0_sym) + row_scale(ops.lambda1 / ops.d_h, p @ h1_sym - p)
    return spmm(ops.b, q)


def laplacian_quad(adj_y: np.ndarray, deg: np.ndarray, y: np.ndarray) -> float:
    """Quadratic form ``tr[Y^T (D - A) Y]`` from the product ``A Y`` and the degree diagonal."""
    return float(np.sum(y * (row_scale(deg, y) - adj_y)))


def energy_simple(y: np.ndarray, fx: np.ndarray, ops: ExpansionOperators) -> EnergyValue:
    """Simple-variant energy; expansion weights are taken from ``ops``."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != fx.shape:
        raise ValueError(f"energy_simple: shape mismatch {y.shape} vs {fx.shape}")
    fit = float(np.sum((y - fx) ** 2))
    deg = ops.lambda0 * ops.d_c + ops.lambda1 * ops.d_s_bar
    return EnergyValue(
        smooth=fit + laplacian_quad(adjacency_simple(y, ops), deg, y),
        feasible=bool(np.min(y, initial=0.0) >= 0.0),
    )


def energy_general(
    y: np.ndarray, fx: np.ndarray, ops: ExpansionOperators, params: EnergyParams, hg: Hypergraph
) -> EnergyValue:
    """General-variant energy in its matrix/trace form (edge means substituted)."""
    _check_ops_params(ops, params)
    y = np.asarray(y, dtype=np.float64)
    if y.shape != fx.shape:
        raise ValueError(f"energy_general: shape mismatch {y.shape} vs {fx.shape}")
    h0, h1 = params.h0, params.h1
    fit = float(np.sum((y - fx) ** 2))
    yh0 = y @ h0
    term_a = (
        float(np.sum(yh0 * row_scale(ops.d_c, yh0)))
        - 2.0 * float(np.sum(yh0 * spmm(ops.b, spmm(ops.bt, y))))
        + float(np.sum(y * row_scale(ops.d_c, y)))
    )
    z = z_star(hg, y)
    yh1 = y @ h1
    term_b = (
        float(np.sum(yh1 * row_scale(ops.d_s_bar, yh1)))
        - 2.0 * float(np.sum(yh1 * spmm(hg.incidence, z)))
        + float(np.sum(z * row_scale(ops.d_h, z)))
    )
    return EnergyValue(
        smooth=fit + 0.5 * params.lambda0 * term_a + params.lambda1 * term_b,
        feasible=bool(np.min(y, initial=0.0) >= 0.0),
    )


def energy_bruteforce(
    y: np.ndarray, z: np.ndarray, fx: np.ndarray, hg: Hypergraph, params: EnergyParams
) -> EnergyValue:
    """Literal summation form of the full energy; the ground-truth oracle.

    Evaluates ``||Y - Fx||^2 + lambda0 * sum_e sum_{i,j in e} ||y_i H0 - y_j||^2
    + lambda1 * sum_e sum_{i in e} ||y_i H1 - z_e||^2`` by explicit loops, with
    the pairwise sum over ordered pairs.  Feasibility covers both Y and Z.
    """
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    h0, h1 = params.h0, params.h1
    total = float(np.sum((y - fx) ** 2))
    pair = 0.0
    mean = 0.0
    for k, e in enumerate(hg.edges):
        for i in e:
            yi_h0 = y[i] @ h0
            for j in e:
                diff = yi_h0 - y[j]
                pair += float(diff @ diff)
            diff = y[i] @ h1 - z[k]
            mean += float(diff @ diff)
    total += params.lambda0 * pair + params.lambda1 * mean
    feasible = bool(np.min(y, initial=0.0) >= 0.0 and np.min(z, initial=0.0) >= 0.0)
    return EnergyValue(smooth=total, feasible=feasible)


def grad_simple(y: np.ndarray, fx: np.ndarray, ops: ExpansionOperators) -> np.ndarray:
    """Gradient of the simple energy: ``2(lambda0 L_C + lambda1 L_S_bar) Y + 2(Y - Fx)``."""
    y = np.asarray(y, dtype=np.float64)
    deg = ops.lambda0 * ops.d_c + ops.lambda1 * ops.d_s_bar
    return 2.0 * (row_scale(deg, y) - adjacency_simple(y, ops) + y - fx)


def grad_general(
    y: np.ndarray, fx: np.ndarray, ops: ExpansionOperators, params: EnergyParams
) -> np.ndarray:
    """Gradient of the general energy; collapses to ``grad_simple`` at H0 = H1 = I.

    ``lambda0 D_C Y (I + H0 H0^T) + 2 lambda1 D_S_bar Y H1 H1^T - 2 adjacency_general(Y) + 2 (Y - Fx)``.
    """
    _check_ops_params(ops, params)
    y = np.asarray(y, dtype=np.float64)
    h0, h1 = params.h0, params.h1
    adj = adjacency_general(y, ops, h0 + h0.T, h1 + h1.T)
    return (
        params.lambda0 * row_scale(ops.d_c, y + y @ (h0 @ h0.T))
        + 2.0 * params.lambda1 * row_scale(ops.d_s_bar, y @ (h1 @ h1.T))
        - 2.0 * adj
        + 2.0 * (y - fx)
    )
