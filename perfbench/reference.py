"""Independent numpy/scipy implementation of the paper's model, for checking.

Nothing here imports ``phenomnn``.  Operators are applied in factored form
from the generator's own incidence matrix ``B``: ``A_C Y = B (Bᵀ Y)`` and
``A_S_bar Y = B D_H⁻¹ Bᵀ Y``.  The layer is written as the preconditioned
gradient step of the energy,

    Y <- ReLU(Y - alpha * D_tilde⁻¹ * (1/2) grad E(Y)),

with the gradient derived from the summation form of the energy rather than
copied from the program's update, so the two agree only if both are right.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import LinearOperator, eigsh


@dataclass
class RefOps:
    b: sp.csr_matrix
    bt: sp.csr_matrix
    inv_sizes: np.ndarray
    d_c: np.ndarray
    deg: np.ndarray
    d_tilde: np.ndarray
    lambda0: float
    lambda1: float

    @classmethod
    def from_edges(cls, n: int, edges, lambda0: float, lambda1: float) -> "RefOps":
        rows = np.concatenate(edges)
        cols = np.repeat(np.arange(len(edges)), [len(e) for e in edges])
        b = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(n, len(edges)))
        sizes = np.asarray(b.sum(axis=0)).ravel()
        d_c = b @ sizes  # row sums of B Bᵀ
        deg = np.asarray(b.sum(axis=1)).ravel()
        return cls(
            b=b,
            bt=b.T.tocsr(),
            inv_sizes=1.0 / sizes,
            d_c=d_c,
            deg=deg,
            d_tilde=lambda0 * d_c + lambda1 * deg + 1.0,
            lambda0=lambda0,
            lambda1=lambda1,
        )

    def a_c(self, y):
        return self.b @ (self.bt @ y)

    def a_s(self, y):
        return self.b @ (self.inv_sizes[:, None] * (self.bt @ y))


def half_grad(y, fx, ops: RefOps, h0, h1):
    """(1/2) grad E(Y) with edge embeddings substituted by their edge means."""
    s0, g0 = h0 + h0.T, h0 @ h0.T
    s1, g1 = h1 + h1.T, h1 @ h1.T
    a_s_y = ops.a_s(y)
    pair = ops.d_c[:, None] * (y @ g0 + y) - ops.a_c(y) @ s0
    mean = ops.deg[:, None] * (y @ g1) - a_s_y @ s1 + a_s_y
    return (y - fx) + 0.5 * ops.lambda0 * pair + ops.lambda1 * mean


def energy(y, fx, ops: RefOps, h0, h1) -> float:
    """Summation-form energy, evaluated through B with z_e = mean of y over e."""
    yh0 = y @ h0
    pair = (
        np.sum(ops.d_c * np.sum(yh0 * yh0, axis=1))
        - 2.0 * np.sum(yh0 * ops.a_c(y))
        + np.sum(ops.d_c * np.sum(y * y, axis=1))
    )
    z = ops.inv_sizes[:, None] * (ops.bt @ y)
    yh1 = y @ h1
    mean = (
        np.sum(ops.deg * np.sum(yh1 * yh1, axis=1))
        - 2.0 * np.sum(yh1 * (ops.b @ z))
        + np.sum((1.0 / ops.inv_sizes) * np.sum(z * z, axis=1))
    )
    return float(np.sum((y - fx) ** 2) + 0.5 * ops.lambda0 * pair + ops.lambda1 * mean)


def step(y, fx, ops: RefOps, h0, h1, alpha: float, relu: bool = True):
    out = y - alpha * half_grad(y, fx, ops, h0, h1) / ops.d_tilde[:, None]
    return np.maximum(out, 0.0) if relu else out


def compat(params: dict, d: int):
    """Compatibility matrices from a parameter dict; identity for the simple variant."""
    return params.get("h0", np.eye(d)), params.get("h1", np.eye(d))


def forward(x, params: dict, ops: RefOps, alpha: float, t_layers: int, signs: list | None = None):
    """Base predictor (affine layers, ReLU between), T steps, classifier logits.

    When ``signs`` is a list, the packed sign pattern of every step's ReLU
    input is appended to it.
    """
    h = x
    k = 0
    while f"predictor.w{k}" in params:
        if k:
            h = np.maximum(h, 0.0)
        h = h @ params[f"predictor.w{k}"] + params[f"predictor.b{k}"]
        k += 1
    fx = y = h
    h0, h1 = compat(params, fx.shape[1])
    for _ in range(t_layers):
        pre = step(y, fx, ops, h0, h1, alpha, relu=False)
        if signs is not None:
            signs.append(np.packbits(pre > 0.0))
        y = np.maximum(pre, 0.0)
    return fx, y, y @ params["classifier.w"] + params["classifier.b"]


def cross_entropy(logits, labels, rows) -> float:
    sel = logits[rows]
    shifted = sel - sel.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(rows.size), labels[rows]]))


def _start(size: int) -> np.ndarray:
    """Fixed Lanczos start vector, so the check repeats exactly."""
    return np.random.Generator(np.random.PCG64(0)).standard_normal(size)


def lanczos_bound_simple(ops: RefOps) -> float:
    """Simple-variant bound c / (c - sigma_min(K)), K = B diag(l0 + l1/m_e) Bᵀ, by Lanczos."""
    w = ops.lambda0 + ops.lambda1 * ops.inv_sizes
    row_sums = ops.b @ (w * (ops.bt @ np.ones(ops.b.shape[0])))
    hi = float(row_sums.max())  # K is entrywise nonnegative, so its max row sum bounds sigma_max
    n = ops.b.shape[0]
    op = LinearOperator((n, n), matvec=lambda v: hi * v - ops.b @ (w * (ops.bt @ v)), dtype=np.float64)
    top = eigsh(op, k=1, which="LA", return_eigenvectors=False, v0=_start(n))[0]
    sigma = max(hi - float(top), 0.0)
    c = 1.0 + ops.lambda0 * float(ops.d_c.min()) + ops.lambda1 * float(ops.deg.min())
    return c / (c - sigma)


def lanczos_bound_general(ops: RefOps, h0, h1) -> float:
    """General-variant bound from the largest eigenvalue of its curvature operator, by Lanczos."""
    n, d = ops.b.shape[0], h0.shape[0]
    s = 0.5 * ops.lambda0
    s0, g0 = h0 + h0.T, h0 @ h0.T
    s1, g1 = h1 + h1.T, h1 @ h1.T

    def matvec(vec):
        v = vec.reshape(n, d)
        a_s_v = ops.a_s(v)
        out = s * (ops.d_c[:, None] * (v @ g0) - ops.a_c(v) @ s0)
        out += ops.lambda1 * (ops.deg[:, None] * (v @ g1) - a_s_v @ s1 + a_s_v)
        return out.ravel()

    op = LinearOperator((n * d, n * d), matvec=matvec, dtype=np.float64)
    sigma = float(eigsh(op, k=1, which="LA", return_eigenvectors=False, v0=_start(n * d))[0])
    numer = 1.0 + ops.lambda0 * float(ops.d_c.min()) + ops.lambda1 * float(ops.deg.min())
    return numer / (1.0 + s * float(ops.d_c.min()) + sigma)
