"""Hypergraph energies: their parameters, the one operator ``L_H``, and the energy from ``-L_H Y``.

Both variants share the form ``E(Y) = ||Y - Fx||_F^2 + <Y, L_H Y>``.  In the
simple variant ``L_H = lambda0 L_C + lambda1 L_S_bar``, the clique and
normalized-star Laplacians.  The general variant compares embeddings through
compatibility matrices, with the edge embedding eliminated by its per-edge
mean ``z*_e``:

    E_general(Y) = ||Y - Fx||_F^2
                 + (lambda0 / 2) * sum_e sum_{i,j in e} ||y_i H0 - y_j||^2
                 + lambda1 * sum_e sum_{i in e} ||y_i H1 - z*_e||^2

The pairwise term is weighted ``lambda0 / 2`` (the double sum counts every
ordered pair) so that ``H0 = H1 = I`` recovers E_simple exactly, gradient and
update included, at the same ``(lambda0, lambda1)``.

The weights ``lambda0``, ``lambda1`` are read from the ``ExpansionOperators``
they were built for, and ``EnergyParams`` holds the learned ``H0``, ``H1``.
``L_H`` is written once, as ``Propagation.kernel``, the operator ``K`` of a
step whole.  The layers and the step bounds apply it at their own per-row
constants; the descent trace reads ``-L_H Y`` off a layer's own ``K(Y) + c Fx``, and
``energy_from_neg_lap`` turns it into the energy and gradient.  Every adjacency
product goes through the incidence matrix, one ``B^T`` product followed by
one ``B`` product, each one ``_spmm`` call; no n x n matrix is formed.  A
node in no hyperedge has zero rows in ``L_H``, so ``ExpansionOperators``
holds the rows of the linked nodes alone, and the layers and step bounds of
both variants run the kernel on them.  The nonnegativity barrier is never
represented as an infinite float: the energy is returned as its smooth value
with a feasibility flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm
from scipy.sparse import _sparsetools

from .hypergraph import ExpansionOperators

__all__ = [
    "EnergyParams",
    "EnergyValue",
    "Propagation",
    "energy_from_neg_lap",
]

VARIANTS = ("general", "simple")

# A degree class of n_g rows, or an edge size class of n_g edges, takes its own
# d x d product in a general layer when n_g >= max(d, _CLASS_WORK / d^2): the call's
# overhead sets the bound at small d, and the d floor makes each class repay its
# matrix and keeps the class matrices within one k x d array (timings: CHANGES.md).
_CLASS_WORK = 1 << 16


def _spmm(a, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ x``, or ``out + a @ x`` summed into ``out`` in place, for a CSR or CSC ``a``, a 2-d
    ``x`` and a C-contiguous float64 ``out``: every sparse product of the layers and step bounds.
    scipy's private ``csr_matvecs`` or ``csc_matvecs`` sums into ``out``, a new zeroed array when
    none is given, so that case is ``a @ x`` bit for bit, the call ``@`` makes after a dispatch
    that costs about 10 us."""
    out = np.zeros((a.shape[0], x.shape[1])) if out is None else out
    matvecs = _sparsetools.csr_matvecs if a.format == "csr" else _sparsetools.csc_matvecs
    matvecs(a.shape[0], a.shape[1], x.shape[1], a.indptr, a.indices, a.data, x.ravel(), out.ravel())
    return out


# numpy's dense products in the kernel and in ``layer_vjp``, under one name that tests count
_matmul = np.matmul


def _grouped(offsets: np.ndarray, d: int) -> tuple[list, int]:
    """The classes of ``offsets`` that take their own ``d x d`` product, as slices, and the
    tail's offset: the classes come largest first, so those of ``max(d, _CLASS_WORK / d^2)`` are a prefix."""
    bounds = offsets[: np.count_nonzero(np.diff(offsets) >= max(d, _CLASS_WORK / d**2)) + 1].tolist()
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])], bounds[-1]


@dataclass(eq=False)
class EnergyParams:
    """The learned energy parameters: the compatibility matrices ``H0`` and ``H1``."""

    h0: np.ndarray
    h1: np.ndarray

    def __post_init__(self):
        self.h0 = np.asarray(self.h0, dtype=np.float64)
        self.h1 = np.asarray(self.h1, dtype=np.float64)
        if self.h0.shape != self.h1.shape or self.h0.ndim != 2 or self.h0.shape[0] != self.h0.shape[1]:
            raise ValueError(f"h0/h1 must be square with matching size, got {self.h0.shape} and {self.h1.shape}")

    @classmethod
    def identity(cls, d: int) -> "EnergyParams":
        return cls(np.eye(d), np.eye(d))

    @property
    def d(self) -> int:
        return self.h0.shape[0]


@dataclass(eq=False)
class EnergyValue:
    """Smooth energy value, feasibility of the nonnegativity barrier, and the gradient."""

    smooth: float
    feasible: bool
    grad: np.ndarray


class Propagation:
    """The kernel ``K``, the one definition of ``L_H``, at the per-row constants ``c`` and the scalar ``u``.

    With ``*`` scaling rows, ``ca = c (lambda0/2) d_C`` and ``cb = c lambda1 d_S_bar``,
    ``K(V) = c * B Q(B^T V) + ca * (V A0) + cb * (V A1) + u * V``, where
    ``Q(P) = P M0 + (lambda1 / m_e) * (P M1)``, ``M0 = (lambda0/2)(H0 + H0^T)``,
    ``M1 = H1 + H1^T - I`` and ``A_k = fold * I - G_k`` with ``G_k = H_k H_k^T``.
    In the simple variant (``H0 = H1 = I``) the ``A`` terms are left out, ``u``
    absorbs them, and ``Q`` folds into the left factor: ``K(V) = c * (B W B^T V)
    + u * V`` with ``W = lambda0 + lambda1 / m_e``.  The constants used in the package are:

    - a layer (the constructor): ``c = alpha / d_tilde``, ``u = 1 - alpha`` and
      ``fold = 1``, so that ``K(Y) + c * Fx`` is the step ``Y - c * grad E(Y) / 2``,
      its diagonal term ``(ca + cb) * Y`` folded into the ``A_k``;
    - the general step bound's operator: ``c = -1``, ``u = 0``, ``fold = 0``;
    - the simple step bound's operator ``B W B^T``: ``c = 1``, ``u = 0``.

    ``K``'s operators are symmetric, so the adjoint of ``V -> K(V)`` is
    ``K(.; B, B^T diag(c))``; ``fwd`` and ``adj`` hold the two factor pairs.

    A row's ``ca`` and ``cb`` depend on its degree class ``(d_C, d_S_bar)``
    alone, an edge's ``e = lambda1 / m_e`` on its size class, and
    ``ExpansionOperators`` lists both by class, largest first.  A general kernel
    gives each class of at least ``max(d, _CLASS_WORK / d^2)`` rows one product
    with the symmetric ``M_g = ca_g A0 + cb_g A1 + u I`` (``classes`` lists
    ``(rows, ca_g, cb_g, M_g)``), and each size class of as many edges one with
    ``N_s = M0 + e_s M1`` (``edge_classes`` lists ``(edges, e_s, N_s)``).  The
    rows from ``tail`` on and the edges from ``edge_tail`` on keep the row-scaled
    products, by ``ca``, ``cb`` and ``e`` written ``d`` columns wide
    (``ca_wide``, ``cb_wide``, ``e_wide``: a multiply by a ``(rows, 1)`` column
    costs about twice as much at small ``d``), and the tail rows take ``u * V``
    in the output's first write, as every row of the simple kernel does: no
    row is swept again for ``u``.  A general call leaves ``cb * v`` on the
    tail rows in ``scratch``, the instance's one work array, for
    ``layer_vjp`` to read.

    What ``H0`` and ``H1`` leave alone, ``_constants`` builds, its arrays
    read-only; a layer's are kept in ``ops.kernels`` under ``(variant,
    float(alpha), d)``.  ``_bind`` forms the ``d x d`` matrices of ``params`` as
    each instance is built, so an ``H0`` or ``H1`` changed in place reaches the
    next instance.
    """

    def __init__(self, ops: ExpansionOperators, params: EnergyParams, variant: str, alpha: float):
        key = (variant, float(alpha), params.d)
        if key not in ops.kernels:
            ops.kernels[key] = self._constants(ops, variant, alpha / ops.d_tilde, 1.0 - alpha, params.d)
        self._bind(ops.kernels[key], params, 1.0)

    @classmethod
    def _at(cls, ops: ExpansionOperators, params: EnergyParams | None, variant: str, c: float) -> "Propagation":
        """The kernel at constants other than a layer's: ``c`` the same on every row, ``u = 0``.
        ``params`` is read only when general."""
        self = cls.__new__(cls)
        d = getattr(params, "d", 0)
        self._bind(cls._constants(ops, variant, np.full(ops.b.shape[0], c), 0.0, d), params, 0.0)
        return self

    @classmethod
    def _constants(cls, ops: ExpansionOperators, variant: str, c: np.ndarray, u: float, d: int) -> dict:
        """The constants of the kernel at ``c`` and ``u`` that ``H0`` and ``H1`` leave alone, its
        arrays read-only."""
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        k = cls.__new__(cls)
        k.general, k.d, k.c, k.u = variant == "general", d, c[:, None], u
        k.groups, k.tail, k.edge_groups, k.edge_tail = [], 0, [], 0
        data = ops.b.data * np.repeat(c, np.diff(ops.b.indptr))
        if not k.general:
            data *= (ops.lambda0 + ops.lambda1 / ops.d_h)[ops.b.indices]
        left = sp.csr_matrix((data, ops.b.indices, ops.b.indptr), shape=ops.b.shape)
        k.fwd, k.adj = (left, ops.b.T), (ops.b, left.T)
        if k.general:
            k.half_l0 = 0.5 * ops.lambda0
            k.e = (ops.lambda1 / ops.d_h)[:, None]
            k.ca = k.c * (k.half_l0 * ops.d_c)[:, None]
            k.cb = k.c * (ops.lambda1 * ops.d_s_bar)[:, None]
            rows, k.tail = _grouped(ops.classes, d)
            k.groups = [(r, k.ca[r.start, 0], k.cb[r.start, 0]) for r in rows]
            rows, k.edge_tail = _grouped(ops.edge_classes, d)
            k.edge_groups = [(r, k.e[r.start, 0]) for r in rows]
            k.ca_wide, k.cb_wide = (np.repeat(col[k.tail :], d, axis=1) for col in (k.ca, k.cb))
            k.e_wide = np.repeat(k.e[k.edge_tail :], d, axis=1)
        for a in (left.data, *(v for v in vars(k).values() if isinstance(v, np.ndarray))):
            a.flags.writeable = False
        return vars(k)

    def _bind(self, constants: dict, params: EnergyParams | None, fold: float) -> None:
        """Take the ``constants`` of ``_constants`` and form the ``d x d`` matrices of ``params``,
        with ``A_k = fold * I - G_k``."""
        vars(self).update(constants)
        self.scratch, self.classes, self.edge_classes = None, [], []
        if not self.general:
            return
        h0, h1 = self.h0, self.h1 = params.h0, params.h1
        eye = np.eye(self.d)
        self.m0, self.m1 = self.half_l0 * (h0 + h0.T), h1 + h1.T - eye
        self.a0, self.a1 = fold * eye - h0 @ h0.T, fold * eye - h1 @ h1.T
        self.classes = [(r, ca, cb, ca * self.a0 + cb * self.a1 + self.u * eye) for r, ca, cb in self.groups]
        self.edge_classes = [(r, e, self.m0 + e * self.m1) for r, e in self.edge_groups]
        # one scratch for every kernel call through this instance: a fresh one per
        # layer is paged in anew whenever the allocator has trimmed the heap
        self.scratch = np.empty(self.ca_wide.shape)

    def kernel(self, v: np.ndarray, left, right, base: np.ndarray | None = None, out: np.ndarray | None = None):
        """``K(v; left, right)``, plus ``base`` when given, and the edge-side product ``right v``.

        The output, ``out`` when given (a C-contiguous float64 array of the
        output's shape) and a new array otherwise, is written whole.  Its first
        write, before any product, is ``u * v`` on the rows past the degree
        classes and 0 on the grouped rows, whose ``M_g`` hold ``u`` (0 on every
        row at the step bounds' ``u = 0``); then ``base`` is added.  ``_spmm``
        sums ``left``'s product into it and BLAS adds the ``A`` terms, each in
        place.  A simple kernel may be handed ``out=v``: it reads ``v`` only for
        ``right v``, taken first, and for the elementwise first write.  A general
        kernel raises ``ValueError`` then, as its class products read ``v`` while
        they write the output."""
        if out is v and self.general:
            raise ValueError("kernel: a general kernel cannot write its output over its input v")
        p, z = _spmm(right, v), self.tail if self.u != 0.0 else len(v)
        out = np.empty((left.shape[0], v.shape[1])) if out is None else out
        out[:z] = 0.0
        np.multiply(v[z:], self.u, out=out[z:])
        if base is not None:
            out += base
        if not self.general:
            _spmm(left, p, out)
        else:
            # q^T = N_s^T p^T on each grouped class, in BLAS; the edge tail after them
            q, et = np.empty(p.shape), self.edge_tail
            for rows, _, ns in self.edge_classes:
                dgemm(1.0, ns.T, p[rows].T, c=q[rows].T, overwrite_c=True)
            np.multiply(self.e_wide, _matmul(p[et:], self.m1), out=q[et:])
            q[et:] += _matmul(p[et:], self.m0)
            _spmm(left, q, out)
            del q  # freed before the row terms: held on, it raises the call's peak by its m x d
            # out^T += M^T v^T in BLAS, all three F-contiguous views
            for rows, _, _, mg in self.classes:
                dgemm(1.0, mg.T, v[rows].T, beta=1.0, c=out[rows].T, overwrite_c=True)
            if self.tail < len(v):
                for ck, ak in ((self.ca_wide, self.a0), (self.cb_wide, self.a1)):
                    t = np.multiply(v[self.tail :], ck, out=self.scratch)
                    dgemm(1.0, ak.T, t.T, beta=1.0, c=out[self.tail :].T, overwrite_c=True)
        return out, p


def energy_from_neg_lap(y: np.ndarray, fx: np.ndarray, neg_lap: np.ndarray, work: np.ndarray) -> EnergyValue:
    """``E(Y)``, its feasibility and ``grad E(Y)``, given ``-L_H Y``.

    The energy is taken as ``||Y - Fx||^2 + <Y, L_H Y>``, not from
    ``<Y, grad E / 2>``, whose terms of the size of ``||Fx||^2`` cancel.  The
    gradient is written into ``neg_lap``, and ``work``, an array of ``Y``'s
    shape, is written over, so a caller that evaluates many iterates
    allocates both once."""
    cross = float(np.sum(np.multiply(y, neg_lap, out=work)))
    r = np.subtract(y, fx, out=work)
    grad = np.subtract(r, neg_lap, out=neg_lap)
    grad *= 2.0
    smooth = float(np.sum(np.multiply(r, r, out=work))) - cross
    return EnergyValue(smooth, bool(np.min(y, initial=0.0) >= 0.0), grad)
