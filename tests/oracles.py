"""Reference forms the package is checked against; nothing in ``phenomnn`` calls them.

``build_clique`` and ``build_star_normalized`` form the n x n expansions that
the package applies through ``B`` alone.  ``energy_and_grad`` evaluates the
energy and its gradient from one kernel call at ``c = 1``, where the descent
trace reads ``-L_H Y`` off a layer's ``K(Y) + c Fx``.  The summation-form energy,
the per-edge means, the trace-form energies, the node-wise layer and the
bipartite star expansion each restate a quantity the package computes
through ``Propagation.kernel``, by a different route.  The
cross entropy restates the tape's ``softmax_cross_entropy``, and ``prox_nonneg``
the ReLU of a layer.  ``layer_keeping_mask_and_p`` and ``layer_vjp_reading_p``
are the layer and its adjoint with the ReLU mask and the forward's ``P = B^T Y``
kept, where ``model.layer_vjp`` rebuilds both.  ``layer_out_of_place`` and
``layer_vjp_out_of_place`` are the layer and its adjoint with every output a
new array, where a simple pass writes each layer over its input.
``from_edges_by_edge`` builds a ``Hypergraph`` one edge
at a time, as ``Hypergraph.from_edges`` does with arrays, and ``class_order``
and ``edge_class_order`` sort the linked nodes by degree class and the edges by
size class, as ``build_expansion_operators`` does with arrays.
``products_every_edge_in_the_tail`` is the kernel with the edge-side
product taken on every edge in one expression, where
``Propagation.kernel`` groups the edges by size class.  It and
``layer_vjp_reading_p`` take the kernel's weights from ``kernel_weights``,
which rebuilds them from the operators, and their work arrays are their own.
``pass_vjp_scaling_each_layer`` is the pass's adjoint with each layer's
``c_fx`` gradient scaled by ``c``, where ``model._pass_vjp`` scales their sum.
"""

from collections import namedtuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import dgemm

from phenomnn.energy import Propagation, _spmm, energy_from_neg_lap
from phenomnn.hypergraph import Hypergraph, HypergraphError
from phenomnn.model import layer as model_layer, layer_vjp as model_layer_vjp
from helpers import hyperedges

Energy = namedtuple("Energy", "smooth feasible")


def prox_nonneg(v):
    """Proximal map of the nonnegativity barrier: elementwise max(0, v)."""
    return np.maximum(np.asarray(v, dtype=np.float64), 0.0)


def cross_entropy(logits, labels, rows):
    """Mean negative log softmax probability of the true class over ``rows``."""
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("cross_entropy: empty row set")
    sel = np.asarray(logits, dtype=np.float64)[rows]
    labels = np.asarray(labels, dtype=np.int64)
    shifted = sel - sel.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(log_z - shifted[np.arange(rows.size), labels]))


def build_clique(hg):
    """Clique expansion ``A_C = B B^T`` and its degree diagonal ``D_C = diag(A_C 1)``."""
    b = hg.incidence
    a_c = (b @ b.T).tocsr()
    a_c.sort_indices()
    return a_c, np.asarray(a_c.sum(axis=1), dtype=np.float64).ravel()


def build_star_normalized(hg):
    """Normalized star contraction ``A_S_bar = B D_H^{-1} B^T`` with its row-sum diagonal.

    Each row sum equals the node's hyperedge count (the 1/m_e weights of one
    edge add to one), so the diagonal is taken from the exact integer-valued
    degrees rather than accumulated floats; ``D_S_bar[i, i] == node_degrees[i]``
    holds exactly.
    """
    b = hg.incidence
    inv_dh = sp.diags(1.0 / hg.edge_sizes)
    a_s = (b @ inv_dh @ b.T).tocsr()
    a_s.sort_indices()
    return a_s, hg.node_degrees.copy()


def energy_and_grad(y, fx, ops, params, variant):
    """``E(Y)``, its feasibility and ``grad E(Y) = 2 (L_H Y + Y - Fx)``, from one kernel call.

    ``-L_H Y`` is the kernel at ``c = 1`` less ``diag * Y``, ``diag`` being the
    row term the kernel leaves out: ``(lambda0/2) d_C`` (general) or
    ``lambda0 d_C + lambda1 d_S_bar`` (simple)."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape != fx.shape:
        raise ValueError(f"energy: shape mismatch {y.shape} vs {fx.shape}")
    diag = 0.5 * ops.lambda0 * ops.d_c
    if variant == "simple":
        diag = ops.lambda0 * ops.d_c + ops.lambda1 * ops.d_s_bar
    k = Propagation._at(ops, params, variant, 1.0)
    neg_lap = k.kernel(y, *k.fwd)[0] - diag[:, None] * y
    return energy_from_neg_lap(y, fx, neg_lap, np.empty_like(neg_lap))


def z_star(hg, y):
    """Optimal edge embeddings ``D_H^{-1} B^T Y``: row k is the mean of y over edge k."""
    y = np.asarray(y, dtype=np.float64)
    if y.ndim != 2 or y.shape[0] != hg.n:
        raise ValueError(f"z_star: expected ({hg.n}, d) embeddings, got {y.shape}")
    return (hg.incidence.T @ y) / hg.edge_sizes[:, None]


def energy_bruteforce(y, z, fx, hg, params, lambda0, lambda1):
    """Literal summation form of the full energy, by explicit loops.

    ``||Y - Fx||^2 + lambda0 * sum_e sum_{i,j in e} ||y_i H0 - y_j||^2
    + lambda1 * sum_e sum_{i in e} ||y_i H1 - z_e||^2``, the pairwise sum over
    ordered pairs (the package's energy is this at pair weight ``lambda0 / 2``).
    Feasibility covers both Y and Z.
    """
    total = float(np.sum((y - fx) ** 2))
    pair = mean = 0.0
    for k, e in enumerate(hyperedges(hg)):
        for i in e:
            yi_h0 = y[i] @ params.h0
            for j in e:
                pair += float((yi_h0 - y[j]) @ (yi_h0 - y[j]))
            diff = y[i] @ params.h1 - z[k]
            mean += float(diff @ diff)
    total += lambda0 * pair + lambda1 * mean
    return Energy(total, bool(np.min(y, initial=0.0) >= 0.0 and np.min(z, initial=0.0) >= 0.0))


def laplacian_quad(adj_y, deg, y):
    """Quadratic form ``tr[Y^T (D - A) Y]`` from the product ``A Y`` and the degree diagonal."""
    return float(np.sum(y * (deg[:, None] * y - adj_y)))


def energy_trace_simple(y, fx, hg, lambda0, lambda1):
    """``||Y - Fx||^2 + lambda0 tr[Y^T L_C Y] + lambda1 tr[Y^T L_S_bar Y]`` from the n x n expansions."""
    a_c, d_c = build_clique(hg)
    a_s, d_s = build_star_normalized(hg)
    fit = float(np.sum((y - fx) ** 2))
    return fit + lambda0 * laplacian_quad(a_c @ y, d_c, y) + lambda1 * laplacian_quad(a_s @ y, d_s, y)


def energy_trace_general(y, fx, hg, params, lambda0, lambda1):
    """General energy in its matrix/trace form, the edge means substituted."""
    a_c, d_c = build_clique(hg)
    b = hg.incidence
    yh0, yh1, z = y @ params.h0, y @ params.h1, z_star(hg, y)
    term_a = np.sum(yh0 * (d_c[:, None] * yh0)) - 2.0 * np.sum(yh0 * (a_c @ y)) + np.sum(y * (d_c[:, None] * y))
    term_b = (
        np.sum(yh1 * (hg.node_degrees[:, None] * yh1))
        - 2.0 * np.sum(yh1 * (b @ z))
        + np.sum(z * (hg.edge_sizes[:, None] * z))
    )
    return float(np.sum((y - fx) ** 2) + 0.5 * lambda0 * term_a + lambda1 * term_b)


def messagepassing_layer(y, fx, ops, params, alpha):
    """Node-wise form of the general update of step ``alpha``, quadratic in n.

    Every node aggregates its clique-expansion neighbors (self-loops included)
    through per-pair projection matrices, adds its own projection, and a
    weighted skip from the base prediction.
    """
    h0, h1 = params.h0, params.h1
    eye = np.eye(y.shape[1])
    w_pair = 0.5 * ops.lambda0 * (h0 + h0.T)
    w_mean = ops.lambda1 * (h1 + h1.T - eye)
    w_self_pair = 0.5 * ops.lambda0 * (h0 @ h0.T - eye)
    w_self_mean = ops.lambda1 * (h1 @ h1.T - eye)
    b = ops.b.toarray()
    a_c = b @ b.T
    a_s = (b / ops.d_h) @ b.T
    out = np.zeros_like(y)
    for i in range(y.shape[0]):
        scale_i = alpha / ops.d_tilde[i]
        w_i = (1.0 - alpha) * eye - scale_i * (ops.d_c[i] * w_self_pair + ops.d_s_bar[i] * w_self_mean)
        acc = y[i] @ w_i + scale_i * fx[i]
        for j in range(y.shape[0]):
            if a_c[i, j] != 0.0 or a_s[i, j] != 0.0:
                acc = acc + y[j] @ (scale_i * (a_c[i, j] * w_pair + a_s[i, j] * w_mean))
        out[i] = acc
    return np.maximum(out, 0.0)


def layer_keeping_mask_and_p(y, c_fx, prop, kept=None, out=None):
    """``model.layer``, its ``kept`` list receiving the ReLU mask, plus ``Y`` and
    the kernel's own ``P = B^T Y`` in the general variant.  ``out`` is handed to
    the kernel, as ``model.layer`` hands it, so a simple layer may write over ``Y``."""
    out, p = prop.kernel(y, *prop.fwd, c_fx, out=out)
    np.maximum(out, 0.0, out=out)
    if kept is not None:
        kept.append(out > 0.0)
        if prop.general:
            kept += (y, p)
    return out


def kernel_weights(ops, prop):
    """The general kernel's row weights ``ca = c (lambda0/2) d_C`` and ``cb = c lambda1 d_S_bar`` and
    its edge weights ``e = lambda1 / m_e``, as ``(len, 1)`` columns, rebuilt from ``ops`` and
    ``prop.c`` by the operations ``Propagation`` makes, in its order."""
    half_l0 = 0.5 * ops.lambda0
    ca, cb = prop.c * (half_l0 * ops.d_c)[:, None], prop.c * (ops.lambda1 * ops.d_s_bar)[:, None]
    return ca, cb, (ops.lambda1 / ops.d_h)[:, None]


def layer_vjp_reading_p(ops, g, prop, kept, d_c_fx=None):
    """``model.layer_vjp`` over the ``kept`` of ``layer_keeping_mask_and_p``, for the kernel
    ``prop`` on ``ops``: the mask and ``P`` are read, not rebuilt, and the weights are
    ``kernel_weights``'.  Writes into ``g``, as the adjoint does, and returns the ``c_fx``
    gradient summed into ``d_c_fx`` when given, but takes ``dY`` in a new array."""
    np.multiply(g, kept[0], out=g)
    d_c_fx = g if d_c_fx is None else np.add(d_c_fx, g, out=d_c_fx)
    dy, s = prop.kernel(g, *prop.adj)
    grads = ()
    if prop.general:
        (y, p), (ca, cb, e), t = kept[1:], kernel_weights(ops, prop), prop.rows.tail
        y0, y1 = y[t:].T @ (g[t:] * ca[t:]), y[t:].T @ (g[t:] * cb[t:])
        for rows, *_ in prop.rows.classes:
            z = y[rows].T @ g[rows]
            y0 += ca[rows.start, 0] * z
            y1 += cb[rows.start, 0] * z
        et = prop.edges.tail
        c0, c1 = p[et:].T @ s[et:], p[et:].T @ (e[et:] * s[et:])
        for rows, *_ in prop.edges.classes:
            z = p[rows].T @ s[rows]
            c0 += z
            c1 += e[rows.start, 0] * z
        grads = (0.5 * ops.lambda0 * (c0 + c0.T) - (y0 + y0.T) @ prop.h0, (c1 + c1.T) - (y1 + y1.T) @ prop.h1)
    return (dy, d_c_fx, *grads)


def layer_out_of_place(y, c_fx, prop, kept=None, pre=None, out=None):
    """``model.layer`` with its output always a new array: ``out`` is not read."""
    return model_layer(y, c_fx, prop, kept, pre)


def layer_vjp_out_of_place(g, prop, kept, d_c_fx=None):
    """``model.layer_vjp`` with ``dY`` always a new array, and the ``c_fx`` gradient
    sum ``d_c_fx + g`` a new array too: ``d_c_fx`` is not written."""
    dy, d_c, *grads = model_layer_vjp(g, prop, kept)
    return (dy, d_c if d_c_fx is None else d_c_fx + d_c, *grads)


def pass_vjp_scaling_each_layer(g, model, kept):
    """``model._pass_vjp`` over the same ``kept``, with each layer's ``c_fx`` gradient
    scaled by ``c`` on its own before it is summed into ``Fx``'s, where the pass
    scales their sum once."""
    prop, linked, isolated, y, iso = (kept[k] for k in ("prop", "linked", "isolated", "y", "iso"))
    w = model.classifier.w
    d_fx = np.empty((g.shape[0], w.shape[0]))
    d_fx[isolated] = (g[isolated] @ w.T) * (iso > 0.0)
    dy, d_rows, dh = g[linked] @ w.T, np.zeros((linked.size, w.shape[0])), []
    for saved in reversed(kept["layers"]):
        dy, d_c, *grads = model_layer_vjp(dy, prop, saved)
        d_rows = d_rows + prop.c * d_c
        dh.append(grads)
    d_fx[linked] = d_rows + dy
    if kept["feature_mask"] is not None:
        d_fx = kept["feature_mask"] * d_fx
    out = [kept["h"].T @ d_fx, d_fx.sum(axis=0), iso.T @ g[isolated] + y.T @ g[linked], g.sum(axis=0)]
    return out + ([sum(grads[0] for grads in dh), sum(grads[1] for grads in dh)] if prop.general else [])


def products_every_edge_in_the_tail(ops, prop, v, left, right):
    """``Propagation.kernel`` on ``ops`` with no edge size class grouped: the output started as
    the kernel starts it, ``Q = P M0 + (e * P) M1`` on every edge in one expression summed into
    it, then the ``d x d`` row terms as the kernel adds them, with the weights of
    ``kernel_weights`` and each class's ``M_g`` formed here."""
    (ca, cb, e), eye = kernel_weights(ops, prop), np.eye(v.shape[1])
    p, t = right @ v, prop.rows.tail
    out = np.zeros((left.shape[0], v.shape[1]))
    out[t:] = prop.u * v[t:]
    _spmm(left, p @ prop.m0 + (e * p) @ prop.m1, out)
    for rows, *_ in prop.rows.classes:
        mg = ca[rows.start, 0] * prop.a0 + cb[rows.start, 0] * prop.a1 + prop.u * eye
        dgemm(1.0, mg.T, v[rows].T, beta=1.0, c=out[rows].T, overwrite_c=True)
    for ck, ak in ((ca, prop.a0), (cb, prop.a1)):
        dgemm(1.0, ak.T, (v[t:] * ck[t:]).T, beta=1.0, c=out[t:].T, overwrite_c=True)
    return out, p


def build_star_bipartite(hg):
    """Star expansion over ``n + m`` nodes: adjacency, degree diagonal, Laplacian.

    Hyperedge ``k`` becomes node ``n + k``, joined to each of its members;
    both diagonal blocks are zero by bipartiteness.
    """
    b = hg.incidence
    a_s = sp.bmat([[sp.csr_matrix((hg.n, hg.n)), b], [b.T, sp.csr_matrix((hg.m, hg.m))]], format="csr")
    d_s = np.asarray(a_s.sum(axis=1), dtype=np.float64).ravel()
    return a_s, d_s, (sp.diags(d_s) - a_s).tocsr()


def uniform_edge_size(hg):
    """The common hyperedge cardinality, or None when sizes differ."""
    if hg.m == 0 or not np.all(hg.edge_sizes == hg.edge_sizes[0]):
        return None
    return int(hg.edge_sizes[0])


def from_edges_by_edge(n, edges):
    """``Hypergraph.from_edges`` with each edge sorted, deduplicated and checked on its own."""
    if n < 1:
        raise HypergraphError(f"node count must be positive, got {n}")
    clean = []
    for k, e in enumerate(edges):
        e = [int(i) for i in e]
        ids = np.asarray(sorted(set(e)), dtype=np.int64)
        if ids.size == 0:
            raise HypergraphError(f"hyperedge {k} is empty")
        if ids[0] < 0 or ids[-1] >= n:
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise HypergraphError(f"hyperedge {k}: node id {bad} out of range (n={n})")
        clean.append(ids)
    m = len(clean)
    sizes = np.array([e.size for e in clean], dtype=np.int64)
    ids = np.concatenate(clean) if clean else np.zeros(0, dtype=np.int64)
    b = sp.csc_matrix((np.ones(ids.size), ids, np.concatenate([[0], np.cumsum(sizes)])), shape=(n, m)).tocsr()
    return Hypergraph(
        n=n,
        m=m,
        incidence=b,
        edge_sizes=sizes.astype(np.float64),
        node_degrees=np.diff(b.indptr).astype(np.float64),
    )


def class_order(hg):
    """The nodes in some hyperedge by degree class ``(d_c, d_s_bar)``: larger classes
    first, ties by ``(d_c, d_s_bar)``, and node order within a class."""
    edges = hyperedges(hg)
    d_c = [sum(float(e.size) for e in edges if i in e) for i in range(hg.n)]
    key = {i: (d_c[i], float(hg.node_degrees[i])) for i in range(hg.n) if d_c[i] > 0}
    size = {k: list(key.values()).count(k) for k in key.values()}
    return sorted(key, key=lambda i: (-size[key[i]], key[i], i))


def edge_class_order(hg):
    """The hyperedges by size class: larger classes first, ties by size, and edge
    order within a class."""
    sizes = [float(s) for s in hg.edge_sizes]
    return sorted(range(len(sizes)), key=lambda k: (-sizes.count(sizes[k]), sizes[k], k))
