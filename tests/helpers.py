"""Shared seeded generators for the test suite."""

import importlib.util
import os
import sys

import numpy as np

from phenomnn import EnergyParams, ExpansionOperators, Hypergraph, Propagation, build_expansion_operators, layer


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_hypergraph(rng, n, m, smin=2, smax=6):
    edges = []
    for _ in range(m):
        s = min(int(rng.integers(smin, smax + 1)), n)
        edges.append(rng.choice(n, size=s, replace=False).tolist())
    return Hypergraph.from_edges(n, edges)


def hyperedges(hg):
    """The sorted node ids of each hyperedge, as int64 arrays: the columns of ``B``."""
    b = hg.incidence.tocsc()
    ids = b.indices.astype(np.int64)
    return [ids[lo:hi] for lo, hi in zip(b.indptr[:-1], b.indptr[1:])]


def random_instance(seed, n=None, m=None, d=None, h_noise=0.0, lam_hi=3.0, alpha=0.5):
    """One seeded problem instance: hypergraph, node-order operators (``ops``) and
    ``build_expansion_operators``'s (``linked_ops``), params, step size, embeddings."""
    rng = rng_for(seed)
    n = n or int(rng.integers(6, 16))
    m = m or int(rng.integers(3, 10))
    d = d or int(rng.integers(2, 5))
    lambda0 = float(rng.uniform(0.0, lam_hi))
    lambda1 = float(rng.uniform(0.0, lam_hi))
    hg = random_hypergraph(rng, n, m)
    ops = node_order_operators(hg, lambda0, lambda1)
    if h_noise > 0.0:
        h0 = np.eye(d) + h_noise * rng.standard_normal((d, d))
        h1 = np.eye(d) + h_noise * rng.standard_normal((d, d))
    else:
        h0 = np.eye(d)
        h1 = np.eye(d)
    params = EnergyParams(h0, h1)
    y = rng.standard_normal((n, d))
    fx = rng.standard_normal((n, d))
    linked_ops = build_expansion_operators(hg, lambda0, lambda1)
    return {"hg": hg, "ops": ops, "linked_ops": linked_ops, "params": params, "alpha": alpha, "y": y, "fx": fx,
            "d": d, "rng": rng}


def one_layer(y, fx, ops, params, variant, alpha):
    """One ``layer`` step of size ``alpha``, with the pass constants built for this step alone."""
    prop = Propagation(ops, params, variant, alpha)
    return layer(y, prop.c * fx, prop)


def node_order_operators(hg, lambda0, lambda1):
    """``ExpansionOperators`` of ``hg`` in node order: every node a row, isolated or not,
    the edges in their own order, and each node and each edge a class of its own, which no
    kernel groups.  The passes run their one code path on it, over all ``n`` rows with no
    class product: a reference for the same passes on ``build_expansion_operators``'s."""
    d_c = hg.incidence @ hg.edge_sizes
    return ExpansionOperators(
        n=hg.n,
        linked=np.arange(hg.n),
        isolated=np.arange(0),
        b=hg.incidence,
        d_c=d_c,
        d_s_bar=hg.node_degrees,
        d_h=hg.edge_sizes,
        lambda0=float(lambda0),
        lambda1=float(lambda1),
        d_tilde=lambda0 * d_c + lambda1 * hg.node_degrees + 1.0,
        classes=np.arange(hg.n + 1),
        edge_classes=np.arange(hg.m + 1),
    )


def by_node(ops, values):
    """``values``, one per linked row of ``ops``, in node order; an isolated node's entry is 0."""
    out = np.zeros(ops.n)
    out[ops.linked] = values
    return out


def fd_gradient(f, y, step=1e-5):
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(y)
    it = np.nditer(y, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = y[idx]
        y[idx] = orig + step
        fp = f(y)
        y[idx] = orig - step
        fm = f(y)
        y[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return g


def record_dgemm(monkeypatch):
    """Route ``phenomnn.energy``'s BLAS ``dgemm`` calls through a recorder, and return the
    list it appends ``(a.shape, b.shape)`` to, one pair per call, as the arguments are given.

    These are every ``d x d`` product of a general kernel call, the edge
    side's and then the row side's: one per grouped class and two on each
    tail.  ``a`` is the ``d x d`` matrix and ``b`` is ``d x rows``.  The
    adjoint's ``d x d`` reductions are ``_matmul``'s, which ``record_matmul``
    records.  A call given an output ``c`` must give it the product's shape."""
    import phenomnn.energy as energy_mod

    calls, plain = [], energy_mod.dgemm

    def recorded(alpha, a, b, **kwargs):
        rows = a.shape[1] if kwargs.get("trans_a") else a.shape[0]
        cols = b.shape[0] if kwargs.get("trans_b") else b.shape[1]
        assert kwargs.get("c") is None or kwargs["c"].shape == (rows, cols)
        calls.append((a.shape, b.shape))
        return plain(alpha, a, b, **kwargs)

    monkeypatch.setattr(energy_mod, "dgemm", recorded)
    return calls


def _record(monkeypatch, name, entry):
    """Route the helper ``name`` of ``phenomnn.energy``, at its name there and in ``phenomnn.model``,
    through a recorder, and return the list it appends ``entry(a, b)`` to, one per call."""
    import phenomnn.energy as energy_mod
    import phenomnn.model as model_mod

    calls, plain = [], getattr(energy_mod, name)

    def recorded(a, b, *out, **kwargs):
        calls.append(entry(a, b))
        return plain(a, b, *out, **kwargs)

    for mod in (energy_mod, model_mod):
        monkeypatch.setattr(mod, name, recorded)
    return calls


def count_sparse_products(monkeypatch):
    """Route ``_spmm``, the one sparse product of the passes, through a recorder, and return
    the list it appends ``nnz * d`` to, one entry per product, ``d`` the dense operand's columns.

    These are the kernel's two products, ``B^T V`` and the left factor's, and
    the general adjoint's ``P = B^T Y``."""
    return _record(monkeypatch, "_spmm", lambda a, x: a.nnz * x.shape[1])


def record_matmul(monkeypatch):
    """Route ``_matmul``, the dense products that no BLAS call of ``record_dgemm`` makes,
    through a recorder, and return the list it appends ``(a.shape, b.shape)`` to, one pair per call.

    These are the general adjoint's ``d x d`` products, as the kernel makes
    none: ``Y^T (ca * g)`` and ``Y^T (cb * g)`` on the tail, ``Z_g = Y_g^T g_g`` per
    degree class, ``P^T S`` and ``P^T (e * S)`` on the edge tail,
    ``Z_s = P_s^T S_s`` per size class, and the two ``(Y0 + Y0^T) H0``-like
    products of ``dH0`` and ``dH1``."""
    return _record(monkeypatch, "_matmul", lambda a, b: (a.shape, b.shape))


def criterion_3_problems():
    """The 20 seeded problems of the criterion-3 acceptance test, each as
    ``(hg, ops, h0, h1, fx)``: a random hypergraph and its operators, noisy
    compatibility matrices and base predictions."""
    for seed in range(20):
        rng = rng_for(9200 + seed)
        n = int(rng.integers(30, 201))
        m = int(rng.integers(10, min(101, n)))
        d = int(rng.integers(2, 17))
        l0 = float(rng.uniform(0.0, 3.0))
        l1 = float(rng.uniform(0.0, 3.0))
        hg = random_hypergraph(rng, n, m)
        ops = build_expansion_operators(hg, l0, l1)
        noise = 0.01 if seed % 2 == 0 else 0.1
        h0 = np.eye(d) + noise * rng.standard_normal((d, d))
        h1 = np.eye(d) + noise * rng.standard_normal((d, d))
        yield hg, ops, h0, h1, rng.standard_normal((n, d))


def load_workloads(monkeypatch):
    """``perfbench/workloads.py``, loaded as a module without importing ``perfbench``."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads


def rel_err(a, b):
    """Max elementwise deviation normalized by max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
