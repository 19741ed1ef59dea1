"""Shared seeded generators for the test suite."""

import numpy as np

from phenomnn import EnergyParams, Hypergraph, Propagation, build_expansion_operators, layer


def rng_for(seed):
    return np.random.Generator(np.random.PCG64(seed))


def random_hypergraph(rng, n, m, smin=2, smax=6):
    edges = []
    for _ in range(m):
        s = min(int(rng.integers(smin, smax + 1)), n)
        edges.append(rng.choice(n, size=s, replace=False).tolist())
    return Hypergraph.from_edges(n, edges)


def random_instance(seed, n=None, m=None, d=None, h_noise=0.0, lam_hi=3.0, alpha=0.5):
    """One seeded problem instance: hypergraph, operators, params, embeddings."""
    rng = rng_for(seed)
    n = n or int(rng.integers(6, 16))
    m = m or int(rng.integers(3, 10))
    d = d or int(rng.integers(2, 5))
    lambda0 = float(rng.uniform(0.0, lam_hi))
    lambda1 = float(rng.uniform(0.0, lam_hi))
    hg = random_hypergraph(rng, n, m)
    ops = build_expansion_operators(hg, lambda0, lambda1)
    if h_noise > 0.0:
        h0 = np.eye(d) + h_noise * rng.standard_normal((d, d))
        h1 = np.eye(d) + h_noise * rng.standard_normal((d, d))
    else:
        h0 = np.eye(d)
        h1 = np.eye(d)
    params = EnergyParams(h0, h1, lambda0, lambda1, alpha)
    y = rng.standard_normal((n, d))
    fx = rng.standard_normal((n, d))
    return {"hg": hg, "ops": ops, "params": params, "y": y, "fx": fx, "d": d, "rng": rng}


def one_layer(y, fx, ops, params, variant, apply_relu=True):
    """One ``layer`` step, with the pass constants built for this step alone."""
    prop = Propagation(ops, params, variant)
    return layer(y, prop.c * fx, prop, apply_relu)


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


def rel_err(a, b):
    """Max elementwise deviation normalized by max(1, |a|, |b|)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float(np.max(np.abs(a - b) / denom)) if a.size else 0.0
