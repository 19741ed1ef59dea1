import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from phenomnn.autodiff import Tape
from phenomnn.energy import EnergyParams, Propagation, _spmm
from phenomnn.hypergraph import Hypergraph, build_expansion_operators
from phenomnn.model import ModelConfig, build_taped_logits, descent_trace, forward, init_model
from helpers import fd_gradient, hyperedges, node_order_operators, random_hypergraph, random_instance, rel_err, rng_for
from oracles import (
    build_clique,
    build_star_bipartite,
    build_star_normalized,
    energy_and_grad,
    energy_bruteforce,
    energy_trace_general,
    energy_trace_simple,
    laplacian_quad,
    prox_nonneg,
    uniform_edge_size,
    z_star,
)


# -- prox ------------------------------------------------------------------------


def test_prox_examples():
    assert np.array_equal(prox_nonneg([[-1.0, 2.0], [3.0, -4.0]]), [[0.0, 2.0], [3.0, 0.0]])
    assert np.array_equal(prox_nonneg(-np.ones((2, 2))), np.zeros((2, 2)))


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**31 - 1))
def test_prox_idempotent(seed):
    v = rng_for(seed).standard_normal((4, 3))
    p = prox_nonneg(v)
    assert np.array_equal(prox_nonneg(p), p)


def test_prox_minimizes_its_objective():
    # 0.5||V - P||^2 must beat 100 random feasible candidates
    rng = rng_for(1)
    v = rng.standard_normal((5, 3))
    p = prox_nonneg(v)
    best = 0.5 * np.sum((v - p) ** 2)
    for _ in range(100):
        cand = np.abs(rng.standard_normal((5, 3)))
        assert best <= 0.5 * np.sum((v - cand) ** 2) + 1e-12


# -- z_star ----------------------------------------------------------------------


def test_z_star_two_node_mean():
    hg = Hypergraph.from_edges(2, [[0, 1]])
    z = z_star(hg, np.array([[2.0, 0.0], [0.0, 4.0]]))
    assert np.array_equal(z, [[1.0, 2.0]])


def test_z_star_singleton_edge():
    hg = Hypergraph.from_edges(3, [[1]])
    y = rng_for(2).standard_normal((3, 2))
    assert np.array_equal(z_star(hg, y), y[1:2])


def test_z_star_matches_mean_loop_oracle():
    rng = rng_for(3)
    hg = random_hypergraph(rng, 6, 5)
    y = rng.standard_normal((6, 3))
    z = z_star(hg, y)
    for k, e in enumerate(hyperedges(hg)):
        assert np.max(np.abs(z[k] - y[e].mean(axis=0))) <= 1e-12


def test_z_star_shape_mismatch():
    hg = Hypergraph.from_edges(3, [[0, 1]])
    with pytest.raises(ValueError):
        z_star(hg, np.zeros((4, 2)))


# -- energies ---------------------------------------------------------------------


def test_energy_zero_at_base_prediction():
    inst = random_instance(4)
    hg, d = inst["hg"], inst["d"]
    ops0 = node_order_operators(hg, 0.0, 0.0)
    fx = inst["fx"]
    p0 = EnergyParams.identity(d)
    assert energy_and_grad(fx, fx, ops0, p0, "simple").smooth == 0.0
    assert energy_and_grad(fx, fx, ops0, p0, "general").smooth == 0.0


def test_energy_general_identity_equals_simple():
    for seed in range(6):
        inst = random_instance(seed)
        pid = EnergyParams.identity(inst["d"])
        eg = energy_and_grad(inst["y"], inst["fx"], inst["ops"], pid, "general").smooth
        es = energy_and_grad(inst["y"], inst["fx"], inst["ops"], pid, "simple").smooth
        assert abs(eg - es) <= 1e-10 * max(1.0, abs(es))


def test_energy_feasibility_flag():
    inst = random_instance(5)
    y = np.abs(inst["y"])
    for variant in ("simple", "general"):
        assert energy_and_grad(y, inst["fx"], inst["ops"], inst["params"], variant).feasible
    y[0, 0] = -1e-9
    for variant in ("simple", "general"):
        assert not energy_and_grad(y, inst["fx"], inst["ops"], inst["params"], variant).feasible


def test_bruteforce_trivial_zero():
    hg = Hypergraph.from_edges(3, [[0, 1], [1, 2]])
    p = EnergyParams.identity(2)
    z = np.zeros((2, 2))
    y = np.zeros((3, 2))
    assert energy_bruteforce(y, z, np.zeros((3, 2)), hg, p, 1.0, 1.0).smooth == 0.0


def test_bruteforce_single_edge_pair_term():
    hg = Hypergraph.from_edges(2, [[0, 1]])
    rng = rng_for(6)
    y = rng.standard_normal((2, 3))
    p = EnergyParams.identity(3)
    got = energy_bruteforce(y, np.zeros((1, 3)), y, hg, p, 1.0, 0.0).smooth
    # ordered pairs (0,1) and (1,0); fit and mean terms vanish
    assert abs(got - 2.0 * np.sum((y[0] - y[1]) ** 2)) <= 1e-12


def test_bruteforce_equals_bipartite_laplacian_path():
    for seed in range(6):
        inst = random_instance(seed + 10)
        hg, ops, y = inst["hg"], inst["ops"], inst["y"]
        l0, l1 = ops.lambda0, ops.lambda1
        pid = EnergyParams.identity(inst["d"])
        z = z_star(hg, y)
        brute = energy_bruteforce(y, z, inst["fx"], hg, pid, l0, l1).smooth
        fit = float(np.sum((y - inst["fx"]) ** 2))
        _, _, l_s = build_star_bipartite(hg)
        stacked = np.vstack([y, z])
        bipart = float(np.sum(stacked * (l_s @ stacked)))
        a_c, d_c = build_clique(hg)
        a_s, d_s = build_star_normalized(hg)
        q_c = laplacian_quad(a_c @ y, d_c, y)
        q_s = laplacian_quad(a_s @ y, d_s, y)
        want_bipartite = fit + 2.0 * l0 * q_c + l1 * bipart
        want_contracted = fit + 2.0 * l0 * q_c + l1 * q_s
        assert abs(brute - want_bipartite) <= 1e-10 * max(1.0, abs(brute))
        assert abs(brute - want_contracted) <= 1e-10 * max(1.0, abs(brute))


def test_uniform_graph_term_scales_by_beta():
    # 2-uniform case: pair weight 1, mean weight 2 gives beta = 2*1 + 2/2 = 3
    rng = rng_for(7)
    hg = random_hypergraph(rng, 8, 6, smin=2, smax=2)
    assert uniform_edge_size(hg) == 2
    l0, l1 = 1.0, 2.0
    a_c, d_c = build_clique(hg)
    y = rng.standard_normal((8, 3))
    pid = EnergyParams.identity(3)
    graph = energy_bruteforce(y, z_star(hg, y), np.zeros_like(y), hg, pid, l0, l1).smooth - np.sum(y**2)
    beta = 2.0 * l0 + l1 / 2.0
    q_c = laplacian_quad(a_c @ y, d_c, y)
    assert abs(graph - beta * q_c) <= 1e-10 * max(1.0, abs(graph))


def test_prop1_term_equivalences_across_seeds():
    # pair term with identity projection is twice the clique quadratic form;
    # mean term at the per-edge mean is the normalized-star quadratic form
    for seed in range(20):
        rng = rng_for(500 + seed)
        n = int(rng.integers(3, 21))
        m = int(rng.integers(2, 13))
        d = int(rng.integers(1, 5))
        hg = random_hypergraph(rng, n, m)
        a_c, d_c = build_clique(hg)
        a_s, d_s = build_star_normalized(hg)
        y = rng.standard_normal((n, d))
        pid = EnergyParams.identity(d)
        pair = energy_bruteforce(y, np.zeros((m, d)), np.zeros_like(y), hg, pid, 1.0, 0.0).smooth - np.sum(y**2)
        q_c = laplacian_quad(a_c @ y, d_c, y)
        assert abs(pair - 2.0 * q_c) <= 1e-10 * max(1.0, abs(pair))
        mean = energy_bruteforce(y, z_star(hg, y), np.zeros_like(y), hg, pid, 0.0, 1.0).smooth - np.sum(y**2)
        q_s = laplacian_quad(a_s @ y, d_s, y)
        assert abs(mean - q_s) <= 1e-10 * max(1.0, abs(mean))


@pytest.mark.parametrize("seed", range(8))
def test_factored_products_match_dense_expansions(seed):
    # the kernel at each of its three constant sets, and -L_H as the kernel at
    # c = 1 less its row term, against dense I-, B B^T- and B D_H^{-1} B^T-built operators,
    # on the linked rows, which the isolated rows of those operators do not reach
    rng = rng_for(700 + seed)
    n, d = int(rng.integers(5, 25)), int(rng.integers(1, 5))
    # edges avoid the last two nodes, which stay isolated; one edge is a singleton
    edges = [
        rng.choice(n - 2, size=int(rng.integers(2, min(6, n - 2) + 1)), replace=False).tolist()
        for _ in range(int(rng.integers(1, 10)))
    ]
    edges.append([int(rng.integers(n - 2))])
    hg = Hypergraph.from_edges(n, edges)
    b = hg.incidence.toarray()
    a_c = b @ b.T
    a_s = b @ np.diag(1.0 / hg.edge_sizes) @ b.T
    d_c, d_s = np.diag(a_c.sum(axis=1)), np.diag(a_s.sum(axis=1))
    v = rng.standard_normal((n, d))

    h0, h1 = np.eye(d) + 0.3 * rng.standard_normal((d, d)), np.eye(d) + 0.3 * rng.standard_normal((d, d))
    for l0, l1 in ((1.0, 0.0), (0.0, 1.0), (float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.1, 3.0)))):
        ops = build_expansion_operators(hg, l0, l1)
        rows = ops.linked
        assert {n - 2, n - 1} <= set(ops.isolated.tolist())

        def applied(prop):
            return prop.kernel(v[rows], *prop.fwd)[0]

        assert np.max(np.abs(ops.d_c - a_c.sum(axis=1)[rows])) <= 1e-12
        assert np.max(np.abs(ops.d_s_bar - a_s.sum(axis=1)[rows])) <= 1e-12
        c = 0.4 / ops.d_tilde[:, None]
        compat = {"simple": EnergyParams.identity(d), "general": EnergyParams(h0, h1)}
        for variant, params in compat.items():
            g0, g1 = params.h0 @ params.h0.T, params.h1 @ params.h1.T
            s0, s1 = params.h0 + params.h0.T, params.h1 + params.h1.T
            lap = 0.5 * l0 * (d_c @ v @ (np.eye(d) + g0) - a_c @ v @ s0)
            lap += l1 * (d_s @ v @ g1 - a_s @ v @ (s1 - np.eye(d)))
            if variant == "general":
                diag, bound_c, bound = 0.5 * l0 * ops.d_c, -1.0, lap - 0.5 * l0 * d_c @ v
            else:
                diag, bound_c, bound = l0 * ops.d_c + l1 * ops.d_s_bar, 1.0, (l0 * a_c + l1 * a_s) @ v
            lap, bound = lap[rows], bound[rows]
            # a layer (the step Y - c * grad E(Y) / 2 without its c * Fx part), -L_H, the step bound's operator
            for got, want in (
                (applied(Propagation(ops, params, variant, 0.4)), v[rows] - c * (lap + v[rows])),
                (applied(Propagation._at(ops, params, variant, 1.0)) - diag[:, None] * v[rows], -lap),
                (applied(Propagation._at(ops, params, variant, bound_c)), bound),
            ):
                assert rel_err(got, want) <= 1e-12



@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize("fmt", ["csr", "csc"])
def test_spmm_is_the_scipy_product_bit_for_bit(fmt, index_dtype):
    # the private csr_matvecs/csc_matvecs call against scipy's own dispatch, which
    # takes csr_matvec for one column; a non-contiguous operand is raveled as @ does
    rng = rng_for(720)
    a = sp.random(40, 30, density=0.2, format=fmt, random_state=721)
    a.indices, a.indptr = a.indices.astype(index_dtype), a.indptr.astype(index_dtype)
    assert a.indices.dtype == a.indptr.dtype == index_dtype
    wide = rng.standard_normal((30, 14))
    for x in (wide[:, :1], wide[:, 5:6].copy(), wide[:, ::2], wide, wide.T.copy().T):
        got, want = _spmm(a, x), a @ x
        assert got.flags.c_contiguous and got.dtype == np.float64
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert _spmm(a[:0], wide).shape == (0, 14) and _spmm(a, wide[:, :0]).shape == (40, 0)

def test_mean_embedding_is_optimal():
    inst = random_instance(8)
    hg, y, d = inst["hg"], np.abs(inst["y"]), inst["d"]
    pid, lams = EnergyParams.identity(d), (inst["ops"].lambda0, inst["ops"].lambda1)
    rng = inst["rng"]
    base = energy_bruteforce(y, z_star(hg, y), inst["fx"], hg, pid, *lams).smooth
    for _ in range(100):
        cand = np.abs(rng.standard_normal((hg.m, d)))
        assert base <= energy_bruteforce(y, cand, inst["fx"], hg, pid, *lams).smooth + 1e-9


# -- gradients -----------------------------------------------------------------------


def test_gradient_zero_at_minimizer():
    inst = random_instance(9)
    hg = inst["hg"]
    ops0 = node_order_operators(hg, 0.0, 0.0)
    fx = inst["fx"]
    p0 = EnergyParams.identity(inst["d"])
    assert np.max(np.abs(energy_and_grad(fx, fx, ops0, p0, "simple").grad)) == 0.0
    assert np.max(np.abs(energy_and_grad(fx, fx, ops0, p0, "general").grad)) == 0.0


def test_grad_general_identity_equals_grad_simple():
    for seed in range(6):
        inst = random_instance(seed + 20)
        pid = EnergyParams.identity(inst["d"])
        gg = energy_and_grad(inst["y"], inst["fx"], inst["ops"], pid, "general").grad
        gs = energy_and_grad(inst["y"], inst["fx"], inst["ops"], pid, "simple").grad
        assert np.max(np.abs(gg - gs)) <= 1e-12 * max(1.0, np.abs(gs).max())


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    inst = random_instance(seed + 30, h_noise=0.2)
    hg, ops, params, fx = inst["hg"], inst["ops"], inst["params"], inst["fx"]
    y = inst["y"].copy()
    pid = EnergyParams.identity(inst["d"])
    gs = energy_and_grad(y, fx, ops, pid, "simple").grad
    fd_s = fd_gradient(lambda v: energy_trace_simple(v, fx, hg, ops.lambda0, ops.lambda1), y)
    assert rel_err(gs, fd_s) <= 1e-6
    gg = energy_and_grad(y, fx, ops, params, "general").grad
    fd_g = fd_gradient(lambda v: energy_trace_general(v, fx, hg, params, ops.lambda0, ops.lambda1), y)
    assert rel_err(gg, fd_g) <= 1e-6


def test_params_must_match_operators():
    # a model runs only on operators built for its config's (lambda0, lambda1); the error names both pairs
    inst = random_instance(40)
    ops, x = inst["ops"], inst["fx"]
    for variant in ("general", "simple"):
        cfg = ModelConfig(variant, 2, inst["d"], inst["alpha"], ops.lambda0 + 1.0, ops.lambda1)
        model = init_model(cfg, x.shape[1], 3)
        message = (
            f"built for (lambda0={ops.lambda0}, lambda1={ops.lambda1}) "
            f"but the model's config has ({cfg.lambda0}, {cfg.lambda1})"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            forward(x, model, ops)
        with pytest.raises(ValueError, match=re.escape(message)):
            build_taped_logits(Tape(), model, ops, x)
        with pytest.raises(ValueError, match=re.escape(message)):
            descent_trace(x, model, ops)
