import time

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.energy import EnergyParams, energy_general, energy_simple, prox_nonneg
from phenomnn.hypergraph import Hypergraph, build_clique, build_expansion_operators, build_star_normalized
from phenomnn.model import (
    Model,
    ModelConfig,
    Propagation,
    forward,
    init_model,
    layer,
    load_checkpoint,
    messagepassing_layer,
    save_checkpoint,
    step_bound_general,
    step_bound_simple,
)
from phenomnn.train import TrainConfig, train
from helpers import one_layer, random_hypergraph, random_instance, rng_for


# -- layer basics ---------------------------------------------------------------


def test_layer_collapses_to_skip_connection():
    inst = random_instance(0)
    hg, fx, y = inst["hg"], inst["fx"], inst["y"]
    ops0 = build_expansion_operators(hg, 0.0, 0.0)
    p0 = EnergyParams.identity(inst["d"], 0.0, 0.0, alpha=1.0)
    out = one_layer(y, fx, ops0, p0, "simple")
    assert np.array_equal(out, prox_nonneg(fx))
    assert np.array_equal(one_layer(y, fx, ops0, p0, "general"), prox_nonneg(fx))


def test_layer_alpha_zero_is_projection():
    inst = random_instance(1)
    p = EnergyParams.identity(inst["d"], inst["ops"].lambda0, inst["ops"].lambda1, alpha=0.0)
    out = one_layer(inst["y"], inst["fx"], inst["ops"], p, "simple")
    assert np.array_equal(out, prox_nonneg(inst["y"]))
    assert np.array_equal(one_layer(inst["y"], inst["fx"], inst["ops"], p, "general"), prox_nonneg(inst["y"]))


def test_layer_general_identity_equals_layer_simple():
    for seed in range(8):
        inst = random_instance(seed, alpha=0.37)
        pid = EnergyParams.identity(inst["d"], inst["ops"].lambda0, inst["ops"].lambda1, alpha=0.37)
        a = one_layer(inst["y"], inst["fx"], inst["ops"], pid, "general")
        b = one_layer(inst["y"], inst["fx"], inst["ops"], pid, "simple")
        assert np.max(np.abs(a - b)) <= 1e-12


def test_layer_shape_validation():
    inst = random_instance(2)
    with pytest.raises(ValueError):
        one_layer(inst["y"][:-1], inst["fx"], inst["ops"], inst["params"], "simple")


# -- node-wise reference -----------------------------------------------------------


def test_messagepassing_single_isolated_node():
    hg = Hypergraph.from_edges(1, [[0]])
    # remove the only edge's influence by zero weights: update is the skip connection
    ops = build_expansion_operators(hg, 0.0, 0.0)
    p = EnergyParams.identity(2, 0.0, 0.0, alpha=0.3)
    y = np.array([[-1.0, 2.0]])
    fx = np.array([[4.0, -8.0]])
    got = messagepassing_layer(y, fx, ops, p)
    want = prox_nonneg((1 - 0.3) * y + 0.3 * fx)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("h_noise", [0.0, 0.3])
def test_messagepassing_matches_matrix_layer(h_noise):
    for seed in range(5):
        inst = random_instance(seed + 50, n=6, m=5, h_noise=h_noise, alpha=0.45)
        got = messagepassing_layer(inst["y"], inst["fx"], inst["ops"], inst["params"])
        want = one_layer(inst["y"], inst["fx"], inst["ops"], inst["params"], "general")
        assert np.max(np.abs(got - want)) <= 1e-12


def test_messagepassing_identity_pair_only_matches_simple():
    inst = random_instance(55, n=7, m=4, alpha=0.5)
    hg = inst["hg"]
    ops = build_expansion_operators(hg, 2.0, 0.0)
    p = EnergyParams.identity(inst["d"], 2.0, 0.0, alpha=0.5)
    got = messagepassing_layer(inst["y"], inst["fx"], ops, p)
    want = one_layer(inst["y"], inst["fx"], ops, p, "simple")
    assert np.max(np.abs(got - want)) <= 1e-12


# -- fixed points ------------------------------------------------------------------


def test_positive_fixed_point_of_simple_layer():
    rng = rng_for(3)
    hg = random_hypergraph(rng, 10, 6)
    l0, l1 = 0.8, 1.3
    ops = build_expansion_operators(hg, l0, l1)
    d = 3
    y_star = 1.0 + rng.random((10, d))  # strictly positive target
    l_c = sp.diags(ops.d_c) - build_clique(hg)[0]
    l_s = sp.diags(ops.d_s_bar) - build_star_normalized(hg)[0]
    system = (l0 * l_c + l1 * l_s + sp.identity(10)).tocsr()
    fx = np.asarray(system @ y_star)
    # conjugate-gradient oracle recovers the minimizer column by column
    recovered = np.column_stack(
        [spla.cg(system, fx[:, j], rtol=1e-12, atol=0.0)[0] for j in range(d)]
    )
    assert np.max(np.abs(recovered - y_star)) <= 1e-8
    stepped = one_layer(recovered, fx, ops, EnergyParams.identity(d, l0, l1, alpha=0.6), "simple")
    assert np.max(np.abs(stepped - recovered)) <= 1e-8


# -- forward --------------------------------------------------------------------------


def test_forward_rejects_zero_layers():
    with pytest.raises(ValueError, match="t_layers"):
        ModelConfig(variant="simple", t_layers=0, d=4, alpha=0.5, lambda0=0.0, lambda1=0.0)


def test_forward_trivial_config_is_mlp():
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=6, num_edges=5, feature_dim=3, seed=4))
    cfg = ModelConfig(variant="simple", t_layers=5, d=4, alpha=1.0, lambda0=0.0, lambda1=0.0)
    model = init_model(cfg, 3, ds.n_classes, seed=4)
    ops = build_expansion_operators(ds.hypergraph, 0.0, 0.0)
    y, logits = forward(ds.features, model, ops)
    fx = model.predictor.apply(ds.features)
    assert np.array_equal(y, np.maximum(fx, 0.0))
    assert np.array_equal(logits, model.classifier.apply(np.maximum(fx, 0.0)))


def test_forward_energy_nonincreasing_within_bound():
    inst = random_instance(5, n=15, m=8, alpha=0.5)
    ops, hg, fx = inst["ops"], inst["hg"], inst["fx"]
    alpha = 0.9 * step_bound_simple(ops).value
    prop = Propagation(ops, EnergyParams.identity(inst["d"], ops.lambda0, ops.lambda1, alpha), "simple")
    y = prox_nonneg(fx)
    prev = energy_simple(y, fx, ops).smooth
    for _ in range(60):
        y = layer(y, prop.c * fx, prop)
        e = energy_simple(y, fx, ops).smooth
        assert e <= prev + 1e-9 * abs(prev)
        prev = e


def test_relu_mode_end_only():
    inst = random_instance(6, alpha=0.4)
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=6, num_edges=6, feature_dim=3, seed=6))
    cfg = ModelConfig(
        variant="simple", t_layers=3, d=4, alpha=0.4, lambda0=1.0, lambda1=1.0, relu_mode="end_only"
    )
    model = init_model(cfg, 3, ds.n_classes, seed=6)
    ops = build_expansion_operators(ds.hypergraph, 1.0, 1.0)
    y, _ = forward(ds.features, model, ops)
    assert np.min(y) >= 0.0  # final ReLU still applied
    fx = model.predictor.apply(ds.features)
    h = fx
    prop = Propagation(ops, EnergyParams.identity(4, 1.0, 1.0, 0.4), "simple")
    for t in range(3):
        h = layer(h, prop.c * fx, prop, apply_relu=(t == 2))
    assert np.array_equal(y, h)


# -- step bounds -----------------------------------------------------------------------


def test_step_bound_trivial_is_one():
    hg = Hypergraph.from_edges(3, [[0, 1], [1, 2]])
    ops = build_expansion_operators(hg, 0.0, 0.0)
    assert step_bound_simple(ops).value == 1.0
    assert step_bound_general(ops, EnergyParams.identity(2, 0.0, 0.0)).value == 1.0


def test_step_bound_simple_matches_hand_formula():
    hg = Hypergraph.from_edges(3, [[0, 1], [1, 2]])
    ops = build_expansion_operators(hg, 1.0, 0.0)
    # dense oracle for the extreme eigenvalue, then the closed formula
    sigma_min = float(np.linalg.eigvalsh(build_clique(hg)[0].toarray())[0])
    c = 1.0 + 1.0 * ops.d_c.min()
    want = c / (c - max(sigma_min, 0.0))
    got = step_bound_simple(ops)
    assert abs(got.value - want) <= 1e-8
    assert abs(got.sigma - max(sigma_min, 0.0)) <= 1e-8


def test_step_bound_simple_unconverged_uses_zero_sigma(monkeypatch):
    import phenomnn.model as model_mod
    from phenomnn.linalg import EigenResult

    # m >= n and no isolated node, so K is not known to be singular
    inst = random_instance(9, n=12, m=12)
    ops = inst["ops"]
    stuck = EigenResult(value=0.5, residual=1e-3, converged=False, iterations=5000)
    monkeypatch.setattr(model_mod, "extreme_eigenvalue", lambda *args, **kwargs: stuck)
    got = step_bound_simple(ops)
    # an unconverged sigma_min estimate can only be too high; K is PSD, so 0 is safe
    assert got.sigma == 0.0 and got.value == 1.0
    assert got.eig is stuck


@pytest.mark.parametrize(
    "n, edges",
    [
        (5, [[0, 1, 2], [2, 3, 4], [1, 3]]),  # m < n: rank K <= m
        (4, [[0, 1], [1, 2], [0, 2], [0, 1, 2]]),  # m >= n, node 3 isolated
    ],
)
def test_step_bound_simple_singular_needs_no_solve(n, edges):
    hg = Hypergraph.from_edges(n, edges)
    ops = build_expansion_operators(hg, 1.3, 0.7)
    # the dense oracle agrees that K is singular
    k = 1.3 * build_clique(hg)[0].toarray() + 0.7 * build_star_normalized(hg)[0].toarray()
    assert abs(np.linalg.eigvalsh(k)[0]) <= 1e-12
    got = step_bound_simple(ops)
    assert got.sigma == 0.0 and got.value == 1.0
    assert got.eig.iterations == 0
    assert got.certificate == "rank"


def _dense_general_bound(hg, ops, params):
    """Step bound from the materialised curvature operator (row-major vec of V)."""
    d = params.d
    s = 0.5 * params.lambda0
    g0, s0 = params.h0 @ params.h0.T, params.h0 + params.h0.T
    g1, s1 = params.h1 @ params.h1.T, params.h1 + params.h1.T
    a_c, a_s = build_clique(hg)[0].toarray(), build_star_normalized(hg)[0].toarray()
    op = s * (np.kron(np.diag(ops.d_c), g0.T) - np.kron(a_c, s0.T))
    op += params.lambda1 * (np.kron(np.diag(ops.d_s_bar), g1.T) - np.kron(a_s, s1.T) + np.kron(a_s, np.eye(d)))
    sigma_max = float(np.linalg.eigvalsh((op + op.T) / 2.0)[-1])
    numer = 1.0 + params.lambda0 * ops.d_c.min() + params.lambda1 * ops.d_s_bar.min()
    return numer / (1.0 + s * ops.d_c.min() + sigma_max)


@pytest.mark.parametrize("seed", [9202, 9208])
def test_step_bound_general_not_above_dense_bound(seed):
    # the criterion-3 instances on which a capped power loop reported too high a bound
    rng = rng_for(seed)
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
    params = EnergyParams(h0, h1, l0, l1)
    want = _dense_general_bound(hg, ops, params)
    got = step_bound_general(ops, params)
    assert got.value <= want * (1.0 + 1e-12)
    assert abs(got.value - want) <= 1e-8 * want
    assert got.certificate == "lanczos" and got.eig.converged


def test_step_bound_general_unconverged_uses_lift(monkeypatch):
    import phenomnn.model as model_mod
    from phenomnn.linalg import EigenResult

    inst = random_instance(7, n=6, m=4, d=3, h_noise=0.2)
    ops, params = inst["ops"], inst["params"]
    stuck = EigenResult(value=0.5, residual=1e-3, converged=False, iterations=5000)
    monkeypatch.setattr(model_mod, "extreme_eigenvalue", lambda *args, **kwargs: stuck)
    got = step_bound_general(ops, params)
    s = 0.5 * params.lambda0

    def norm(m):
        return np.linalg.norm(m, 2)

    h0, h1 = params.h0, params.h1
    lift = s * ops.d_c.max() * (norm(h0 @ h0.T) + norm(h0 + h0.T)) + params.lambda1 * ops.d_s_bar.max() * (
        norm(h1 @ h1.T) + norm(h1 + h1.T) + 1.0
    )
    numer = 1.0 + params.lambda0 * ops.d_c.min() + params.lambda1 * ops.d_s_bar.min()
    assert abs(got.sigma - lift) <= 1e-12 * lift
    assert abs(got.value - numer / (1.0 + s * ops.d_c.min() + lift)) <= 1e-12
    assert got.certificate == "norm-bound" and got.eig is stuck


def test_step_bound_general_sigma_matches_dense_operator():
    inst = random_instance(7, n=6, m=4, d=3, h_noise=0.2)
    ops, params = inst["ops"], inst["params"]
    n, d = 6, 3
    s = 0.5 * params.lambda0
    h0g, h0s = params.h0 @ params.h0.T, params.h0 + params.h0.T
    h1g, h1s = params.h1 @ params.h1.T, params.h1 + params.h1.T
    a_c, a_s = build_clique(inst["hg"])[0].toarray(), build_star_normalized(inst["hg"])[0].toarray()

    def apply(v):
        m = v.reshape(n, d)
        out = s * (np.diag(ops.d_c) @ m @ h0g - a_c @ m @ h0s)
        out += params.lambda1 * (np.diag(ops.d_s_bar) @ m @ h1g - a_s @ m @ h1s + a_s @ m)
        return out.ravel()

    dense = np.column_stack([apply(col) for col in np.eye(n * d)])
    sigma_max = float(np.linalg.eigvalsh((dense + dense.T) / 2.0)[-1])
    got = step_bound_general(ops, params)
    assert abs(got.sigma - sigma_max) <= 1e-8
    numer = 1.0 + params.lambda0 * ops.d_c.min() + params.lambda1 * ops.d_s_bar.min()
    denom = 1.0 + s * ops.d_c.min() + sigma_max
    assert abs(got.value - numer / denom) <= 1e-8


def test_monotone_descent_both_variants():
    for seed in range(5):
        inst = random_instance(seed + 70, n=40, m=20, d=6, h_noise=0.05)
        ops, hg, params = inst["ops"], inst["hg"], inst["params"]
        rng = inst["rng"]
        fx = rng.standard_normal((40, 6))

        bound = step_bound_general(ops, params)
        pg = EnergyParams(params.h0, params.h1, ops.lambda0, ops.lambda1, 0.9 * bound.value)
        prop = Propagation(ops, pg, "general")
        y = prox_nonneg(fx)
        prev = energy_general(y, fx, ops, pg, hg).smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_general(y, fx, ops, pg, hg).smooth
            assert e <= prev + 1e-9 * abs(prev)
            prev = e

        alpha = 0.9 * step_bound_simple(ops).value
        prop = Propagation(ops, EnergyParams.identity(6, ops.lambda0, ops.lambda1, alpha), "simple")
        y = prox_nonneg(fx)
        prev = energy_simple(y, fx, ops).smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_simple(y, fx, ops).smooth
            assert e <= prev + 1e-9 * abs(prev)
            prev = e


def test_fixed_point_approach_and_uniqueness():
    for seed in range(3):
        inst = random_instance(seed + 80, n=30, m=15, d=4, lam_hi=1.5)
        ops = inst["ops"]
        rng = inst["rng"]
        fx = rng.standard_normal((30, 4))
        alpha = 0.9 * step_bound_simple(ops).value
        prop = Propagation(ops, EnergyParams.identity(4, ops.lambda0, ops.lambda1, alpha), "simple")

        def run(y0, steps=5000, tol=1e-12):
            y = y0
            deltas = []
            for _ in range(steps):
                nxt = layer(y, prop.c * fx, prop)
                deltas.append(float(np.linalg.norm(nxt - y)))
                y = nxt
                if deltas[-1] <= tol:
                    break
            return y, deltas

        y_a, deltas = run(prox_nonneg(fx))
        for i in range(5, len(deltas) - 1):
            assert deltas[i + 1] <= deltas[i] * (1.0 + 1e-12)
        assert min(deltas) <= 1e-6 and len(deltas) <= 5000

        y_b, _ = run(prox_nonneg(rng.standard_normal((30, 4))))
        assert np.linalg.norm(y_a - y_b) <= 1e-5


def test_forward_runtime_scales_linearly_in_depth():
    ds = generate_synthetic(
        SyntheticSpec(nodes_per_community=150, num_edges=200, feature_dim=16, seed=9)
    )
    ops = build_expansion_operators(ds.hypergraph, 1.0, 1.0)

    def timed(t_layers):
        cfg = ModelConfig(variant="simple", t_layers=t_layers, d=32, alpha=0.5, lambda0=1.0, lambda1=1.0)
        model = init_model(cfg, 16, ds.n_classes, seed=9)
        forward(ds.features, model, ops)  # warmup
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            forward(ds.features, model, ops)
            best = min(best, time.perf_counter() - t0)
        return best

    assert timed(32) <= 2.5 * timed(16)


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(variant="general", t_layers=3, d=5, alpha=0.2, lambda0=1.5, lambda1=0.7)
    model = init_model(cfg, 4, 3, seed=11)
    path = tmp_path / "ck.json"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == model.config
    for (a, b) in zip(loaded.predictor.weights, model.predictor.weights):
        assert np.array_equal(a, b)
    for (a, b) in zip(loaded.predictor.biases, model.predictor.biases):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.classifier.w, model.classifier.w)
    assert np.array_equal(loaded.classifier.b, model.classifier.b)
    assert np.array_equal(loaded.params.h0, model.params.h0)
    assert np.array_equal(loaded.params.h1, model.params.h1)
    second = tmp_path / "ck2.json"
    save_checkpoint(loaded, str(second))
    assert path.read_bytes() == second.read_bytes()


def test_strict_alpha_rejects_oversized_step():
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=8, num_edges=8, feature_dim=3, seed=12))
    cfg = ModelConfig(
        variant="simple", t_layers=2, d=4, alpha=5.0, lambda0=1.0, lambda1=1.0, strict_alpha=True
    )
    with pytest.raises(ValueError, match="bound"):
        train(ds, cfg, TrainConfig(lr=0.01, epochs=1, seed=0))
