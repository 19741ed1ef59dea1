import dataclasses
import json
import time
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.blas import daxpy

from phenomnn import energy
from phenomnn.autodiff import Tape, backward, check_gradients
from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.energy import EnergyParams
from phenomnn.hypergraph import Hypergraph, build_expansion_operators
from phenomnn.model import (
    Model,
    ModelConfig,
    Propagation,
    build_taped_logits,
    descent_trace,
    forward,
    init_model,
    layer,
    layer_vjp,
    load_checkpoint,
    save_checkpoint,
    step_bound_general,
    step_bound_simple,
)
from phenomnn.train import TrainConfig, train
from helpers import (
    count_sparse_products,
    criterion_3_problems,
    hyperedges,
    load_workloads,
    node_order_operators,
    one_layer,
    random_hypergraph,
    random_instance,
    record_dgemm,
    record_matmul,
    rng_for,
)
from oracles import (
    build_clique,
    build_star_normalized,
    energy_and_grad,
    energy_bruteforce,
    layer_keeping_mask_and_p,
    layer_out_of_place,
    layer_vjp_out_of_place,
    layer_vjp_reading_p,
    messagepassing_layer,
    products_every_edge_in_the_tail,
    prox_nonneg,
    z_star,
)


# -- layer basics ---------------------------------------------------------------


def test_layer_collapses_to_skip_connection():
    inst = random_instance(0)
    hg, fx, y = inst["hg"], inst["fx"], inst["y"]
    ops0 = node_order_operators(hg, 0.0, 0.0)
    p0 = EnergyParams.identity(inst["d"])
    out = one_layer(y, fx, ops0, p0, "simple", 1.0)
    assert np.array_equal(out, prox_nonneg(fx))
    assert np.array_equal(one_layer(y, fx, ops0, p0, "general", 1.0), prox_nonneg(fx))


def test_layer_alpha_zero_is_projection():
    inst = random_instance(1)
    p = EnergyParams.identity(inst["d"])
    out = one_layer(inst["y"], inst["fx"], inst["ops"], p, "simple", 0.0)
    assert np.array_equal(out, prox_nonneg(inst["y"]))
    assert np.array_equal(one_layer(inst["y"], inst["fx"], inst["ops"], p, "general", 0.0), prox_nonneg(inst["y"]))


def test_layer_general_identity_equals_layer_simple():
    for seed in range(8):
        inst = random_instance(seed, alpha=0.37)
        pid = EnergyParams.identity(inst["d"])
        a = one_layer(inst["y"], inst["fx"], inst["ops"], pid, "general", inst["alpha"])
        b = one_layer(inst["y"], inst["fx"], inst["ops"], pid, "simple", inst["alpha"])
        assert np.max(np.abs(a - b)) <= 1e-12


def test_layer_shape_validation():
    inst = random_instance(2)
    with pytest.raises(ValueError):
        one_layer(inst["y"][:-1], inst["fx"], inst["ops"], inst["params"], "simple", inst["alpha"])


# -- node-wise reference -----------------------------------------------------------


def test_messagepassing_single_isolated_node():
    hg = Hypergraph.from_edges(1, [[0]])
    # remove the only edge's influence by zero weights: update is the skip connection
    ops = node_order_operators(hg, 0.0, 0.0)
    p = EnergyParams.identity(2)
    y = np.array([[-1.0, 2.0]])
    fx = np.array([[4.0, -8.0]])
    got = messagepassing_layer(y, fx, ops, p, 0.3)
    want = prox_nonneg((1 - 0.3) * y + 0.3 * fx)
    assert np.max(np.abs(got - want)) <= 1e-15


@pytest.mark.parametrize("h_noise", [0.0, 0.3])
def test_messagepassing_matches_matrix_layer(h_noise):
    for seed in range(5):
        inst = random_instance(seed + 50, n=6, m=5, h_noise=h_noise, alpha=0.45)
        got = messagepassing_layer(inst["y"], inst["fx"], inst["ops"], inst["params"], inst["alpha"])
        want = one_layer(inst["y"], inst["fx"], inst["ops"], inst["params"], "general", inst["alpha"])
        assert np.max(np.abs(got - want)) <= 1e-12


def test_messagepassing_identity_pair_only_matches_simple():
    inst = random_instance(55, n=7, m=4, alpha=0.5)
    hg = inst["hg"]
    ops = node_order_operators(hg, 2.0, 0.0)
    p = EnergyParams.identity(inst["d"])
    got = messagepassing_layer(inst["y"], inst["fx"], ops, p, inst["alpha"])
    want = one_layer(inst["y"], inst["fx"], ops, p, "simple", inst["alpha"])
    assert np.max(np.abs(got - want)) <= 1e-12


# -- fixed points ------------------------------------------------------------------


def test_positive_fixed_point_of_simple_layer():
    rng = rng_for(3)
    hg = random_hypergraph(rng, 10, 6)
    l0, l1 = 0.8, 1.3
    ops = node_order_operators(hg, l0, l1)
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
    stepped = one_layer(recovered, fx, ops, EnergyParams.identity(d), "simple", 0.6)
    assert np.max(np.abs(stepped - recovered)) <= 1e-8


# -- forward --------------------------------------------------------------------------


def test_forward_rejects_zero_layers():
    with pytest.raises(ValueError, match="t_layers"):
        ModelConfig(variant="simple", t_layers=0, d=4, alpha=0.5, lambda0=0.0, lambda1=0.0)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(alpha=float("nan")), "alpha must be positive and finite, got nan"),
        (dict(alpha=float("inf")), "alpha must be positive and finite, got inf"),
        (dict(alpha=0.0), "alpha must be positive and finite, got 0.0"),
    ],
    ids=["alpha-nan", "alpha-inf", "alpha-0"],
)
def test_model_config_rejects_a_step_that_is_not_positive_and_finite(kwargs, message):
    # a NaN alpha would otherwise surface as a diverged loss that blames lr or alpha
    base = dict(variant="simple", t_layers=2, d=4, alpha=0.5, lambda0=1.0, lambda1=0.5)
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{**base, **kwargs})


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(lambda0=float("nan")), "lambda0 must be nonnegative and finite, got nan"),
        (dict(lambda0=float("inf")), "lambda0 must be nonnegative and finite, got inf"),
        (dict(lambda1=-0.5), "lambda1 must be nonnegative and finite, got -0.5"),
    ],
    ids=["lambda0-nan", "lambda0-inf", "lambda1-negative"],
)
def test_model_config_rejects_weights_that_are_not_nonnegative_and_finite(kwargs, message):
    # a NaN weight would otherwise fail where a model meets its operators, with
    # a message whose two pairs look equal, and an infinite one as a diverged loss
    base = dict(variant="simple", t_layers=2, d=4, alpha=0.5, lambda0=1.0, lambda1=0.5)
    with pytest.raises(ValueError, match=message):
        ModelConfig(**{**base, **kwargs})


def test_forward_trivial_config_is_mlp():
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=6, edges=5, feature_dim=3, seed=4))
    cfg = ModelConfig(variant="simple", t_layers=5, d=4, alpha=1.0, lambda0=0.0, lambda1=0.0)
    model = init_model(cfg, 3, ds.n_classes, seed=4)
    ops = build_expansion_operators(ds.hypergraph, 0.0, 0.0)
    y, logits = forward(ds.features, model, ops)
    fx = model.predictor.apply(ds.features)
    assert np.array_equal(y, np.maximum(fx, 0.0))
    assert np.array_equal(logits, model.classifier.apply(np.maximum(fx, 0.0)))


def test_forward_energy_nonincreasing_within_bound():
    inst = random_instance(5, n=15, m=8, alpha=0.5)
    ops, fx = inst["ops"], inst["fx"]
    alpha = 0.9 * step_bound_simple(inst["linked_ops"]).value
    params = EnergyParams.identity(inst["d"])
    prop = Propagation(ops, params, "simple", alpha)
    y = prox_nonneg(fx)
    prev = energy_and_grad(y, fx, ops, params, "simple").smooth
    for _ in range(60):
        y = layer(y, prop.c * fx, prop)
        e = energy_and_grad(y, fx, ops, params, "simple").smooth
        assert e <= prev + 1e-9 * abs(prev)
        prev = e


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_descent_trace_ends_at_forward(variant, monkeypatch):
    import phenomnn.model as model_mod

    ds = generate_synthetic(SyntheticSpec(nodes_per_community=6, edges=6, feature_dim=3, seed=6))
    cfg = ModelConfig(variant=variant, t_layers=3, d=4, alpha=0.4, lambda0=1.0, lambda1=0.5)
    model = init_model(cfg, 3, ds.n_classes, seed=6)
    ops = build_expansion_operators(ds.hypergraph, 1.0, 0.5)
    y, _ = forward(ds.features, model, ops)
    fx = model.predictor.apply(ds.features)
    calls, binds, iterates = [0], [0], []
    kernel, bind, plain_layer = Propagation.kernel, Propagation._bind, model_mod.layer

    def counted(self, *args):
        calls[0] += 1
        return kernel(self, *args)

    def built(self, *args):
        binds[0] += 1
        return bind(self, *args)

    def recorded(*args, **kwargs):
        iterates.append(plain_layer(*args, **kwargs))
        return iterates[-1]

    monkeypatch.setattr(Propagation, "kernel", counted)
    monkeypatch.setattr(Propagation, "_bind", built)
    monkeypatch.setattr(model_mod, "layer", recorded)
    rows = descent_trace(ds.features, model, ops)
    # one kernel call per row, read by its energy and by the next layer, and
    # no Propagation built after the pass's own
    assert calls[0] == len(rows) == len(iterates) + 1 == 4
    assert binds[0] == 1
    # the trace runs on the linked nodes alone
    assert np.array_equal(iterates[-1], y[ops.linked])
    want = energy_and_grad(y, fx, node_order_operators(ds.hypergraph, 1.0, 0.5), model.params, variant).smooth
    assert abs(rows[-1]["energy"] - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("block_rows", [None, 3])
@pytest.mark.parametrize(
    "variant, alpha",
    [pytest.param(v, a, id=v if a == 0.3 else f"{v}-alpha={a}") for a in (0.3, 1e-3) for v in ("simple", "general")],
)
def test_descent_trace_rows_match_the_summation_energy_and_the_gradient(variant, alpha, block_rows, monkeypatch):
    # each row's energy against the literal summation form (pair weight lambda0/2),
    # its gradient norm against energy_and_grad's, at every iterate of the layers;
    # with blocks of 3 rows, the 16 nodes take five full blocks and one of a row.
    # The trace scales K(Y) by d_tilde / alpha, most at the smaller alpha,
    # which is below the presets' smallest, 0.01
    import phenomnn.model as model_mod

    if block_rows:
        monkeypatch.setattr(model_mod, "_TRACE_BLOCK_BYTES", 8 * 3 * block_rows)
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=8, edges=8, feature_dim=3, seed=7))
    cfg = ModelConfig(variant=variant, t_layers=4, d=3, alpha=alpha, lambda0=1.5, lambda1=0.7)
    model = init_model(cfg, 3, ds.n_classes, seed=7)
    if variant == "general":
        rng = rng_for(7)
        model.params.h0 += 0.2 * rng.standard_normal((3, 3))
        model.params.h1 += 0.2 * rng.standard_normal((3, 3))
    hg = ds.hypergraph
    ops = build_expansion_operators(hg, 1.5, 0.7)
    rows = descent_trace(ds.features, model, ops)
    fx = model.predictor.apply(ds.features)
    assert fx.shape == (16, 3)
    ref = node_order_operators(hg, 1.5, 0.7)
    prop = Propagation(ref, model.params, variant, cfg.alpha)
    ys = [fx]
    for _ in range(cfg.t_layers):
        ys.append(layer(ys[-1], prop.c * fx, prop))
    assert len(rows) == len(ys)
    for row, y in zip(rows, ys):
        summed = energy_bruteforce(y, z_star(hg, y), fx, hg, model.params, 0.75, 0.7).smooth
        assert abs(row["energy"] - summed) <= 1e-10 * max(1.0, abs(summed))
        norm = float(np.linalg.norm(energy_and_grad(y, fx, ref, model.params, variant).grad))
        assert abs(row["grad_norm"] - norm) <= 1e-12 * norm
        assert row["feasible"] == bool(np.min(y) >= 0.0)
    # Fx = X with one negative entry, in node 0: the first row is infeasible
    model.predictor.w[:] = np.eye(3)
    model.predictor.b[:] = 0.0
    x = np.abs(ds.features)
    x[0, 0] = -1.0
    assert not descent_trace(x, model, ops, 0)[0]["feasible"]


def test_descent_trace_rejects_negative_steps():
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=6, edges=6, feature_dim=3, seed=6))
    ops = build_expansion_operators(ds.hypergraph, 1.0, 0.5)
    cfg = ModelConfig(variant="simple", t_layers=3, d=2, alpha=0.5, lambda0=1.0, lambda1=0.5)
    model = init_model(cfg, 3, ds.n_classes)
    with pytest.raises(ValueError, match="steps must be nonnegative, got -1"):
        descent_trace(ds.features, model, ops, -1)
    assert len(descent_trace(ds.features, model, ops, 0)) == 1


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_descent_trace_recomputed_from_the_checkpoint(variant, tmp_path):
    # the trace a run writes must be the one its saved model gives, ending at forward's energy
    ds = generate_synthetic(SyntheticSpec(nodes_per_community=10, edges=10, feature_dim=4, seed=8))
    cfg = ModelConfig(variant=variant, t_layers=3, d=5, alpha=0.2, lambda0=1.0, lambda1=0.5)
    model, metrics = train(ds, cfg, TrainConfig(lr=0.05, dropout=0.3, epochs=4, seed=2))
    save_checkpoint(model, tmp_path / "ckpt.json")
    loaded = load_checkpoint(tmp_path / "ckpt.json")
    ops = build_expansion_operators(ds.hypergraph, 1.0, 0.5)
    rows = descent_trace(ds.features, loaded, ops)
    assert rows == metrics.energy_trace
    y, _ = forward(ds.features, loaded, ops)
    fx = loaded.predictor.apply(ds.features)
    want = energy_and_grad(y, fx, node_order_operators(ds.hypergraph, 1.0, 0.5), loaded.params, variant).smooth
    assert abs(rows[-1]["energy"] - want) <= 1e-12 * abs(want)


# -- general layers on the linked nodes first -----------------------------------------


def isolated_first_problem(t_layers=3):
    """A general model on a hypergraph whose nodes 0, 1, 5, 9 and 13 are in no hyperedge,
    with inputs and labels: ``(x, labels, model, ops, ref)``, ``ref`` the node-order reference."""
    rng = rng_for(61)
    n, d = 14, 5
    hg = Hypergraph.from_edges(n, [[2, 3, 4], [4, 6, 7], [8, 10], [2, 11, 12], [6, 12], [3]])
    cfg = ModelConfig(variant="general", t_layers=t_layers, d=d, alpha=0.4, lambda0=1.2, lambda1=0.7)
    model = init_model(cfg, 4, 3, seed=61)
    model.params.h0 += 0.2 * rng.standard_normal((d, d))
    model.params.h1 += 0.2 * rng.standard_normal((d, d))
    x = rng.standard_normal((n, 4)) + 0.5
    labels = rng.integers(0, 3, n)
    lambdas = cfg.lambda0, cfg.lambda1
    return x, labels, model, build_expansion_operators(hg, *lambdas), node_order_operators(hg, *lambdas)


def node_order_pass(x, model, ops):
    """``forward`` as a plain loop of ``layer`` over the nodes in node order."""
    prop = Propagation(ops, model.params, "general", model.config.alpha)
    fx = model.predictor.apply(x)
    c_fx, y = prop.c * fx, fx
    for _ in range(model.config.t_layers):
        y = layer(y, c_fx, prop)
    return y, model.classifier.apply(y)


@pytest.mark.parametrize("masked", [False, True])
def test_general_pass_on_isolated_nodes_first_equals_the_node_order_pass(masked):
    x, labels, model, ops, ref = isolated_first_problem()
    linked, isolated = ops.linked, ops.isolated
    assert sorted(linked.tolist()) == [2, 3, 4, 6, 7, 8, 10, 11, 12] and isolated.tolist() == [0, 1, 5, 9, 13]
    rows = np.arange(0, x.shape[0], 2)
    rng = rng_for(62)
    masks = (None, None)
    if masked:
        masks = ((rng.random(x.shape) > 0.3) / 0.7, (rng.random((x.shape[0], model.config.d)) > 0.3) / 0.7)

    def taped(ops):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x, *masks)
        loss = tape.softmax_cross_entropy(logits, labels[rows], rows)
        return logits.value, float(loss.value), backward(tape, loss)

    def close(a, b):
        # B^T Y sums each hyperedge's members in degree-class order, not node order
        return np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b))

    y, logits = forward(x, model, ops)
    y_ref, logits_ref = node_order_pass(x, model, ref)
    assert close(y[linked], y_ref[linked]) and close(logits[linked], logits_ref[linked])
    # isolated rows are ReLU(Fx) in closed form; the loop's recurrence ends within ulps of it
    fx = y_node_wise = model.predictor.apply(x)
    assert np.array_equal(y[isolated], np.maximum(fx[isolated], 0.0))
    assert np.max(np.abs(y[isolated] - y_ref[isolated])) <= 1e-15 * np.max(np.abs(y_ref[isolated]))
    for _ in range(model.config.t_layers):
        y_node_wise = messagepassing_layer(y_node_wise, fx, ref, model.params, model.config.alpha)
    assert np.max(np.abs(y - y_node_wise)) <= 1e-12 * np.max(np.abs(y))
    got_logits, got_loss, got = taped(ops)
    trace = descent_trace(x, model, ops)
    want_logits, want_loss, want = taped(ref)
    if not masked:
        assert close(got_logits[linked], logits_ref[linked])
    assert close(got_logits[linked], want_logits[linked]) and abs(got_loss - want_loss) <= 1e-13 * abs(want_loss)
    # sums over nodes, taken over the linked and the isolated rows apart
    for name in ("predictor.w0", "predictor.b0", "classifier.w", "classifier.b", "h0", "h1"):
        assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * np.max(np.abs(want[name])), name
    for row, want_row in zip(trace, descent_trace(x, model, ref)):
        assert abs(row["energy"] - want_row["energy"]) <= 1e-12 * abs(want_row["energy"])
        assert abs(row["grad_norm"] - want_row["grad_norm"]) <= 1e-12 * want_row["grad_norm"]


def test_general_gradients_on_isolated_nodes_first_match_finite_differences():
    x, labels, model, ops, _ = isolated_first_problem()
    rows = np.arange(x.shape[0])

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x)
        return tape, tape.softmax_cross_entropy(logits, labels, rows)

    report = check_gradients(build, model.parameters(), samples=40, step=1e-5, seed=61)
    assert report["passed"], report
    assert report["max_rel_err"] <= 1e-5


def test_general_dense_products_see_only_the_linked_rows(monkeypatch):
    x, _, model, ops, _ = isolated_first_problem(t_layers=2)
    d = model.config.d
    linked = ops.linked.size
    shapes = record_dgemm(monkeypatch)
    forward(x, model, ops)
    assert shapes == [((d, d), (d, linked))] * (2 * 2)
    # a layer and its adjoint on the operators hold the linked rows alone
    prop = Propagation(ops, model.params, "general", model.config.alpha)
    fx = model.predictor.apply(x)[ops.linked]
    shapes.clear()
    kept = []
    layer(fx, prop.c * fx, prop, kept)
    layer_vjp(rng_for(63).standard_normal((linked, d)), prop, kept)
    assert shapes == [((d, d), (d, linked))] * 4
    assert prop.scratch.shape == (linked, d)


@pytest.mark.parametrize("t_layers", [1, 16])
@pytest.mark.parametrize("variant", ["simple", "general"])
def test_sparse_products_per_pass(monkeypatch, variant, t_layers):
    # a layer's kernel makes two sparse products of nnz(B) * d each, B^T V and the
    # left factor's, and so does its adjoint; a general adjoint rebuilds P = B^T Y
    # with a third; the trace runs the kernel once per iterate
    x, labels, model, ops, _ = isolated_third_problem(t_layers=t_layers)
    if variant == "simple":
        model = init_model(dataclasses.replace(model.config, variant="simple"), x.shape[1], 3, seed=76)
    products, t, work = count_sparse_products(monkeypatch), t_layers, ops.b.nnz * model.config.d
    forward(x, model, ops)
    assert products == [work] * 2 * t
    products.clear()
    tape = Tape()
    loss = tape.softmax_cross_entropy(build_taped_logits(tape, model, ops, x), labels, np.arange(x.shape[0]))
    assert products == [work] * 2 * t
    products.clear()
    backward(tape, loss)
    assert products == [work] * (3 if variant == "general" else 2) * t
    for steps in (0, 5):
        products.clear()
        descent_trace(x, model, ops, steps)
        assert products == [work] * 2 * (steps + 1)


def test_step_bounds_make_two_sparse_products_per_operator_application(monkeypatch):
    x, _, model, ops, _ = isolated_third_problem()
    products = count_sparse_products(monkeypatch)
    bound = step_bound_general(ops, model.params)
    assert bound.eig.iterations > 0
    assert products == [ops.b.nnz * model.config.d] * 2 * bound.eig.iterations
    products.clear()
    # the simple solve, on a set with m >= n and no isolated node, applies K to vectors
    ops = build_expansion_operators(Hypergraph.from_edges(6, [[i, j] for i in range(6) for j in range(i)]), 1.0, 0.5)
    bound = step_bound_simple(ops)
    assert bound.eig.iterations > 0
    assert products == [ops.b.nnz] * 2 * bound.eig.iterations


def test_isolated_nodes_end_at_the_relu_of_their_base_prediction():
    # a node in no hyperedge has the energy term ||y_i - f_i||^2 alone: its
    # minimiser over y_i >= 0 is ReLU(f_i), a fixed point of every layer
    x, _, model, ops, _ = isolated_first_problem(t_layers=6)
    y, _ = forward(x, model, ops)
    fx = model.predictor.apply(x)
    isolated = ops.isolated
    assert isolated.size == 5 and (fx[isolated] < 0.0).any() and (fx[isolated] > 0.0).any()
    assert np.max(np.abs(y[isolated] - np.maximum(fx[isolated], 0.0))) <= 1e-12 * max(1.0, np.abs(fx).max())


def isolated_third_problem(seed=71, n=60, d=16, t_layers=3):
    """A general model on ``n`` nodes, 30% of them in no hyperedge and spread among the others.

    With ``d = 16``, three classes and 42 linked nodes, a BLAS product's last
    rows can differ by the row count: the classifier must be applied alike by
    ``forward`` and the taped pass.  Returns ``(x, labels, model, ops, ref)``, ``ref``
    the node-order reference."""
    rng = rng_for(seed)
    isolated = np.sort(rng.choice(n, size=int(0.3 * n), replace=False))
    linked = rng.permutation(np.setdiff1d(np.arange(n), isolated))
    edges = [linked[i : i + 4].tolist() for i in range(0, linked.size - 1, 3)]
    edges += [rng.choice(linked, size=3, replace=False).tolist() for _ in range(8)]
    cfg = ModelConfig(variant="general", t_layers=t_layers, d=d, alpha=0.4, lambda0=1.2, lambda1=0.7)
    model = init_model(cfg, 6, 3, seed=seed)
    model.params.h0 += 0.2 * rng.standard_normal((d, d))
    model.params.h1 += 0.2 * rng.standard_normal((d, d))
    x = rng.standard_normal((n, 6))
    labels = rng.integers(0, 3, n)
    hg = Hypergraph.from_edges(n, edges)
    ops = build_expansion_operators(hg, cfg.lambda0, cfg.lambda1)
    assert np.array_equal(ops.isolated, isolated) and isolated[0] < linked.max()
    return x, labels, model, ops, node_order_operators(hg, cfg.lambda0, cfg.lambda1)


def test_general_passes_give_the_isolated_rows_the_relu_of_their_base_prediction(monkeypatch):
    import phenomnn.model as model_mod

    x, _, model, ops, ref = isolated_third_problem()
    linked, isolated = ops.linked, ops.isolated
    fx = model.predictor.apply(x)
    relu = np.maximum(fx[isolated], 0.0)
    assert (fx[isolated] < 0.0).any() and (fx[isolated] > 0.0).any()
    y, logits = forward(x, model, ops)
    assert np.array_equal(y[isolated], relu)
    assert np.array_equal(logits[isolated], model.classifier.apply(relu))
    tape = Tape()
    taped = build_taped_logits(tape, model, ops, x)
    assert np.array_equal(taped.value, logits)
    # each trace row is the energy of the linked iterate beside Fx (iterate 0) or ReLU(Fx)
    iterates, plain_layer = [], model_mod.layer

    def recorded(*args, **kwargs):
        iterates.append(plain_layer(*args, **kwargs))
        return iterates[-1]

    monkeypatch.setattr(model_mod, "layer", recorded)
    rows = descent_trace(x, model, ops)
    assert np.array_equal(iterates[-1], y[linked])
    for t, (row, y_linked) in enumerate(zip(rows, [fx[linked], *iterates])):
        y_t = fx.copy()
        y_t[linked] = y_linked
        if t:
            y_t[isolated] = relu
        want = energy_and_grad(y_t, fx, ref, model.params, "general")
        assert abs(row["energy"] - want.smooth) <= 1e-12 * abs(want.smooth), t
        norm = float(np.linalg.norm(want.grad))
        assert abs(row["grad_norm"] - norm) <= 1e-12 * norm, t
        assert row["feasible"] == want.feasible == (t > 0), t


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_passes_run_on_a_hypergraph_with_no_hyperedge(variant):
    # no node is linked (k = 0), and the passes take the path of any other graph:
    # Y is ReLU(Fx) bit for bit, the layers add nothing to the gradients, and the
    # trace reads the energy of Fx, 0, and then that of ReLU(Fx), ||min(Fx, 0)||^2
    n = 12
    cfg = ModelConfig(variant=variant, t_layers=3, d=8, alpha=0.01, lambda0=1.0, lambda1=1.0)
    model = init_model(cfg, 4, 3, seed=74)
    rng = rng_for(74)
    x, labels = rng.standard_normal((n, 4)), rng.integers(0, 3, n)
    ops = build_expansion_operators(Hypergraph.from_edges(n, []), 1.0, 1.0)
    assert ops.linked.size == 0 and ops.b.shape == (0, 0)
    fx = model.predictor.apply(x)
    relu = np.maximum(fx, 0.0)
    y, logits = forward(x, model, ops)
    assert np.array_equal(y, relu) and np.array_equal(logits, model.classifier.apply(relu))
    tape = Tape()
    taped = build_taped_logits(tape, model, ops, x)
    grads = backward(tape, tape.softmax_cross_entropy(taped, labels, np.arange(n)))
    assert np.array_equal(taped.value, logits)
    if variant == "general":
        assert not grads["h0"].any() and not grads["h1"].any()
    residual = np.minimum(fx, 0.0)
    assert residual.any()
    rows = descent_trace(x, model, ops)
    assert [row["energy"] for row in rows] == [0.0] + [float(np.vdot(residual, residual))] * cfg.t_layers
    assert [row["feasible"] for row in rows] == [False] + [True] * cfg.t_layers


def test_general_gradients_with_a_third_of_the_nodes_isolated_match_finite_differences():
    x, labels, model, ops, _ = isolated_third_problem(d=4)
    rows = np.arange(0, x.shape[0], 2)
    masks = [(rng_for(72).random(shape) > 0.3) / 0.7 for shape in (x.shape, (x.shape[0], 4))]

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x, *masks)
        return tape, tape.softmax_cross_entropy(logits, labels[rows], rows)

    report = check_gradients(build, model.parameters(), samples=40, step=1e-5, seed=71)
    assert report["passed"], report
    assert report["max_rel_err"] <= 1e-5


@pytest.mark.parametrize("variant", ["simple", "general"])
@pytest.mark.parametrize("rows", [7, 3], ids=["too-many-rows", "too-few-rows"])
def test_passes_reject_features_of_the_wrong_height(variant, rows):
    # 7 rows on 5 nodes would give 7 rows of logits, two of them never written, and
    # 3 rows an IndexError: each pass names both counts before it computes anything
    hg = Hypergraph.from_edges(5, [[0, 1, 2], [2, 3]])
    cfg = ModelConfig(variant=variant, t_layers=2, d=3, alpha=0.4, lambda0=1.0, lambda1=0.5)
    model = init_model(cfg, 4, 2, seed=75)
    ops = build_expansion_operators(hg, 1.0, 0.5)
    x = rng_for(75).standard_normal((rows, 4))
    message = f"the features have {rows} rows but the hypergraph has 5 nodes"
    for run in (lambda: forward(x, model, ops), lambda: build_taped_logits(Tape(), model, ops, x),
                lambda: descent_trace(x, model, ops)):
        with pytest.raises(ValueError, match=message):
            run()


def test_every_kernel_is_built_and_applied_on_the_linked_rows(monkeypatch):
    # forward, the taped pass and its backward, descent_trace and both step bounds
    # build each kernel on the k linked rows and apply it to k-row arrays: with
    # nodes isolated, no kernel of n rows exists
    bind, kernel = Propagation._bind, Propagation.kernel
    built, applied = [], []

    def recording_bind(self, *args):
        bind(self, *args)
        built.append((self.c.shape[0], *self.fwd[0].shape[:1], *self.adj[0].shape[:1]))

    def recording_kernel(self, v, *factors, out=None):
        applied.append(v.shape[0])
        return kernel(self, v, *factors, out=out)

    monkeypatch.setattr(Propagation, "_bind", recording_bind)
    monkeypatch.setattr(Propagation, "kernel", recording_kernel)
    x, labels, general, ops, _ = isolated_third_problem()
    k, n = ops.linked.size, ops.n
    assert k == 42 < n == 60
    simple = init_model(dataclasses.replace(general.config, variant="simple"), x.shape[1], 3, seed=76)
    for model in (simple, general):
        forward(x, model, ops)
        tape = Tape()
        backward(tape, tape.softmax_cross_entropy(build_taped_logits(tape, model, ops, x), labels, np.arange(n)))
        descent_trace(x, model, ops)
    assert step_bound_simple(ops).certificate == "rank"  # an isolated node: no kernel
    assert step_bound_general(ops, general.params).eig.iterations > 0
    assert len(built) == 2 * 3 + 1 and set(built) == {(k, k, k)}
    assert len(applied) > len(built) and set(applied) == {k}
    # the simple solve, on a set with m >= n and no isolated node, runs on its k = n rows
    built.clear(), applied.clear()
    ops = build_expansion_operators(Hypergraph.from_edges(6, [[i, j] for i in range(6) for j in range(i)]), 1.0, 0.5)
    assert step_bound_simple(ops).eig.iterations > 0
    assert built == [(6, 6, 6)] and set(applied) == {6}


# -- general layers by degree class ------------------------------------------------------


def class_problem(n, edges, rng, seed, variant="general"):
    """A model at ``d = 32`` and two layers on the hypergraph of ``edges``, with inputs
    and labels: ``(x, labels, model, ops, ref)``, ``ref`` the node-order reference.  A
    general model's ``H0``, ``H1`` are noisy."""
    d = 32
    cfg = ModelConfig(variant=variant, t_layers=2, d=d, alpha=0.4, lambda0=1.2, lambda1=0.7)
    model = init_model(cfg, 6, 3, seed=seed)
    if variant == "general":
        model.params.h0 += 0.2 * rng.standard_normal((d, d))
        model.params.h1 += 0.2 * rng.standard_normal((d, d))
    x = rng.standard_normal((n, 6)) + 0.3
    labels = rng.integers(0, 3, n)
    hg, lambdas = Hypergraph.from_edges(n, edges), (cfg.lambda0, cfg.lambda1)
    return x, labels, model, build_expansion_operators(hg, *lambdas), node_order_operators(hg, *lambdas)


def degree_class_problem(isolated_share, seed=81, variant="general"):
    """A model at ``d = 32``, general unless ``variant`` says otherwise, whose linked
    nodes form four degree classes.

    With ``max(d, 2^16 / d^2) = 64`` rows as the class threshold, the classes
    of 96 (edges of 4) and 64 rows (edges of 2) take their own products, and
    those of 63 (edges of 3) and 40 rows (two edges of 5 each) form the tail.
    No edge size class (24, 32, 21 and 16 edges) reaches the threshold.
    The linked nodes are spread over the node ids, among the isolated ones."""
    rng = rng_for(seed)
    k = 96 + 64 + 63 + 40
    n = int(round(k / (1.0 - isolated_share)))
    ids = rng.permutation(n)
    blocks = np.split(ids[:k], [96, 160, 223])
    edges = [e.tolist() for size, block in zip((4, 2, 3), blocks) for e in block.reshape(-1, size)]
    edges += [e.tolist() for block in (blocks[3], rng.permutation(blocks[3])) for e in block.reshape(-1, 5)]
    return class_problem(n, edges, rng, seed, variant)


def edge_class_problem(isolated_share, seed=83):
    """A general model at ``d = 32`` whose edges form three size classes.

    With 64 as the class threshold, the 64 edges of 2 nodes take their own
    product, and the 63 edges of 3 and the 16 of 5 form the edge tail.  The
    linked nodes form the degree classes of 189 rows (edges of 3), 128 rows
    (edges of 2) and 40 rows (two edges of 5 each), the last in the tail.
    The edges are listed in a random order, so the size classes interleave
    in ``B``'s columns, and the linked nodes are spread among the isolated ones."""
    rng = rng_for(seed)
    k = 128 + 189 + 40
    n = int(round(k / (1.0 - isolated_share)))
    ids = rng.permutation(n)
    blocks = np.split(ids[:k], [128, 317])
    edges = [e.tolist() for size, block in zip((2, 3), blocks) for e in block.reshape(-1, size)]
    edges += [e.tolist() for block in (blocks[2], rng.permutation(blocks[2])) for e in block.reshape(-1, 5)]
    return class_problem(n, [edges[i] for i in rng.permutation(len(edges))], rng, seed)


def assert_layer_matches_the_tail_only_kernel(x, model, linked, prop, plain):
    """One layer and its adjoint on ``prop`` within 1e-13 of the same on ``plain``, the
    kernel with the classes of ``prop`` put in the tail."""
    fx = model.predictor.apply(x)[linked]
    g = rng_for(82).standard_normal(fx.shape)
    kept, kept_plain = [], []
    out, want = layer(fx, prop.c * fx, prop, kept), layer(fx, plain.c * fx, plain, kept_plain)
    assert np.max(np.abs(out - want)) <= 1e-13 * np.max(np.abs(want))
    for got, ref in zip(layer_vjp(g.copy(), prop, kept), layer_vjp(g.copy(), plain, kept_plain)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def tail_only_kernel(monkeypatch, ops, model):
    """The layers' kernel of ``model`` on a fresh copy of ``ops`` with no class of either
    kind grouped: every row in the tail and every edge in the edge tail."""
    monkeypatch.setattr(energy, "_CLASS_WORK", float("inf"))
    plain = Propagation(dataclasses.replace(ops), model.params, "general", model.config.alpha)
    assert plain.classes == plain.edge_classes == [] and plain.tail == plain.edge_tail == 0
    return plain


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_degree_classes_of_the_threshold_take_their_own_products(monkeypatch, isolated_share):
    x, _, model, ops, _ = degree_class_problem(isolated_share)
    linked, isolated = ops.linked, ops.isolated
    assert isolated.size == ops.n - 263 and ops.classes.tolist() == [0, 96, 160, 223, 263]
    prop = Propagation(ops, model.params, "general", model.config.alpha)
    # a class of 64 rows takes its own product, one of 63 goes to the tail
    assert [(r.start, r.stop) for r, *_ in prop.classes] == [(0, 96), (96, 160)] and prop.tail == 160
    for a, b in zip(ops.classes[:-1], ops.classes[1:]):
        for name in ("c", "ca", "cb"):
            col = getattr(prop, name)[a:b]
            assert np.array_equal(col, np.full_like(col, col[0, 0])), name
    for rows, ca, cb, mg in prop.classes:
        assert ca == prop.ca[rows.start, 0] and cb == prop.cb[rows.start, 0]
        assert np.array_equal(mg, mg.T)
    # one layer and its adjoint, against the same kernel with every row in the tail
    assert_layer_matches_the_tail_only_kernel(x, model, linked, prop, tail_only_kernel(monkeypatch, ops, model))


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_edge_size_classes_of_the_threshold_take_their_own_products(monkeypatch, isolated_share):
    x, _, model, ops, _ = edge_class_problem(isolated_share)
    linked, isolated = ops.linked, ops.isolated
    assert isolated.size == ops.n - 357 and ops.classes.tolist() == [0, 189, 317, 357]
    assert ops.edge_classes.tolist() == [0, 64, 127, 143] and np.all(np.diff(ops.d_h) >= 0)
    prop = Propagation(ops, model.params, "general", model.config.alpha)
    assert [(r.start, r.stop) for r, *_ in prop.classes] == [(0, 189), (189, 317)] and prop.tail == 317
    # a class of 64 edges takes its own product, one of 63 goes to the edge tail
    assert [(r.start, r.stop) for r, *_ in prop.edge_classes] == [(0, 64)] and prop.edge_tail == 64
    for a, b in zip(ops.edge_classes[:-1], ops.edge_classes[1:]):
        col = prop.e[a:b]
        assert np.array_equal(col, np.full_like(col, col[0, 0]))
    for rows, e_s, ns in prop.edge_classes:
        assert e_s == prop.e[rows.start, 0] == model.config.lambda1 / 2.0
        assert np.array_equal(ns, ns.T)
    # one layer and its adjoint, against the same kernel with every row and edge in the tails
    assert_layer_matches_the_tail_only_kernel(x, model, linked, prop, tail_only_kernel(monkeypatch, ops, model))
    # the adjoint against the oracle that reads P, whose reductions mirror the per-class Z_s
    fx = model.predictor.apply(x)[linked]
    g = rng_for(84).standard_normal(fx.shape)
    kept, kept_oracle = [], []
    assert np.array_equal(layer(fx, prop.c * fx, prop, kept), layer_keeping_mask_and_p(fx, prop.c * fx, prop, kept_oracle))
    for got, want in zip(layer_vjp(g.copy(), prop, kept), layer_vjp_reading_p(g.copy(), prop, kept_oracle)):
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_no_edge_class_keeps_the_edge_side_products_and_their_arrays():
    # no size class reaches the threshold: the edge-side product is, bit for bit,
    # P M0 + e * (P M1) on every edge in one expression, and its arrays take no
    # more memory at their peak than that expression's temporaries
    x, _, model, ops, _ = degree_class_problem(0.3)
    prop = Propagation(ops, model.params, "general", model.config.alpha)
    assert prop.classes and prop.edge_classes == [] and prop.edge_tail == 0
    fx = model.predictor.apply(x)[ops.linked]
    g = rng_for(85).standard_normal(fx.shape)
    # the adjoint's reductions are the oracle's P^T S and P^T (e * S) on every edge
    kept, kept_oracle = [], []
    layer(fx, prop.c * fx, prop, kept)
    layer_keeping_mask_and_p(fx, prop.c * fx, prop, kept_oracle)
    for got, want in zip(layer_vjp(g.copy(), prop, kept), layer_vjp_reading_p(g.copy(), prop, kept_oracle)):
        assert got.tobytes() == want.tobytes()

    def peak(f, *args):
        tracemalloc.start()
        try:
            out = f(*args)
            return out, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for v, factors in ((fx, prop.fwd), (g, prop.adj)):
        (got, got_p), got_peak = peak(prop.kernel, v, *factors)
        (want, want_p), want_peak = peak(products_every_edge_in_the_tail, prop, v, *factors)
        assert got.tobytes() == want.tobytes() and got_p.tobytes() == want_p.tobytes()
        assert got_peak <= want_peak, (got_peak, want_peak)


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_layer_constants_are_built_once_per_operator_set(variant, monkeypatch):
    # what H0 and H1 leave alone is built once per (variant, alpha, d) and kept,
    # read-only, on the operators; each pass forms its d x d matrices anew
    x, _, model, ops, _ = degree_class_problem(0.3, variant=variant)
    cfg = model.config
    first = Propagation(ops, model.params, variant, cfg.alpha)
    assert list(ops.kernels) == [(variant, cfg.alpha, cfg.d)]
    built, init = [], sp.csr_matrix.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self))
        init(self, *args, **kwargs)

    with monkeypatch.context() as patch:
        for kind in (sp.csr_matrix, sp.csc_matrix):
            patch.setattr(kind, "__init__", counted)
        second = Propagation(ops, model.params, variant, cfg.alpha)
    assert built == [] and list(ops.kernels) == [(variant, cfg.alpha, cfg.d)]
    shared = ["c", "fwd", "adj", "groups", "edge_groups"]
    if variant == "general":
        shared += ["ca", "cb", "e", "ca_wide", "cb_wide", "e_wide"]
        assert first.groups and second.a0 is not first.a0 and np.array_equal(second.a0, first.a0)
    for name in shared:
        assert getattr(second, name) is getattr(first, name), name
    # the cached arrays, the scaled factor's included, cannot be written
    arrays = [v for v in ops.kernels[variant, cfg.alpha, cfg.d].values() if isinstance(v, np.ndarray)]
    for a in (*arrays, first.fwd[0].data):
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = 1.0
    # another alpha, d or variant is another entry, with a factor of its own
    other = "simple" if variant == "general" else "general"
    for args in ((model.params, variant, 0.5 * cfg.alpha), (EnergyParams.identity(8), variant, cfg.alpha),
                 (model.params, other, cfg.alpha)):
        assert Propagation(ops, *args).fwd[0] is not first.fwd[0]
    assert sorted(ops.kernels) == sorted([(variant, cfg.alpha, cfg.d), (variant, 0.5 * cfg.alpha, cfg.d),
                                          (variant, cfg.alpha, 8), (other, cfg.alpha, cfg.d)])
    # an H0 changed in place, as check_gradients perturbs it, reaches the next pass
    before = forward(x, model, ops)[1]
    model.params.h0.ravel()[5] += 0.25
    got, want = forward(x, model, ops)[1], forward(x, model, dataclasses.replace(ops))[1]
    assert got.tobytes() == want.tobytes()
    assert (got.tobytes() != before.tobytes()) == (variant == "general")


def assert_pass_matches_the_node_order_pass(problem):
    """``forward``, the taped logits, loss and gradients and ``descent_trace`` on the
    operators within 1e-13 of the same passes on the node-order reference."""
    x, labels, model, ops, ref = problem
    rows = np.arange(0, x.shape[0], 2)

    def passes(ops):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x)
        loss = tape.softmax_cross_entropy(logits, labels[rows], rows)
        grads = backward(tape, loss)
        return forward(x, model, ops), logits.value, float(loss.value), grads, descent_trace(x, model, ops)

    def close(a, b, rtol=1e-13):
        return np.max(np.abs(np.asarray(a) - b)) <= rtol * np.max(np.abs(b))

    (y, logits), taped, loss, grads, trace = passes(ops)
    assert np.array_equal(taped, logits)
    y_node_wise = fx = model.predictor.apply(x)
    for _ in range(model.config.t_layers):
        y_node_wise = messagepassing_layer(y_node_wise, fx, ref, model.params, model.config.alpha)
    assert close(y, y_node_wise, 1e-12)
    (y_ref, logits_ref), taped_ref, loss_ref, grads_ref, trace_ref = passes(ref)
    assert close(y, y_ref) and close(logits, logits_ref) and close(taped, taped_ref)
    assert abs(loss - loss_ref) <= 1e-13 * abs(loss_ref)
    for name in grads_ref:
        assert close(grads[name], grads_ref[name]), name
    for row, ref in zip(trace, trace_ref):
        assert abs(row["energy"] - ref["energy"]) <= 1e-13 * abs(ref["energy"])
        assert abs(row["grad_norm"] - ref["grad_norm"]) <= 1e-13 * ref["grad_norm"]


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_general_pass_by_degree_class_equals_the_node_order_pass(isolated_share):
    assert_pass_matches_the_node_order_pass(degree_class_problem(isolated_share))


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_general_pass_by_edge_size_class_equals_the_node_order_pass(isolated_share):
    assert_pass_matches_the_node_order_pass(edge_class_problem(isolated_share))


def test_simple_pass_on_the_linked_nodes_equals_the_node_order_pass():
    x, _, model, ops, _ = problem = degree_class_problem(0.3, variant="simple")
    isolated = ops.isolated
    assert isolated.size == ops.n - 263
    y, _ = forward(x, model, ops)
    assert np.array_equal(y[isolated], np.maximum(model.predictor.apply(x)[isolated], 0.0))
    assert_pass_matches_the_node_order_pass(problem)


def assert_gradients_match_finite_differences(problem):
    x, labels, model, ops, _ = problem
    rows = np.arange(0, x.shape[0], 2)

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x)
        return tape, tape.softmax_cross_entropy(logits, labels[rows], rows)

    report = check_gradients(build, model.parameters(), samples=20, step=1e-5, seed=81)
    assert report["passed"], report


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_general_gradients_by_degree_class_match_finite_differences(isolated_share):
    assert_gradients_match_finite_differences(degree_class_problem(isolated_share))


@pytest.mark.parametrize("isolated_share", [0.3, 0.0])
def test_general_gradients_by_edge_size_class_match_finite_differences(isolated_share):
    assert_gradients_match_finite_differences(edge_class_problem(isolated_share))


def dgemm_calls_in_depth(problem, calls, one_layer, adjoint):
    """Check the ``dgemm`` (or ``_matmul``) calls, recorded into ``calls``, of ``forward`` and of the
    taped pass and its backward at several depths: ``one_layer`` per layer and
    ``adjoint`` per layer's adjoint, so that ``count(2T) - count(T) = T count(one layer)``."""
    x, labels, model, ops, _ = problem
    rows = np.arange(x.shape[0])

    def count(t_layers, taped):
        model.config.t_layers = t_layers
        calls.clear()
        if taped:
            tape = Tape()
            backward(tape, tape.softmax_cross_entropy(build_taped_logits(tape, model, ops, x), labels, rows))
        else:
            forward(x, model, ops)
        return list(calls)

    assert count(1, False) == one_layer
    assert count(1, True) == one_layer + adjoint  # the layer, then its adjoint
    for taped in (False, True):
        per_layer = one_layer + adjoint if taped else one_layer
        t_calls, t2_calls = count(3, taped), count(6, taped)
        assert len(t2_calls) - len(t_calls) == 3 * len(per_layer)
        assert t2_calls == one_layer * 6 + adjoint * 6 * taped


def test_general_layer_cost_is_one_product_per_class_and_two_on_the_tail(monkeypatch):
    # the dgemm calls of a pass, by their row counts; every count is linear in depth
    calls = record_dgemm(monkeypatch)
    d = 32
    one_layer = [((d, d), (d, rows)) for rows in (96, 64, 103, 103)]  # the two classes, then A0 and A1 on the tail
    dgemm_calls_in_depth(degree_class_problem(0.3), calls, one_layer, one_layer)  # the adjoint's dY


def test_general_layer_cost_is_one_product_per_edge_size_class(monkeypatch):
    # a layer: the size class's N_s, the degree classes' M_g, then A0 and A1 on the
    # tail; the edge tail takes numpy's products.  Its adjoint: the same for dY
    calls = record_dgemm(monkeypatch)
    d = 32
    one_layer = [((d, d), (d, rows)) for rows in (64, 189, 128, 40, 40)]
    dgemm_calls_in_depth(edge_class_problem(0.3), calls, one_layer, one_layer)



@pytest.mark.parametrize("problem, tail, classes, edge_tail, edge_classes", [
    (degree_class_problem, 103, (96, 64), 93, ()),
    (edge_class_problem, 40, (189, 128), 79, (64,)),
], ids=["degree-classes", "edge-size-classes"])
def test_general_layer_numpy_products_are_two_per_kernel_and_one_per_class_in_the_adjoint(
        monkeypatch, problem, tail, classes, edge_tail, edge_classes):
    # a kernel call: P M1 and P M0 on the edge tail.  An adjoint: its kernel's two, then
    # Y^T (cb g) and Y^T (ca g) on the row tail, Z_g per degree class, P^T S and
    # P^T (e S) on the edge tail, Z_s per size class, and the d x d products of dH0
    # and dH1: 8 + G + E for G degree and E size classes.  The trace runs a kernel
    # per iterate, a step bound's solve one per application; the simple variant makes none
    calls = record_matmul(monkeypatch)
    d = 32

    def reduction(rows):
        return (d, rows), (rows, d)

    kernel = [((edge_tail, d), (d, d))] * 2
    adjoint = kernel + [reduction(tail)] * 2 + [reduction(r) for r in classes]
    adjoint += [reduction(edge_tail)] * 2 + [reduction(r) for r in edge_classes] + [((d, d), (d, d))] * 2
    assert len(adjoint) == 8 + len(classes) + len(edge_classes)
    x, labels, model, ops, _ = instance = problem(0.3)
    dgemm_calls_in_depth(instance, calls, kernel, adjoint)
    calls.clear()
    descent_trace(x, model, ops, 3)
    assert calls == kernel * 4
    calls.clear()
    bound = step_bound_general(ops, model.params)  # the layers' classes: a kernel's products per application
    assert bound.eig.iterations > 0 and calls == kernel * bound.eig.iterations
    simple = init_model(dataclasses.replace(model.config, variant="simple"), x.shape[1], 3, seed=88)
    calls.clear()
    tape = Tape()
    backward(tape, tape.softmax_cross_entropy(build_taped_logits(tape, simple, ops, x), labels, np.arange(len(x))))
    assert calls == []

@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "tail-only"])
@pytest.mark.parametrize("variant", ["simple", "general"])
def test_kernel_adds_base_into_its_output(monkeypatch, variant, grouped):
    # kernel(v, ..., base) starts its output from base and sums the products into it,
    # where kernel(v, ...) + base adds base last: the two agree within 4 ulps of the
    # largest entry, in a layer's kernel call and in its adjoint's
    if not grouped:
        monkeypatch.setattr(energy, "_CLASS_WORK", float("inf"))
    x, _, model, ops, _ = degree_class_problem(0.3, variant=variant)
    prop = Propagation(ops, model.params, variant, model.config.alpha)
    assert len(prop.classes) == (2 if grouped and variant == "general" else 0)
    fx = model.predictor.apply(x)[ops.linked]
    rng = rng_for(89)
    for v, factors in ((fx, prop.fwd), (rng.standard_normal(fx.shape), prop.adj)):
        base = rng.standard_normal(fx.shape)
        got, p = prop.kernel(v, *factors, base)
        want, want_p = prop.kernel(v, *factors)
        want += base
        assert p.tobytes() == want_p.tobytes()
        assert np.max(np.abs(got - want)) <= 4 * np.spacing(np.max(np.abs(want)))


def test_simple_taped_layer_allocates_its_output_mask_and_edge_product_alone():
    # one simple layer with a kept list, handed its input as the output, as forward
    # hands it: the m x d edge-side product B^T Y, freed when the kernel returns,
    # then the k x d bool mask; the step is written over Y, with no k x d float array
    x, _, model, ops, _ = degree_class_problem(0.3, variant="simple")
    prop = Propagation(ops, model.params, "simple", model.config.alpha)
    fx = model.predictor.apply(x)[ops.linked]
    c_fx, (k, d), m = prop.c * fx, fx.shape, ops.b.shape[1]
    want = layer(fx.copy(), c_fx, prop)
    kept = []
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = layer(fx, c_fx, prop, kept, out=fx)
        held, peak = (t - start for t in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert out is fx and out.tobytes() == want.tobytes()
    assert kept[0].dtype == np.bool_ and kept[0].shape == out.shape == (k, d)
    assert k * d <= held <= k * d + 1024
    assert max(8 * m * d, k * d) <= peak <= max(8 * m * d, k * d) + 1024


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_kernel_writes_over_its_input_only_when_simple(variant):
    # a simple kernel handed out=v returns v, holding what a new output would hold,
    # bit for bit, in a layer's kernel call and in its adjoint's; a general kernel's
    # class products read v while they write the output, so it refuses out=v and
    # leaves v as it was
    x, _, model, ops, _ = degree_class_problem(0.3, variant=variant)
    prop = Propagation(ops, model.params, variant, model.config.alpha)
    assert len(prop.classes) == (2 if variant == "general" else 0)
    fx = model.predictor.apply(x)[ops.linked]
    rng = rng_for(92)
    for v, factors in ((fx, prop.fwd), (rng.standard_normal(fx.shape), prop.adj)):
        base, before = prop.c * rng.standard_normal(fx.shape), v.copy()
        want, want_p = prop.kernel(v, *factors, base)
        if variant == "general":
            with pytest.raises(ValueError, match="a general kernel cannot write its output over its input"):
                prop.kernel(v, *factors, base, out=v)
            assert v.tobytes() == before.tobytes()
        else:
            got, p = prop.kernel(v, *factors, base, out=v)
            assert got is v and got.tobytes() == want.tobytes() and p.tobytes() == want_p.tobytes()


@pytest.mark.parametrize("edges", [True, False], ids=["linked", "no-hyperedge"])
@pytest.mark.parametrize("masked", [False, True], ids=["no-dropout", "dropout"])
@pytest.mark.parametrize("t_layers", [1, 2, 3, 16])
def test_simple_pass_in_place_matches_the_out_of_place_oracle_bitwise(monkeypatch, t_layers, masked, edges):
    # a simple pass writes each layer over its input and each adjoint over its
    # gradient: Y, the untaped and the taped logits and every gradient are, bit for
    # bit, those of the same pass with a new array per layer; the caller's features
    # and masks are not written, and a second run gives the first one's bits
    import phenomnn.model as model_mod

    x, labels, model, ops, _ = degree_class_problem(0.3, variant="simple")
    model.config.t_layers = t_layers
    if not edges:
        ops = build_expansion_operators(Hypergraph.from_edges(len(x), []), ops.lambda0, ops.lambda1)
    rng = rng_for(93)
    masks = (None, None)
    if masked:
        masks = ((rng.random(x.shape) > 0.3) / 0.7, (rng.random((len(x), model.config.d)) > 0.3) / 0.7)
    inputs = [a for a in (x, *masks) if a is not None]
    before = [a.copy() for a in inputs]
    rows = np.arange(0, len(x), 2)

    def run():
        y, logits = forward(x, model, ops, *masks)
        tape = Tape()
        taped = build_taped_logits(tape, model, ops, x, *masks)
        grads = backward(tape, tape.softmax_cross_entropy(taped, labels[rows], rows))
        return [y, logits, taped.value, *(grads[name] for name in model.parameters())]

    got, again = run(), run()
    with monkeypatch.context() as patch:
        patch.setattr(model_mod, "layer", layer_out_of_place)
        patch.setattr(model_mod, "layer_vjp", layer_vjp_out_of_place)
        want = run()
    assert len(got) == len(want) == 7 and 0.0 < (got[0] == 0.0).mean() < 1.0
    for a, b, c in zip(got, again, want):
        assert a.tobytes() == b.tobytes() == c.tobytes()
    for a, b in zip(inputs, before):
        assert a.tobytes() == b.tobytes()


def test_u_term_enters_each_row_once_through_m_g_or_the_first_write(monkeypatch):
    # u * V rides in each grouped class's M_g; the rows past the classes, and every
    # row of the simple kernel, take it in the output's first write.  So a kernel at
    # u, less the same kernel at u = 0, is u * V on every row to rounding, where a
    # u term missed or added twice would leave 0 or 2u * V
    d = 32

    def u_once(x, model, ops):
        """The tail offset of the layers' kernel of ``model``, after checking that ``u`` enters
        each row once in a layer's kernel call and in its adjoint's."""
        cfg = model.config
        prop = Propagation(ops, model.params, cfg.variant, cfg.alpha)
        at_zero = Propagation.__new__(Propagation)
        at_zero._bind(Propagation._constants(ops, cfg.variant, cfg.alpha / ops.d_tilde, 0.0, d), model.params, 1.0)
        fx = model.predictor.apply(x)[ops.linked]
        for v, name in ((fx, "fwd"), (rng_for(86).standard_normal(fx.shape), "adj")):
            got, plain = prop.kernel(v, *getattr(prop, name))[0], at_zero.kernel(v, *getattr(at_zero, name))[0]
            assert np.max(np.abs(got - plain - prop.u * v)) <= 1e-13 * max(np.max(np.abs(got)), np.max(np.abs(plain)))
        for rows, ca, cb, mg in prop.classes:
            assert np.max(np.abs(mg - ca * prop.a0 - cb * prop.a1 - prop.u * np.eye(d))) <= 1e-15
        return prop.tail

    # the degree classes of 96 rows (edges of 4) and 64 rows (edges of 2) hold every linked row
    rng = rng_for(87)
    ids = rng.permutation(229)
    edges = [e.tolist() for size, block in zip((4, 2), np.split(ids[:160], [96])) for e in block.reshape(-1, size)]
    x, _, model, ops, _ = class_problem(229, edges, rng, 87)
    assert ops.classes.tolist() == [0, 96, 160]
    assert u_once(x, model, ops) == 160
    # the tail of 103 rows after the classes of 96 and 64
    x, _, model, ops, ref = degree_class_problem(0.3)
    assert u_once(x, model, ops) == 160
    # the simple kernel on the 263 linked rows and on node-order operators, whose
    # layers make no dgemm and keep a k x d mask each
    cfg = ModelConfig(variant="simple", t_layers=2, d=d, alpha=0.4, lambda0=1.2, lambda1=0.7)
    simple = init_model(cfg, 6, 3, seed=86)
    k = ops.linked.size
    assert k == 263 < ops.n
    assert u_once(x, simple, ops) == u_once(x, simple, ref) == 0
    shapes = record_dgemm(monkeypatch)
    kept = {}
    forward(x, simple, ops, kept=kept)
    assert shapes == []
    assert [(mask.shape, mask.dtype) for mask, in kept["layers"]] == [((k, d), np.bool_)] * cfg.t_layers


# -- step bounds -----------------------------------------------------------------------


def forbid_kernels_and_solves(monkeypatch):
    """Make building a step bound's kernel, or running its eigensolver, raise."""
    import phenomnn.model as model_mod

    def refuse(*args, **kwargs):
        raise AssertionError("this certificate needs no kernel and no solve")

    monkeypatch.setattr(Propagation, "_at", refuse)
    monkeypatch.setattr(model_mod, "extreme_eigenvalue", refuse)


def test_step_bound_trivial_is_one(monkeypatch):
    # lambda0 = lambda1 = 0, and no hyperedge: both bounds know the zero
    # operator before they build a kernel, whatever H0 and H1 are
    rng = rng_for(9300)
    params = EnergyParams(np.eye(2) + 0.2 * rng.standard_normal((2, 2)), np.eye(2) + 0.2 * rng.standard_normal((2, 2)))
    forbid_kernels_and_solves(monkeypatch)
    for hg, lambdas in (Hypergraph.from_edges(3, [[0, 1], [1, 2]]), (0.0, 0.0)), (Hypergraph.from_edges(4, []), (1.3, 0.7)):
        ops = build_expansion_operators(hg, *lambdas)
        for got in step_bound_simple(ops), step_bound_general(ops, params):
            assert (got.value, got.sigma, got.certificate, got.eig.iterations) == (1.0, 0.0, "trivial", 0)


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
    ops = inst["linked_ops"]
    assert ops.isolated.size == 0
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
def test_step_bound_simple_singular_needs_no_solve(monkeypatch, n, edges):
    hg = Hypergraph.from_edges(n, edges)
    ops = build_expansion_operators(hg, 1.3, 0.7)
    # the dense oracle agrees that K is singular
    k = 1.3 * build_clique(hg)[0].toarray() + 0.7 * build_star_normalized(hg)[0].toarray()
    assert abs(np.linalg.eigvalsh(k)[0]) <= 1e-12
    forbid_kernels_and_solves(monkeypatch)
    got = step_bound_simple(ops)
    assert got.sigma == 0.0 and got.value == 1.0
    assert got.eig.iterations == 0
    assert got.certificate == "rank"


def _dense_general_bound(hg, ops, params):
    """Step bound from the materialised curvature operator (row-major vec of V) over every
    node, at the weights of ``ops``."""
    d = params.d
    s = 0.5 * ops.lambda0
    g0, s0 = params.h0 @ params.h0.T, params.h0 + params.h0.T
    g1, s1 = params.h1 @ params.h1.T, params.h1 + params.h1.T
    (a_c, d_c), (a_s, d_s) = build_clique(hg), build_star_normalized(hg)
    a_c, a_s = a_c.toarray(), a_s.toarray()
    op = s * (np.kron(np.diag(d_c), g0.T) - np.kron(a_c, s0.T))
    op += ops.lambda1 * (np.kron(np.diag(d_s), g1.T) - np.kron(a_s, s1.T) + np.kron(a_s, np.eye(d)))
    sigma_max = float(np.linalg.eigvalsh((op + op.T) / 2.0)[-1])
    numer = 1.0 + ops.lambda0 * d_c.min() + ops.lambda1 * d_s.min()
    return numer / (1.0 + s * d_c.min() + sigma_max)


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
    params = EnergyParams(h0, h1)
    want = _dense_general_bound(hg, ops, params)
    got = step_bound_general(ops, params)
    assert got.value <= want * (1.0 + 1e-12)
    assert abs(got.value - want) <= 1e-8 * want
    assert got.certificate == "lanczos" and got.eig.converged


def test_step_bound_general_unconverged_uses_lift(monkeypatch):
    import phenomnn.model as model_mod
    from phenomnn.linalg import EigenResult

    inst = random_instance(7, n=6, m=4, d=3, h_noise=0.2)
    ops, params = inst["ops"], inst["params"]  # ops: the node-order reference, for its degrees
    stuck = EigenResult(value=0.5, residual=1e-3, converged=False, iterations=5000)
    monkeypatch.setattr(model_mod, "extreme_eigenvalue", lambda *args, **kwargs: stuck)
    got = step_bound_general(inst["linked_ops"], params)
    s = 0.5 * ops.lambda0

    def norm(m):
        return np.linalg.norm(m, 2)

    h0, h1 = params.h0, params.h1
    lift = s * ops.d_c.max() * (norm(h0 @ h0.T) + norm(h0 + h0.T)) + ops.lambda1 * ops.d_s_bar.max() * (
        norm(h1 @ h1.T) + norm(h1 + h1.T) + 1.0
    )
    numer = 1.0 + ops.lambda0 * ops.d_c.min() + ops.lambda1 * ops.d_s_bar.min()
    assert abs(got.sigma - lift) <= 1e-12 * lift
    assert abs(got.value - numer / (1.0 + s * ops.d_c.min() + lift)) <= 1e-12
    assert got.certificate == "norm-bound" and got.eig is stuck


def test_step_bound_general_sigma_matches_dense_operator():
    inst = random_instance(7, n=6, m=4, d=3, h_noise=0.2)
    ops, params = inst["ops"], inst["params"]  # ops: the node-order reference, for its degrees
    n, d = 6, 3
    s = 0.5 * ops.lambda0
    h0g, h0s = params.h0 @ params.h0.T, params.h0 + params.h0.T
    h1g, h1s = params.h1 @ params.h1.T, params.h1 + params.h1.T
    a_c, a_s = build_clique(inst["hg"])[0].toarray(), build_star_normalized(inst["hg"])[0].toarray()

    def apply(v):
        m = v.reshape(n, d)
        out = s * (np.diag(ops.d_c) @ m @ h0g - a_c @ m @ h0s)
        out += ops.lambda1 * (np.diag(ops.d_s_bar) @ m @ h1g - a_s @ m @ h1s + a_s @ m)
        return out.ravel()

    dense = np.column_stack([apply(col) for col in np.eye(n * d)])
    sigma_max = float(np.linalg.eigvalsh((dense + dense.T) / 2.0)[-1])
    got = step_bound_general(inst["linked_ops"], params)
    assert abs(got.sigma - sigma_max) <= 1e-8
    numer = 1.0 + ops.lambda0 * ops.d_c.min() + ops.lambda1 * ops.d_s_bar.min()
    denom = 1.0 + s * ops.d_c.min() + sigma_max
    assert abs(got.value - numer / denom) <= 1e-8


def hypergraph_with_isolated_nodes(rng, n, isolated, m):
    """A random hypergraph of ``m`` edges on ``n`` nodes, ``isolated`` of which, at random
    ids, are in none (and maybe more, if the edges miss a node)."""
    hg = random_hypergraph(rng, n - isolated, m)
    ids = rng.permutation(n)
    return Hypergraph.from_edges(n, [ids[e].tolist() for e in hyperedges(hg)])


@pytest.mark.parametrize("seed, isolated", [(9301, 0), (9302, 4), (9303, 15)])
def test_step_bound_general_solves_on_the_linked_rows(monkeypatch, seed, isolated):
    # the isolated rows are zero rows and columns of the operator: the solve runs
    # on k * d entries, and the bound is the dense one over every node
    import phenomnn.model as model_mod

    rng = rng_for(seed)
    n, d = 30, 3
    hg = hypergraph_with_isolated_nodes(rng, n, isolated, 60)
    ops = build_expansion_operators(hg, float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0)))
    k = ops.linked.size
    assert (k == n) == (isolated == 0) and k <= n - isolated
    params = EnergyParams(np.eye(d) + 0.2 * rng.standard_normal((d, d)), np.eye(d) + 0.2 * rng.standard_normal((d, d)))
    sizes, solve = [], model_mod.extreme_eigenvalue

    def recording(apply, size, *args, **kwargs):
        sizes.append(size)
        return solve(apply, size, *args, **kwargs)

    monkeypatch.setattr(model_mod, "extreme_eigenvalue", recording)
    got = step_bound_general(ops, params)
    assert sizes == [k * d]
    want = _dense_general_bound(hg, ops, params)
    assert got.value <= want * (1.0 + 1e-12)
    assert abs(got.value - want) <= 1e-8 * want
    assert got.certificate == "lanczos" and got.eig.converged


def test_step_bound_general_isolated_rows_add_the_eigenvalue_zero():
    # singleton edges at H0 = I and lambda1 = 0: the linked block is
    # -(lambda0 / 2) diag(d_C) (x) I, negative definite, so the largest
    # eigenvalue over every node is the isolated node's 0
    hg = Hypergraph.from_edges(4, [[0], [1], [2], [2]])
    ops = build_expansion_operators(hg, 1.0, 0.0)
    params = EnergyParams.identity(2)
    got = step_bound_general(ops, params)
    assert got.eig.value < 0.0 and got.sigma == 0.0 and got.certificate == "lanczos"
    want = _dense_general_bound(hg, ops, params)
    assert abs(got.value - want) <= 1e-8 * want


@pytest.mark.parametrize("n", [3, 4], ids=["no-isolated", "one-isolated"])
def test_step_bound_general_takes_zero_over_a_negative_ritz_value_when_a_node_is_isolated(monkeypatch, n):
    import phenomnn.model as model_mod
    from phenomnn.linalg import EigenResult

    hg = Hypergraph.from_edges(n, [[0, 1], [1, 2], [0, 2]])
    ritz = EigenResult(value=-0.3, residual=1e-3, converged=True, iterations=5)
    monkeypatch.setattr(model_mod, "extreme_eigenvalue", lambda *args, **kwargs: ritz)
    got = step_bound_general(build_expansion_operators(hg, 1.0, 0.5), EnergyParams.identity(2))
    sigma = -0.3 + 1e-3 if n == 3 else 0.0
    ops = node_order_operators(hg, 1.0, 0.5)  # the degrees of every node
    numer = 1.0 + ops.lambda0 * float(ops.d_c.min()) + ops.lambda1 * float(ops.d_s_bar.min())
    assert got.sigma == sigma and got.certificate == "lanczos" and got.eig is ritz
    assert got.value == numer / (1.0 + 0.5 * ops.lambda0 * float(ops.d_c.min()) + sigma)


def criterion_3_and_benchmark_bound_problems(monkeypatch):
    """``(ops, params, bounds)``: the 20 hypergraphs of the criterion-3 test with its
    compatibility matrices and both bounds, then the benchmark's three graphs with
    the initial model and the bound each workload times."""
    for _, ops, h0, h1, _ in criterion_3_problems():
        yield ops, EnergyParams(h0, h1), ("simple", "general")
    workloads = load_workloads(monkeypatch)
    for w in workloads.WORKLOADS.values():
        g = workloads.generate(w, 1)
        ops = build_expansion_operators(Hypergraph.from_edges(g.features.shape[0], g.edges), w.lambda0, w.lambda1)
        cfg = ModelConfig(variant=w.variant, t_layers=w.t_layers, d=w.d, alpha=w.alpha, lambda0=w.lambda0,
                          lambda1=w.lambda1)
        model = init_model(cfg, g.features.shape[1], int(g.labels.max()) + 1, seed=workloads.STRUCTURE_SEED)
        yield ops, model.params, (w.bound,)


def test_step_bounds_skip_the_zero_u_pass_and_keep_their_values(monkeypatch):
    # the bounds' kernels run at u = 0, where out += 0 * v changes at most the
    # sign of an exact zero: every bound is, bit for bit, the one with that pass
    # (their kernels have no degree class, so the pass covers every row)
    kernel = Propagation.kernel

    def daxpy_always(self, v, left, right):
        out, p = kernel(self, v, left, right)
        daxpy(v.ravel(), out.ravel(), a=self.u)
        return out, p

    def bounds(ops, params, kinds):
        return [step_bound_simple(ops) if k == "simple" else step_bound_general(ops, params) for k in kinds]

    solved = 0
    for ops, params, kinds in criterion_3_and_benchmark_bound_problems(monkeypatch):
        got = bounds(ops, params, kinds)
        with monkeypatch.context() as patch:
            patch.setattr(Propagation, "kernel", daxpy_always)
            want = bounds(ops, params, kinds)
        for a, b in zip(got, want):
            assert (a.value, a.sigma, a.certificate, a.eig.iterations) == (b.value, b.sigma, b.certificate, b.eig.iterations)
            solved += a.eig.iterations > 0
    assert solved >= 20


def test_monotone_descent_both_variants():
    for seed in range(5):
        inst = random_instance(seed + 70, n=40, m=20, d=6, h_noise=0.05)
        ops, params = inst["ops"], inst["params"]
        rng = inst["rng"]
        fx = rng.standard_normal((40, 6))

        bound = step_bound_general(inst["linked_ops"], params)
        prop = Propagation(ops, params, "general", 0.9 * bound.value)
        y = prox_nonneg(fx)
        prev = energy_and_grad(y, fx, ops, params, "general").smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_and_grad(y, fx, ops, params, "general").smooth
            assert e <= prev + 1e-9 * abs(prev)
            prev = e

        alpha = 0.9 * step_bound_simple(inst["linked_ops"]).value
        ps = EnergyParams.identity(6)
        prop = Propagation(ops, ps, "simple", alpha)
        y = prox_nonneg(fx)
        prev = energy_and_grad(y, fx, ops, ps, "simple").smooth
        for _ in range(100):
            y = layer(y, prop.c * fx, prop)
            e = energy_and_grad(y, fx, ops, ps, "simple").smooth
            assert e <= prev + 1e-9 * abs(prev)
            prev = e


def test_fixed_point_approach_and_uniqueness():
    for seed in range(3):
        inst = random_instance(seed + 80, n=30, m=15, d=4, lam_hi=1.5)
        ops = inst["ops"]
        rng = inst["rng"]
        fx = rng.standard_normal((30, 4))
        alpha = 0.9 * step_bound_simple(inst["linked_ops"]).value
        prop = Propagation(ops, EnergyParams.identity(4), "simple", alpha)

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
        SyntheticSpec(nodes_per_community=150, edges=200, feature_dim=16, seed=9)
    )
    ops = build_expansion_operators(ds.hypergraph, 1.0, 1.0)

    models = {
        t: init_model(ModelConfig(variant="simple", t_layers=t, d=32, alpha=0.5, lambda0=1.0, lambda1=1.0), 16,
                      ds.n_classes, seed=9)
        for t in (16, 32)
    }

    def timed(t_layers):
        t0 = time.perf_counter()
        forward(ds.features, models[t_layers], ops)
        return time.perf_counter() - t0

    timed(16), timed(32)  # warmup
    # Alternate the depths, so that a burst of load from other processes on the
    # machine slows runs of both depths rather than only the deeper ones.
    runs = [(timed(16), timed(32)) for _ in range(3)]
    assert min(r[1] for r in runs) <= 2.5 * min(r[0] for r in runs)


# -- checkpoints -----------------------------------------------------------------------


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(variant="general", t_layers=3, d=5, alpha=0.2, lambda0=1.5, lambda1=0.7)
    model = init_model(cfg, 4, 3, seed=11)
    path = tmp_path / "ck.json"
    save_checkpoint(model, str(path))
    loaded = load_checkpoint(str(path))
    assert loaded.config == model.config
    assert np.array_equal(loaded.predictor.w, model.predictor.w)
    assert np.array_equal(loaded.predictor.b, model.predictor.b)
    assert np.array_equal(loaded.classifier.w, model.classifier.w)
    assert np.array_equal(loaded.classifier.b, model.classifier.b)
    assert np.array_equal(loaded.params.h0, model.params.h0)
    assert np.array_equal(loaded.params.h1, model.params.h1)
    second = tmp_path / "ck2.json"
    save_checkpoint(loaded, str(second))
    assert path.read_bytes() == second.read_bytes()


def _checkpoint(tmp_path):
    """A general model and the file ``save_checkpoint`` writes for it."""
    model = init_model(ModelConfig(variant="general", t_layers=3, d=4, alpha=0.3, lambda0=1.0, lambda1=0.5),
                       3, 2, seed=14)
    path = tmp_path / "ck.json"
    save_checkpoint(model, path)
    return model, path


def test_checkpoint_of_format_v1_is_rejected_by_name(tmp_path):
    # a v1 file stored the predictor as one-layer weights/biases lists, and might hold
    # relu_mode and strict_alpha: it is refused by its format, before any key is read
    model, path = _checkpoint(tmp_path)
    payload = json.loads(path.read_text())
    payload["format"] = "phenomnn-checkpoint-v1"
    payload["config"].update(relu_mode="every_step", strict_alpha=False)
    payload["predictor"] = {"weights": [model.predictor.w.tolist()], "biases": [model.predictor.b.tolist()]}
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"not a recognized checkpoint: {path} is not a phenomnn-checkpoint-v2 file"


@pytest.mark.parametrize("key, value, message", [
    ("t_layers", 2.5, "config key 't_layers' must be an integer, got 2.5"),
    ("alpha", "0.1", "config key 'alpha' must be a finite number, got '0.1'"),
    ("d", True, "config key 'd' must be an integer, got True"),
])
def test_checkpoint_config_of_the_wrong_type_is_rejected(tmp_path, key, value, message):
    # 2.5 layers would fail inside forward, "0.1" in a comparison, "False"
    # would read as true, and true as a width of 1
    _, path = _checkpoint(tmp_path)
    payload = json.loads(path.read_text())
    payload["config"][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("key", ["variant", "t_layers", "d", "alpha", "lambda0", "lambda1"])
def test_checkpoint_config_without_a_field_is_rejected(tmp_path, key):
    # every ModelConfig field has a default, which must not stand in for a missing value
    _, path = _checkpoint(tmp_path)
    payload = json.loads(path.read_text())
    del payload["config"][key]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: checkpoint has no key '{key}'"


@pytest.mark.parametrize("key, value, message", [
    ("lambda0", -1.0, "lambda0 must be nonnegative and finite, got -1.0"),
    ("lambda1", -0.5, "lambda1 must be nonnegative and finite, got -0.5"),
    ("alpha", 0.0, "alpha must be positive and finite, got 0.0"),
])
def test_checkpoint_config_out_of_range_names_the_file_and_key(tmp_path, key, value, message):
    _, path = _checkpoint(tmp_path)
    payload = json.loads(path.read_text())
    payload["config"][key] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {message}"


@pytest.mark.parametrize("variant", ["simple", "general"])
@pytest.mark.parametrize("key, value", [("h0", float("nan")), ("classifier.w", float("inf")),
                                        ("predictor.b0", -float("inf"))])
def test_checkpoint_with_a_non_finite_value_names_the_file_and_key(tmp_path, variant, key, value):
    # the simple variant never reads h0, and an infinite weight gives NaN logits
    cfg = ModelConfig(variant=variant, t_layers=2, d=4, alpha=0.3, lambda0=1.0, lambda1=0.5)
    path = tmp_path / "ck.json"
    save_checkpoint(init_model(cfg, 3, 2, seed=15), path)
    payload = json.loads(path.read_text())
    if key == "h0":
        payload["h0"][1][2] = value
    elif key == "classifier.w":
        payload["classifier"]["w"][0][1] = value
    else:
        payload["predictor"]["b"][3] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {key} holds a non-finite value"
