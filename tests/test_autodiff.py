import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from phenomnn.autodiff import Tape, backward, check_gradients
from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.energy import EnergyParams
from phenomnn.hypergraph import Hypergraph, build_expansion_operators
from phenomnn.model import ModelConfig, Propagation, build_taped_logits, forward, init_model, layer, layer_vjp
from helpers import random_hypergraph, rel_err, rng_for


def small_problem(seed=0, variant="general", t_layers=2, noise=0.5, relu_mode="every_step"):
    ds = generate_synthetic(
        SyntheticSpec(nodes_per_community=8, num_edges=8, edge_size_min=2, edge_size_max=4,
                      feature_dim=4, noise_std=noise, seed=seed)
    )
    cfg = ModelConfig(
        variant=variant, t_layers=t_layers, d=5, alpha=0.4, lambda0=1.2, lambda1=0.8, relu_mode=relu_mode
    )
    model = init_model(cfg, 4, ds.n_classes, seed=seed)
    ops = build_expansion_operators(ds.hypergraph, cfg.lambda0, cfg.lambda1)
    rows = ds.split_indices("train")
    return ds, cfg, model, ops, rows


def taped_loss(model, ops, ds, rows):
    tape = Tape()
    logits = build_taped_logits(tape, model, ops, ds.features)
    loss = tape.softmax_cross_entropy(logits, ds.labels[rows], rows)
    return tape, loss


# -- primitives ------------------------------------------------------------------


def test_matmul_chain_matches_finite_differences():
    rng = rng_for(0)
    a0 = rng.standard_normal((2, 2))
    b0 = rng.standard_normal((2, 2))

    def run(a_arr, b_arr):
        tape = Tape()
        a = tape.leaf(a_arr, name="a")
        b = tape.leaf(b_arr, name="b")
        out = tape.matmul(tape.matmul(a, b), a)
        # reduce to a scalar through a fixed linear functional
        w = tape.constant(np.full((2, 2), 0.37))
        loss = tape.softmax_cross_entropy(
            tape.matmul(out, w), np.array([0, 1]), np.array([0, 1])
        )
        return tape, loss

    tape, loss = run(a0, b0)
    grads = backward(tape, loss)
    h = 1e-6
    for name, arr in (("a", a0), ("b", b0)):
        fd = np.zeros_like(arr)
        for i in range(2):
            for j in range(2):
                arr[i, j] += h
                _, lp = run(a0, b0)
                arr[i, j] -= 2 * h
                _, lm = run(a0, b0)
                arr[i, j] += h
                fd[i, j] = (float(lp.value) - float(lm.value)) / (2 * h)
        assert rel_err(grads[name], fd) <= 1e-7


def test_relu_backward_positive_passthrough():
    tape = Tape()
    x = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), name="x")
    y = tape.relu(x)
    loss = tape.softmax_cross_entropy(y, np.array([0, 1]), np.array([0, 1]))
    g_relu = backward(tape, loss)["x"]

    tape2 = Tape()
    x2 = tape2.leaf(np.array([[1.0, 2.0], [3.0, 4.0]]), name="x")
    loss2 = tape2.softmax_cross_entropy(x2, np.array([0, 1]), np.array([0, 1]))
    g_plain = backward(tape2, loss2)["x"]
    assert np.array_equal(g_relu, g_plain)


def test_relu_matches_prox_nonneg_bitwise():
    from phenomnn.energy import prox_nonneg

    a = np.array([[np.nan, -np.inf, -1.0, -0.0, 0.0, 2.0, np.inf]])
    tape = Tape()
    taped = tape.relu(tape.constant(a)).value
    untaped = prox_nonneg(a)
    assert taped.tobytes() == untaped.tobytes()


def test_relu_subgradient_zero_at_zero():
    tape = Tape()
    x = tape.leaf(np.array([[0.0, 1.0]]), name="x")
    y = tape.relu(x)
    loss = tape.softmax_cross_entropy(y, np.array([1]), np.array([0]))
    g = backward(tape, loss)["x"]
    assert g[0, 0] == 0.0


def test_softmax_cross_entropy_closed_form_gradient():
    rng = rng_for(1)
    logits_arr = rng.standard_normal((4, 3))
    labels = np.array([2, 0, 1, 2])
    rows = np.arange(4)
    tape = Tape()
    logits = tape.leaf(logits_arr, name="logits")
    loss = tape.softmax_cross_entropy(logits, labels, rows)
    g = backward(tape, loss)["logits"]
    shifted = logits_arr - logits_arr.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    onehot = np.eye(3)[labels]
    assert np.max(np.abs(g - (probs - onehot) / 4.0)) <= 1e-12


def test_primitive_shape_validation():
    tape = Tape()
    a = tape.leaf(np.zeros((2, 3)), name="a")
    b = tape.leaf(np.zeros((2, 3)), name="b")
    with pytest.raises(ValueError):
        tape.matmul(a, b)
    with pytest.raises(ValueError):
        tape.mul_const(a, np.ones(5))


# -- backward -------------------------------------------------------------------------


def test_constant_loss_gives_zero_gradients():
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)), name="w")
    loss = tape.constant(np.float64(3.0))
    grads = backward(tape, loss)
    assert np.array_equal(grads["w"], np.zeros((2, 2)))


def test_disconnected_parameter_gets_zero_gradient():
    tape = Tape()
    used = tape.leaf(rng_for(2).standard_normal((3, 2)), name="used")
    unused = tape.leaf(np.ones((4, 4)), name="unused")
    loss = tape.softmax_cross_entropy(used, np.array([0, 1, 0]), np.arange(3))
    grads = backward(tape, loss)
    assert np.array_equal(grads["unused"], np.zeros((4, 4)))
    assert np.any(grads["used"] != 0.0)


def test_backward_requires_scalar_loss_on_same_tape():
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)), name="w")
    y = tape.relu(w)
    with pytest.raises(ValueError, match="scalar"):
        backward(tape, y)
    other = Tape()
    w2 = other.leaf(np.ones((2, 2)), name="w")
    loss2 = other.softmax_cross_entropy(w2, np.array([0, 1]), np.arange(2))
    with pytest.raises(ValueError, match="tape"):
        backward(tape, loss2)


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_finished_tape_is_freed_without_cycle_collector(variant):
    ds, _, model, ops, rows = small_problem(variant=variant)
    gc.disable()
    try:
        tape, loss = taped_loss(model, ops, ds, rows)
        backward(tape, loss)
        ref = weakref.ref(tape)
        del tape
        # reference counting alone frees it; the loss node outlives it
        assert ref() is None
        assert loss.tape is None
    finally:
        gc.enable()


def test_unrolled_mlp_matches_hand_chain_rule():
    # one propagation layer with zero expansion weights is h(ReLU(f(X; W)))
    ds, cfg, model, ops, rows = small_problem(seed=3, variant="simple", t_layers=1)
    model.config.alpha = 1.0
    model.params.alpha = 1.0
    ops0 = build_expansion_operators(ds.hypergraph, 0.0, 0.0)
    model.config.lambda0 = model.config.lambda1 = 0.0
    tape = Tape()
    logits = build_taped_logits(tape, model, ops0, ds.features)
    labels = ds.labels[rows]
    loss = tape.softmax_cross_entropy(logits, labels, rows)
    grads = backward(tape, loss)

    x = ds.features
    w1, b1 = model.predictor.weights[0], model.predictor.biases[0]
    w2, b2 = model.classifier.w, model.classifier.b
    fx = x @ w1 + b1[None, :]
    y = np.maximum(fx, 0.0)
    lg = y @ w2 + b2[None, :]
    sel = lg[rows]
    shifted = sel - sel.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    delta = probs.copy()
    delta[np.arange(rows.size), labels] -= 1.0
    dlogits = np.zeros_like(lg)
    dlogits[rows] = delta / rows.size
    dw2 = y.T @ dlogits
    db2 = dlogits.sum(axis=0)
    dy = dlogits @ w2.T
    dfx = dy * (fx > 0.0)
    dw1 = x.T @ dfx
    db1 = dfx.sum(axis=0)
    for name, want in (
        ("classifier.w", dw2),
        ("classifier.b", db2),
        ("predictor.w0", dw1),
        ("predictor.b0", db1),
    ):
        assert np.max(np.abs(grads[name] - want)) <= 1e-10


@pytest.mark.parametrize(
    "variant, relu_mode",
    [("simple", "every_step"), ("general", "every_step"), ("simple", "end_only"), ("general", "end_only")],
    ids=["simple", "general", "simple-end_only", "general-end_only"],
)
def test_full_model_gradients_match_finite_differences(variant, relu_mode):
    # oracle agreement across 5 random seeds per variant and ReLU mode
    for seed in range(5):
        ds, cfg, model, ops, rows = small_problem(seed=seed, variant=variant, relu_mode=relu_mode)
        params = model.parameters()
        report = check_gradients(
            lambda p: taped_loss(model, ops, ds, rows), params, samples=40, step=1e-5, seed=seed
        )
        assert report["passed"], report
        assert report["max_rel_err"] <= 1e-5


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_forward_matches_plain_forward(variant):
    # training optimizes the taped pass while evaluation uses the plain one;
    # without dropout the two must compute the same logits
    from phenomnn.model import forward

    ds, cfg, model, ops, rows = small_problem(seed=11, variant=variant, t_layers=3)
    tape = Tape()
    taped = build_taped_logits(tape, model, ops, ds.features).value
    _, plain = forward(ds.features, model, ops)
    assert np.max(np.abs(taped - plain)) <= 1e-9 * max(1.0, np.abs(plain).max())


@pytest.mark.parametrize("relu_mode", ["every_step", "end_only"])
@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_forward_equals_plain_forward_bitwise(variant, relu_mode):
    # both paths run the same layer on the same constants, so without dropout
    # the logits agree to the last bit
    ds, cfg, model, ops, rows = small_problem(seed=12, variant=variant, t_layers=3, relu_mode=relu_mode)
    taped = build_taped_logits(Tape(), model, ops, ds.features).value
    _, plain = forward(ds.features, model, ops)
    assert taped.tobytes() == plain.tobytes()


def edge_case_hypergraph():
    # node 11 belongs to no edge and edge [4] has a single member
    return Hypergraph.from_edges(12, [[0, 1, 2], [2, 3], [4], [5, 6, 7, 8], [8, 9, 10], [1, 9]])


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_gradients_match_finite_differences_isolated_node_and_singleton_edge(variant):
    hg = edge_case_hypergraph()
    rng = rng_for(13)
    x = rng.standard_normal((hg.n, 4))
    labels = rng.integers(0, 3, hg.n)
    rows = np.arange(hg.n)
    cfg = ModelConfig(variant=variant, t_layers=3, d=5, alpha=0.4, lambda0=1.2, lambda1=0.8)
    model = init_model(cfg, 4, 3, seed=13)
    ops = build_expansion_operators(hg, cfg.lambda0, cfg.lambda1)

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x)
        return tape, tape.softmax_cross_entropy(logits, labels, rows)

    report = check_gradients(build, model.parameters(), samples=40, step=1e-5, seed=13)
    assert report["passed"], report
    assert report["max_rel_err"] <= 1e-5


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_layer_adjoint_passes_dot_product_test(variant):
    # <g, J v> = <J^T g, v> for the pre-ReLU step's derivative in Y, Fx, H0, H1
    hg = edge_case_hypergraph()
    ops = build_expansion_operators(hg, 1.3, 0.7)
    rng = rng_for(17)
    n, d = hg.n, 4
    h0 = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    h1 = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    y, fx, g, vy, vfx = (rng.standard_normal((n, d)) for _ in range(5))
    v0, v1 = rng.standard_normal((d, d)), rng.standard_normal((d, d))

    def step(y_, fx_, h0_=h0, h1_=h1):
        prop = Propagation(ops, EnergyParams(h0_, h1_, 1.3, 0.7, 0.45), variant)
        return layer(y_, prop.c * fx_, prop, apply_relu=False)

    prop = Propagation(ops, EnergyParams(h0, h1, 1.3, 0.7, 0.45), variant)
    kept = []
    layer(y, prop.c * fx, prop, apply_relu=False, kept=kept)
    grads = layer_vjp(g, prop, kept)
    zero = np.zeros((n, d))
    # the step is linear in (Y, Fx)
    pairs = [(step(vy, zero), grads[0], vy), (step(zero, vfx), grads[1], vfx)]
    if variant == "general":
        # and quadratic in each H, so a central difference of step 1 is exact
        pairs.append(((step(y, fx, h0_=h0 + v0) - step(y, fx, h0_=h0 - v0)) / 2.0, grads[2], v0))
        pairs.append(((step(y, fx, h1_=h1 + v1) - step(y, fx, h1_=h1 - v1)) / 2.0, grads[3], v1))
    assert len(grads) == len(pairs)
    for jv, jtg, v in pairs:
        lhs, rhs = float(np.sum(g * jv)), float(np.sum(jtg * v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_forward_keeps_only_what_the_adjoint_reads(variant):
    # four more layers may keep four more of each layer's saved arrays: the
    # ReLU mask, plus Y_t and P_t = B^T Y_t in the general variant
    n, m, d = 2000, 400, 16
    rng = rng_for(19)
    ops = build_expansion_operators(random_hypergraph(rng, n, m), 1.0, 1.0)
    x = rng.standard_normal((n, 8))

    def kept_bytes(t_layers):
        cfg = ModelConfig(variant=variant, t_layers=t_layers, d=d, alpha=0.3, lambda0=1.0, lambda1=1.0)
        model = init_model(cfg, 8, 3, seed=19)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            logits = build_taped_logits(tape, model, ops, x)
            return tracemalloc.get_traced_memory()[0] - before
        finally:
            del tape, logits
            tracemalloc.stop()

    per_layer = n * d + (8 * n * d + 8 * m * d if variant == "general" else 0)
    bookkeeping = 1024  # per layer: the tape node, its Var, the adjoint's closure and array headers
    assert kept_bytes(6) - kept_bytes(2) <= 4 * (per_layer + bookkeeping)


def test_backward_is_bitwise_deterministic():
    ds, cfg, model, ops, rows = small_problem(seed=5)
    tape, loss = taped_loss(model, ops, ds, rows)
    g1 = backward(tape, loss)
    g2 = backward(tape, loss)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_tape_grows_linearly_with_depth():
    counts = []
    for t_layers in (2, 4, 8):
        ds, cfg, model, ops, rows = small_problem(seed=6, t_layers=t_layers)
        tape, _ = taped_loss(model, ops, ds, rows)
        counts.append(len(tape.ops))
    assert counts[1] - counts[0] == (counts[2] - counts[1]) // 2
    per_layer = (counts[1] - counts[0]) // 2
    assert per_layer > 0


# -- check_gradients -----------------------------------------------------------------


def test_check_gradients_identity_toy():
    rng = rng_for(7)
    x = rng.standard_normal((6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    w0 = rng.standard_normal((3, 3))

    def build(params):
        tape = Tape()
        w = tape.leaf(params["w"], name="w")
        logits = tape.matmul(tape.constant(x), w)
        return tape, tape.softmax_cross_entropy(logits, labels, np.arange(6))

    report = check_gradients(build, {"w": w0}, samples=9, step=1e-6)
    assert report["passed"]
    assert report["max_rel_err"] <= 1e-9


def test_check_gradients_detects_corrupted_adjoint(monkeypatch):
    import phenomnn.model as model_mod

    original = model_mod.layer_vjp

    def corrupted(g, prop, kept):
        dy, *rest = original(g, prop, kept)
        return (1.7 * dy, *rest)

    monkeypatch.setattr(model_mod, "layer_vjp", corrupted)
    ds, cfg, model, ops, rows = small_problem(seed=8, variant="simple", t_layers=2)
    params = model.parameters()
    report = check_gradients(
        lambda p: taped_loss(model, ops, ds, rows), params, samples=30, step=1e-5
    )
    monkeypatch.setattr(model_mod, "layer_vjp", original)
    assert not report["passed"]
    assert report["max_rel_err"] >= 1e-2
