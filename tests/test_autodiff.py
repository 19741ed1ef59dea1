import gc
import tracemalloc
import weakref
from functools import partial

import numpy as np
import pytest

from phenomnn.autodiff import GRADIENT_THRESHOLD, Tape, backward, check_gradients
from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.energy import EnergyParams
from phenomnn.hypergraph import Hypergraph, build_expansion_operators
from phenomnn.model import (
    ModelConfig,
    Propagation,
    _pass_vjp,
    build_taped_logits,
    forward,
    init_model,
    layer,
    layer_vjp,
)
from helpers import random_hypergraph, rel_err, rng_for
from oracles import cross_entropy, layer_keeping_mask_and_p, layer_vjp_reading_p, pass_vjp_scaling_each_layer


def small_problem(seed=0, variant="general", t_layers=2, noise=0.5):
    ds = generate_synthetic(
        SyntheticSpec(nodes_per_community=8, edges=8, edge_size_min=2, edge_size_max=4,
                      feature_dim=4, noise_std=noise, seed=seed)
    )
    cfg = ModelConfig(variant=variant, t_layers=t_layers, d=5, alpha=0.4, lambda0=1.2, lambda1=0.8)
    model = init_model(cfg, 4, ds.n_classes, seed=seed)
    ops = build_expansion_operators(ds.hypergraph, cfg.lambda0, cfg.lambda1)
    rows = ds.split_indices("train")
    return ds, cfg, model, ops, rows


def taped_loss(model, ops, ds, rows):
    tape = Tape()
    logits = build_taped_logits(tape, model, ops, ds.features)
    loss = tape.softmax_cross_entropy(logits, ds.labels[rows], rows)
    return tape, loss


def matmul(tape, a, b):
    """``a @ b`` as a node with a hand-written adjoint, for tests of the tape itself."""
    av, bv = a.value, b.value
    return tape.node(av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))


def times_constant(tape, a, c):
    """``a @ c`` for a constant ``c``: a node whose one input is ``a``."""
    av = a.value
    return tape.node(av @ c, (a,), lambda g: (g @ c.T,))


def add_rowvec(tape, a, b):
    """``a + b`` with ``b`` broadcast across rows; its adjoint passes ``g`` through to ``a``."""
    return tape.node(a.value + b.value[None, :], (a, b), lambda g: (g, g.sum(axis=0)))


# -- primitives ------------------------------------------------------------------


def test_matmul_chain_matches_finite_differences():
    rng = rng_for(0)
    a0 = rng.standard_normal((2, 2))
    b0 = rng.standard_normal((2, 2))

    def run(a_arr, b_arr):
        tape = Tape()
        a = tape.leaf(a_arr, name="a")
        b = tape.leaf(b_arr, name="b")
        out = matmul(tape, matmul(tape, a, b), a)
        # reduce to a scalar through a fixed linear functional
        loss = tape.softmax_cross_entropy(
            times_constant(tape, out, np.full((2, 2), 0.37)), np.array([0, 1]), np.array([0, 1])
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
    # the taped loss is the metric's cross entropy, bitwise
    assert float(loss.value) == cross_entropy(logits_arr, labels, rows)
    wide = 30.0 * rng.standard_normal((50, 7))
    some = rng.choice(50, size=20, replace=False)
    some_labels = rng.integers(0, 7, size=20)
    tape = Tape()
    taped = tape.softmax_cross_entropy(tape.leaf(wide, name="wide"), some_labels, some)
    assert float(taped.value) == cross_entropy(wide, some_labels, some)


def test_primitive_shape_validation():
    # the loss is the one primitive the tape keeps: it needs a nonempty row
    # set and one label per row
    tape = Tape()
    a = tape.leaf(np.zeros((4, 3)), name="a")
    with pytest.raises(ValueError, match="empty row set"):
        tape.softmax_cross_entropy(a, np.array([], dtype=np.int64), np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="rows and labels must align"):
        tape.softmax_cross_entropy(a, np.array([0, 1]), np.arange(3))


# -- backward -------------------------------------------------------------------------


def test_constant_loss_gives_zero_gradients():
    tape = Tape()
    w = tape.leaf(np.ones((2, 2)), name="w")
    loss = tape.node(np.float64(3.0), (), lambda g: ())
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
    y = matmul(tape, w, w)
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
    ops0 = build_expansion_operators(ds.hypergraph, 0.0, 0.0)
    model.config.lambda0 = model.config.lambda1 = 0.0
    tape = Tape()
    logits = build_taped_logits(tape, model, ops0, ds.features)
    labels = ds.labels[rows]
    loss = tape.softmax_cross_entropy(logits, labels, rows)
    grads = backward(tape, loss)

    x = ds.features
    w1, b1 = model.predictor.w, model.predictor.b
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


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_full_model_gradients_match_finite_differences(variant):
    # oracle agreement across 5 random seeds per variant
    for seed in range(5):
        ds, cfg, model, ops, rows = small_problem(seed=seed, variant=variant)
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


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_forward_equals_plain_forward_bitwise(variant):
    # both paths run the same layer on the same constants, so without dropout
    # the logits agree to the last bit
    ds, cfg, model, ops, rows = small_problem(seed=12, variant=variant, t_layers=3)
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
    # <g, J v> = <J^T g, v> for the pre-ReLU step's derivative in Y, c_fx, H0, H1
    hg = edge_case_hypergraph()
    ops = build_expansion_operators(hg, 1.3, 0.7)
    rng = rng_for(17)
    n, d = ops.b.shape[0], 4  # the linked rows, which every layer runs on
    h0 = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    h1 = np.eye(d) + 0.3 * rng.standard_normal((d, d))
    y, fx, g, vy, vfx = (rng.standard_normal((n, d)) for _ in range(5))
    v0, v1 = rng.standard_normal((d, d)), rng.standard_normal((d, d))

    def step(y_, c_fx_, h0_=h0, h1_=h1):
        prop = Propagation(ops, EnergyParams(h0_, h1_), variant, 0.45)
        return prop.kernel(y_, *prop.fwd)[0] + c_fx_

    prop = Propagation(ops, EnergyParams(h0, h1), variant, 0.45)
    kept = []
    # the pre-ReLU step: c_fx is lifted so that every output entry passes the mask
    c_fx = prop.c * fx
    c_fx += 1.0 - step(y, c_fx).min()
    assert layer(y, c_fx, prop, kept).min() > 0.0
    grads = layer_vjp(g.copy(), prop, kept)  # the adjoint writes into the gradient it is handed
    zero = np.zeros((n, d))
    # the step is linear in (Y, c_fx)
    pairs = [(step(vy, zero), grads[0], vy), (step(zero, vfx), grads[1], vfx)]
    if variant == "general":
        # and quadratic in each H, so a central difference of step 1 is exact
        pairs.append(((step(y, c_fx, h0_=h0 + v0) - step(y, c_fx, h0_=h0 - v0)) / 2.0, grads[2], v0))
        pairs.append(((step(y, c_fx, h1_=h1 + v1) - step(y, c_fx, h1_=h1 - v1)) / 2.0, grads[3], v1))
    assert len(grads) == len(pairs)
    for jv, jtg, v in pairs:
        lhs, rhs = float(np.sum(g * jv)), float(np.sum(jtg * v))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def taped_bytes(ops, x, variant, t_layers, d=16):
    """The bytes a taped pass of ``t_layers`` layers keeps alive until its tape is freed."""
    cfg = ModelConfig(variant=variant, t_layers=t_layers, d=d, alpha=0.3, lambda0=1.0, lambda1=1.0)
    model = init_model(cfg, x.shape[1], 3, seed=19)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x)
        return tracemalloc.get_traced_memory()[0] - before
    finally:
        del tape, logits
        tracemalloc.stop()


# per layer: the tape node, its Var, the adjoint's closure and array headers
BOOKKEEPING = 1024


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_forward_keeps_only_what_the_adjoint_reads(variant):
    # four more layers may keep four more of each layer's saved arrays: the
    # ReLU mask in the simple variant, and in the general one Y_t alone, as
    # Y_{t+1} is the next layer's Y (or the classifier's input)
    n, m, d = 2000, 400, 16
    rng = rng_for(19)
    ops = build_expansion_operators(random_hypergraph(rng, n, m), 1.0, 1.0)
    x = rng.standard_normal((n, 8))
    per_layer = 8 * n * d if variant == "general" else n * d
    taped_bytes(ops, x, variant, 2)  # the first pass also counts one-time allocations, whatever tests ran before
    assert taped_bytes(ops, x, variant, 6) - taped_bytes(ops, x, variant, 2) <= 4 * (per_layer + BOOKKEEPING)


def pass_and_backward_peak(ops, x, labels, t_layers, d=16):
    """The peak bytes of a simple taped pass of ``t_layers`` layers and its ``backward``."""
    cfg = ModelConfig(variant="simple", t_layers=t_layers, d=d, alpha=0.3, lambda0=1.0, lambda1=1.0)
    model = init_model(cfg, x.shape[1], 3, seed=19)
    rows = np.arange(x.shape[0])
    tracemalloc.start()
    try:
        tape = Tape()
        backward(tape, tape.softmax_cross_entropy(build_taped_logits(tape, model, ops, x), labels, rows))
        return tracemalloc.get_traced_memory()[1]
    finally:
        del tape
        tracemalloc.stop()


def test_simple_pass_and_backward_keep_no_float_array_per_layer():
    # each simple layer writes over its input, and each adjoint but the last layer's
    # over its gradient, so more layers add their k x d bool masks to the peak and no
    # k x d float array: a new array per layer, alive beside its input, raises the
    # peak by 8kd bytes from the second layer on (the last layer's adjoint, the
    # sweep's first, takes dY in a new array at any depth)
    n, m, d = 2000, 400, 16
    rng = rng_for(29)
    ops = build_expansion_operators(random_hypergraph(rng, n, m), 1.0, 1.0)
    x, labels = rng.standard_normal((n, 8)), rng.integers(0, 3, n)
    k = ops.linked.size
    pass_and_backward_peak(ops, x, labels, 2)  # the first pass also counts one-time allocations
    peak = {t: pass_and_backward_peak(ops, x, labels, t) for t in (1, 2, 16)}
    assert peak[16] - peak[2] <= 14 * k * d + 65536
    assert peak[2] - peak[1] <= k * d + 65536 < 8 * k * d


def test_general_taped_forward_keeps_only_the_linked_rows():
    # with 30% of the nodes in no hyperedge, spread among the others, a general
    # layer keeps Y_t on the k linked rows alone
    n, d = 2000, 16
    rng = rng_for(20)
    isolated = rng.choice(n, size=600, replace=False)
    linked = rng.permutation(np.setdiff1d(np.arange(n), isolated))
    edges = [linked[i : i + 5].tolist() for i in range(0, linked.size - 1, 4)]
    ops = build_expansion_operators(Hypergraph.from_edges(n, edges), 1.0, 1.0)
    k = ops.linked.size
    assert k == 1400 and ops.isolated.min() < ops.linked.max()
    x = rng.standard_normal((n, 8))
    taped_bytes(ops, x, "general", 2)
    assert taped_bytes(ops, x, "general", 6) - taped_bytes(ops, x, "general", 2) <= 4 * (8 * k * d + BOOKKEEPING)


def test_layer_adjoint_allocates_only_dy():
    # with a ReLU mask in the general variant, the mask is written into g, which
    # is returned as the c_fx gradient, and ca * g, cb * g and e * B^T R, R = c * g,
    # into the kernel's work arrays; what is left is dY plus at most four m x d
    # arrays: the kernel's B^T R and Q, then B^T R with the rebuilt P = B^T Y; a
    # layer runs on the n linked rows
    m, d = 400, 16
    rng = rng_for(23)
    ops = build_expansion_operators(random_hypergraph(rng, 2000, m), 1.0, 1.0)
    n = ops.b.shape[0]
    h0, h1 = (np.eye(d) + 0.1 * rng.standard_normal((d, d)) for _ in range(2))
    prop = Propagation(ops, EnergyParams(h0, h1), "general", 0.3)
    y, fx, g = (rng.standard_normal((n, d)) for _ in range(3))
    kept = []
    out = layer(y, prop.c * fx, prop, kept)
    assert 0.0 < (out > 0.0).mean() < 1.0
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        grads = layer_vjp(g, prop, kept)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert grads[1] is g
    assert peak <= 8 * n * d + 4 * 8 * m * d + 1024


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_layer_adjoint_matches_the_kept_mask_oracle_bitwise(variant):
    # the general adjoint rebuilds the mask as out > 0 and P = B^T Y; both must
    # be, bit for bit, the mask and P the forward computed, exact zeros included
    rng = rng_for(43)
    d = 6
    ops = build_expansion_operators(random_hypergraph(rng, 40, 12), 1.1, 0.9)
    n = ops.b.shape[0]  # the linked rows, which every layer runs on
    h0, h1 = (np.eye(d) + 0.3 * rng.standard_normal((d, d)) for _ in range(2))
    prop = Propagation(ops, EnergyParams(h0, h1), variant, 0.5)
    y, fx, g = (rng.standard_normal((n, d)) for _ in range(3))
    kept, kept_oracle = [], []
    out = layer(y, prop.c * fx, prop, kept)
    assert out.tobytes() == layer_keeping_mask_and_p(y, prop.c * fx, prop, kept_oracle).tobytes()
    assert 0.0 < (out == 0.0).mean() < 1.0
    got = layer_vjp(g.copy(), prop, kept)
    want = layer_vjp_reading_p(ops, g.copy(), prop, kept_oracle)
    assert len(got) == len(want) == (4 if variant == "general" else 2)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_taped_pass_with_dropout_masks_matches_the_kept_mask_oracle_bitwise(variant, monkeypatch):
    import phenomnn.model as model_mod

    ds, cfg, model, ops, rows = small_problem(seed=9, variant=variant, t_layers=3)
    rng = rng_for(47)
    input_mask = (rng.random(ds.features.shape) > 0.3) / 0.7
    feature_mask = (rng.random((ds.features.shape[0], cfg.d)) > 0.3) / 0.7

    def gradients():
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, ds.features, input_mask, feature_mask)
        return backward(tape, tape.softmax_cross_entropy(logits, ds.labels[rows], rows))

    got = gradients()
    monkeypatch.setattr(model_mod, "layer", layer_keeping_mask_and_p)
    monkeypatch.setattr(model_mod, "layer_vjp", partial(layer_vjp_reading_p, ops))
    want = gradients()
    assert sorted(got) == sorted(want) == sorted(model.parameters())
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name


def test_backward_sums_fan_out_gradients_in_place():
    # x feeds two matmuls and an add_rowvec; the add_rowvec is recorded last,
    # so its pass-through gradient reaches x first and the matmuls' are summed into it
    k = 5
    rng = rng_for(29)
    xv, wv, bv = rng.standard_normal((k, k)), rng.standard_normal((k, k)), rng.standard_normal(k)
    labels, rows = rng.integers(0, k, 4), np.array([0, 2, 3, 4])
    tape = Tape()
    x, w, b = tape.leaf(xv, name="x"), tape.leaf(wv, name="w"), tape.leaf(bv, name="b")
    a = matmul(tape, x, w)
    c = matmul(tape, a, x)
    z = add_rowvec(tape, x, b)
    loss = tape.softmax_cross_entropy(matmul(tape, z, c), labels, rows)
    grads = backward(tape, loss)

    av = xv @ wv
    cv, zv = av @ xv, xv + bv[None, :]
    sel = (zv @ cv)[rows]
    probs = np.exp(sel - sel.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(rows.size), labels] -= 1.0
    dl = np.zeros((k, k))
    dl[rows] = probs / rows.size
    dz, dc = dl @ cv.T, zv.T @ dl
    da = dc @ xv.T
    expected = {"x": dz + av.T @ dc + da @ wv.T, "w": xv.T @ da, "b": dz.sum(axis=0)}
    for name, value in expected.items():
        np.testing.assert_allclose(grads[name], value, rtol=1e-12, atol=1e-14)
    for var, value in ((x, xv), (w, wv), (b, bv)):
        assert np.array_equal(var.value, value)


def isolated_problem(variant, n=30, t_layers=3, d=5, seed=59):
    """A model on a hypergraph of edges of sizes 2 to 5 that leave a third of its
    ``n`` nodes in no hyperedge, with both dropout masks and node labels."""
    rng = rng_for(seed)
    isolated = rng.choice(n, size=n // 3, replace=False)
    linked = rng.permutation(np.setdiff1d(np.arange(n), isolated))
    edges = [linked[i : i + 4].tolist() for i in range(0, linked.size - 1, 3)]
    edges += [rng.choice(linked, size=s, replace=False).tolist() for s in (2, 3, 5)]
    cfg = ModelConfig(variant=variant, t_layers=t_layers, d=d, alpha=0.4, lambda0=1.2, lambda1=0.8)
    model = init_model(cfg, 4, 3, seed=seed)
    ops = build_expansion_operators(Hypergraph.from_edges(n, edges), cfg.lambda0, cfg.lambda1)
    assert ops.isolated.size == n // 3
    x = rng.standard_normal((n, 4))
    masks = ((rng.random((n, 4)) > 0.3) / 0.7, (rng.random((n, cfg.d)) > 0.3) / 0.7)
    return model, ops, x, masks, rng.integers(0, 3, n)


@pytest.mark.parametrize("variant", ["simple", "general"])
def test_masked_pass_matches_finite_differences(variant):
    # the dropout masks are constants of the pass, on the isolated rows and the linked ones
    model, ops, x, masks, labels = isolated_problem(variant)
    rows = np.arange(x.shape[0])

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x, *masks)
        return tape, tape.softmax_cross_entropy(logits, labels, rows)

    report = check_gradients(build, model.parameters(), samples=40, step=1e-5, seed=59)
    assert report["passed"], report


@pytest.mark.parametrize("t_layers", [1, 3])
@pytest.mark.parametrize("variant", ["simple", "general"])
def test_pass_adjoint_passes_dot_product_test(variant, t_layers):
    # <g, J v> = <J^T g, v> for the whole pass, the isolated rows and both masks
    # included.  The predictor's bias is lifted so that every ReLU passes; the
    # logits are then affine in each affine map's parameters, and quadratic in
    # each H with one layer, so a central difference is exact.  Through more
    # layers an H enters with a higher degree, and only the affine maps are checked.
    model, ops, x, (input_mask, _), _ = isolated_problem(variant, t_layers=t_layers)
    rng = rng_for(61)
    feature_mask = rng.uniform(0.5, 1.5, (x.shape[0], model.config.d))  # no zero, so no ReLU sits at 0
    model.predictor.b += 10.0
    params = model.parameters()

    def logits():
        kept = {}
        out = forward(x, model, ops, input_mask, feature_mask, kept)[1]
        general = model.config.variant == "general"
        passed = [saved[1] > 0.0 if general else saved[0] for saved in kept["layers"]]
        assert all(m.all() for m in passed) and np.all(kept.get("iso", 1.0) > 0.0), "a ReLU clips"
        return out, kept

    base, kept = logits()
    g = rng.standard_normal(base.shape)
    jtg = dict(zip(params, _pass_vjp(g.copy(), model, kept)))  # the adjoint writes into the gradient it is handed
    assert len(jtg) == len(params)
    checked = [k for k in params if t_layers == 1 or k not in ("h0", "h1")]
    for name in checked:
        v = 0.01 * rng.standard_normal(params[name].shape)
        params[name] += v
        plus = logits()[0]
        params[name] -= 2.0 * v
        minus = logits()[0]
        params[name] += v
        lhs, rhs = float(np.sum(g * (plus - minus))) / 2.0, float(np.sum(jtg[name] * v))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), name


@pytest.mark.parametrize("t_layers", [1, 3])
@pytest.mark.parametrize("variant", ["simple", "general"])
def test_pass_adjoint_scales_the_summed_c_fx_gradient_as_each_layer_would(variant, t_layers):
    # every layer reads c_fx = c * Fx, so c scales the sum of the layers' c_fx
    # gradients once: the result is that of scaling each layer's, to rounding
    model, ops, x, masks, _ = isolated_problem(variant, t_layers=t_layers)
    kept = {}
    logits = forward(x, model, ops, *masks, kept)[1]
    g = rng_for(62).standard_normal(logits.shape)
    got = _pass_vjp(g.copy(), model, kept)
    want = pass_vjp_scaling_each_layer(g.copy(), model, kept)
    assert len(got) == len(want) == len(model.parameters())
    for name, a, b in zip(model.parameters(), got, want):
        assert a.shape == b.shape and np.max(np.abs(a - b)) <= 1e-13 * np.max(np.abs(b)), name


def _primitive_cases():
    rng = rng_for(31)
    n, d = 9, 3
    hg = random_hypergraph(rng, n, 5)
    ops = build_expansion_operators(hg, 1.1, 0.6)
    k = ops.b.shape[0]  # the linked rows, which a layer runs on
    h0, h1 = (np.eye(d) + 0.2 * rng.standard_normal((d, d)) for _ in range(2))

    def leaves(tape, *shapes):
        return [tape.leaf(rng.standard_normal(s), name=f"p{i}") for i, s in enumerate(shapes)]

    def softmax_cross_entropy(tape):
        (a,) = leaves(tape, (n, d))
        return tape.softmax_cross_entropy(a, rng.integers(0, d, 4), np.arange(4)), ()

    def layer_node(variant):
        def build(tape):
            prop = Propagation(ops, EnergyParams(h0, h1), variant, 0.4)
            y, fx, p0, p1 = leaves(tape, (k, d), (k, d), (d, d), (d, d))
            kept = []
            value = layer(y.value, prop.c * fx.value, prop, kept)
            inputs = (y, fx, p0, p1) if prop.general else (y, fx)
            out = tape.node(value, inputs, partial(layer_vjp, prop=prop, kept=kept))
            return out, (*kept, prop.rows.work, prop.edges.work)

        return build

    def pass_node(variant):
        # the whole pass, with both masks, on a graph with isolated rows
        def build(tape):
            model, ops, x, masks, _ = isolated_problem(variant)
            out = build_taped_logits(tape, model, ops, x, *masks)
            kept = tape.ops[-1].vjp.keywords["kept"]
            arrays = [kept.get(k) for k in ("h", "feature_mask", "y", "iso")]
            layers = [a for saved in kept["layers"] for a in saved]
            return out, (*arrays, *layers, kept["prop"].rows.work, kept["prop"].edges.work, x, *masks)

        return build

    cases = {"softmax_cross_entropy": softmax_cross_entropy}
    for variant in ("simple", "general"):
        cases[f"layer-{variant}"] = layer_node(variant)
        cases[f"pass-{variant}"] = pass_node(variant)
    return cases


PRIMITIVE_CASES = ["softmax_cross_entropy", "layer-simple", "layer-general", "pass-simple", "pass-general"]


@pytest.mark.parametrize("case", PRIMITIVE_CASES)
def test_no_vjp_returns_memory_that_something_else_holds(case):
    # backward sums later gradients into the first one in place, so a VJP's
    # arrays must be its own: neither each other nor a value the tape keeps
    cases = _primitive_cases()
    assert sorted(cases) == sorted(PRIMITIVE_CASES)
    build = cases[case]
    tape = Tape()
    out, kept = build(tape)
    (op,) = [op for op in tape.ops if op.out == out.idx]
    g = np.ones(()) if out.value.ndim == 0 else rng_for(37).standard_normal(out.value.shape)
    returned = [r for r in op.vjp(g) if r is not None]
    assert len(returned) == len(op.inputs)
    held = [v.value for v in tape.params.values()] + [out.value, *kept]
    for i, r in enumerate(returned):
        assert not any(np.shares_memory(r, other) for other in returned[i + 1:])
        assert not any(np.shares_memory(r, value) for value in held if value is not None)


def test_backward_is_bitwise_deterministic():
    ds, cfg, model, ops, rows = small_problem(seed=5)
    tape, loss = taped_loss(model, ops, ds, rows)
    g1 = backward(tape, loss)
    g2 = backward(tape, loss)
    for name in g1:
        assert np.array_equal(g1[name], g2[name])


def test_tape_records_one_pass_node_at_any_depth():
    # the pass is one node over the parameter leaves: the input features are
    # not among its inputs, so no n x d_x adjoint is formed for them
    for t_layers in (1, 2, 8):
        ds, cfg, model, ops, rows = small_problem(seed=6, t_layers=t_layers)
        tape, _ = taped_loss(model, ops, ds, rows)
        assert [op.name for op in tape.ops] == ["node", "softmax_cross_entropy"]
        assert tape.ops[0].inputs == tuple(v.idx for v in tape.params.values())
        assert list(tape.params) == list(model.parameters())


# -- check_gradients -----------------------------------------------------------------


def test_check_gradients_identity_toy():
    rng = rng_for(7)
    x = rng.standard_normal((6, 3))
    labels = np.array([0, 1, 2, 0, 1, 2])
    w0 = rng.standard_normal((3, 3))

    def build(params):
        tape = Tape()
        w = tape.leaf(params["w"], name="w")
        logits = tape.node(x @ w.value, (w,), lambda g: (x.T @ g,))
        return tape, tape.softmax_cross_entropy(logits, labels, np.arange(6))

    report = check_gradients(build, {"w": w0}, samples=9, step=1e-6)
    assert report["passed"]
    assert report["max_rel_err"] <= 1e-9


def test_check_gradients_detects_corrupted_adjoint(monkeypatch):
    import phenomnn.model as model_mod

    original = model_mod.layer_vjp

    def corrupted(g, prop, kept, *d_c_fx):
        dy, *rest = original(g, prop, kept, *d_c_fx)
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


def test_check_gradients_passes_a_correct_gradient_whose_step_straddles_a_relu_kink():
    # the first isolated train node's Fx[i, 3] is step / 2, so its ReLU's kink at 0 lies
    # within the +-step of predictor.b0[3]: the difference there misses the threshold,
    # and the retake at step / 10 lies on one side of the kink and passes
    ds = generate_synthetic(SyntheticSpec(seed=1))
    cfg = ModelConfig(variant="general", d=8)
    ops = build_expansion_operators(ds.hypergraph, cfg.lambda0, cfg.lambda1)
    model = init_model(cfg, ds.features.shape[1], ds.n_classes, seed=0)
    rows, step = ds.split_indices("train"), 1e-5
    i = rows[np.isin(rows, ops.isolated)][0]
    model.predictor.b[3] += step / 2 - model.predictor.apply(ds.features)[i, 3]

    def build(params):
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, ds.features)
        return tape, tape.softmax_cross_entropy(logits, ds.labels[rows], rows)

    def loss_at(shift):
        orig = model.predictor.b[3]
        model.predictor.b[3] = orig + shift
        try:
            return float(build(None)[1].value)
        finally:
            model.predictor.b[3] = orig

    tape, loss = build(None)
    a = float(backward(tape, loss)["predictor.b0"][3])
    fd = (loss_at(step) - loss_at(-step)) / (2.0 * step)
    assert abs(a - fd) / max(1.0, abs(a), abs(fd)) > GRADIENT_THRESHOLD
    report = check_gradients(build, model.parameters(), step=step)
    assert report["passed"], report


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(samples=0), "samples must be at least 1, got 0"),
        (dict(samples=-3), "samples must be at least 1, got -3"),
        (dict(step=0.0), "step must be positive and finite, got 0.0"),
        (dict(step=-1e-5), "step must be positive and finite"),
        (dict(step=float("nan")), "step must be positive and finite, got nan"),
        (dict(step=float("inf")), "step must be positive and finite, got inf"),
    ],
    ids=["samples-0", "samples-negative", "step-0", "step-negative", "step-nan", "step-inf"],
)
def test_check_gradients_rejects_a_check_of_nothing(kwargs, message):
    # no coordinate checked, or a difference quotient that is not a number,
    # would pass every gradient; the call fails before any forward pass
    def build(params):
        raise AssertionError("no forward pass for an invalid check")

    with pytest.raises(ValueError, match=message):
        check_gradients(build, {"w": np.ones((2, 2))}, **kwargs)


def test_check_gradients_fails_on_a_nan_gradient():
    # an identity node whose adjoint returns NaN: the error is NaN, which
    # compares false against every bound and must not read as zero
    labels, rows = np.array([0, 1]), np.array([0, 1])

    def build(params):
        tape = Tape()
        w = tape.leaf(params["w"], name="w")
        out = tape.node(w.value.copy(), (w,), lambda g: (np.full_like(g, np.nan),))
        return tape, tape.softmax_cross_entropy(out, labels, rows)

    report = check_gradients(build, {"w": rng_for(41).standard_normal((2, 3))}, samples=6)
    assert np.isnan(report["params"]["w"]["max_rel_err"])
    assert np.isnan(report["max_rel_err"])
    assert report["passed"] is False


# the traced peak of one taped step in ``test_reverse_sweep_frees_what_it_has_summed``
# at the tape of one node per primitive that the pass node replaced, the highest of five runs
TAPE_PER_PRIMITIVE_STEP_PEAK = 2_134_104


def test_reverse_sweep_frees_what_it_has_summed():
    # the sweep holds the logits' gradient, which backward hands it, until it
    # returns; every other gradient is freed once it is summed, so the step's
    # peak is at most the per-primitive tape's plus that one n x C array
    n = 2000
    model, ops, x, masks, labels = isolated_problem("general", n=n, t_layers=4, d=16)
    rows = np.arange(0, n, 2)

    def step():
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x, *masks)
        backward(tape, tape.softmax_cross_entropy(logits, labels[rows], rows))

    step()  # the first step also counts one-time allocations, whatever tests ran before
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        step()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= TAPE_PER_PRIMITIVE_STEP_PEAK + 8 * n * 3
