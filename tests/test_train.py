import copy
import importlib
import json
import tracemalloc

import numpy as np
import pytest

from phenomnn.autodiff import Tape, backward
from phenomnn.data import SyntheticSpec, generate_synthetic
from phenomnn.hypergraph import build_expansion_operators
from phenomnn.model import ModelConfig, build_taped_logits, descent_trace, forward, init_model
from phenomnn.train import (
    AdamState,
    Metrics,
    TrainConfig,
    TrainingDiverged,
    accuracy,
    adam_step,
    evaluate,
    train,
)
from helpers import rng_for
from oracles import cross_entropy

# the module, not the package's ``train`` function of the same name
train_mod = importlib.import_module("phenomnn.train")


def dataset(noise=0.5, seed=0, n_per=40, edges=40):
    return generate_synthetic(
        SyntheticSpec(nodes_per_community=n_per, edges=edges, feature_dim=6,
                      noise_std=noise, seed=seed)
    )


def simple_cfg(**kw):
    base = dict(variant="simple", t_layers=4, d=8, alpha=0.5, lambda0=1.0, lambda1=1.0)
    base.update(kw)
    return ModelConfig(**base)


# -- cross entropy -----------------------------------------------------------------


def test_cross_entropy_uniform_is_log2():
    logits = np.zeros((5, 2))
    labels = np.array([0, 1, 0, 1, 0])
    assert abs(cross_entropy(logits, labels, np.arange(5)) - np.log(2.0)) <= 1e-15


def test_cross_entropy_peaked_goes_to_zero():
    logits = np.zeros((3, 4))
    labels = np.array([1, 2, 0])
    logits[np.arange(3), labels] = 50.0
    assert cross_entropy(logits, labels, np.arange(3)) <= 1e-12


def test_cross_entropy_matches_logsumexp_oracle():
    rng = rng_for(0)
    logits = rng.standard_normal((7, 5))
    labels = rng.integers(0, 5, size=4)
    rows = np.array([0, 2, 3, 6])
    want = float(
        np.mean(
            [
                np.logaddexp.reduce(logits[r]) - logits[r, l]
                for r, l in zip(rows, labels)
            ]
        )
    )
    assert abs(cross_entropy(logits, labels, rows) - want) <= 1e-12


def test_cross_entropy_empty_split():
    with pytest.raises(ValueError, match="empty"):
        cross_entropy(np.zeros((2, 2)), np.zeros(0, dtype=int), np.zeros(0, dtype=int))


# -- adam ---------------------------------------------------------------------------


def test_adam_zero_gradient_keeps_params():
    params = {"w": rng_for(1).standard_normal((3, 3))}
    before = params["w"].copy()
    state = AdamState.for_params(params)
    adam_step(params, {"w": np.zeros((3, 3))}, state, TrainConfig(lr=0.1))
    assert np.array_equal(params["w"], before)


def test_adam_first_step_magnitude_is_lr():
    params = {"w": np.zeros((2, 2))}
    g = np.array([[1.0, -2.0], [3.0, -4.0]])
    state = AdamState.for_params(params)
    cfg = TrainConfig(lr=0.05)
    adam_step(params, {"w": g}, state, cfg)
    # bias-corrected first step: lr * g / (|g| + eps) = lr * sign(g) almost exactly
    assert np.max(np.abs(np.abs(params["w"]) - 0.05)) <= 1e-7
    assert np.array_equal(np.sign(params["w"]), -np.sign(g))


def test_adam_updates_moments_in_place():
    rng = rng_for(2)
    params = {"w": rng.standard_normal((4, 3)), "b": rng.standard_normal(3)}
    state = AdamState.for_params(params)
    m, v = dict(state.m), dict(state.v)
    cfg = TrainConfig(lr=0.01)
    ref_m = {k: np.zeros_like(p) for k, p in params.items()}
    ref_v = {k: np.zeros_like(p) for k, p in params.items()}
    for _ in range(3):
        grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
        for k, g in grads.items():
            ref_m[k] = 0.9 * ref_m[k] + (1.0 - 0.9) * g
            ref_v[k] = 0.999 * ref_v[k] + (1.0 - 0.999) * g * g
        adam_step(params, grads, state, cfg)
        for k in params:
            assert state.m[k] is m[k] and state.v[k] is v[k]
            assert np.array_equal(state.m[k], ref_m[k]) and np.array_equal(state.v[k], ref_v[k])


# -- train --------------------------------------------------------------------------


def test_linear_separable_community_learning():
    # independent separability oracle first: multinomial logistic regression on
    # the raw features, trained by plain gradient descent
    ds = dataset(noise=0.5, seed=0, n_per=100, edges=120)
    test_rows = ds.split_indices("test")
    train_rows = ds.split_indices("train")
    x, y = ds.features, ds.labels
    w = np.zeros((x.shape[1], ds.n_classes))
    b = np.zeros(ds.n_classes)
    for _ in range(400):
        logits = x[train_rows] @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        p[np.arange(train_rows.size), y[train_rows]] -= 1.0
        p /= train_rows.size
        w -= 0.5 * (x[train_rows].T @ p)
        b -= 0.5 * p.sum(axis=0)
    oracle_acc = float(np.mean(np.argmax(x[test_rows] @ w + b, axis=1) == y[test_rows]))
    assert oracle_acc >= 0.9  # the generator is (noisily) separable

    model, metrics = train(ds, simple_cfg(t_layers=8, d=16), TrainConfig(lr=0.05, epochs=150, seed=0))
    assert metrics.final_test_acc >= 0.95


def test_single_epoch_runs_one_step():
    ds = dataset(n_per=10, edges=10)
    model, metrics = train(ds, simple_cfg(t_layers=2, d=4), TrainConfig(lr=0.01, epochs=1, seed=1))
    assert len(metrics.loss) == 1
    assert metrics.best_epoch == 0


def test_returned_model_is_the_best_epoch_checkpoint():
    ds = dataset(noise=2.0, seed=3)
    model, metrics = train(ds, simple_cfg(), TrainConfig(lr=0.05, epochs=30, seed=2))
    best = metrics.best_epoch
    # training went on past the best epoch, and the last epoch scores differently
    assert best < len(metrics.loss) - 1
    assert metrics.test_acc[-1] != metrics.test_acc[best]
    for split, accs in (("train", metrics.train_acc), ("val", metrics.val_acc), ("test", metrics.test_acc)):
        assert evaluate(model, ds, split) == accs[best]


def test_zero_weights_reduces_to_mlp_oracle():
    # with both expansion weights at zero the model is h(ReLU(f(X; W))); an
    # independently hand-differentiated MLP trained identically must match
    ds = dataset(noise=1.0, seed=3, n_per=60, edges=60)
    cfg = simple_cfg(t_layers=3, d=12, alpha=1.0, lambda0=0.0, lambda1=0.0)
    tc = TrainConfig(lr=0.05, epochs=120, seed=3)
    _, metrics = train(ds, cfg, tc)

    rng = np.random.Generator(np.random.PCG64(3))
    x, labels = ds.features, ds.labels
    train_rows, test_rows = ds.split_indices("train"), ds.split_indices("test")

    def glorot(fan_in, fan_out):
        lim = np.sqrt(6.0 / (fan_in + fan_out))
        return rng.uniform(-lim, lim, size=(fan_in, fan_out))

    params = {
        "w1": glorot(x.shape[1], 12),
        "b1": np.zeros(12),
        "w2": glorot(12, ds.n_classes),
        "b2": np.zeros(ds.n_classes),
    }
    state = AdamState.for_params(params)
    best_val, best_test = -1.0, 0.0
    val_rows = ds.split_indices("val")
    for _ in range(tc.epochs):
        fx = x @ params["w1"] + params["b1"]
        h = np.maximum(fx, 0.0)
        logits = h @ params["w2"] + params["b2"]
        sel = logits[train_rows] - logits[train_rows].max(axis=1, keepdims=True)
        p = np.exp(sel) / np.exp(sel).sum(axis=1, keepdims=True)
        p[np.arange(train_rows.size), labels[train_rows]] -= 1.0
        dlogits = np.zeros_like(logits)
        dlogits[train_rows] = p / train_rows.size
        grads = {
            "w2": h.T @ dlogits,
            "b2": dlogits.sum(axis=0),
        }
        dh = dlogits @ params["w2"].T
        dfx = dh * (fx > 0.0)
        grads["w1"] = x.T @ dfx
        grads["b1"] = dfx.sum(axis=0)
        adam_step(params, grads, state, tc)
        logits = np.maximum(x @ params["w1"] + params["b1"], 0.0) @ params["w2"] + params["b2"]
        va = accuracy(logits, labels, val_rows)
        if va > best_val:
            best_val = va
            best_test = accuracy(logits, labels, test_rows)
    assert abs(metrics.final_test_acc - best_test) <= 0.02


def test_general_variant_learns_end_to_end():
    # compatibility matrices are trained along with everything else
    accs = []
    for seed in (0, 1, 2):
        ds = generate_synthetic(
            SyntheticSpec(communities=2, nodes_per_community=60, edges=80,
                          edge_size_min=4, edge_size_max=8, p_intra=1.0,
                          feature_dim=8, noise_std=0.8, seed=seed)
        )
        cfg = ModelConfig(variant="general", t_layers=6, d=12, alpha=0.05, lambda0=1.0, lambda1=1.0)
        model, metrics = train(ds, cfg, TrainConfig(lr=0.05, dropout=0.3, epochs=150, seed=seed))
        accs.append(metrics.final_test_acc)
        assert metrics.loss[-1] < metrics.loss[0]
        # the compatibility matrices moved away from their initialization
        assert np.max(np.abs(model.params.h0 - np.eye(12))) > 0.01
    assert np.mean(accs) >= 0.9


def test_training_loss_decreases():
    for seed in range(3):
        ds = dataset(noise=1.0, seed=seed, n_per=30, edges=30)
        _, metrics = train(ds, simple_cfg(), TrainConfig(lr=0.02, epochs=100, seed=seed))
        assert metrics.loss[-1] < metrics.loss[0]


def test_training_is_deterministic():
    ds = dataset(n_per=20, edges=20)
    cfg = simple_cfg(t_layers=3)
    tc = TrainConfig(lr=0.02, dropout=0.3, epochs=12, seed=7)
    _, m1 = train(ds, cfg, tc)
    _, m2 = train(ds, cfg, tc)
    assert m1.loss == m2.loss
    assert m1.train_acc == m2.train_acc
    assert m1.val_acc == m2.val_acc
    assert m1.test_acc == m2.test_acc


def reference_train(ds, mcfg, tcfg):
    """The training loop written plainly: an untaped eval ``forward`` after every step."""
    splits = {s: ds.split_indices(s) for s in ("train", "val", "test")}
    train_rows = splits["train"]
    ops = build_expansion_operators(ds.hypergraph, mcfg.lambda0, mcfg.lambda1)
    model = init_model(mcfg, ds.features.shape[1], ds.n_classes, seed=tcfg.seed)
    params = model.parameters()
    state = AdamState.for_params(params)
    rng = np.random.Generator(np.random.PCG64(tcfg.seed))
    x, labels = ds.features, ds.labels

    def mask(shape):
        return (rng.random(shape) >= tcfg.dropout).astype(np.float64) / (1.0 - tcfg.dropout)

    out = {"loss": [], "train_acc": [], "val_acc": [], "test_acc": []}
    best, best_epoch = None, -1
    for epoch in range(tcfg.epochs):
        input_mask = feature_mask = None
        if tcfg.dropout > 0.0:
            input_mask = mask(x.shape)
            feature_mask = mask((x.shape[0], mcfg.d))
        tape = Tape()
        logits = build_taped_logits(tape, model, ops, x, input_mask, feature_mask)
        loss = tape.softmax_cross_entropy(logits, labels[train_rows], train_rows)
        adam_step(params, backward(tape, loss), state, tcfg)
        _, eval_logits = forward(x, model, ops)
        out["loss"].append(float(loss.value))
        for split, rows in splits.items():
            out[f"{split}_acc"].append(accuracy(eval_logits, labels, rows))
        if epoch == 0 or out["val_acc"][-1] > out["val_acc"][best_epoch]:
            best, best_epoch = copy.deepcopy(model), epoch
        if epoch - best_epoch >= tcfg.early_stop_patience:
            break
    out["best_epoch"] = best_epoch
    out["best_val_acc"] = out["val_acc"][best_epoch]
    out["final_test_acc"] = out["test_acc"][best_epoch]
    out["energy_trace"] = descent_trace(x, best, ops)
    return best, out


ORACLE_RUNS = {
    "simple-dropout0": (simple_cfg(), dict(dropout=0.0), False),
    "general-stops": (
        ModelConfig(variant="general", t_layers=3, d=6, alpha=0.05, lambda0=1.0, lambda1=1.0),
        dict(dropout=0.0, early_stop_patience=3),
        True,
    ),
    "dropout-masks-stops": (simple_cfg(), dict(dropout=0.5, early_stop_patience=3), True),
}


@pytest.mark.parametrize("run", list(ORACLE_RUNS))
def test_train_matches_eval_after_every_step_bitwise(run):
    # epochs without dropout masks are scored from the next taped pass; the
    # curves, the checkpoint and its trace must not show it
    mcfg, overrides, stops = ORACLE_RUNS[run]
    ds = dataset(noise=2.0, seed=3)
    tcfg = TrainConfig(lr=0.05, epochs=20, seed=4, **overrides)
    want_model, want = reference_train(ds, mcfg, tcfg)
    model, metrics = train(ds, mcfg, tcfg)
    assert (len(metrics.loss) < tcfg.epochs) == stops
    for key in ("loss", "train_acc", "val_acc", "test_acc", "best_epoch", "best_val_acc",
                "final_test_acc", "energy_trace"):
        assert getattr(metrics, key) == want[key], key
    assert len(metrics.seconds) == len(metrics.loss)
    got_params, want_params = model.parameters(), want_model.parameters()
    assert got_params.keys() == want_params.keys()
    for name, value in want_params.items():
        assert got_params[name].tobytes() == value.tobytes(), name


@pytest.mark.parametrize("dropout", [0.0, 0.5])
def test_each_epoch_is_one_tape_and_the_last_score_is_untaped(monkeypatch, dropout):
    # an epoch is the span between two tapes (the benchmark's epoch clock
    # counts them), so the closing score must be an untaped forward
    events = []

    def logged(name, fn):
        def wrapped(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return wrapped

    for name in ("Tape", "forward", "descent_trace"):
        monkeypatch.setattr(train_mod, name, logged(name, getattr(train_mod, name)))
    ds = dataset(n_per=10, edges=10)
    epochs = 4
    _, metrics = train(ds, simple_cfg(t_layers=2), TrainConfig(lr=0.02, dropout=dropout, epochs=epochs, seed=1))
    if dropout:
        assert events == ["Tape", "forward"] * epochs + ["descent_trace"]
    else:
        assert events == ["Tape"] * epochs + ["forward", "descent_trace"]
    # the epoch times tile the run
    assert len(metrics.seconds) == epochs
    assert sum(metrics.seconds) == pytest.approx(metrics.wall_time, rel=1e-9)


def test_train_peak_grows_by_one_embedding_per_general_layer():
    # an epoch's backward runs through every taped layer, so the run's peak
    # grows with T by what a general layer keeps for its adjoint: Y_t alone,
    # 8nd bytes (Y_{t+1} is the next layer's).  Keeping the ReLU mask and
    # P_t = B^T Y_t as well would add 9nd + 8md bytes a layer.
    ds = generate_synthetic(
        SyntheticSpec(communities=4, nodes_per_community=500, edges=400, feature_dim=8, seed=3)
    )
    n, d = ds.features.shape[0], 16

    def peak(t_layers):
        cfg = ModelConfig(variant="general", t_layers=t_layers, d=d, alpha=0.3, lambda0=1.0, lambda1=1.0)
        tracemalloc.start()
        try:
            train(ds, cfg, TrainConfig(dropout=0.5, epochs=2, seed=3))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # the first run also counts one-time allocations, whatever tests ran before
    assert peak(8) - peak(2) <= 6 * (8 * n * d + 2048)


def test_divergence_is_reported():
    ds = dataset(n_per=10, edges=10)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="eval logits became non-finite at epoch 0"):
            train(ds, simple_cfg(t_layers=4), TrainConfig(lr=1e200, epochs=5, seed=0))


def test_an_adam_moment_past_the_float_range_stops_training(monkeypatch):
    # a gradient entry of 1e160 is finite, but its square takes Adam's second moment
    # past the float range, where the entry's step would be 0: train raises, naming
    # the parameter and the epoch, where numpy would warn and the run go on
    plain = train_mod.backward

    def huge(tape, loss):
        grads = plain(tape, loss)
        grads["classifier.w"][0, 0] = 1e160
        return grads

    monkeypatch.setattr(train_mod, "backward", huge)
    with pytest.raises(TrainingDiverged, match="Adam second moment of 'classifier.w' became non-finite at epoch 0"):
        train(dataset(n_per=10, edges=10), simple_cfg(t_layers=2), TrainConfig(lr=0.02, epochs=3, seed=0))


def test_nan_feature_stops_training():
    # in memory, so load_dataset's check does not apply; NaN reaches the
    # predictor's gradient through the input column
    ds = dataset(n_per=10, edges=10)
    ds.features[3, 0] = np.nan
    with pytest.raises(TrainingDiverged, match="epoch 0"):
        train(ds, simple_cfg(t_layers=2), TrainConfig(lr=0.02, epochs=5, seed=0))


def test_dropout_only_in_training_mode():
    ds = dataset(n_per=15, edges=15)
    cfg = simple_cfg(t_layers=2)
    model, _ = train(ds, cfg, TrainConfig(lr=0.02, dropout=0.6, epochs=3, seed=5))
    acc_a = evaluate(model, ds, "test")
    acc_b = evaluate(model, ds, "test")
    assert acc_a == acc_b  # evaluation path has no stochasticity


def test_metrics_files(tmp_path):
    ds = dataset(n_per=10, edges=10)
    _, metrics = train(ds, simple_cfg(t_layers=2), TrainConfig(lr=0.02, epochs=3, seed=2))
    metrics.write(tmp_path)
    summary = json.loads((tmp_path / "metrics.json").read_text())
    assert summary["epochs_run"] == 3
    # one trace row per propagation step plus the initial point
    assert "energy_trace" in summary and len(summary["energy_trace"]) == 3
    lines = (tmp_path / "epochs.csv").read_text().strip().split("\n")
    assert lines[0] == "epoch,loss,train_acc,val_acc,test_acc,seconds"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "kwargs, message",
    [
        (dict(lr=float("nan")), "lr must be positive and finite, got nan"),
        (dict(lr=float("inf")), "lr must be positive and finite, got inf"),
        (dict(lr=0.0), "lr must be positive and finite, got 0.0"),
        (dict(early_stop_patience=0), "early_stop_patience must be >= 1, got 0"),
    ],
    ids=["lr-nan", "lr-inf", "lr-0", "patience-0"],
)
def test_train_config_rejects_values_no_run_can_use(kwargs, message):
    # a patience of 0 would end every run after its first epoch, and a NaN
    # rate would surface later as a diverged loss that blames lr or alpha
    with pytest.raises(ValueError, match=message):
        TrainConfig(**kwargs)


def test_empty_train_split_rejected():
    ds = dataset(n_per=10, edges=10)
    ds.splits[:] = "none"
    with pytest.raises(ValueError, match="train split"):
        train(ds, simple_cfg(t_layers=2), TrainConfig(epochs=1))


# -- evaluate -------------------------------------------------------------------------


def test_evaluate_perfect_and_errors():
    ds = dataset(n_per=10, edges=10)
    model, _ = train(ds, simple_cfg(t_layers=2), TrainConfig(lr=0.02, epochs=2, seed=0))
    acc = evaluate(model, ds, "test")
    assert 0.0 <= acc <= 1.0
    with pytest.raises(ValueError, match="unknown split"):
        evaluate(model, ds, "holdout")
    ds.splits[ds.splits == "val"] = "none"
    with pytest.raises(ValueError, match="empty"):
        evaluate(model, ds, "val")


def test_accuracy_all_correct_is_one():
    logits = np.eye(4) * 3.0
    assert accuracy(logits, np.arange(4), np.arange(4)) == 1.0


def test_accuracy_tie_breaks_to_lowest_class():
    logits = np.array([[0.5, 0.5], [1.0, 1.0]])
    labels = np.array([0, 1])
    assert accuracy(logits, labels, np.arange(2)) == 0.5  # both predicted as class 0


def test_accuracy_rejects_non_finite_logits():
    for bad in (np.nan, np.inf, -np.inf):
        logits = np.eye(3)
        logits[2, 1] = bad
        with pytest.raises(ValueError, match="NaN or inf"):
            accuracy(logits, np.arange(3), np.arange(3))


def test_accuracy_random_logits_near_half():
    vals = []
    for seed in range(5):
        rng = rng_for(seed)
        logits = rng.standard_normal((2000, 2))
        labels = rng.integers(0, 2, size=2000)
        vals.append(accuracy(logits, labels, np.arange(2000)))
    assert abs(np.mean(vals) - 0.5) <= 0.05
