"""Full-batch bilevel training loop with Adam, dropout, and evaluation.

Every epoch records the unrolled forward pass on a fresh tape, backpropagates
the cross-entropy loss over the labeled training nodes through all T
propagation steps, and applies one Adam step to every trainable
parameter.  Each epoch is then scored on all nodes from the logits of its
post-step parameters.  An epoch that draws no dropout mask takes them from the
next epoch's taped pass, whose logits an untaped ``forward`` would reproduce
bitwise; one untaped ``forward`` after the last epoch scores that epoch.  With
dropout masks, an untaped ``forward`` right after each step scores it.  The
checkpoint kept is the one with the best validation accuracy.
All randomness (initialization, dropout masks) derives from the configured
seed through PCG64 streams, so a fixed seed reproduces runs exactly.
"""

from __future__ import annotations

import copy
import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tape, backward
from .hypergraph import build_expansion_operators
from .model import (
    Model,
    ModelConfig,
    build_taped_logits,
    descent_trace,
    forward,
    init_model,
)

__all__ = [
    "TrainConfig",
    "Metrics",
    "TrainingDiverged",
    "accuracy",
    "AdamState",
    "adam_step",
    "train",
    "evaluate",
]


# Adam's decay rates and denominator floor, the usual defaults
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class TrainingDiverged(RuntimeError):
    """Raised when the training loss, a gradient, a parameter or Adam's second moment becomes non-finite."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    dropout: float = 0.0
    epochs: int = 200
    seed: int = 0
    early_stop_patience: int = 100

    def __post_init__(self):
        if not 0.0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not (0.0 <= self.dropout < 1.0):
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.early_stop_patience < 1:
            raise ValueError(
                f"early_stop_patience must be >= 1, got {self.early_stop_patience} (the config key 'patience')"
            )


@dataclass
class Metrics:
    """Per-epoch training curves plus the summary of the best checkpoint.

    ``loss[e]`` is the training loss of epoch e's taped pass, before its step.
    The accuracies of epoch e are those of its post-step parameters: from the
    next epoch's taped pass when no dropout mask is drawn, otherwise from an
    untaped ``forward`` right after the step.  ``seconds[e]`` ends at the start
    of epoch e + 1 when that epoch's taped pass scores epoch e, and otherwise
    at the end of the ``forward`` that scores it; each entry starts where the
    one before ends, so the entries tile ``wall_time``.  After an early stop
    found by a taped pass, that pass is in neither.
    """

    loss: list = field(default_factory=list)
    train_acc: list = field(default_factory=list)
    val_acc: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    seconds: list = field(default_factory=list)
    best_epoch: int = -1
    best_val_acc: float = 0.0
    final_test_acc: float = 0.0
    wall_time: float = 0.0
    energy_trace: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "epochs_run": len(self.loss),
            "best_epoch": self.best_epoch,
            "best_val_acc": self.best_val_acc,
            "final_test_acc": self.final_test_acc,
            "final_loss": self.loss[-1] if self.loss else None,
            "wall_time": self.wall_time,
            "energy_trace": self.energy_trace,
        }

    def write(self, out_dir) -> None:
        with open(f"{out_dir}/metrics.json", "w", encoding="utf-8") as f:
            json.dump(self.summary(), f, indent=2)
        with open(f"{out_dir}/epochs.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "loss", "train_acc", "val_acc", "test_acc", "seconds"])
            for i in range(len(self.loss)):
                w.writerow(
                    [i, self.loss[i], self.train_acc[i], self.val_acc[i], self.test_acc[i], self.seconds[i]]
                )


def accuracy(logits: np.ndarray, labels: np.ndarray, rows: np.ndarray) -> float:
    """Argmax accuracy over ``rows``; ties resolve to the lowest class index.

    Non-finite logits are rejected: ``argmax`` reads NaN as the top class.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if rows.size == 0:
        raise ValueError("accuracy: empty row set")
    logits = np.asarray(logits)
    if not np.all(np.isfinite(logits)):
        raise ValueError("accuracy: logits contain NaN or inf")
    pred = np.argmax(logits[rows], axis=1)
    return float(np.mean(pred == np.asarray(labels)[rows]))


# -- optimizer -----------------------------------------------------------------


@dataclass(eq=False)
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    t: int = 0

    @classmethod
    def for_params(cls, params: dict) -> "AdamState":
        return cls(
            m={k: np.zeros_like(p) for k, p in params.items()},
            v={k: np.zeros_like(p) for k, p in params.items()},
            t=0,
        )


@np.errstate(over="ignore", invalid="ignore")  # train raises on a moment or parameter that is not finite
def adam_step(params: dict, grads: dict, state: AdamState, config: TrainConfig) -> None:
    """Standard bias-corrected Adam update, applied in place.

    The moments are updated in their own arrays too.  Moments allocated anew
    at every step land among that epoch's tape arrays and outlive them, and
    so can keep the last tape's freed memory from being returned to the OS
    after ``train`` ends.  A gradient entry above about 1e154 takes the second
    moment past the float range, where its step would be 0: numpy's overflow
    warning is silenced here, and ``train`` raises ``TrainingDiverged`` on the
    moment that is not finite."""
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    for name, p in params.items():
        g, m, v = grads[name], state.m[name], state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        m_hat = m / (1.0 - b1**state.t)
        v_hat = v / (1.0 - b2**state.t)
        p -= config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def _dropout_mask(rng, shape, rate: float) -> np.ndarray:
    # inverted dropout: kept units are rescaled so expectations match eval mode
    keep = rng.random(shape) >= rate
    return keep.astype(np.float64) / (1.0 - rate)


def train(dataset, model_config: ModelConfig, train_config: TrainConfig):
    """Run the full training loop; returns the best-validation model and metrics."""
    train_rows = dataset.split_indices("train")
    if train_rows.size == 0:
        raise ValueError("dataset has an empty train split")
    val_rows = dataset.split_indices("val")
    test_rows = dataset.split_indices("test")

    ops = build_expansion_operators(dataset.hypergraph, model_config.lambda0, model_config.lambda1)
    model = init_model(
        model_config, dataset.features.shape[1], dataset.n_classes, seed=train_config.seed
    )

    params = model.parameters()
    state = AdamState.for_params(params)
    rng = np.random.Generator(np.random.PCG64(train_config.seed))
    labels = dataset.labels
    x = dataset.features

    metrics = Metrics()
    # the checkpoint is allocated once, before any tape, and overwritten in place
    best = copy.deepcopy(model)
    best_params = best.parameters()
    masked = train_config.dropout > 0.0
    start = scored_to = time.perf_counter()

    def score(epoch: int, logits: np.ndarray, end: float) -> bool:
        """Record ``epoch``'s metrics from the logits of its post-step parameters,
        its time as ending at ``end``; True when early stopping ends the run."""
        nonlocal scored_to
        if not np.all(np.isfinite(logits)):
            raise TrainingDiverged(f"eval logits became non-finite at epoch {epoch}")
        metrics.train_acc.append(accuracy(logits, labels, train_rows))
        metrics.val_acc.append(accuracy(logits, labels, val_rows) if val_rows.size else 0.0)
        metrics.test_acc.append(accuracy(logits, labels, test_rows) if test_rows.size else 0.0)
        metrics.seconds.append(end - scored_to)
        scored_to = end

        gate = metrics.val_acc[-1] if val_rows.size else metrics.train_acc[-1]
        if epoch == 0 or gate > metrics.best_val_acc:
            metrics.best_val_acc = gate
            metrics.best_epoch = epoch
            for name, value in params.items():
                np.copyto(best_params[name], value)
        return epoch - metrics.best_epoch >= train_config.early_stop_patience

    eval_logits = None
    for epoch in range(train_config.epochs):
        tick = time.perf_counter()
        input_mask = feature_mask = None
        if masked:
            input_mask = _dropout_mask(rng, x.shape, train_config.dropout)
            feature_mask = _dropout_mask(rng, (x.shape[0], model_config.d), train_config.dropout)
        tape = Tape()
        logits_var = build_taped_logits(tape, model, ops, x, input_mask, feature_mask)
        # without masks this pass is the previous epoch's eval forward, bitwise
        if epoch and not masked and score(epoch - 1, logits_var.value, tick):
            break
        loss_var = tape.softmax_cross_entropy(logits_var, labels[train_rows], train_rows)
        loss = float(loss_var.value)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"loss became {loss} at epoch {epoch}; lower lr or alpha (bound may help)"
            )
        grads = backward(tape, loss_var)
        adam_step(params, grads, state, train_config)
        for kind, arrays in (("gradient", grads), ("parameter", params), ("Adam second moment of", state.v)):
            for name, arr in arrays.items():
                if not np.all(np.isfinite(arr)):
                    raise TrainingDiverged(f"{kind} {name!r} became non-finite at epoch {epoch}")
        metrics.loss.append(loss)
        if masked or epoch == train_config.epochs - 1:
            _, eval_logits = forward(x, model, ops)
            if score(epoch, eval_logits, time.perf_counter()):
                break

    # the last tape is not needed by the trace: free it before the trace allocates
    del tape, logits_var, loss_var, grads, eval_logits, input_mask, feature_mask
    metrics.wall_time = scored_to - start
    metrics.final_test_acc = (
        metrics.test_acc[metrics.best_epoch] if test_rows.size else metrics.train_acc[metrics.best_epoch]
    )
    metrics.energy_trace = descent_trace(x, best, ops)
    return best, metrics


def evaluate(model: Model, dataset, split: str) -> float:
    """Accuracy of the checkpointed model on one split."""
    if split not in ("train", "val", "test"):
        raise ValueError(f"unknown split {split!r}")
    rows = dataset.split_indices(split)
    if rows.size == 0:
        raise ValueError(f"split {split!r} is empty")
    ops = build_expansion_operators(dataset.hypergraph, model.config.lambda0, model.config.lambda1)
    _, logits = forward(dataset.features, model, ops)
    return accuracy(logits, dataset.labels, rows)
