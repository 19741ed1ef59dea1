"""Reverse-mode differentiation over a recorded tape of numpy primitives.

A :class:`Tape` records every primitive applied during one forward pass as an
ordered list of operations.  Recording order is topological by construction,
so :func:`backward` visits operations in strict reverse order, accumulating
vector-Jacobian products; a propagation layer is one node (``Tape.layer``).
Operators, index sets, and dropout masks are constants: no gradient flows to them.

Gradients are exact for the recorded composition and bitwise deterministic:
two backward passes over the same tape produce identical results.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass

import numpy as np

__all__ = ["Tape", "Var", "GradStore", "backward", "check_gradients"]


@dataclass(eq=False)
class Var:
    """Handle to one tape node: its id, cached forward value, and grad flag.

    The node holds its tape weakly: the tape holds its parameter nodes, so a
    strong reference back would keep every finished tape, and the arrays its
    vector-Jacobian products capture, alive until the cycle collector runs.
    """

    tape_ref: weakref.ref
    idx: int
    value: np.ndarray
    requires_grad: bool

    @property
    def tape(self) -> "Tape | None":
        """The tape this node was recorded on, or None once that tape is freed."""
        return self.tape_ref()


@dataclass
class TapeOp:
    name: str
    out: int
    inputs: tuple
    vjp: object  # callable(out_grad) -> tuple of input grads, aligned with `inputs`


class GradStore(dict):
    """Accumulated gradient per trainable parameter name (zeros when disconnected)."""


class Tape:
    """Ordered record of primitive operations for one forward pass."""

    def __init__(self):
        self.ops: list[TapeOp] = []
        self.params: dict[str, Var] = {}
        self._next = 0

    # -- node creation ----------------------------------------------------

    def _new_var(self, value, requires_grad: bool) -> Var:
        v = Var(weakref.ref(self), self._next, np.asarray(value, dtype=np.float64), requires_grad)
        self._next += 1
        return v

    def leaf(self, value, name: str | None = None) -> Var:
        """A trainable leaf when ``name`` is given, otherwise a constant input."""
        v = self._new_var(value, requires_grad=name is not None)
        if name is not None:
            if name in self.params:
                raise ValueError(f"duplicate parameter name {name!r}")
            self.params[name] = v
        return v

    def constant(self, value) -> Var:
        return self._new_var(value, requires_grad=False)

    def _record(self, name: str, value, inputs: tuple, vjp) -> Var:
        rg = any(v.requires_grad for v in inputs)
        out = self._new_var(value, requires_grad=rg)
        if rg:
            self.ops.append(TapeOp(name, out.idx, tuple(v.idx for v in inputs), vjp))
        return out

    # -- primitives --------------------------------------------------------

    def matmul(self, a: Var, b: Var) -> Var:
        if a.value.shape[1] != b.value.shape[0]:
            raise ValueError(f"matmul: cannot multiply {a.value.shape} by {b.value.shape}")
        av, bv = a.value, b.value
        return self._record(
            "matmul", av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g)
        )

    def mul_const(self, a: Var, mask: np.ndarray) -> Var:
        """Elementwise product with a constant array (dropout masks and the like)."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != a.value.shape:
            raise ValueError(f"mul_const: shape mismatch {mask.shape} vs {a.value.shape}")
        return self._record("mul_const", mask * a.value, (a,), lambda g: (mask * g,))

    def relu(self, a: Var) -> Var:
        # the forward value is prox_nonneg's (NaN stays NaN); subgradient 0 at exactly 0
        keep = a.value > 0.0
        return self._record("relu", np.maximum(a.value, 0.0), (a,), lambda g: (np.where(keep, g, 0.0),))

    def layer(self, value: np.ndarray, inputs: tuple, vjp) -> Var:
        """A propagation layer's output (``model.layer``) as one node over ``(Y, Fx[, H0, H1])``;
        ``vjp`` is its hand-written adjoint (``model.layer_vjp``), one gradient per input."""
        return self._record("layer", value, inputs, vjp)

    def add_rowvec(self, a: Var, bias: Var) -> Var:
        """Broadcast-add a 1-D bias across rows; its adjoint sums over rows."""
        if bias.value.ndim != 1 or bias.value.shape[0] != a.value.shape[1]:
            raise ValueError(f"add_rowvec: bias {bias.value.shape} for {a.value.shape}")
        return self._record(
            "add_rowvec", a.value + bias.value[None, :], (a, bias), lambda g: (g, g.sum(axis=0))
        )

    def softmax_cross_entropy(self, logits: Var, labels: np.ndarray, rows: np.ndarray) -> Var:
        """Mean negative log softmax probability of the true class over ``rows``."""
        rows = np.asarray(rows, dtype=np.int64)
        labels = np.asarray(labels, dtype=np.int64)
        if rows.size == 0:
            raise ValueError("softmax_cross_entropy: empty row set")
        if rows.size != labels.size:
            raise ValueError("softmax_cross_entropy: rows and labels must align")
        sel = logits.value[rows]
        shifted = sel - sel.max(axis=1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=1))
        loss = float(np.mean(log_z - shifted[np.arange(rows.size), labels]))
        probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)

        def vjp(g):
            delta = probs.copy()
            delta[np.arange(rows.size), labels] -= 1.0
            full = np.zeros_like(logits.value)
            np.add.at(full, rows, (float(g) / rows.size) * delta)
            return (full,)

        return self._record("softmax_cross_entropy", loss, (logits,), vjp)


def backward(tape: Tape, loss: Var) -> GradStore:
    """Exact gradients of the recorded composition w.r.t. every trainable leaf."""
    if loss.tape is not tape:
        raise ValueError("loss was not recorded on this tape")
    if loss.value.ndim != 0:
        raise ValueError(f"loss must be scalar, got shape {loss.value.shape}")
    grads: dict[int, np.ndarray] = {loss.idx: np.ones(())}
    for op in reversed(tape.ops):
        if op.out not in grads:
            continue
        # popped into the call, so the output gradient is freed once its VJP returns
        for idx, ig in zip(op.inputs, op.vjp(grads.pop(op.out))):
            grads[idx] = grads[idx] + ig if idx in grads else ig
        del ig  # or the last input gradient outlives its sum, through the next VJP
    store = GradStore()
    for name, var in tape.params.items():
        g = grads.get(var.idx)
        store[name] = np.zeros_like(var.value) if g is None else np.asarray(g, dtype=np.float64)
    return store


def check_gradients(
    build,
    params: dict,
    samples: int = 256,
    step: float = 1e-5,
    seed: int = 0,
    threshold: float = 1e-4,
) -> dict:
    """Compare tape gradients against central finite differences.

    ``build(params)`` must run a fresh forward pass and return ``(tape, loss)``.
    For each parameter a random subset of coordinates is perturbed by ``step``.
    The reported error is ``|analytic - fd|`` normalized by
    ``max(1, |analytic|, |fd|)`` per coordinate; the check fails when any
    parameter exceeds ``threshold``.
    """
    tape, loss = build(params)
    analytic = backward(tape, loss)
    rng = np.random.Generator(np.random.PCG64(seed))
    report = {"params": {}, "threshold": threshold}
    worst = 0.0
    for name in sorted(params):
        base = params[name]
        flat = base.ravel()
        k = min(samples, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        max_err = 0.0
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            _, lp = build(params)
            flat[c] = orig - step
            _, lm = build(params)
            flat[c] = orig
            fd = (float(lp.value) - float(lm.value)) / (2.0 * step)
            a = float(analytic[name].ravel()[c])
            err = abs(a - fd) / max(1.0, abs(a), abs(fd))
            max_err = max(max_err, err)
        report["params"][name] = {"max_rel_err": max_err, "checked": int(k)}
        worst = max(worst, max_err)
    report["max_rel_err"] = worst
    report["passed"] = bool(worst <= threshold)
    return report


def format_report(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True)
