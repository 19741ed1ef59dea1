"""Reverse-mode differentiation over a recorded tape of nodes with hand-written adjoints.

A :class:`Tape` records the nodes of one forward pass as an ordered list of
operations: the model's whole pass is one node (``Tape.node``) over its
parameters, and the loss (``Tape.softmax_cross_entropy``) another.
Recording order is topological by construction, so :func:`backward` visits
operations in strict reverse order, accumulating vector-Jacobian products.
Operators, index sets, and dropout masks are constants: no gradient flows to them.

Gradients are exact for the recorded composition and bitwise deterministic:
two backward passes over the same tape produce identical results.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np

__all__ = ["Tape", "Var", "backward", "check_gradients"]

# the largest normalized error ``check_gradients`` passes
GRADIENT_THRESHOLD = 1e-4


@dataclass(eq=False)
class Var:
    """Handle to one tape node: its id and cached forward value.

    The node holds its tape weakly: the tape holds its parameter nodes, so a
    strong reference back would keep every finished tape, and the arrays its
    vector-Jacobian products capture, alive until the cycle collector runs.
    """

    tape_ref: weakref.ref
    idx: int
    value: np.ndarray

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


class Tape:
    """Ordered record of the nodes of one forward pass: named trainable leaves,
    nodes with a hand-written adjoint, and the loss.

    Each op's ``vjp`` owns the output gradient it is handed: it may write into
    it and return it as an input gradient.  It returns no array that anything
    else holds (a forward value, a captured constant, a scratch buffer, another
    of its returned arrays), because ``backward`` sums into the first gradient
    an input receives in place.
    """

    def __init__(self):
        self.ops: list[TapeOp] = []
        self.params: dict[str, Var] = {}
        self._next = 0

    def _new_var(self, value) -> Var:
        v = Var(weakref.ref(self), self._next, np.asarray(value, dtype=np.float64))
        self._next += 1
        return v

    def leaf(self, value, name: str) -> Var:
        """A trainable leaf; ``backward`` returns its gradient under ``name``."""
        if name in self.params:
            raise ValueError(f"duplicate parameter name {name!r}")
        v = self.params[name] = self._new_var(value)
        return v

    def _record(self, name: str, value, inputs: tuple, vjp) -> Var:
        out = self._new_var(value)
        self.ops.append(TapeOp(name, out.idx, tuple(v.idx for v in inputs), vjp))
        return out

    def node(self, value: np.ndarray, inputs: tuple, vjp) -> Var:
        """A node with a hand-written adjoint ``vjp``, one gradient per input: the
        model's whole pass (``model.build_taped_logits``) over its parameters."""
        return self._record("node", value, inputs, vjp)

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
        probs = np.exp(shifted)
        z = probs.sum(axis=1, keepdims=True)
        loss = float(np.mean(np.log(z[:, 0]) - shifted[np.arange(rows.size), labels]))
        probs /= z

        def vjp(g):
            delta = probs.copy()
            delta[np.arange(rows.size), labels] -= 1.0
            full = np.zeros_like(logits.value)
            np.add.at(full, rows, (float(g) / rows.size) * delta)
            return (full,)

        return self._record("softmax_cross_entropy", loss, (logits,), vjp)


def backward(tape: Tape, loss: Var) -> dict:
    """Exact gradients of the recorded composition w.r.t. every trainable leaf, by name
    (zeros for a leaf the loss does not reach).

    The first gradient an input receives is kept as its accumulator and later
    ones are added into it in place; this is sound because, by the ``Tape``
    rule, no VJP returns an array that anything else holds.
    """
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
            if idx in grads:
                grads[idx] += ig
            else:
                grads[idx] = ig
        ig = None  # or the last input gradient outlives its sum, through the next VJP
    store = {}
    for name, var in tape.params.items():
        g = grads.get(var.idx)
        store[name] = np.zeros_like(var.value) if g is None else np.asarray(g, dtype=np.float64)
    return store


def check_gradients(build, params: dict, samples: int = 256, step: float = 1e-5, seed: int = 0) -> dict:
    """Compare tape gradients against central finite differences.

    ``build(params)`` must run a fresh forward pass and return ``(tape, loss)``.
    For each parameter a random subset of coordinates is perturbed by ``step``.
    The reported error is ``|analytic - fd|`` normalized by
    ``max(1, |analytic|, |fd|)`` per coordinate; the check fails when any
    parameter exceeds ``GRADIENT_THRESHOLD`` or an error is not finite.
    """
    if samples < 1:
        raise ValueError(f"check_gradients: samples must be at least 1, got {samples}")
    if not 0.0 < step < np.inf:
        raise ValueError(f"check_gradients: step must be positive and finite, got {step}")
    tape, loss = build(params)
    analytic = backward(tape, loss)
    rng = np.random.Generator(np.random.PCG64(seed))
    report = {"params": {}, "threshold": GRADIENT_THRESHOLD}
    for name in sorted(params):
        base = params[name]
        flat = base.ravel()
        k = min(samples, flat.size)
        coords = rng.choice(flat.size, size=k, replace=False)
        errs = []
        for c in coords:
            orig = flat[c]
            flat[c] = orig + step
            _, lp = build(params)
            flat[c] = orig - step
            _, lm = build(params)
            flat[c] = orig
            fd = (float(lp.value) - float(lm.value)) / (2.0 * step)
            a = float(analytic[name].ravel()[c])
            errs.append(abs(a - fd) / max(1.0, abs(a), abs(fd)))
        # np.max keeps a NaN error, where max() would drop it
        report["params"][name] = {"max_rel_err": float(np.max(errs, initial=0.0)), "checked": int(k)}
    worst = float(np.max([p["max_rel_err"] for p in report["params"].values()], initial=0.0))
    report["max_rel_err"] = worst
    report["passed"] = bool(worst <= GRADIENT_THRESHOLD)
    return report
