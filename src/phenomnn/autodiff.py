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

import weakref
from dataclasses import dataclass

import numpy as np

__all__ = ["Tape", "Var", "backward", "check_gradients"]

# the largest normalized error ``check_gradients`` passes
GRADIENT_THRESHOLD = 1e-4


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


class Tape:
    """Ordered record of primitive operations for one forward pass.

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
        """``a @ b``; an operand that needs no gradient (the input features) is
        not an input of the node, so its adjoint is never formed."""
        if a.value.shape[1] != b.value.shape[0]:
            raise ValueError(f"matmul: cannot multiply {a.value.shape} by {b.value.shape}")
        av, bv = a.value, b.value
        if not a.requires_grad:
            return self._record("matmul", av @ bv, (b,), lambda g: (av.T @ g,))
        if not b.requires_grad:
            return self._record("matmul", av @ bv, (a,), lambda g: (g @ bv.T,))
        return self._record("matmul", av @ bv, (a, b), lambda g: (g @ bv.T, av.T @ g))

    def mul_const(self, a: Var, mask: np.ndarray) -> Var:
        """Elementwise product with a constant array (dropout masks and the like)."""
        mask = np.asarray(mask, dtype=np.float64)
        if mask.shape != a.value.shape:
            raise ValueError(f"mul_const: shape mismatch {mask.shape} vs {a.value.shape}")
        return self._record("mul_const", mask * a.value, (a,), lambda g: (mask * g,))

    def layer(self, value: np.ndarray, inputs: tuple, vjp) -> Var:
        """A node with a hand-written adjoint ``vjp``, one gradient per input: a
        propagation layer's output (``model.layer``) over ``(Y, Fx[, H0, H1])``,
        or every layer at once on the nodes in no hyperedge, in closed form."""
        return self._record("layer", value, inputs, vjp)

    def take_rows(self, a: Var, rows: np.ndarray) -> Var:
        """Rows ``rows`` of ``a``, distinct and in any order (the linked nodes come by
        degree class); the adjoint scatters ``g`` into those rows of a zero array
        of ``a``'s shape."""
        shape = a.value.shape
        inside = rows.ndim == 1 and (not rows.size or 0 <= rows.min() and rows.max() < shape[0])
        if not inside or np.unique(rows).size != rows.size:
            raise ValueError(f"take_rows: rows must be distinct indices below {shape[0]}")

        def vjp(g):
            out = np.zeros(shape)
            out[rows] = g
            return (out,)

        return self._record("take_rows", a.value[rows], (a,), vjp)

    def merge_rows(self, parts: tuple, rows: tuple) -> Var:
        """One array whose rows ``rows[i]`` are ``parts[i]``'s, the index sets
        partitioning its rows; the adjoint of ``parts[i]`` is ``g[rows[i]]``."""
        sizes = [p.value.shape[0] for p in parts]
        if sizes != [r.size for r in rows]:
            raise ValueError(f"merge_rows: parts of {sizes} rows for {[r.size for r in rows]} indices")
        n = sum(sizes)
        if n and not np.array_equal(np.bincount(np.concatenate(rows), minlength=n), np.ones(n, dtype=np.int64)):
            raise ValueError(f"merge_rows: the row indices do not partition range({n})")
        out = np.empty((n, *parts[0].value.shape[1:]))
        for p, r in zip(parts, rows):
            out[r] = p.value
        return self._record("merge_rows", out, tuple(parts), lambda g: tuple(g[r] for r in rows))

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
        del ig  # or the last input gradient outlives its sum, through the next VJP
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
