"""Unrolled propagation layers, the affine base predictor and classifier, and step bounds.

Each layer applies one preconditioned proximal-gradient step of the chosen
energy variant:

    Y <- ReLU( Y - alpha * D_tilde^{-1} grad E(Y) / 2 )

which is the kernel of ``energy.Propagation`` at a layer's constants plus
``alpha * D_tilde^{-1} Fx``; the ReLU is the prox of the nonnegativity
barrier and applies at every step.  The step is written once, as ``layer``,
and the pass once, as ``forward``, which training, evaluation and inference
all run; the taped pass records it as one node, whose adjoint ``_pass_vjp``
runs ``layer_vjp`` from the last layer down.  ``descent_trace`` calls
``layer`` too, and the step bounds apply its kernel at their own constants.

A node in no hyperedge has zero rows in ``L_H``, so its energy term is
``||y_i - f_i||^2`` alone, in either variant: its minimiser over
``y_i >= 0``, ``ReLU(f_i)``, is where the first layer takes it from
``Y_0 = Fx`` and where every later layer keeps it.  The layers of both
variants therefore run on the rows of ``ExpansionOperators``, the ``k``
nodes in some hyperedge (0 on a hypergraph with no hyperedge), and the
isolated rows are ``ReLU(Fx)`` in closed form.

The cost of a layer, with ``G`` degree and ``E`` edge size classes grouped
(see ``Propagation``): a general kernel call makes ``G + E + 4`` BLAS
``dgemm`` calls, one per class and two on each tail, and no numpy product; a
simple one makes no ``dgemm``.  Either starts its k x d output from ``u * Y``
plus, in a layer, ``c * Fx``, with no zero fill, and sums its products into
it in place.  A general adjoint makes a kernel call for ``dY`` and
``6 + G + E`` numpy products: one reduction per class, two on each tail and
the two of ``dH0`` and ``dH1``; a simple one makes the kernel call alone.  A
tail that holds no row, or no edge, makes none of its two products or two
reductions.  A pass of ``T`` layers makes ``T`` times a
layer's calls, ``descent_trace`` a kernel call per iterate, and a step bound
one per operator application.  A simple pass allocates no k x d float array
per layer: each layer writes its output over its ``Y``, in one array that
starts as ``forward``'s own copy of ``Fx``'s linked rows, and each adjoint
after the sweep's first writes ``dY`` over the gradient it is handed, after
adding it into the one ``c * Fx`` gradient sum.  A general layer's output is
a new array, as its taped pass keeps every ``Y_t``.
"""

from __future__ import annotations

import json
import sys
import typing
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .autodiff import Tape, Var
from .energy import VARIANTS, EnergyParams, Propagation, _matmul, _reductions, _spmm, energy_from_neg_lap
from .hypergraph import ExpansionOperators
from .linalg import EigenResult, extreme_eigenvalue

__all__ = [
    "ModelConfig",
    "Affine",
    "Model",
    "init_model",
    "Propagation",
    "layer",
    "layer_vjp",
    "forward",
    "build_taped_logits",
    "StepBound",
    "step_bound_simple",
    "step_bound_general",
    "descent_trace",
    "save_checkpoint",
    "load_checkpoint",
]

@dataclass
class ModelConfig:
    """Architecture settings: variant, depth, width, step size, expansion weights.

    This is the one home of ``alpha``; a model runs only on operators built for
    its ``(lambda0, lambda1)``.  The defaults are the CLI's.
    """

    variant: str = "simple"
    t_layers: int = 16
    d: int = 64
    alpha: float = 0.1
    lambda0: float = 1.0
    lambda1: float = 1.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.t_layers < 1:
            raise ValueError(f"t_layers must be >= 1, got {self.t_layers} (the config key 'prop_step')")
        if self.d < 1:
            raise ValueError(f"embedding width must be >= 1, got {self.d} (the config key 'hidden')")
        if not 0.0 < self.alpha < np.inf:
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        for key in ("lambda0", "lambda1"):
            if not 0.0 <= getattr(self, key) < np.inf:
                raise ValueError(f"{key} must be nonnegative and finite, got {getattr(self, key)}")


_KIND_NAMES = {bool: "true or false", int: "an integer", float: "a finite number"}


def check_config_value(key: str, value, kind: type) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``value`` is a ``bool`` for ``bool``,
    an ``int`` that is not a ``bool`` for ``int``, or a finite int or float for ``float``."""
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, int)
    else:  # an int past the float range would overflow float()
        ok = isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    if not ok:
        raise ValueError(f"config key {key!r} must be {_KIND_NAMES[kind]}, got {value!r}")


@dataclass(eq=False)
class Affine:
    """Node-wise affine map ``x @ w + b``: the base predictor f(X; W) and the classifier head."""

    w: np.ndarray
    b: np.ndarray

    def apply(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) @ self.w + self.b[None, :]


@dataclass(eq=False)
class Model:
    config: ModelConfig
    predictor: Affine
    classifier: Affine
    params: EnergyParams

    def parameters(self) -> dict:
        """Live views of every trainable tensor, keyed by name.

        Compatibility matrices are trainable only in the general variant.
        """
        out = {
            "predictor.w0": self.predictor.w,
            "predictor.b0": self.predictor.b,
            "classifier.w": self.classifier.w,
            "classifier.b": self.classifier.b,
        }
        if self.config.variant == "general":
            out["h0"] = self.params.h0
            out["h1"] = self.params.h1
        return out


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(config: ModelConfig, d_x: int, n_classes: int, seed: int = 0) -> Model:
    """Seeded initialization; compatibility matrices start at identity plus small noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    predictor = Affine(_glorot(rng, d_x, config.d), np.zeros(config.d))
    classifier = Affine(_glorot(rng, config.d, n_classes), np.zeros(n_classes))
    if config.variant == "general":
        h0 = np.eye(config.d) + 0.01 * rng.standard_normal((config.d, config.d))
        h1 = np.eye(config.d) + 0.01 * rng.standard_normal((config.d, config.d))
    else:
        h0 = np.eye(config.d)
        h1 = np.eye(config.d)
    return Model(config, predictor, classifier, EnergyParams(h0, h1))


# -- propagation layers ------------------------------------------------------


def layer(y: np.ndarray, c_fx: np.ndarray, prop: Propagation, kept: list | None = None,
          pre: np.ndarray | None = None, out: np.ndarray | None = None) -> np.ndarray:
    """One descent step of either variant, ``ReLU(K(Y) + c_fx)`` with ``c_fx = prop.c * fx``.

    ``pre``, when given, is ``K(Y) + c_fx``, ``prop.kernel(y, *prop.fwd, c_fx)[0]``,
    taken by a caller that also reads it; the step is finished in it, in place.
    Otherwise ``out``, when given, is the kernel's output array, which a simple
    layer may be handed as ``y`` itself (see ``Propagation.kernel``): the step
    is then written over ``Y``, and no k x d float array is allocated.

    A ``kept`` list receives what ``layer_vjp`` reads.  In the general variant
    that is ``(Y, out)``, two arrays the taped pass holds anyway (``out`` is
    the next layer's ``Y`` or the classifier's input), so the layer allocates
    nothing for its adjoint: the ReLU mask is ``out > 0`` and ``P = B^T Y``
    is one sparse product, both rebuilt in the reverse sweep.  The simple
    variant's adjoint does not read ``Y``, which nothing else holds, so it
    keeps the ReLU mask alone: k x d bytes on the ``k`` rows of ``prop``,
    where ``Y`` would cost eight times that."""
    if y.shape != c_fx.shape or y.shape[0] != prop.c.shape[0]:
        raise ValueError(f"layer: shapes {y.shape}, {c_fx.shape} for the kernel's k={prop.c.shape[0]} rows")
    out = prop.kernel(y, *prop.fwd, c_fx, out=out)[0] if pre is None else pre
    np.maximum(out, 0.0, out=out)
    if kept is not None:
        kept += (y, out) if prop.general else (out > 0.0,)
    return out


def layer_vjp(g: np.ndarray, prop: Propagation, kept: list, d_c_fx: np.ndarray | None = None) -> tuple:
    """Hand-written adjoint of ``layer``: gradients for ``(Y, c_fx)``, and ``(H0, H1)`` when general.

    With ``g`` masked by the ReLU and ``R = c * g``: ``dY = K(g; B, B^T diag(c))``,
    ``dc_fx = g``, and ``dH_k`` follows through ``M_k`` and ``G_k`` from ``P^T (B^T R)``,
    ``Y^T (ca * g)`` and ``Y^T (cb * g)``; ``c`` enters through ``B^T diag(c)``,
    ``ca`` and ``cb``, and ``R`` is never formed.  ``Fx``'s gradient is ``c``
    times ``c_fx``'s, a multiply left to ``_pass_vjp``.  The general variant's
    mask ``out > 0`` and ``P = B^T Y`` are rebuilt from ``kept`` with the
    forward's own factor, so they equal, bit for bit, what the forward
    computed.  ``backward`` hands ``g`` over, so the mask is written into it.
    The ``c_fx`` gradient is then added into ``d_c_fx``, the running sum of the
    later layers' (``_pass_vjp``'s, returned in place of ``g``), or is ``g``
    itself when ``d_c_fx`` is None.  Only after that does a simple adjoint
    kernel write ``dY`` over ``g``, so a reverse sweep that hands each layer
    the ``dY`` of the layer after it, and the sum, runs in those two arrays;
    with no sum given, ``dY`` is a new array, as it always is when general.
    ``_reductions`` takes each side's pair, ``Y^T (ca * g)`` and
    ``Y^T (cb * g)`` on the rows, then ``P^T S`` and ``P^T (e * S)`` on the
    edges (``S = B^T R``): each grouped class adds its ``Z_g = Y_g^T g_g``
    (``Z_s = P_s^T S_s``) to both, at its scalars, after the tail's two
    products, whose scaled operand it writes into the side's work array."""
    np.multiply(g, kept[1] > 0.0 if prop.general else kept[0], out=g)
    d_c_fx = g if d_c_fx is None else np.add(d_c_fx, g, out=d_c_fx)
    dy, s = prop.kernel(g, *prop.adj, out=None if prop.general or d_c_fx is g else g)
    if not prop.general:
        return dy, d_c_fx
    y0, y1 = _reductions(prop.rows, kept[0], g)
    c0, c1 = _reductions(prop.edges, _spmm(prop.fwd[1], kept[0]), s)
    return (dy, d_c_fx, prop.half_l0 * (c0 + c0.T) - _matmul(y0 + y0.T, prop.h0),
            (c1 + c1.T) - _matmul(y1 + y1.T, prop.h1))


def _propagation(model: Model, ops: ExpansionOperators, x) -> Propagation:
    """The layers' kernel of ``model``, for features ``x``: ``ops`` must be built for the
    model's ``(lambda0, lambda1)``, and ``x`` must have a row per node of the hypergraph."""
    cfg = model.config
    if (ops.lambda0, ops.lambda1) != (cfg.lambda0, cfg.lambda1):
        raise ValueError(
            f"expansion operators were built for (lambda0={ops.lambda0}, lambda1={ops.lambda1}) "
            f"but the model's config has ({cfg.lambda0}, {cfg.lambda1})"
        )
    if len(x) != ops.n:
        raise ValueError(f"the features have {len(x)} rows but the hypergraph has {ops.n} nodes")
    return Propagation(ops, model.params, cfg.variant, cfg.alpha)


def forward(x: np.ndarray, model: Model, ops: ExpansionOperators, input_mask: np.ndarray | None = None,
            feature_mask: np.ndarray | None = None, kept: dict | None = None):
    """Full unrolled pass: base projection, T propagation steps, classifier logits.

    Dropout enters as constant multiplicative masks, ``input_mask * X``
    before the predictor and ``feature_mask * Fx`` after it; ``None`` leaves
    either out.  The layers run on the linked rows; the last ``Y`` and
    ``ReLU(Fx)`` on the isolated rows are written into ``Fx``'s array, which
    is returned as ``Y``.  The classifier is applied to each set of rows on
    its own, so its adjoint reads the last ``Y`` on the linked rows, which the
    last general layer keeps anyway, and no n x d ``Y``.  In the simple
    variant every layer writes over its input, in one k x d array that starts
    as ``Fx[linked]``, a copy the pass owns: taped or not, no caller's array
    is written, and a layer allocates its bool mask alone.  A ``kept`` dict
    receives what ``_pass_vjp`` reads: the predictor's input ``h``, the
    feature mask, the kernel and its rows, each layer's ``layer`` list, and
    the classifier's inputs ``y`` and ``iso``."""
    h = np.asarray(x, dtype=np.float64)
    prop, linked, isolated = _propagation(model, ops, h), ops.linked, ops.isolated
    if input_mask is not None:
        h = input_mask * h
    fx = model.predictor.apply(h)
    if feature_mask is not None:
        fx = feature_mask * fx
    y = fx[linked]
    c_fx = prop.c * y
    steps = [[] if kept is not None else None for _ in range(model.config.t_layers)]
    for saved in steps:
        y = layer(y, c_fx, prop, saved, out=None if prop.general else y)
    iso = np.maximum(fx[isolated], 0.0)
    if kept is not None:
        kept.update(h=h, feature_mask=feature_mask, prop=prop, linked=linked, isolated=isolated,
                    layers=steps, y=y, iso=iso)
    logits = np.empty((fx.shape[0], model.classifier.b.size))
    logits[linked] = model.classifier.apply(y)
    logits[isolated], fx[isolated] = model.classifier.apply(iso), iso
    fx[linked] = y
    return fx, logits


def _pass_vjp(g: np.ndarray, model: Model, kept: dict) -> tuple:
    """Hand-written adjoint of ``forward`` from the logits' gradient ``g``, which it
    owns: one gradient per entry of ``model.parameters()``, in order.

    The sweep runs the pass backwards: the classifier on the isolated rows,
    then on the linked rows; the layers from T down to 1 through
    ``layer_vjp``, each layer's ``c_fx``, ``H0`` and ``H1`` gradients summed
    into the last layer's (``layer_vjp`` adds ``c_fx``'s, before a simple
    adjoint writes ``dY`` over its ``g``), the ``c_fx`` sum then multiplied
    by ``c`` once, as every layer reads ``c_fx = c * Fx``, and given layer
    1's ``dY`` (its ``Y`` is ``Fx``); ``Fx``'s n x d gradient, written from
    the linked and the isolated rows' parts; and the predictor through the
    feature mask.  The order of the sums fixes the gradients' bits, and so
    the checkpoints that fixed seeds reproduce.  Each gradient is freed once
    it is summed."""
    prop, linked, isolated, layers, y, iso = (kept[k] for k in ("prop", "linked", "isolated", "layers", "y", "iso"))
    w = model.classifier.w
    g_iso = g[isolated]
    dw, db = iso.T @ g_iso, g_iso.sum(axis=0)
    d_iso = np.multiply(g_iso @ w.T, iso > 0.0)
    del g_iso
    g = g[linked]
    dw += y.T @ g
    db += g.sum(axis=0)
    dy = g @ w.T
    del g
    d_rows = dh = None
    for saved in reversed(layers):
        dy, d_rows, *terms = layer_vjp(dy, prop, saved, d_rows)
        dh = terms if dh is None else [np.add(total, term, out=total) for total, term in zip(dh, terms)]
    d_rows *= prop.c  # every layer's c_fx = c * Fx: one multiply of the sum
    d_rows += dy  # layer 1's Y is Fx
    del dy
    d_fx = np.empty((kept["h"].shape[0], w.shape[0]))
    d_fx[linked], d_fx[isolated] = d_rows, d_iso
    del d_rows, d_iso
    if kept["feature_mask"] is not None:
        d_fx = kept["feature_mask"] * d_fx
    return (kept["h"].T @ d_fx, d_fx.sum(axis=0), dw, db, *dh)


# -- taped forward (training path) -------------------------------------------


def build_taped_logits(
    tape: Tape, model: Model, ops: ExpansionOperators, x: np.ndarray,
    input_mask: np.ndarray | None = None, feature_mask: np.ndarray | None = None
) -> Var:
    """Record ``forward`` on ``tape`` as one node, over a leaf per model parameter,
    whose adjoint is ``_pass_vjp``; return the logits node.  The masks are
    ``forward``'s, constants of the pass."""
    leaves = tuple(tape.leaf(arr, name) for name, arr in model.parameters().items())
    kept = {}
    _, logits = forward(x, model, ops, input_mask, feature_mask, kept)
    return tape.node(logits, leaves, partial(_pass_vjp, model=model, kept=kept))


# -- step-size bounds ---------------------------------------------------------


@dataclass
class StepBound:
    """Convergence step-size bound, the eigenvalue solve behind it, and what makes it safe.

    ``certificate`` is ``rank`` (``K`` is singular), ``lanczos`` (a converged
    Ritz value moved by its residual), ``psd-floor`` (``sigma_min(K) >= 0``),
    ``norm-bound`` (the norm bound ``lift``) or ``trivial`` (a zero operator).
    """

    value: float
    sigma: float
    eig: EigenResult
    certificate: str


def step_bound_simple(ops: ExpansionOperators) -> StepBound:
    """Largest provably safe step for the simple update.

    Computes ``c / (c - sigma_min)`` with ``c = 1 + lambda0*d_Cmin +
    lambda1*d_Smin`` and ``sigma_min`` the minimum eigenvalue of the combined
    adjacency ``K = lambda0*A_C + lambda1*A_S_bar = B W B^T``, applied as the
    kernel at ``c = 1``, ``u = 0``.  Scalars decide ``trivial``: ``K = 0``
    when there is no hyperedge or ``lambda0 = lambda1 = 0``, its weights
    ``W = lambda0 + lambda1 / m_e`` being all zero then and only then, as
    every edge size ``m_e >= 1``.  ``K`` is singular, so ``sigma_min = 0``
    with no solve, when ``m < n`` (rank ``K <= m``) or a node is isolated (a
    zero row), the ``rank`` certificate.  Otherwise every node is linked,
    ``k = n``, and Lanczos on the linked rows, a permutation of ``K``, gives
    a Ritz value ``theta`` with residual ``r``; some eigenvalue lies within
    ``||r||`` of ``theta``, and ``sigma_min = max(theta - ||r||, 0)``.  ``K``
    is PSD, so ``sigma_min = 0`` is used when the solve does not converge:
    an unconverged estimate of ``sigma_min`` can only be too high.
    """
    if ops.b.shape[1] == 0 or ops.lambda0 == ops.lambda1 == 0.0:
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "trivial")
    if ops.b.shape[1] < ops.n or ops.isolated.size:
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "rank")

    k = Propagation._at(ops, None, "simple", 1.0)

    def apply(v):
        return k.kernel(v[:, None], *k.fwd)[0][:, 0]

    eig = extreme_eigenvalue(apply, ops.n, which="min")
    c = 1.0 + ops.lambda0 * float(ops.d_c.min()) + ops.lambda1 * float(ops.d_s_bar.min())
    sigma = max(eig.value - eig.residual, 0.0) if eig.converged else 0.0
    return StepBound(c / (c - sigma), sigma, eig, "lanczos" if sigma > 0.0 else "psd-floor")


def step_bound_general(ops: ExpansionOperators, params: EnergyParams) -> StepBound:
    """Largest provably safe step for the general update.

    The curvature term is the max eigenvalue of the Kronecker-structured
    operator ``V -> s*(D_C V H0H0^T - A_C V (H0+H0^T)) + lambda1*(D_S_bar V
    H1H1^T - A_S_bar V (H1+H1^T) + A_S_bar V)`` with ``s = lambda0/2``,
    applied as the kernel at ``c = -1``, ``u = 0``; the bound is ``(1 +
    lambda0*d_Cmin + lambda1*d_Smin) / (1 + s*d_Cmin + sigma_max)``, its
    minima over every node, 0 when some node is isolated.  As ``||A_C|| <=
    max d_C`` and ``||A_S_bar|| <= max d_S_bar``, ``lift`` bounds the
    operator's norm; it is taken first, from ``H0`` and ``H1`` alone, and
    ``lift = 0`` is the zero operator, the ``trivial`` certificate, with no
    kernel built.
    A node in no hyperedge has zero rows and columns in the operator, so the
    solve runs on its nonzero block, the linked rows of ``ops``, vectors of
    ``k * d`` for ``k`` linked nodes, to which the Kuczynski-Wozniakowski and
    Paige arguments of the Lanczos certificate apply; the isolated rows add
    the eigenvalue 0.  ``sigma_max`` is ``theta + ||r||`` for a converged
    Ritz value ``theta`` with residual ``r``, ``max(theta + ||r||, 0)`` when
    some node is isolated, if that is below ``lift``, and ``lift`` otherwise.
    """
    s, lam1 = 0.5 * ops.lambda0, ops.lambda1
    h0, h1 = params.h0, params.h1

    def spec_norm(m):
        return float(np.max(np.abs(np.linalg.eigvalsh((m + m.T) / 2.0))))

    lift = s * float(ops.d_c.max(initial=0.0)) * (spec_norm(h0 @ h0.T) + spec_norm(h0 + h0.T))
    lift += lam1 * float(ops.d_s_bar.max(initial=0.0)) * (spec_norm(h1 @ h1.T) + spec_norm(h1 + h1.T) + 1.0)
    if lift == 0.0:
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "trivial")
    n, d = ops.b.shape[0], params.d
    k = Propagation._at(ops, params, "general", -1.0)

    def apply(vec):
        return k.kernel(vec.reshape(n, d), *k.fwd)[0].ravel()

    eig = extreme_eigenvalue(apply, n * d, which="max")
    sigma = eig.value + eig.residual
    if ops.isolated.size:  # the isolated rows' eigenvalue 0
        sigma = max(sigma, 0.0)
    if eig.converged and sigma < lift:
        certificate = "lanczos"
    else:
        sigma, certificate = lift, "norm-bound"
    # the degree minima over every node: an isolated node's degrees are 0
    d_c_min, d_s_min = (0.0, 0.0) if ops.isolated.size else (float(ops.d_c.min()), float(ops.d_s_bar.min()))
    numer = 1.0 + ops.lambda0 * d_c_min + lam1 * d_s_min
    denom = 1.0 + s * d_c_min + sigma
    if denom <= 0.0:
        raise ValueError(f"degenerate curvature: bound denominator {denom} <= 0")
    return StepBound(numer / denom, sigma, eig, certificate)


# The energy is row-separable, so the trace evaluates it in row blocks of
# this many bytes per array: its dozen elementwise passes then run in a
# core's L2, where on n x d arrays of several MB they stream from memory.
_TRACE_BLOCK_BYTES = 1 << 18


@np.errstate(over="ignore", invalid="ignore")  # a non-finite row raises below
def descent_trace(x: np.ndarray, model: Model, ops: ExpansionOperators, steps: int | None = None) -> list:
    """Run ``model``'s layers from its base prediction ``Fx`` and record one row per iterate.

    Rows are dicts of ``iteration``, ``energy``, ``feasible`` and ``grad_norm``.
    ``steps`` defaults to ``t_layers``, so the last row is the energy of
    ``forward``'s embedding.  Each row runs the layers' kernel once, as a
    layer does, for the pre-activation ``Z = K(Y) + c * Fx``, and reads it
    twice: ``-L_H Y = (d_tilde / alpha) * Z - Fx - (d_tilde / alpha - 1) * Y``
    (both variants, as ``K(Y) = (1 - alpha) Y - c L_H Y + c (d_tilde - 1) Y``
    with ``c = alpha / d_tilde`` and ``lambda0 d_C + lambda1 d_S_bar =
    d_tilde - 1``) for the energy, and the next iterate, which ``layer``
    finishes in ``Z``, so the iterates are ``forward``'s bit for bit.  The
    energy is not taken from ``(Y_t - Y_{t+1}) / c``: its ``(1 - alpha) Y``
    and ``c * Fx`` terms cancel as the descent converges.  Reading ``-L_H Y``
    off ``Z``, which holds ``(1 - alpha) Y``, scales that term's rounding by
    ``d_tilde / alpha`` (CHANGES.md gives the error per ``alpha``; 1e-10
    relative holds down to about ``alpha = 1e-5``).  A row whose energy or
    gradient norm is not finite raises ``ValueError``, naming its iteration
    and ``alpha``; no row after it is run.  The iterates cover the linked rows
    alone.  An isolated row is ``Fx`` at iterate 0, where it adds nothing to
    the energy or the gradient but is feasible only if ``Fx >= 0``, and ``ReLU(Fx)``
    from iterate 1 on, where its residual ``min(Fx, 0)`` adds
    ``||min(Fx, 0)||^2`` to the energy and ``4 ||min(Fx, 0)||^2`` to the
    squared gradient norm."""
    cfg = model.config
    steps = cfg.t_layers if steps is None else steps
    if steps < 0:
        raise ValueError(f"descent_trace: steps must be nonnegative, got {steps}")
    rows = []
    prop = _propagation(model, ops, x)
    fx = model.predictor.apply(x)
    residual = np.minimum(fx[ops.isolated], 0.0)  # Fx - ReLU(Fx), zero where Fx >= 0
    iso_feasible, iso_sq = not residual.any(), float(np.vdot(residual, residual))
    y = fx = fx[ops.linked]
    c_fx = prop.c * fx
    scale = (ops.d_tilde / cfg.alpha)[:, None]
    diag = scale - 1.0
    block = max(1, _TRACE_BLOCK_BYTES // (8 * fx.shape[1]))
    neg_lap, work = np.empty_like(fx[:block]), np.empty_like(fx[:block])
    for t in range(steps + 1):
        pre, _ = prop.kernel(y, *prop.fwd, c_fx)
        energy, feasible, grad_sq = 0.0, iso_feasible or t > 0, 0.0
        for lo in range(0, len(fx), block):
            rb = slice(lo, lo + block)
            y_b = y[rb]
            nl, w = neg_lap[: len(y_b)], work[: len(y_b)]
            np.multiply(pre[rb], scale[rb], out=nl)
            nl -= fx[rb]
            nl -= np.multiply(y_b, diag[rb], out=w)
            e = energy_from_neg_lap(y_b, fx[rb], nl, w)
            energy += e.smooth
            feasible &= e.feasible
            grad_sq += float(np.vdot(e.grad, e.grad))
        if t:  # the isolated rows, at ReLU(Fx)
            energy += iso_sq
            grad_sq += 4.0 * iso_sq
        if not np.isfinite([energy, grad_sq]).all():
            raise ValueError(f"descent_trace: energy or gradient not finite at iteration {t} (alpha={cfg.alpha})")
        rows.append({"iteration": t, "energy": energy, "feasible": feasible, "grad_norm": grad_sq**0.5})
        if t < steps:
            y = layer(y, c_fx, prop, pre=pre)
    return rows


# -- checkpoints ---------------------------------------------------------------

CHECKPOINT_FORMAT = "phenomnn-checkpoint-v2"


def save_checkpoint(model: Model, path) -> None:
    """Serialize every parameter tensor plus the config; round-trips bit-exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "predictor": {"w": model.predictor.w.tolist(), "b": model.predictor.b.tolist()},
        "classifier": {"w": model.classifier.w.tolist(), "b": model.classifier.b.tolist()},
        "h0": model.params.h0.tolist(),
        "h1": model.params.h1.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_checkpoint(path) -> Model:
    """Read a ``save_checkpoint`` file.  One that does not describe a model (a
    missing key, a config field among them, a config value not of its field's
    type as ``check_config_value`` judges it, array shapes that disagree with
    ``config.d`` or with each other, a non-finite entry in any array, the
    simple variant's unread ``h0``/``h1`` included) raises ``ValueError``
    naming ``path`` and, for an array, its key.  So does a file of any format
    but ``CHECKPOINT_FORMAT``, an earlier ``phenomnn-checkpoint-v1`` among them."""
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint: {path} is not a {CHECKPOINT_FORMAT} file")
    try:
        config = dict(payload["config"])
        for key, kind in typing.get_type_hints(ModelConfig).items():
            value = config[key]  # a field's default would hide a truncated config
            if kind in _KIND_NAMES:
                check_config_value(key, value, kind)
        cfg = ModelConfig(**config)
        pred, head = payload["predictor"], payload["classifier"]
        arrays = [
            np.array(a, dtype=np.float64)
            for a in (pred["w"], pred["b"], head["w"], head["b"], payload["h0"], payload["h1"])
        ]
    except KeyError as exc:
        raise ValueError(f"{path}: checkpoint has no key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    w, b, cw, cb, h0, h1 = arrays
    d = cfg.d
    expected = (w.shape[:1] + (d,), (d,), (d, cb.size), (cb.size,), (d, d), (d, d))
    names = ("predictor.w0", "predictor.b0", "classifier.w", "classifier.b", "h0", "h1")
    for name, a, shape in zip(names, arrays, expected):
        if a.shape != shape:
            raise ValueError(f"{path}: {name} has shape {a.shape}, expected {shape} for d={d}")
        if not np.isfinite(a).all():
            raise ValueError(f"{path}: {name} holds a non-finite value")
    return Model(cfg, Affine(w, b), Affine(cw, cb), EnergyParams(h0, h1))
