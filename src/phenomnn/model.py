"""Unrolled propagation layers, the base predictor and classifier, and step bounds.

Each layer applies one preconditioned proximal-gradient step of the chosen
energy variant:

    Y <- ReLU( (1 - alpha) Y + alpha * D_tilde^{-1} [ bracket(Y) + Fx ] )

where the bracket collects the adjacency messages of the variant.  With
``relu_mode="end_only"`` the nonlinearity is skipped on all but the final
layer.  The step is written once, as ``layer`` over a pass's constants
(``Propagation``); ``forward``, ``descent_trace`` and the taped pass call it,
the last recording each layer as one node with the adjoint ``layer_vjp``.
``messagepassing_layer`` re-derives the same update as an explicit per-node
loop with node-dependent projection matrices; it exists as an equivalence
oracle for the matrix path and is quadratic in n.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy

from .autodiff import Tape, Var
from .energy import (
    EnergyParams,
    EnergyValue,
    adjacency_general,
    adjacency_simple,
    energy_general,
    energy_simple,
    grad_general,
    grad_simple,
    prox_nonneg,
)
from .hypergraph import ExpansionOperators, Hypergraph
from .linalg import EigenResult, extreme_eigenvalue, row_scale

__all__ = [
    "ModelConfig",
    "BasePredictor",
    "Classifier",
    "Model",
    "init_model",
    "Propagation",
    "layer",
    "layer_vjp",
    "messagepassing_layer",
    "forward",
    "build_taped_logits",
    "StepBound",
    "step_bound_simple",
    "step_bound_general",
    "descent_trace",
    "save_checkpoint",
    "load_checkpoint",
]

VARIANTS = ("general", "simple")
RELU_MODES = ("every_step", "end_only")


@dataclass
class ModelConfig:
    """Architecture settings: variant, depth, width, step size, expansion weights.

    ``strict_alpha`` makes run setup reject an ``alpha`` above the computed
    convergence bound for the variant; by default the configured value is
    trusted (preset tables are empirical).
    """

    variant: str
    t_layers: int
    d: int
    alpha: float
    lambda0: float
    lambda1: float
    relu_mode: str = "every_step"
    strict_alpha: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.relu_mode not in RELU_MODES:
            raise ValueError(f"relu_mode must be one of {RELU_MODES}, got {self.relu_mode!r}")
        if self.t_layers < 1:
            raise ValueError(f"t_layers must be >= 1, got {self.t_layers}")
        if self.d < 1:
            raise ValueError(f"embedding width must be >= 1, got {self.d}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")


@dataclass(eq=False)
class BasePredictor:
    """P-layer MLP mapping input features to the embedding width (ReLU between layers)."""

    weights: list
    biases: list

    def apply(self, x: np.ndarray) -> np.ndarray:
        h = np.asarray(x, dtype=np.float64)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b[None, :]
            if i < last:
                h = np.maximum(h, 0.0)
        return h


@dataclass(eq=False)
class Classifier:
    """Affine node-wise map from embeddings to class logits."""

    w: np.ndarray
    b: np.ndarray

    def apply(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) @ self.w + self.b[None, :]


@dataclass(eq=False)
class Model:
    config: ModelConfig
    predictor: BasePredictor
    classifier: Classifier
    params: EnergyParams

    def parameters(self) -> dict:
        """Live views of every trainable tensor, keyed by name.

        Compatibility matrices are trainable only in the general variant.
        """
        out = {}
        for i, (w, b) in enumerate(zip(self.predictor.weights, self.predictor.biases)):
            out[f"predictor.w{i}"] = w
            out[f"predictor.b{i}"] = b
        out["classifier.w"] = self.classifier.w
        out["classifier.b"] = self.classifier.b
        if self.config.variant == "general":
            out["h0"] = self.params.h0
            out["h1"] = self.params.h1
        return out


def _glorot(rng, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_model(
    config: ModelConfig,
    d_x: int,
    n_classes: int,
    seed: int = 0,
    predictor_layers: int = 1,
) -> Model:
    """Seeded initialization; compatibility matrices start at identity plus small noise."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dims = [d_x] + [config.d] * predictor_layers
    weights = [_glorot(rng, dims[i], dims[i + 1]) for i in range(predictor_layers)]
    biases = [np.zeros(dims[i + 1]) for i in range(predictor_layers)]
    cw = _glorot(rng, config.d, n_classes)
    cb = np.zeros(n_classes)
    if config.variant == "general":
        h0 = np.eye(config.d) + 0.01 * rng.standard_normal((config.d, config.d))
        h1 = np.eye(config.d) + 0.01 * rng.standard_normal((config.d, config.d))
    else:
        h0 = np.eye(config.d)
        h1 = np.eye(config.d)
    params = EnergyParams(h0, h1, config.lambda0, config.lambda1, config.alpha)
    return Model(config, BasePredictor(weights, biases), Classifier(cw, cb), params)


# -- propagation layers ------------------------------------------------------


class Propagation:
    """The constants every layer of one pass shares, worked out once per pass.

    With ``c = alpha / d_tilde`` and ``*`` scaling rows, the pre-ReLU step is
    ``K(Y; diag(c) B, B^T) + c * Fx``, where ``K(V; left, right) = left Q(right V)
    + u * V - ca * (V G0) - cb * (V G1)``, ``Q(P) = P M0 + (lambda1 / m_e) * (P M1)``,
    ``M0 = (lambda0/2)(H0 + H0^T)``, ``M1 = H1 + H1^T - I``, ``G_k = H_k H_k^T``,
    ``ca = c (lambda0/2) d_C``, ``cb = c lambda1 d_S_bar`` and ``u = 1 - alpha +
    ca + cb``.  In the simple variant (``H0 = H1 = I``) the ``G`` terms cancel
    ``ca + cb`` and ``Q`` folds into ``left``.  ``K``'s operators are symmetric,
    so the step's adjoint is ``K(.; B, B^T diag(c))``.  Callers form ``c * Fx``.
    """

    def __init__(self, ops: ExpansionOperators, params: EnergyParams, variant: str):
        if variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
        self.general = variant == "general"
        if self.general and (ops.lambda0 != params.lambda0 or ops.lambda1 != params.lambda1):
            raise ValueError("Propagation: params and operators carry different expansion weights")
        c = params.alpha / ops.d_tilde
        self.c = c[:, None]
        data = ops.b.data * np.repeat(c, np.diff(ops.b.indptr))
        if not self.general:
            data *= (ops.lambda0 + ops.lambda1 / ops.d_h)[ops.b.indices]
        left = sp.csr_matrix((data, ops.b.indices, ops.b.indptr), shape=ops.b.shape)
        self.fwd, self.adj = (left, ops.bt), (ops.b, left.T)
        self.u = 1.0 - params.alpha
        if not self.general:
            return
        h0, h1 = self.h0, self.h1 = params.h0, params.h1
        self.half_l0 = 0.5 * ops.lambda0
        self.m0, self.m1 = self.half_l0 * (h0 + h0.T), h1 + h1.T - np.eye(params.d)
        self.g0, self.g1 = h0 @ h0.T, h1 @ h1.T
        self.e = (ops.lambda1 / ops.d_h)[:, None]
        self.ca = self.c * (self.half_l0 * ops.d_c)[:, None]
        self.cb = self.c * (ops.lambda1 * ops.d_s_bar)[:, None]
        self.u = self.u + self.ca + self.cb

    def kernel(self, v: np.ndarray, left, right):
        """``K(v; left, right)`` and the edge-side product ``right v``."""
        p = right @ v
        if not self.general:
            out = left @ p  # a new C-contiguous array, so daxpy adds u v into it in place
            return daxpy(v.ravel(), out.ravel(), a=self.u).reshape(out.shape), p
        out = left @ (p @ self.m0 + self.e * (p @ self.m1))
        t = v @ self.g0
        t *= self.ca
        out -= t
        np.matmul(v, self.g1, out=t)
        t *= self.cb
        out -= t
        np.multiply(v, self.u, out=t)
        out += t
        return out, p


def layer(
    y: np.ndarray, c_fx: np.ndarray, prop: Propagation, apply_relu: bool = True, kept: list | None = None
) -> np.ndarray:
    """One descent step of either variant, ``ReLU(K(Y) + c_fx)`` with ``c_fx = prop.c * fx``.

    A ``kept`` list receives what ``layer_vjp`` reads: the ReLU mask (None
    without ReLU), plus ``Y`` and ``P = B^T Y`` in the general variant."""
    if y.shape != c_fx.shape or y.shape[0] != prop.c.shape[0]:
        raise ValueError(f"layer: shapes {y.shape}, {c_fx.shape} for n={prop.c.shape[0]}")
    out, p = prop.kernel(y, *prop.fwd)
    out += c_fx
    if apply_relu:
        np.maximum(out, 0.0, out=out)
    if kept is not None:
        kept.append(out > 0.0 if apply_relu else None)
        if prop.general:
            kept += (y, p)
    return out


def layer_vjp(g: np.ndarray, prop: Propagation, kept: list) -> tuple:
    """Hand-written adjoint of ``layer``: gradients for ``(Y, Fx)``, and ``(H0, H1)`` when general.

    With ``g`` masked by the ReLU and ``R = c * g``: ``dY = K(g; B, B^T diag(c))``,
    ``dFx = R``, and ``dH_k`` follows through ``M_k`` and ``G_k`` from ``P^T (B^T R)``,
    ``Y^T (ca * g)`` and ``Y^T (cb * g)``."""
    mask = kept[0]
    if mask is not None:
        g = g * mask  # a copy, which R then overwrites
    dy, s = prop.kernel(g, *prop.adj)
    grads = ()
    if prop.general:
        y, p = kept[1], kept[2]
        y0, y1 = y.T @ (prop.ca * g), y.T @ (prop.cb * g)
        c0, c1 = p.T @ s, p.T @ (prop.e * s)
        grads = (prop.half_l0 * (c0 + c0.T) - (y0 + y0.T) @ prop.h0, (c1 + c1.T) - (y1 + y1.T) @ prop.h1)
    return (dy, np.multiply(g, prop.c, out=g if mask is not None else None), *grads)


def messagepassing_layer(
    y: np.ndarray,
    fx: np.ndarray,
    ops: ExpansionOperators,
    params: EnergyParams,
    apply_relu: bool = True,
) -> np.ndarray:
    """Node-wise reference form of the general update.

    Every node aggregates its clique-expansion neighbors (self-loops included)
    through per-pair projection matrices, adds its own projection, and a
    weighted skip from the base prediction.  Small-n oracle path only.
    """
    alpha = params.alpha
    h0, h1 = params.h0, params.h1
    d = y.shape[1]
    eye = np.eye(d)
    w_pair = 0.5 * params.lambda0 * (h0 + h0.T)
    w_mean = params.lambda1 * (h1 + h1.T - eye)
    w_self_pair = 0.5 * params.lambda0 * (h0 @ h0.T - eye)
    w_self_mean = params.lambda1 * (h1 @ h1.T - eye)
    b = ops.b.toarray()
    a_c = b @ b.T
    a_s = (b / ops.d_h) @ b.T
    out = np.zeros_like(y)
    for i in range(y.shape[0]):
        scale_i = alpha / ops.d_tilde[i]
        w_i = (1.0 - alpha) * eye - scale_i * (ops.d_c[i] * w_self_pair + ops.d_s_bar[i] * w_self_mean)
        acc = y[i] @ w_i + scale_i * fx[i]
        for j in range(y.shape[0]):
            if a_c[i, j] == 0.0 and a_s[i, j] == 0.0:
                continue
            w_ij = scale_i * (a_c[i, j] * w_pair + a_s[i, j] * w_mean)
            acc = acc + y[j] @ w_ij
        out[i] = acc
    return prox_nonneg(out) if apply_relu else out


def _relu_flags(config: ModelConfig):
    last = config.t_layers - 1
    return [config.relu_mode == "every_step" or t == last for t in range(config.t_layers)]


def forward(x: np.ndarray, model: Model, ops: ExpansionOperators):
    """Full unrolled pass: base projection, T propagation steps, classifier logits."""
    fx = model.predictor.apply(x)
    prop = Propagation(ops, model.params, model.config.variant)
    c_fx = prop.c * fx
    y = fx
    for use_relu in _relu_flags(model.config):
        y = layer(y, c_fx, prop, use_relu)
    return y, model.classifier.apply(y)


# -- taped forward (training path) -------------------------------------------


def build_taped_logits(
    tape: Tape, model: Model, ops: ExpansionOperators, x: np.ndarray,
    input_mask: np.ndarray | None = None, feature_mask: np.ndarray | None = None
) -> Var:
    """Record the full forward pass on ``tape`` and return the logits node.

    Dropout enters as constant multiplicative masks on the input features and
    on the base prediction; passing ``None`` disables either mask.
    """
    cfg = model.config
    params = {name: tape.leaf(arr, name=name) for name, arr in model.parameters().items()}
    h = tape.constant(x)
    if input_mask is not None:
        h = tape.mul_const(h, input_mask)
    last = len(model.predictor.weights) - 1
    for i in range(last + 1):
        h = tape.add_rowvec(tape.matmul(h, params[f"predictor.w{i}"]), params[f"predictor.b{i}"])
        if i < last:
            h = tape.relu(h)
    fx = h
    if feature_mask is not None:
        fx = tape.mul_const(fx, feature_mask)

    prop = Propagation(ops, model.params, cfg.variant)
    c_fx = prop.c * fx.value
    compat = (params["h0"], params["h1"]) if prop.general else ()
    y = fx
    for use_relu in _relu_flags(cfg):
        kept = []
        value = layer(y.value, c_fx, prop, use_relu, kept)
        y = tape.layer(value, (y, fx, *compat), partial(layer_vjp, prop=prop, kept=kept))
    return tape.add_rowvec(tape.matmul(y, params["classifier.w"]), params["classifier.b"])


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
    adjacency ``K = lambda0*A_C + lambda1*A_S_bar = B W B^T``.  ``K`` is
    singular, so ``sigma_min = 0`` with no solve, when ``m < n`` (rank ``K <=
    m``) or a node is isolated (a zero row).  Otherwise Lanczos gives a Ritz
    value ``theta`` with residual ``r``; some eigenvalue lies within ``||r||``
    of ``theta``, and ``sigma_min = max(theta - ||r||, 0)``.  ``K`` is PSD,
    so ``sigma_min = 0`` is used when the solve does not converge: an
    unconverged estimate of ``sigma_min`` can only be too high.
    """
    if not np.any(ops.lambda0 + ops.lambda1 / ops.d_h):
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "trivial")
    if ops.b.shape[1] < ops.n or float(ops.d_s_bar.min()) == 0.0:
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "rank")

    def apply(v):
        return adjacency_simple(v[:, None], ops)[:, 0]

    eig = extreme_eigenvalue(apply, ops.n, which="min", iters=5000, tol=1e-10)
    c = 1.0 + ops.lambda0 * float(ops.d_c.min()) + ops.lambda1 * float(ops.d_s_bar.min())
    sigma = max(eig.value - eig.residual, 0.0) if eig.converged else 0.0
    return StepBound(c / (c - sigma), sigma, eig, "lanczos" if sigma > 0.0 else "psd-floor")


def step_bound_general(ops: ExpansionOperators, params: EnergyParams) -> StepBound:
    """Largest provably safe step for the general update.

    The curvature term is the max eigenvalue of the Kronecker-structured
    operator ``V -> s*(D_C V H0H0^T - A_C V (H0+H0^T)) + lambda1*(D_S_bar V
    H1H1^T - A_S_bar V (H1+H1^T) + A_S_bar V)`` with ``s = lambda0/2``,
    evaluated matrix-free with the adjacency part factored through ``B``
    (``adjacency_general``); the bound is ``(1 + lambda0*d_Cmin +
    lambda1*d_Smin) / (1 + s*d_Cmin + sigma_max)``.  As ``||A_C|| <= max
    d_C`` and ``||A_S_bar|| <= max d_S_bar``, ``lift`` bounds the operator's
    norm; ``sigma_max`` is ``min(theta + ||r||, lift)`` for a converged Ritz
    value ``theta`` with residual ``r``, and ``lift`` otherwise.
    """
    n, d = ops.n, params.d
    s = 0.5 * params.lambda0
    lam1 = params.lambda1
    h0_sym = params.h0 + params.h0.T
    h0_gram = params.h0 @ params.h0.T
    h1_sym = params.h1 + params.h1.T
    h1_gram = params.h1 @ params.h1.T

    def apply(vec):
        v = vec.reshape(n, d)
        out = row_scale(s * ops.d_c, v @ h0_gram) + row_scale(lam1 * ops.d_s_bar, v @ h1_gram)
        out -= adjacency_general(v, ops, h0_sym, h1_sym)
        return out.ravel()

    def spec_norm(m):
        return float(np.max(np.abs(np.linalg.eigvalsh((m + m.T) / 2.0))))

    lift = s * float(ops.d_c.max()) * (spec_norm(h0_gram) + spec_norm(h0_sym))
    lift += lam1 * float(ops.d_s_bar.max()) * (spec_norm(h1_gram) + spec_norm(h1_sym) + 1.0)
    if lift == 0.0:
        return StepBound(1.0, 0.0, EigenResult(0.0, 0.0, True, 0), "trivial")
    eig = extreme_eigenvalue(apply, n * d, which="max", iters=5000, tol=1e-10)
    if eig.converged and eig.value + eig.residual < lift:
        sigma, certificate = eig.value + eig.residual, "lanczos"
    else:
        sigma, certificate = lift, "norm-bound"
    numer = 1.0 + params.lambda0 * float(ops.d_c.min()) + lam1 * float(ops.d_s_bar.min())
    denom = 1.0 + s * float(ops.d_c.min()) + sigma
    if denom <= 0.0:
        raise ValueError(f"degenerate curvature: bound denominator {denom} <= 0")
    return StepBound(numer / denom, sigma, eig, certificate)


def descent_trace(
    y0: np.ndarray, fx: np.ndarray, ops: ExpansionOperators, params: EnergyParams, hg: Hypergraph,
    steps: int, variant: str = "simple", relu: bool = True
) -> list:
    """Run plain descent steps and record (iteration, energy, feasible, grad norm) rows."""
    rows = []
    y = np.asarray(y0, dtype=np.float64)
    prop = Propagation(ops, params, variant)
    for t in range(steps + 1):
        if variant == "simple":
            e: EnergyValue = energy_simple(y, fx, ops)
            g = grad_simple(y, fx, ops)
        else:
            e = energy_general(y, fx, ops, params, hg)
            g = grad_general(y, fx, ops, params)
        rows.append((t, e.smooth, e.feasible, float(np.linalg.norm(g))))
        if t < steps:  # c * Fx kept across the energy evaluations would raise their peak memory
            y = layer(y, prop.c * fx, prop, relu)
    return rows


# -- checkpoints ---------------------------------------------------------------

CHECKPOINT_FORMAT = "phenomnn-checkpoint-v1"


def save_checkpoint(model: Model, path) -> None:
    """Serialize every parameter tensor plus the config; round-trips bit-exactly."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "predictor": {
            "weights": [w.tolist() for w in model.predictor.weights],
            "biases": [b.tolist() for b in model.predictor.biases],
        },
        "classifier": {"w": model.classifier.w.tolist(), "b": model.classifier.b.tolist()},
        "h0": model.params.h0.tolist(),
        "h1": model.params.h1.tolist(),
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f)


def load_checkpoint(path) -> Model:
    with open(path, "r", encoding="utf-8") as f:
        payload = json.load(f)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint: {path}")
    cfg = ModelConfig(**payload["config"])
    predictor = BasePredictor(
        [np.array(w, dtype=np.float64) for w in payload["predictor"]["weights"]],
        [np.array(b, dtype=np.float64) for b in payload["predictor"]["biases"]],
    )
    classifier = Classifier(
        np.array(payload["classifier"]["w"], dtype=np.float64),
        np.array(payload["classifier"]["b"], dtype=np.float64),
    )
    params = EnergyParams(
        np.array(payload["h0"], dtype=np.float64),
        np.array(payload["h1"], dtype=np.float64),
        cfg.lambda0,
        cfg.lambda1,
        cfg.alpha,
    )
    return Model(cfg, predictor, classifier, params)
