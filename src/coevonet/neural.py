"""Shallow feed-forward classifiers trained by scaled conjugate gradients.

Networks have up to two hidden layers, each with its own size and activation
(sigmoid or tanh), and a 2-unit softmax head trained with cross-entropy.
Output unit 0 is the "up" class (label 1); ties predict up.

The trainer is a from-scratch scaled-conjugate-gradient minimizer over the
flattened weight vector. Accepted steps never increase the loss; a NaN loss
aborts the run and is reported via ``TrainedModel.aborted`` so callers can
assign worst-case fitness.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, field

import numpy as np

logger = logging.getLogger(__name__)


class ActivationKind(str, enum.Enum):
    SIGMOID = "sigmoid"
    TANH = "tanh"


@dataclass(frozen=True)
class Topology:
    """Hidden-layer design: ordered (size, activation) tuples, size 0 = inactive."""

    layers: tuple[tuple[int, ActivationKind], ...] = ()

    def __post_init__(self):
        for size, act in self.layers:
            if size < 0:
                raise ValueError(f"negative layer size {size}")
            ActivationKind(act)

    @property
    def active_layers(self) -> tuple[tuple[int, ActivationKind], ...]:
        """Active layers compacted in order; size-0 entries are skipped."""
        return tuple((s, ActivationKind(a)) for s, a in self.layers if s > 0)

    def describe(self) -> str:
        if not self.active_layers:
            return "direct"
        return "-".join(f"{s}{ActivationKind(a).value[:4]}" for s, a in self.active_layers)


@dataclass
class ScgConfig:
    """Scaled-conjugate-gradient knobs (Moller's published defaults)."""

    max_iter: int = 200
    sigma: float = 1e-4
    lambda_init: float = 1e-6
    loss_tol: float = 1e-9
    grad_tol: float = 1e-6

    def __post_init__(self):
        if self.max_iter < 0 or self.sigma <= 0 or self.lambda_init <= 0:
            raise ValueError("ScgConfig values must be positive")


N_CLASSES = 2


def _layer_sizes(topology: Topology, n_inputs: int) -> list[int]:
    return [n_inputs] + [s for s, _ in topology.active_layers] + [N_CLASSES]


def init_weights(topology: Topology, n_inputs: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per-layer (W, b): W uniform in +-sqrt(6/(fan_in+fan_out)), b zero."""
    rng = np.random.default_rng(seed)
    sizes = _layer_sizes(topology, n_inputs)
    params = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        params.append((w, np.zeros(fan_out)))
    return params


def _flatten(params) -> np.ndarray:
    return np.concatenate([np.concatenate([w.ravel(), b]) for w, b in params])


def _unflatten(theta: np.ndarray, sizes: list[int]) -> list[tuple[np.ndarray, np.ndarray]]:
    params, pos = [], 0
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        w = theta[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out)
        pos += fan_in * fan_out
        b = theta[pos:pos + fan_out]
        pos += fan_out
        params.append((w, b))
    return params


def _activate(z: np.ndarray, kind: ActivationKind) -> np.ndarray:
    if kind == ActivationKind.TANH:
        return np.tanh(z)
    return 1.0 / (1.0 + np.exp(-z))


def _activate_grad(a: np.ndarray, kind: ActivationKind) -> np.ndarray:
    if kind == ActivationKind.TANH:
        return 1.0 - a * a
    return a * (1.0 - a)


def _forward(params, x: np.ndarray, activations) -> list[np.ndarray]:
    outputs = [x]
    a = x
    for i, (w, b) in enumerate(params):
        z = a @ w + b
        a = _activate(z, activations[i]) if i < len(activations) else z
        outputs.append(a)
    return outputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _loss_and_grad(theta, sizes, activations, x, y_onehot):
    """Mean cross-entropy and its gradient w.r.t. the flattened weights."""
    params = _unflatten(theta, sizes)
    outs = _forward(params, x, activations)
    logits = outs[-1]
    log_p = _log_softmax(logits)
    n = x.shape[0]
    loss = -float((y_onehot * log_p).sum()) / n
    delta = (np.exp(log_p) - y_onehot) / n
    grads = [None] * len(params)
    for i in range(len(params) - 1, -1, -1):
        a_prev = outs[i]
        grads[i] = (a_prev.T @ delta, delta.sum(axis=0))
        if i > 0:
            w, _ = params[i]
            delta = (delta @ w.T) * _activate_grad(outs[i], activations[i - 1])
    return loss, _flatten(grads)


def loss_only(theta, sizes, activations, x, y_onehot) -> float:
    params = _unflatten(theta, sizes)
    log_p = _log_softmax(_forward(params, x, activations)[-1])
    return -float((y_onehot * log_p).sum()) / x.shape[0]


@dataclass
class TrainedModel:
    """A trained network plus the inputs it expects and training diagnostics."""

    topology: Topology
    feature_indices: tuple[int, ...]
    params: list[tuple[np.ndarray, np.ndarray]]
    final_loss: float
    iterations: int
    aborted: bool = False

    @property
    def activations(self) -> tuple[ActivationKind, ...]:
        return tuple(a for _, a in self.topology.active_layers)

    def scores(self, x: np.ndarray) -> np.ndarray:
        if x.shape[1] != self.params[0][0].shape[0]:
            raise ValueError(
                f"model expects {self.params[0][0].shape[0]} inputs, got {x.shape[1]}"
            )
        return _forward(self.params, x, self.activations)[-1]

    def to_json_dict(self) -> dict:
        return {
            "topology": [[s, ActivationKind(a).value] for s, a in self.topology.layers],
            "feature_indices": list(self.feature_indices),
            "weights": [
                {"w_shape": list(w.shape), "w": w.ravel().tolist(), "b": b.tolist()}
                for w, b in self.params
            ],
            "final_loss": self.final_loss,
            "iterations": self.iterations,
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TrainedModel":
        topo = Topology(tuple((int(s), ActivationKind(a)) for s, a in d["topology"]))
        params = [
            (np.asarray(e["w"]).reshape(e["w_shape"]), np.asarray(e["b"], dtype=float))
            for e in d["weights"]
        ]
        return cls(topo, tuple(d["feature_indices"]), params,
                   d["final_loss"], d["iterations"])


def _scg_minimize(theta0, loss_fn, grad_fn, cfg: ScgConfig, trace: list | None = None):
    """Moller's scaled conjugate gradient; returns (theta, loss, iters, aborted).

    ``trace``, when given, receives the loss after every accepted step.
    """
    theta = theta0.copy()
    f = loss_fn(theta)
    if not np.isfinite(f):
        return theta0, float("nan"), 0, True
    if trace is not None:
        trace.append(f)
    r = -grad_fn(theta)
    p = r.copy()
    lam, lam_bar = cfg.lambda_init, 0.0
    success = True
    n_dim = theta.size
    delta = 0.0
    p2 = 0.0
    iters = 0
    for k in range(cfg.max_iter):
        if success:
            p2 = float(p @ p)
            if p2 == 0.0 or math.sqrt(p2) < 1e-300:
                break
            sigma = cfg.sigma / math.sqrt(p2)
            s = (grad_fn(theta + sigma * p) - (-r)) / sigma
            delta = float(p @ s)
        # scale the curvature estimate; delta accumulates over failed steps
        delta += (lam - lam_bar) * p2
        if delta <= 0:
            lam_bar = 2.0 * (lam - delta / p2)
            delta = -delta + lam * p2
            lam = lam_bar
        mu = float(p @ r)
        if mu == 0.0:
            break
        alpha = mu / delta
        f_new = loss_fn(theta + alpha * p)
        if np.isfinite(f_new):
            comparison = 2.0 * delta * (f - f_new) / (mu * mu)
        else:
            comparison = -math.inf
        iters = k + 1
        if comparison >= 0:
            theta = theta + alpha * p
            f_prev, f = f, f_new
            if trace is not None:
                trace.append(f)
            r_new = -grad_fn(theta)
            if not np.isfinite(r_new).all():
                return theta, f, iters, True
            lam_bar = 0.0
            success = True
            if (k + 1) % n_dim == 0:
                p = r_new.copy()
            else:
                beta = float(r_new @ r_new - r_new @ r) / mu
                p = r_new + beta * p
            r = r_new
            if comparison >= 0.75:
                lam = max(lam * 0.25, 1e-20)
            if abs(f_prev - f) < cfg.loss_tol and float(np.abs(r).max()) < cfg.grad_tol:
                break
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25 and math.isfinite(comparison):
            lam = min(lam + delta * (1.0 - comparison) / p2, 1e20)
        elif not math.isfinite(comparison):
            lam = min(max(lam * 10.0, 1e-6), 1e20)
        if float(r @ r) < cfg.grad_tol ** 2:
            break
    return theta, f, iters, False


def scg_train(topology: Topology, x: np.ndarray, y: np.ndarray,
              cfg: ScgConfig, seed: int,
              feature_indices: tuple[int, ...] | None = None) -> TrainedModel:
    """Train on patterns whose columns are already restricted to the model inputs."""
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    n_inputs = x.shape[1]
    sizes = _layer_sizes(topology, n_inputs)
    activations = tuple(a for _, a in topology.active_layers)
    y_onehot = np.zeros((len(y), N_CLASSES))
    y_onehot[:, 0] = y == 1
    y_onehot[:, 1] = y == 0
    theta0 = _flatten(init_weights(topology, n_inputs, seed))

    def loss_fn(t):
        return loss_only(t, sizes, activations, x, y_onehot)

    def grad_fn(t):
        return _loss_and_grad(t, sizes, activations, x, y_onehot)[1]

    theta, loss, iters, aborted = _scg_minimize(theta0, loss_fn, grad_fn, cfg)
    if aborted:
        logger.warning("SCG aborted on non-finite loss (topology %s)", topology.describe())
    return TrainedModel(
        topology=topology,
        feature_indices=tuple(feature_indices) if feature_indices is not None else tuple(range(n_inputs)),
        params=_unflatten(theta, sizes),
        final_loss=loss,
        iterations=iters,
        aborted=aborted,
    )


def predict(model: TrainedModel, x: np.ndarray) -> np.ndarray:
    """Argmax of the two output units; unit 0 is "up" (label 1), ties go up."""
    if x.shape[0] == 0:
        return np.zeros(0, dtype=np.int8)
    scores = model.scores(x)
    return (scores[:, 0] >= scores[:, 1]).astype(np.int8)


# ---------------------------------------------------------------------------
# classification metrics ("up" = positive class)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConfusionCounts:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion(predicted, actual) -> ConfusionCounts:
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("predicted/actual length mismatch")
    return ConfusionCounts(
        tp=int(((predicted == 1) & (actual == 1)).sum()),
        fp=int(((predicted == 1) & (actual == 0)).sum()),
        tn=int(((predicted == 0) & (actual == 0)).sum()),
        fn=int(((predicted == 0) & (actual == 1)).sum()),
    )


def accuracy(c: ConfusionCounts) -> float:
    return (c.tp + c.tn) / c.total if c.total else 0.0


def mcc(c: ConfusionCounts) -> float:
    """Matthews correlation; 0 by convention when any marginal is empty."""
    denom = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if denom == 0:
        return 0.0
    return (c.tp * c.tn - c.fp * c.fn) / math.sqrt(denom)


def balanced_accuracy(c: ConfusionCounts) -> float:
    """Mean recall over the classes present in the actual labels."""
    rates = []
    if c.tp + c.fn > 0:
        rates.append(c.tp / (c.tp + c.fn))
    if c.tn + c.fp > 0:
        rates.append(c.tn / (c.tn + c.fp))
    if not rates:
        return 0.0
    return sum(rates) / len(rates)


def balanced_error(c: ConfusionCounts) -> float:
    return 1.0 - balanced_accuracy(c)
