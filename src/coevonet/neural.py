"""Shallow feed-forward classifiers trained by scaled conjugate gradients.

Networks have up to two hidden layers, each with its own size and activation
(sigmoid or tanh), and a 2-unit softmax head trained with cross-entropy.
Output unit 0 is the "up" class (label 1); ties predict up. The head's row max
and sum are ``np.maximum`` and ``+`` of its two columns: the IEEE operations of a
length-2 reduction, so the same bits without the general reductions' call overhead.

The trainer is a from-scratch scaled-conjugate-gradient minimizer over the
flattened weight vector. Accepted steps never increase the loss; a NaN loss
aborts the run and is reported via ``TrainedModel.aborted`` so callers can
assign worst-case fitness.

An accepted SCG iteration costs 2 forward and 2 backward passes: one of each
for the curvature probe at ``theta + sigma·p``, one forward pass at the trial
point ``theta + alpha·p``, and one backward pass from that same forward pass
once the step is accepted. A rejected iteration costs 1 forward pass.

A training allocates its per-layer activation and backward-delta arrays and
its gradient once: every pass writes into them, with the same operations in
the same order as the allocating path that ``TrainedModel.scores`` uses, so
results are bit-identical. The buffers belong to one training, so trainings
can run on several threads at once.

A training has a numeric part, ``_minimize`` (the weight init from the
seed, the one-hot labels and the minimization), which is picklable and so
can run in a worker process, and ``scg_train``, which builds the model and
always runs in the caller's process. Given ``minimized``, the future of
``_minimize`` on the same arguments, ``scg_train`` takes its result instead
of minimizing. A worker forked from the caller computes the same bits, and
an exception raised there, a warning turned into an error included,
surfaces from ``scg_train``. Every step trains on this one path, forking
workers only when it has several trainings to run (see
``objectives.training_workers``); it checks the budget with
``check_max_iter`` before the fork.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

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


#: Moller's published SCG constants: the curvature probe's step scale, the
#: initial damping, and the loss-change and gradient tolerances that stop a run.
SCG_SIGMA = 1e-4
SCG_LAMBDA_INIT = 1e-6
SCG_LOSS_TOL = 1e-9
SCG_GRAD_TOL = 1e-6


N_CLASSES = 2


def _layer_sizes(topology: Topology, n_inputs: int) -> list[int]:
    return [n_inputs] + [s for s, _ in topology.active_layers] + [N_CLASSES]


def init_weights(topology: Topology, n_inputs: int,
                 seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
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


def _activate(z: np.ndarray, kind: ActivationKind) -> None:
    """Apply the activation to ``z`` in place."""
    if kind == ActivationKind.TANH:
        np.tanh(z, out=z)
        return
    np.negative(z, out=z)       # 1 / (1 + exp(-z))
    with np.errstate(over="ignore"):    # exp(-z) = inf gives 1 / inf = 0.0, the limit
        np.exp(z, out=z)
    np.add(z, 1.0, out=z)
    np.divide(1.0, z, out=z)


def _scale_by_activation_grad(delta: np.ndarray, a: np.ndarray, kind: ActivationKind,
                              scratch: np.ndarray) -> None:
    """``delta *= f'(a)`` for activations ``a``, with ``scratch`` holding f'(a)."""
    if kind == ActivationKind.TANH:
        np.multiply(a, a, out=scratch)          # 1 - a*a
        np.subtract(1.0, scratch, out=scratch)
    else:
        np.subtract(1.0, a, out=scratch)        # a * (1 - a)
        np.multiply(a, scratch, out=scratch)
    delta *= scratch


def _forward(params, x: np.ndarray, activations, buffers=None) -> list[np.ndarray]:
    """Outputs of every layer, input first; written into ``buffers`` when given."""
    outputs = [x]
    for i, (w, b) in enumerate(params):
        z = np.matmul(outputs[-1], w, out=None if buffers is None else buffers[i])
        z += b
        if i < len(activations):
            _activate(z, activations[i])
        outputs.append(z)
    return outputs


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.maximum(logits[:, :1], logits[:, 1:])
    e = np.exp(shifted)
    return shifted - np.log(e[:, :1] + e[:, 1:])


class _CrossEntropy:
    """Mean cross-entropy of one net on fixed patterns, over the flat weights.

    ``forward`` returns the loss and the pass that produced it, so that a
    caller who later needs the gradient at the same point backpropagates from
    the kept activations instead of running the forward pass again. A pass
    lives in buffers that the next ``forward`` overwrites: it is valid until
    then.
    """

    def __init__(self, sizes, activations, x, y_onehot):
        self.sizes = sizes
        self.activations = activations
        self.x = x
        self.y_onehot = y_onehot
        n = x.shape[0]
        self._outputs = [np.empty((n, size)) for size in sizes[1:]]
        self._deltas = [np.empty((n, size)) for size in sizes[1:-1]]
        self._scratch = [np.empty((n, size)) for size in sizes[1:-1]]
        self._grad = np.empty(sum(a * b + b for a, b in zip(sizes, sizes[1:])))
        self._grad_views = _unflatten(self._grad, sizes)

    def forward(self, theta):
        params = _unflatten(theta, self.sizes)
        outs = _forward(params, self.x, self.activations, self._outputs)
        log_p = _log_softmax(outs[-1])
        loss = -float((self.y_onehot * log_p).sum()) / self.x.shape[0]
        return loss, (params, outs, log_p)

    def gradient(self, forward_pass) -> np.ndarray:
        """Gradient at the point of ``forward_pass``, in a flat buffer the next call overwrites."""
        params, outs, log_p = forward_pass
        delta = (np.exp(log_p) - self.y_onehot) / self.x.shape[0]
        for i in range(len(params) - 1, -1, -1):
            grad_w, grad_b = self._grad_views[i]
            np.matmul(outs[i].T, delta, out=grad_w)
            delta.sum(axis=0, out=grad_b)
            if i > 0:
                delta = np.matmul(delta, params[i][0].T, out=self._deltas[i - 1])
                _scale_by_activation_grad(delta, outs[i], self.activations[i - 1],
                                          self._scratch[i - 1])
        return self._grad


@dataclass
class TrainedModel:
    """A trained network plus training diagnostics."""

    topology: Topology
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


def _scg_minimize(theta0, objective: _CrossEntropy, max_iter: int,
                  trace: list | None = None):
    """Moller's scaled conjugate gradient; returns (theta, loss, iters, aborted).

    The trial point of a step is evaluated once: an accepted step keeps that
    array as the new ``theta`` and backpropagates from its forward pass.
    ``trace``, when given, receives the loss after every accepted step.
    """
    theta = theta0.copy()
    f, current = objective.forward(theta)
    if not math.isfinite(f):
        return theta0, float("nan"), 0, True
    if trace is not None:
        trace.append(f)
    r = -objective.gradient(current)
    p = r.copy()
    lam, lam_bar = SCG_LAMBDA_INIT, 0.0
    success = True
    n_dim = theta.size
    delta = 0.0
    p2 = 0.0
    iters = 0
    for k in range(max_iter):
        if success:
            p2 = float(p @ p)
            if p2 == 0.0:
                break
            sigma = SCG_SIGMA / math.sqrt(p2)
            g_sigma = objective.gradient(objective.forward(theta + sigma * p)[1])
            delta = float(p @ ((g_sigma + r) / sigma))
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
        trial = theta + alpha * p
        f_new, trial_pass = objective.forward(trial)
        if math.isfinite(f_new):
            comparison = 2.0 * delta * (f - f_new) / (mu * mu)
        else:
            comparison = -math.inf
        iters = k + 1
        if comparison >= 0:
            theta = trial
            f_prev, f = f, f_new
            if trace is not None:
                trace.append(f)
            r_new = -objective.gradient(trial_pass)
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
            if abs(f_prev - f) < SCG_LOSS_TOL and float(np.abs(r).max()) < SCG_GRAD_TOL:
                break
        else:
            lam_bar = lam
            success = False
        if comparison < 0.25 and math.isfinite(comparison):
            lam = min(lam + delta * (1.0 - comparison) / p2, 1e20)
        elif not math.isfinite(comparison):
            lam = min(max(lam * 10.0, 1e-6), 1e20)
        if float(r @ r) < SCG_GRAD_TOL ** 2:
            break
    return theta, f, iters, False


def check_max_iter(max_iter: int) -> None:
    """Refuse an SCG budget below 0 iterations (``ValueError``)."""
    if max_iter < 0:
        raise ValueError(f"SCG max_iter {max_iter} must be non-negative")


def _minimize(topology: Topology, x: np.ndarray, y: np.ndarray, max_iter: int, seed: int):
    """The numeric part of a training, (theta, loss, iters, aborted); picklable for a worker."""
    check_max_iter(max_iter)
    if x.shape[0] == 0:
        raise ValueError("empty training set")
    y_onehot = np.zeros((len(y), N_CLASSES))
    y_onehot[:, 0] = y == 1
    y_onehot[:, 1] = y == 0
    sizes = _layer_sizes(topology, x.shape[1])
    objective = _CrossEntropy(sizes, tuple(a for _, a in topology.active_layers), x, y_onehot)
    theta0 = _flatten(init_weights(topology, x.shape[1], seed))
    return _scg_minimize(theta0, objective, max_iter)


def scg_train(topology: Topology, x: np.ndarray, y: np.ndarray,
              max_iter: int, seed: int, minimized=None) -> TrainedModel:
    """Train on patterns whose columns are already restricted to the model inputs.

    ``minimized``, if given, is the future of ``_minimize`` on these same
    arguments, started earlier; its result replaces the minimization.
    """
    theta, loss, iters, aborted = (_minimize(topology, x, y, max_iter, seed) if minimized is None
                                   else minimized.result())
    if aborted:
        logger.warning("SCG aborted on non-finite loss (topology %s)", topology.describe())
    return TrainedModel(
        topology=topology,
        params=_unflatten(theta, _layer_sizes(topology, x.shape[1])),
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
    """Counts of 0/1 labels, from one pass: bin ``2·predicted + actual`` is (tn, fn, fp, tp)."""
    predicted = np.asarray(predicted)
    actual = np.asarray(actual)
    if predicted.shape != actual.shape:
        raise ValueError("predicted/actual length mismatch")
    tn, fn, fp, tp = np.bincount(2 * (predicted == 1) + (actual == 1), minlength=4).tolist()
    return ConfusionCounts(tp=tp, fp=fp, tn=tn, fn=fn)


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
