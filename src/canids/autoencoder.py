"""Dense autoencoder anomaly detector.

A symmetric encoder/decoder stack is trained on normal traffic only by
minimizing per-sample mean squared reconstruction error with plain
backpropagation; the anomaly threshold is a scaled percentile of normal
reconstruction losses, optionally fine-tuned on a small labeled
validation set. Everything runs on numpy; training with a fixed seed is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    DegenerateValidation,
    DivergedTraining,
    EmptyData,
    EmptyLosses,
    NonFiniteActivation,
    WrongWidth,
)
from .metrics import confusion, f1
from .model_io import decode_array, decode_float, encode_array, encode_float

if TYPE_CHECKING:
    from .detectors import DaeDetector


def _identity(z):
    return z


def _relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


ACTIVATIONS = {
    "identity": _identity,
    "relu": _relu,
    "sigmoid": sigmoid,
    "tanh": np.tanh,
}


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    if name == "identity":
        return np.ones_like(z)
    if name == "relu":
        return (z > 0).astype(z.dtype)
    if name == "sigmoid":
        return a * (1.0 - a)
    return 1.0 - a ** 2  # tanh


@dataclass
class DenseLayer:
    weights: np.ndarray  # (out, in)
    bias: np.ndarray     # (out,)
    activation: str = "identity"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.weights.shape[0] != self.bias.shape[0]:
            raise WrongWidth("bias length must match output width")

    def forward(self, a_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        z = a_prev @ self.weights.T + self.bias
        return z, ACTIVATIONS[self.activation](z)

    def apply_columns(self, a_cols: np.ndarray) -> np.ndarray:
        """Activations, one column per sample, of the samples that are the
        columns of a_cols. Each output is summed as bias + w_0 a_0 +
        w_1 a_1 + ... in input order, so that a sample's result does not
        depend on the other samples (a gemm's blocking does)."""
        z = np.empty((self.bias.shape[0], a_cols.shape[1]))
        z[:] = self.bias[:, None]
        term = np.empty_like(z)
        for w_j, a_j in zip(self.weights.T, a_cols):
            np.multiply(w_j[:, None], a_j, out=term)
            z += term
        return ACTIVATIONS[self.activation](z)


class AutoencoderNet:
    """Encoder stack followed by a mirror-image decoder stack."""

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer]):
        self.encoder = encoder
        self.decoder = decoder

    @property
    def layers(self) -> list[DenseLayer]:
        return self.encoder + self.decoder

    @property
    def input_width(self) -> int:
        return self.encoder[0].weights.shape[1]

    def forward(self, x) -> tuple[np.ndarray, np.ndarray]:
        """(latent, reconstruction) for one row or a batch, each row
        computed alone (DenseLayer.apply_columns); training uses BLAS."""
        arr = np.asarray(x, dtype=np.float64)
        single = arr.ndim == 1
        a = np.atleast_2d(arr)
        if a.shape[1] != self.input_width:
            raise WrongWidth(
                f"input width {a.shape[1]}, net expects {self.input_width}"
            )
        a = np.ascontiguousarray(a.T)
        for layer in self.encoder:
            a = layer.apply_columns(a)
        latent = np.ascontiguousarray(a.T)
        for layer in self.decoder:
            a = layer.apply_columns(a)
        a = np.ascontiguousarray(a.T)
        if not np.all(np.isfinite(a)):
            raise NonFiniteActivation("forward pass produced non-finite values")
        if single:
            return latent[0], a[0]
        return latent, a

    def _forward_cached(self, X: np.ndarray):
        """Per-layer (pre-activation, activation) pairs for backprop."""
        cache = []
        a = X
        for layer in self.layers:
            z, a_next = layer.forward(a)
            cache.append((a, z, a_next))
            a = a_next
        return cache, a


def make_autoencoder(
    input_width: int,
    hidden: tuple[int, ...] = (48, 24),
    bottleneck: int = 12,
    hidden_activation: str = "relu",
    output_activation: str = "identity",
    seed: int = 0,
) -> AutoencoderNet:
    """Symmetric net input->hidden...->bottleneck->...hidden->input.

    Weights initialize uniform within +-sqrt(6 / (fan_in + fan_out)),
    biases at zero.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    enc_widths = [input_width, *hidden, bottleneck]
    dec_widths = list(reversed(enc_widths))

    def init_layer(n_in: int, n_out: int, activation: str) -> DenseLayer:
        limit = math.sqrt(6.0 / (n_in + n_out))
        W = rng.uniform(-limit, limit, size=(n_out, n_in))
        return DenseLayer(W, np.zeros(n_out), activation)

    encoder = [
        init_layer(enc_widths[i], enc_widths[i + 1], hidden_activation)
        for i in range(len(enc_widths) - 1)
    ]
    decoder = []
    for i in range(len(dec_widths) - 1):
        last = i == len(dec_widths) - 2
        decoder.append(
            init_layer(dec_widths[i], dec_widths[i + 1],
                       output_activation if last else hidden_activation)
        )
    return AutoencoderNet(encoder, decoder)


def reconstruction_losses(net: AutoencoderNet, X) -> np.ndarray:
    """Per-row reconstruction loss for a matrix of samples."""
    arr = np.atleast_2d(np.asarray(getattr(X, "values", X), dtype=np.float64))
    _, recon = net.forward(arr)
    return np.mean((arr - recon) ** 2, axis=1)


def _grads(net: AutoencoderNet, X: np.ndarray):
    """Mean-loss gradients for every layer: L = mean over batch and
    coordinates of squared reconstruction error."""
    cache, recon = net._forward_cached(X)
    batch, width = X.shape
    loss = float(np.mean((recon - X) ** 2))
    delta = 2.0 * (recon - X) / (batch * width)  # dL/d(output activation)
    grads = []
    for layer, (a_prev, z, a) in zip(reversed(net.layers), reversed(cache)):
        dz = delta * _activation_grad(layer.activation, z, a)
        grads.append((dz.T @ a_prev, dz.sum(axis=0)))
        delta = dz @ layer.weights
    grads.reverse()
    return loss, grads


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class _Adam:
    def __init__(self, learning_rate: float, layers: list[DenseLayer]):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]
        self.v = [(np.zeros_like(l.weights), np.zeros_like(l.bias)) for l in layers]

    def step(self, layers: list[DenseLayer], grads) -> None:
        lr = self.learning_rate
        self.t += 1
        corr1 = 1.0 - _BETA1 ** self.t
        corr2 = 1.0 - _BETA2 ** self.t
        for i, (layer, (gW, gb)) in enumerate(zip(layers, grads)):
            mW, mb = self.m[i]
            vW, vb = self.v[i]
            mW *= _BETA1
            mW += (1 - _BETA1) * gW
            mb *= _BETA1
            mb += (1 - _BETA1) * gb
            vW *= _BETA2
            vW += (1 - _BETA2) * gW ** 2
            vb *= _BETA2
            vb += (1 - _BETA2) * gb ** 2
            layer.weights -= lr * (mW / corr1) / (np.sqrt(vW / corr2) + _EPS)
            layer.bias -= lr * (mb / corr1) / (np.sqrt(vb / corr2) + _EPS)


def train(
    net: AutoencoderNet, X_normal, det: DaeDetector
) -> tuple[AutoencoderNet, list[float]]:
    """Mini-batch gradient descent on mean reconstruction loss, with det's
    epochs, batch_size, learning_rate, optimizer ("adam" or "sgd") and seed.

    X_normal must contain normal rows only; a labeled FeatureMatrix with
    any anomaly row is rejected. Returns (net, per-epoch loss trace) where
    each trace entry is the mean pre-update loss across that epoch's
    batches.
    """
    labels = getattr(X_normal, "labels", None)
    if labels is not None and np.any(np.asarray(labels) == 1):
        raise ValueError("autoencoder training data must be normal only")
    X = np.atleast_2d(np.asarray(getattr(X_normal, "values", X_normal),
                                 dtype=np.float64))
    if X.shape[0] == 0:
        raise EmptyData("cannot train on zero rows")
    rng = np.random.default_rng(np.random.SeedSequence(det.seed))
    optimizer = (_Adam(det.learning_rate, net.layers)
                 if det.optimizer == "adam" else None)
    trace: list[float] = []
    n = X.shape[0]
    # overflow during a diverging run is expected and surfaces as
    # DivergedTraining, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(det.epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, det.batch_size):
                batch = X[order[start:start + det.batch_size]]
                loss, grads = _grads(net, batch)
                epoch_loss += loss * batch.shape[0]
                if optimizer is not None:
                    optimizer.step(net.layers, grads)
                else:
                    for layer, (gW, gb) in zip(net.layers, grads):
                        layer.weights -= det.learning_rate * gW
                        layer.bias -= det.learning_rate * gb
            epoch_loss /= n
            if not math.isfinite(epoch_loss):
                raise DivergedTraining(f"loss became {epoch_loss}")
            trace.append(epoch_loss)
    return net, trace


@dataclass(frozen=True)
class ThresholdConfig:
    """Anomaly threshold = gamma * (p-th percentile of normal losses)."""

    p: float = 95.0
    gamma: float = 1.0

    def __post_init__(self):
        if not 0 < self.p <= 100:
            raise ConfigError("percentile must lie in (0, 100]")
        if self.gamma < 0:
            raise ConfigError("gamma must be >= 0")


DEFAULT_THRESHOLD_GRID = tuple(
    (p, g)
    for p in (90.0, 95.0, 99.0, 99.5)
    for g in (0.5, 0.75, 1.0, 1.25, 1.5, 2.0)
)


def compute_threshold(losses, tc: ThresholdConfig) -> float:
    """gamma times the p-th percentile (linear rank interpolation)."""
    arr = np.asarray(losses, dtype=np.float64)
    if arr.size == 0:
        raise EmptyLosses("threshold needs at least one loss value")
    return float(tc.gamma * np.percentile(arr, tc.p))


def fine_tune_threshold(
    net: AutoencoderNet,
    validation,
    grid=DEFAULT_THRESHOLD_GRID,
) -> tuple[ThresholdConfig, float]:
    """Pick the (p, gamma) grid point with the best validation F1.

    Percentiles are taken over the validation rows labeled normal, so p
    and gamma stay interpretable together. Classification is strict:
    anomaly iff loss > threshold. Ties go to smaller gamma, then smaller
    p. Returns (config, F1), F1 being -1.0 if every grid point was
    undefined.
    """
    labels = getattr(validation, "labels", None)
    if labels is None:
        raise DegenerateValidation("validation needs labels")
    y = np.asarray(labels)
    if not (np.any(y == 0) and np.any(y == 1)):
        raise DegenerateValidation("validation needs both classes")
    grid = list(grid)
    if not grid:
        raise DegenerateValidation("threshold grid is empty")
    losses = reconstruction_losses(net, validation)
    normal_losses = losses[y == 0]
    best_cfg: ThresholdConfig | None = None
    best_f1 = -1.0
    for p, gamma in grid:
        tc = ThresholdConfig(p=p, gamma=gamma)
        thr = compute_threshold(normal_losses, tc)
        pred = (losses > thr).astype(np.int8)
        score = f1(confusion(pred, y))
        score = -1.0 if score is None else score
        if best_cfg is None:
            best_cfg, best_f1 = tc, score
            continue
        better = score > best_f1
        tie = score == best_f1 and (gamma, p) < (best_cfg.gamma, best_cfg.p)
        if better or tie:
            best_cfg, best_f1 = tc, score
    return best_cfg, best_f1


# --- serialization -----------------------------------------------------------

def net_to_payload(net: AutoencoderNet) -> dict:
    def layers(stack):
        return [
            {
                "weights": encode_array(l.weights),
                "bias": encode_array(l.bias),
                "activation": l.activation,
            }
            for l in stack
        ]

    return {"encoder": layers(net.encoder), "decoder": layers(net.decoder)}


def net_from_payload(payload: dict) -> AutoencoderNet:
    def stack(objs):
        return [
            DenseLayer(decode_array(o["weights"]), decode_array(o["bias"]),
                       o["activation"])
            for o in objs
        ]

    return AutoencoderNet(stack(payload["encoder"]), stack(payload["decoder"]))


def threshold_to_payload(tc: ThresholdConfig, threshold: float) -> dict:
    return {
        "p": encode_float(tc.p),
        "gamma": encode_float(tc.gamma),
        "threshold": encode_float(threshold),
    }


def threshold_from_payload(obj: dict) -> tuple[ThresholdConfig, float]:
    tc = ThresholdConfig(p=decode_float(obj["p"]), gamma=decode_float(obj["gamma"]))
    return tc, decode_float(obj["threshold"])
