"""Dense autoencoder anomaly detector.

A symmetric encoder/decoder stack is trained on normal traffic only by
minimizing per-sample mean squared reconstruction error with plain
backpropagation; a row's anomaly score is its reconstruction loss.
Everything runs on numpy; training with a fixed seed is bit-reproducible.

Training and scoring take the float64 2-D arrays that the detectors have
checked; they do not convert or check them again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConfigError,
    DivergedTraining,
    IoError,
    NonFiniteActivation,
    WrongWidth,
)
from .model_io import decode_array, encode_array

if TYPE_CHECKING:
    from .detectors import DaeDetector


def _identity(z):
    return z


def _relu(z):
    return np.maximum(z, 0.0)


def sigmoid(z):
    # exp of -|z| never overflows: 1/(1+e^-z) for z >= 0, e^z/(1+e^z) below
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


ACTIVATIONS = {
    "identity": _identity,
    "relu": _relu,
    "sigmoid": sigmoid,
    "tanh": np.tanh,
}


def _activation_grad(name: str, z: np.ndarray, a: np.ndarray):
    """f'(z) for the activations a = f(z), as a factor of delta: relu's is
    the mask z > 0, identity's the scalar 1.0."""
    if name == "identity":
        return 1.0
    if name == "relu":
        return z > 0
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
        if self.weights.ndim != 2 or self.bias.shape != self.weights.shape[:1]:
            raise WrongWidth(f"weights {list(self.weights.shape)} and bias "
                             f"{list(self.bias.shape)} are not (out, in) "
                             "and (out,)")

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
    """Encoder stack followed by a mirror-image decoder stack: each stack
    has a layer, each layer's input width is the previous layer's output
    width, and the last output width is the first input width."""

    def __init__(self, encoder: list[DenseLayer], decoder: list[DenseLayer]):
        self.encoder = encoder
        self.decoder = decoder
        if not encoder or not decoder:
            raise WrongWidth("encoder and decoder each need a layer")
        widths = [l.weights.shape for l in self.layers]
        for i, ((n_out, _), (_, n_in)) in enumerate(zip(widths, widths[1:])):
            if n_in != n_out:
                raise WrongWidth(f"layer {i + 1} takes {n_in} inputs, "
                                 f"layer {i} gives {n_out}")
        if widths[-1][0] != self.input_width:
            raise WrongWidth(f"net outputs {widths[-1][0]} columns, "
                             f"takes {self.input_width}")

    @property
    def layers(self) -> list[DenseLayer]:
        return self.encoder + self.decoder

    @property
    def input_width(self) -> int:
        return self.encoder[0].weights.shape[1]

    def forward(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(latent, reconstruction) of the rows of X, each row computed
        alone (DenseLayer.apply_columns); training uses BLAS."""
        a = np.ascontiguousarray(X.T)
        for layer in self.encoder:
            a = layer.apply_columns(a)
        latent = np.ascontiguousarray(a.T)
        for layer in self.decoder:
            a = layer.apply_columns(a)
        a = np.ascontiguousarray(a.T)
        if not np.all(np.isfinite(a)):
            raise NonFiniteActivation("forward pass produced non-finite values")
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
                       "identity" if last else hidden_activation)
        )
    return AutoencoderNet(encoder, decoder)


def reconstruction_losses(net: AutoencoderNet, X: np.ndarray) -> np.ndarray:
    """Per-row reconstruction loss of the rows of X."""
    _, recon = net.forward(X)
    return np.mean((X - recon) ** 2, axis=1)


def _views(layers: list[DenseLayer], flat: np.ndarray
           ) -> list[tuple[np.ndarray, np.ndarray]]:
    """(weights, bias) shaped views of flat, one pair per layer, laid out
    end to end in layer order."""
    views, at = [], 0
    for layer in layers:
        (n_out, n_in), end = layer.weights.shape, at + layer.weights.size
        views.append((flat[at:end].reshape(n_out, n_in),
                      flat[end:end + n_out]))
        at = end + n_out
    return views


def _flatten(net: AutoencoderNet) -> np.ndarray:
    """One array holding every weight and bias of net, which the layers'
    weights and biases become views of."""
    layers = net.layers
    flat = np.empty(sum(l.weights.size + l.bias.size for l in layers))
    for layer, (W, b) in zip(layers, _views(layers, flat)):
        W[...], b[...] = layer.weights, layer.bias
        layer.weights, layer.bias = W, b
    return flat


def _grads(net: AutoencoderNet, X: np.ndarray, out: np.ndarray | None = None):
    """Mean-loss gradients for every layer, written into out (or a new
    array), a flat array laid out as _views lays out the parameters:
    L = mean over batch and coordinates of squared reconstruction error.
    Returns the loss and the (weights, bias) gradient views of out."""
    cache, recon = net._forward_cached(X)
    batch, width = X.shape
    loss = float(np.mean((recon - X) ** 2))
    delta = 2.0 * (recon - X) / (batch * width)  # dL/d(output activation)
    layers = net.layers
    if out is None:
        out = np.empty(sum(l.weights.size + l.bias.size for l in layers))
    grads = _views(layers, out)
    for i in reversed(range(len(layers))):
        a_prev, z, a = cache[i]
        dz = delta * _activation_grad(layers[i].activation, z, a)
        gW, gb = grads[i]
        np.matmul(dz.T, a_prev, out=gW)
        dz.sum(axis=0, out=gb)
        if i:  # the input layer's delta, dL/dX, is never used
            delta = dz @ layers[i].weights
    return loss, grads


# Adam's moment decay rates and denominator guard
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class _Adam:
    """Adam over one flat parameter array, its moments flat arrays too."""

    def __init__(self, learning_rate: float, size: int):
        self.learning_rate = learning_rate
        self.t = 0
        self.m = np.zeros(size)
        self.v = np.zeros(size)

    def step(self, params: np.ndarray, g: np.ndarray) -> None:
        lr = self.learning_rate
        self.t += 1
        corr1 = 1.0 - _BETA1 ** self.t
        corr2 = 1.0 - _BETA2 ** self.t
        m, v = self.m, self.v
        m *= _BETA1
        m += (1 - _BETA1) * g
        v *= _BETA2
        v += (1 - _BETA2) * g ** 2
        params -= lr * (m / corr1) / (np.sqrt(v / corr2) + _EPS)


def train(
    net: AutoencoderNet, X: np.ndarray, det: DaeDetector
) -> tuple[AutoencoderNet, list[float]]:
    """Mini-batch gradient descent on mean reconstruction loss over the
    rows of X, which are normal traffic, with det's epochs, batch_size,
    learning_rate, optimizer ("adam" or "sgd") and seed.

    Returns (net, per-epoch loss trace) where each trace entry is the mean
    pre-update loss across that epoch's batches.
    """
    rng = np.random.default_rng(np.random.SeedSequence(det.seed))
    params = _flatten(net)
    grad = np.empty_like(params)
    optimizer = (_Adam(det.learning_rate, params.size)
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
                loss, _ = _grads(net, batch, grad)
                epoch_loss += loss * batch.shape[0]
                if optimizer is not None:
                    optimizer.step(params, grad)
                else:
                    params -= det.learning_rate * grad
            epoch_loss /= n
            if not math.isfinite(epoch_loss):
                raise DivergedTraining(f"loss became {epoch_loss}")
            trace.append(epoch_loss)
    return net, trace


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
    """The net a payload holds; IoError unless each stack is a list of
    layer objects, WrongWidth unless the layers chain."""
    def stack(key):
        objs = payload[key]
        if not isinstance(objs, list) or not all(isinstance(o, dict)
                                                 for o in objs):
            raise IoError(f"{key} is not a list of layer objects")
        return [
            DenseLayer(decode_array(o["weights"]), decode_array(o["bias"]),
                       o["activation"])
            for o in objs
        ]

    return AutoencoderNet(stack("encoder"), stack("decoder"))

