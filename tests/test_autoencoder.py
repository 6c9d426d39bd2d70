import copy

import numpy as np
import pytest

from canids.autoencoder import (
    AutoencoderNet,
    DenseLayer,
    ThresholdConfig,
    _grads,
    compute_threshold,
    fine_tune_threshold,
    make_autoencoder,
    net_from_payload,
    net_to_payload,
    reconstruction_losses,
    train,
)
from canids.errors import (
    DegenerateValidation,
    DivergedTraining,
    EmptyLosses,
    WrongWidth,
)
from canids.detectors import DaeDetector
from canids.features import FeatureMatrix, Standardizer


def straight_line_forward(net, x):
    """Oracle: explicit loops, no layer abstractions."""
    a = np.array(x, dtype=np.float64)
    for layer in net.layers:
        z = np.empty(layer.weights.shape[0])
        for i in range(layer.weights.shape[0]):
            acc = layer.bias[i]
            for j in range(layer.weights.shape[1]):
                acc += layer.weights[i, j] * a[j]
            z[i] = acc
        if layer.activation == "identity":
            a = z
        elif layer.activation == "relu":
            a = np.maximum(z, 0.0)
        elif layer.activation == "sigmoid":
            a = 1.0 / (1.0 + np.exp(-z))
        else:
            a = np.tanh(z)
    return a


def numeric_gradients(net, X, step=1e-5):
    """Central finite differences of the batch loss for every parameter."""

    def loss_at():
        _, recon = net.forward(X)
        return float(np.mean((recon - X) ** 2))

    grads = []
    for layer in net.layers:
        gW = np.zeros_like(layer.weights)
        for idx in np.ndindex(layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + step
            up = loss_at()
            layer.weights[idx] = orig - step
            down = loss_at()
            layer.weights[idx] = orig
            gW[idx] = (up - down) / (2 * step)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + step
            up = loss_at()
            layer.bias[idx] = orig - step
            down = loss_at()
            layer.bias[idx] = orig
            gb[idx] = (up - down) / (2 * step)
        grads.append((gW, gb))
    return grads


def test_forward_zero_net_outputs_zero():
    net = AutoencoderNet(
        [DenseLayer(np.zeros((3, 4)), np.zeros(3), "identity")],
        [DenseLayer(np.zeros((4, 3)), np.zeros(4), "identity")],
    )
    _, recon = net.forward(np.array([1.0, -2.0, 3.0, 4.0]))
    assert recon.tolist() == [0.0] * 4


def test_forward_identity_pair_is_exact():
    net = AutoencoderNet(
        [DenseLayer(np.eye(4), np.zeros(4), "identity")],
        [DenseLayer(np.eye(4), np.zeros(4), "identity")],
    )
    x = np.array([0.5, -1.5, 2.0, 0.0])
    latent, recon = net.forward(x)
    assert np.array_equal(recon, x)
    assert np.array_equal(latent, x)


def test_forward_matches_straight_line_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        net = make_autoencoder(5, hidden=(4,), bottleneck=3,
                               hidden_activation=["relu", "sigmoid", "tanh"][trial % 3],
                               seed=trial)
        x = rng.normal(size=5)
        _, recon = net.forward(x)
        assert np.allclose(recon, straight_line_forward(net, x), atol=1e-12)


def test_forward_sums_each_layer_in_input_order():
    """Scoring adds bias + w_0 a_0 + w_1 a_1 + ... in input order, as the
    straight-line oracle does, so every row matches it bit for bit at
    the widths of the default net, alone or in a batch."""
    rng = np.random.default_rng(1)
    for seed in range(3):
        net = make_autoencoder(67, seed=seed)
        X = rng.normal(size=(4, 67))
        latent, recon = net.forward(X)
        for i, x in enumerate(X):
            want = straight_line_forward(net, x)
            assert recon[i].tobytes() == want.tobytes()
            assert net.forward(x)[1].tobytes() == want.tobytes()
        assert latent.shape == (4, 12) and latent.flags.c_contiguous


def test_forward_width_check():
    net = make_autoencoder(4, hidden=(3,), bottleneck=2, seed=0)
    with pytest.raises(WrongWidth):
        net.forward(np.ones(5))


def linear_net(scale: float, width: int = 2) -> AutoencoderNet:
    """width -> width -> width identity-activation net that multiplies its
    input by scale: 1.0 reconstructs every row exactly, 0.0 outputs zeros."""
    return AutoencoderNet(
        [DenseLayer(scale * np.eye(width), np.zeros(width), "identity")],
        [DenseLayer(np.eye(width), np.zeros(width), "identity")],
    )


def test_reconstruction_losses_cases():
    # a row reconstructed exactly has zero loss
    assert reconstruction_losses(linear_net(1.0), [[1.0, 2.0]])[0] == 0.0
    # [1, 1] reconstructed as [0, 0]
    assert reconstruction_losses(linear_net(0.0), [[1.0, 1.0]])[0] == 1.0
    for X in ([[1.0]], [[1.0, 2.0, 3.0]]):
        with pytest.raises(WrongWidth):
            reconstruction_losses(linear_net(1.0), X)


def test_zero_net_loss_is_mean_square():
    net = AutoencoderNet(
        [DenseLayer(np.zeros((2, 3)), np.zeros(2), "identity")],
        [DenseLayer(np.zeros((3, 2)), np.zeros(3), "identity")],
    )
    x = np.array([[1.0, 2.0, 3.0]])
    losses = reconstruction_losses(net, x)
    assert losses[0] == pytest.approx(np.mean(x ** 2))


def test_train_zero_learning_rate_keeps_parameters():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(16, 4))
    net = make_autoencoder(4, hidden=(3,), bottleneck=2, seed=0)
    before = copy.deepcopy(net.layers)
    cfg = DaeDetector(epochs=1, batch_size=4, learning_rate=0.0,
                      optimizer="sgd", seed=0)
    initial = float(np.mean(reconstruction_losses(net, X)))
    _, trace = train(net, X, cfg)
    assert trace == [pytest.approx(initial)]
    for layer, orig in zip(net.layers, before):
        assert np.array_equal(layer.weights, orig.weights)
        assert np.array_equal(layer.bias, orig.bias)


def test_train_reduces_loss_on_tiny_net():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(20, 4))
    net = make_autoencoder(4, hidden=(), bottleneck=2, seed=3)
    cfg = DaeDetector(epochs=200, batch_size=20, learning_rate=5e-3, seed=1)
    _, trace = train(net, X, cfg)
    assert trace[-1] < trace[0]


def test_backprop_matches_finite_differences():
    rng = np.random.default_rng(3)
    for activation in ("identity", "relu", "sigmoid", "tanh"):
        net = make_autoencoder(6, hidden=(), bottleneck=3,
                               hidden_activation=activation, seed=7)
        X = rng.normal(size=(8, 6))
        _, analytic = _grads(net, X)
        numeric = numeric_gradients(net, X)
        for (gW, gb), (nW, nb) in zip(analytic, numeric):
            denomW = np.maximum(np.abs(gW) + np.abs(nW), 1e-8)
            assert np.all(np.abs(gW - nW) / denomW < 1e-4)
            denomb = np.maximum(np.abs(gb) + np.abs(nb), 1e-8)
            assert np.all(np.abs(gb - nb) / denomb < 1e-4)


def test_identity_initialization_is_fixed_point():
    net = AutoencoderNet(
        [DenseLayer(np.eye(4), np.zeros(4), "identity")],
        [DenseLayer(np.eye(4), np.zeros(4), "identity")],
    )
    rng = np.random.default_rng(4)
    X = rng.normal(size=(12, 4))
    cfg = DaeDetector(epochs=5, batch_size=4, learning_rate=0.5,
                      optimizer="sgd", seed=0)
    _, trace = train(net, X, cfg)
    assert all(t == 0.0 for t in trace)
    assert np.array_equal(net.layers[0].weights, np.eye(4))


def test_training_bit_reproducible():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 6))

    def run():
        net = make_autoencoder(6, hidden=(4,), bottleneck=2, seed=9)
        _, trace = train(net, X, DaeDetector(epochs=5, batch_size=8, seed=9))
        return net, trace

    a_net, a_trace = run()
    b_net, b_trace = run()
    assert a_trace == b_trace
    for la, lb in zip(a_net.layers, b_net.layers):
        assert np.array_equal(la.weights, lb.weights)


def test_train_rejects_anomalous_rows():
    m = FeatureMatrix(np.ones((4, 3)), labels=np.array([0, 0, 1, 0]),
                      column_ids=(0, 1, 2))
    net = make_autoencoder(3, hidden=(), bottleneck=2, seed=0)
    with pytest.raises(ValueError):
        train(net, m, DaeDetector(epochs=1, seed=0))


def test_train_divergence_detected():
    rng = np.random.default_rng(6)
    X = rng.normal(size=(30, 4)) * 10
    net = make_autoencoder(4, hidden=(3,), bottleneck=2, seed=1)
    cfg = DaeDetector(epochs=50, batch_size=4, learning_rate=1e12,
                      optimizer="sgd", seed=0)
    with pytest.raises(DivergedTraining):
        train(net, X, cfg)


def test_compute_threshold_constant_losses():
    for p in (10.0, 50.0, 99.0):
        assert compute_threshold([3.0] * 7, ThresholdConfig(p=p, gamma=2.0)) == 6.0


def test_compute_threshold_linear_interpolation():
    losses = np.arange(1.0, 101.0)
    thr = compute_threshold(losses, ThresholdConfig(p=95.0, gamma=1.0))
    # rank interpolation by hand: 95 + 0.05 * (96 - 95)
    assert thr == pytest.approx(95.05)


def test_compute_threshold_gamma_zero():
    assert compute_threshold([5.0, 6.0], ThresholdConfig(p=95.0, gamma=0.0)) == 0.0


def test_compute_threshold_monotone_in_p_and_gamma():
    rng = np.random.default_rng(7)
    losses = rng.random(200)
    thr = [compute_threshold(losses, ThresholdConfig(p=p, gamma=1.0))
           for p in (50.0, 75.0, 90.0, 99.0)]
    assert thr == sorted(thr)
    thr_g = [compute_threshold(losses, ThresholdConfig(p=90.0, gamma=g))
             for g in (0.5, 1.0, 1.5)]
    assert thr_g == sorted(thr_g)


def test_compute_threshold_empty():
    with pytest.raises(EmptyLosses):
        compute_threshold([], ThresholdConfig())


def _separable_validation(seed=0):
    rng = np.random.default_rng(seed)
    normal = rng.normal(0.0, 0.3, size=(60, 4))
    anomalies = rng.normal(6.0, 0.3, size=(12, 4))
    values = np.vstack([normal, anomalies])
    labels = np.array([0] * 60 + [1] * 12, dtype=np.int8)
    return FeatureMatrix(values, labels, tuple(range(4)))


def test_fine_tune_single_point_grid():
    net = make_autoencoder(4, hidden=(), bottleneck=2, seed=11)
    val = _separable_validation()
    tc, _ = fine_tune_threshold(net, val, grid=[(95.0, 1.25)])
    assert tc == ThresholdConfig(p=95.0, gamma=1.25)


def test_fine_tune_perfect_separation_reaches_f1_one():
    val = _separable_validation()
    net = make_autoencoder(4, hidden=(3,), bottleneck=2, seed=2)
    net, _ = train(net, FeatureMatrix(val.values[val.labels == 0],
                                      None, val.column_ids),
                   DaeDetector(epochs=60, batch_size=16, seed=2))
    losses = reconstruction_losses(net, val.values)
    assert losses[val.labels == 1].min() > losses[val.labels == 0].max()
    _, best_f1 = fine_tune_threshold(net, val)
    assert best_f1 == 1.0


def test_fine_tune_matches_exhaustive_oracle():
    from canids.metrics import confusion, f1 as f1_metric
    net = make_autoencoder(4, hidden=(), bottleneck=2, seed=5)
    val = _separable_validation(seed=3)
    grid = [(50.0, 0.5), (90.0, 1.0), (99.0, 2.0), (75.0, 0.75)]
    tc, best = fine_tune_threshold(net, val, grid=grid)

    losses = reconstruction_losses(net, val.values)
    normal_losses = losses[val.labels == 0]
    oracle = []
    for p, g in grid:
        thr = g * np.percentile(normal_losses, p)
        score = f1_metric(confusion((losses > thr).astype(int), val.labels))
        oracle.append((-1.0 if score is None else score, g, p))
    want = max(oracle, key=lambda t: (t[0], -t[1], -t[2]))
    assert best == want[0]
    assert (tc.gamma, tc.p) == (want[1], want[2])


def test_fine_tune_degenerate_validation():
    net = make_autoencoder(4, hidden=(), bottleneck=2, seed=0)
    values = np.ones((5, 4))
    single = FeatureMatrix(values, np.zeros(5, dtype=np.int8), tuple(range(4)))
    with pytest.raises(DegenerateValidation):
        fine_tune_threshold(net, single)


def test_dae_decide_boundary_rules():
    # a fitted dae around the zero net, with an identity standardizer
    det = DaeDetector()
    det.net = AutoencoderNet(
        [DenseLayer(np.zeros((2, 2)), np.zeros(2), "identity")],
        [DenseLayer(np.zeros((2, 2)), np.zeros(2), "identity")],
    )
    det.standardizer = Standardizer(np.zeros(2), np.ones(2))
    det.n_features, det.fitted = 2, True
    x = np.array([2.0, 0.0])  # loss = mean(4, 0) = 2.0
    det.threshold = 2.0
    [loss] = det.score(x)
    [pred] = det.predict(x)
    assert loss == 2.0 and pred == 0  # exactly at threshold stays normal
    det.threshold = 0.0
    assert det.predict(x)[0] == 1
    det.threshold = 1.9
    assert det.predict(x)[0] == 1


def test_net_serialization_round_trip():
    net = make_autoencoder(5, hidden=(4,), bottleneck=2, seed=13)
    rng = np.random.default_rng(8)
    X = rng.normal(size=(6, 5))
    restored = net_from_payload(net_to_payload(net))
    _, a = net.forward(X)
    _, b = restored.forward(X)
    assert np.array_equal(a, b)
