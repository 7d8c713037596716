import numpy as np
import pytest
from oracles import oracle_teacher_forced_decode

from qgf import autodiff as ad
from qgf import baselines as bl
from qgf import nn
from qgf.autodiff import Tensor
from qgf.errors import (
    EmptyDatasetError,
    InvariantViolationError,
    IoError,
    NonFiniteLossError,
    ShapeMismatchError,
)
from qgf.gan import TrainConfig

# numpy's floating-point warnings (overflow, invalid) mean a kernel read or made a bad value
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY = bl.AeConfig(hidden=6, latent=3, seq_len=10, cell="rnn")


def _data(seed=0, n=12, steps=10):
    rng = np.random.default_rng(seed)
    t = np.arange(steps)
    return np.stack([np.sin(2 * np.pi * (t / 5 + rng.random())) for _ in range(n)])


def test_config_validation():
    with pytest.raises(InvariantViolationError):
        bl.AeConfig(hidden=0)
    with pytest.raises(InvariantViolationError):
        bl.AeConfig(cell="gru")


@pytest.mark.parametrize("cell", ["rnn", "lstm"])
def test_forward_shapes(cell, rng):
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10, cell=cell)
    model = bl.RecurrentAutoencoder(config, rng)
    x = Tensor(_data())
    state = rng.bit_generator.state
    y, mu, sigma = model.forward(x, rng)
    assert y.shape == (12, 10)
    assert np.isfinite(y.data).all()
    assert mu is None and sigma is None
    assert rng.bit_generator.state == state  # a plain autoencoder draws nothing
    with pytest.raises(ShapeMismatchError):
        model.forward(Tensor(np.zeros((2, 11))), rng)


def test_zero_init_model_reconstructs_zero():
    model = bl.RecurrentAutoencoder(TINY, np.random.default_rng(0))
    for t in model.params.tensors():
        t.data[:] = 0.0
    x = Tensor(_data())
    y, _, _ = model.forward(x, np.random.default_rng(1))
    assert np.array_equal(y.data, np.zeros((12, 10)))
    # so the loss is exactly mean(x^2)/2
    loss = bl.autoencoder_loss(model, x, np.random.default_rng(1))
    assert loss.item() == pytest.approx(float((x.data ** 2).mean()) / 2.0)


@pytest.mark.parametrize("cell", ["rnn", "lstm"])
def test_teacher_forced_decode_matches_the_per_step_loop(cell, rng):
    model = bl.RecurrentAutoencoder(bl.AeConfig(hidden=6, latent=3, seq_len=10, cell=cell), rng)
    latent = Tensor(rng.standard_normal((12, 3)))
    teacher = Tensor(_data(), requires_grad=True)
    weights = rng.standard_normal((12, 10))
    tracked = {name: t for name, t in model.params.items()
               if name.startswith(("ae.dec", "ae.emit"))}  # dec0, the decoder cell, emit
    tracked["teacher"] = teacher

    def run(decode):
        for t in tracked.values():
            t.grad = None
        y = decode()
        ad.backward(ad.tensor_sum(ad.mul(y, weights)))
        return y.data, {name: t.grad for name, t in tracked.items()}

    fused_y, fused = run(lambda: model.decode(latent, teacher))
    loop_y, loop = run(lambda: oracle_teacher_forced_decode(model, latent, teacher))
    np.testing.assert_allclose(fused_y, loop_y, rtol=1e-12, atol=1e-12)
    assert len(tracked) == 8 and all(g is not None for g in fused.values())
    for name in tracked:
        np.testing.assert_allclose(fused[name], loop[name], rtol=1e-12, atol=1e-12, err_msg=name)


def _graph_size(loss: Tensor) -> int:
    seen, stack = set(), [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node._parents)
    return len(seen)


def test_teacher_forced_vae_graph_does_not_grow_with_length():
    def desk_lstm_vae_graph(steps):
        config = bl.AeConfig(hidden=16, latent=4, seq_len=steps, cell="lstm")
        model = bl.RecurrentAutoencoder(config, np.random.default_rng(1), variational=True)
        x = Tensor(np.random.default_rng(2).standard_normal((32, steps)))
        return _graph_size(bl.autoencoder_loss(model, x, np.random.default_rng(3)))

    assert desk_lstm_vae_graph(8) == desk_lstm_vae_graph(64)


def test_vae_forward_returns_consistent_sample(rng):
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10, cell="rnn")
    model = bl.RecurrentAutoencoder(config, rng, variational=True)
    x = Tensor(_data())
    y, mu, sigma = model.forward(x, np.random.default_rng(3))
    assert y.shape == (12, 10)
    assert mu.shape == (12, 3)
    assert sigma.shape == (12, 3)
    assert np.all(sigma.data > 0)


def test_reparameterize_zero_sigma_returns_mu(rng):
    mu = Tensor(rng.standard_normal((4, 3)))
    z = bl.reparameterize(mu, Tensor(np.zeros((4, 3))), rng)
    assert np.array_equal(z.data, mu.data)
    with pytest.raises(ShapeMismatchError):
        bl.reparameterize(mu, Tensor(np.zeros((4, 2))), rng)


def test_reparameterize_sample_statistics():
    rng = np.random.default_rng(7)
    mu = Tensor(np.full((50_000, 1), 2.0))
    sigma = Tensor(np.full((50_000, 1), 0.5))
    z = bl.reparameterize(mu, sigma, rng).data
    assert abs(z.mean() - 2.0) < 0.01
    assert abs(z.std() - 0.5) < 0.01


def test_kl_closed_form_values():
    one = Tensor(np.ones((1, 1)))
    assert bl.kl_standard_normal(one, one).item() == 0.5
    zero_mu = Tensor(np.zeros((1, 1)))
    assert bl.kl_standard_normal(zero_mu, one).item() == 0.0
    # additive over independent latent dimensions
    mu = Tensor(np.ones((1, 4)))
    sigma = Tensor(np.ones((1, 4)))
    assert bl.kl_standard_normal(mu, sigma).item() == 2.0
    with pytest.raises(ShapeMismatchError):  # the batch axis is required
        bl.kl_standard_normal(Tensor(np.ones(4)), Tensor(np.ones(4)))


def test_kl_nonnegative_and_zero_only_at_the_prior(rng):
    for _ in range(300):
        mu = Tensor(rng.standard_normal((3, 5)) * 3)
        sigma = Tensor(np.exp(rng.standard_normal((3, 5))))
        assert bl.kl_standard_normal(mu, sigma).item() >= 0.0
    batch = Tensor(np.zeros((3, 5)))
    ones = Tensor(np.ones((3, 5)))
    assert bl.kl_standard_normal(batch, ones).item() == 0.0


def test_vae_loss_terms_reconcile(rng):
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10, cell="rnn")
    model = bl.RecurrentAutoencoder(config, rng, variational=True)
    x = Tensor(_data())
    loss = bl.autoencoder_loss(model, x, np.random.default_rng(5))
    y, mu, sigma = model.forward(x, np.random.default_rng(5))
    parts = ad.add(nn.mse_half(y, x), bl.kl_standard_normal(mu, sigma))
    assert loss.item() == parts.item()


@pytest.mark.parametrize("kind", bl.BASELINE_KINDS)
def test_train_baseline_runs_and_learns(kind):
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10)
    ckpt, hist = bl.train_baseline(kind, _data(), config,
                                   TrainConfig(epochs=25, batch_size=12, lr=0.01, seed=3))
    assert hist["loss"].shape == (25,)
    assert np.isfinite(hist["loss"]).all()
    assert ckpt.model == kind
    assert ckpt.config["ae"]["cell"] == ("lstm" if kind.startswith("lstm") else "rnn")
    # a short well-conditioned run should make clear progress
    assert hist["loss"][-1] < hist["loss"][0]


def test_train_baseline_validation():
    with pytest.raises(InvariantViolationError):
        bl.train_baseline("cnn-ae", _data(), TINY, TrainConfig(epochs=1, batch_size=4, lr=0.01))
    with pytest.raises(EmptyDatasetError):
        bl.train_baseline("rnn-ae", np.empty((0, 10)), TINY,
                          TrainConfig(epochs=1, batch_size=4, lr=0.01))
    with pytest.raises(ShapeMismatchError):
        bl.train_baseline("rnn-ae", np.zeros((4, 8)), TINY,
                          TrainConfig(epochs=1, batch_size=4, lr=0.01))


def test_train_baseline_is_deterministic_per_seed():
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10)
    tc = TrainConfig(epochs=8, batch_size=8, lr=0.01, seed=9)
    _, h1 = bl.train_baseline("rnn-vae", _data(), config, tc)
    _, h2 = bl.train_baseline("rnn-vae", _data(), config, tc)
    assert np.array_equal(h1["loss"], h2["loss"])
    _, h3 = bl.train_baseline("rnn-vae", _data(), config,
                              TrainConfig(epochs=8, batch_size=8, lr=0.01, seed=10))
    assert not np.array_equal(h1["loss"], h3["loss"])


def test_non_finite_data_is_reported():
    data = _data()
    data[0, 0] = np.inf
    with pytest.raises(NonFiniteLossError) as err:
        bl.train_baseline("rnn-ae", data, TINY,
                          TrainConfig(epochs=3, batch_size=12, lr=0.01, seed=0))
    assert err.value.iteration == 0


def test_baseline_round_trip_through_checkpoint():
    config = bl.AeConfig(hidden=6, latent=3, seq_len=10)
    ckpt, _ = bl.train_baseline("lstm-ae", _data(), config,
                                TrainConfig(epochs=3, batch_size=8, lr=0.01, seed=1))
    model = bl.baseline_from_checkpoint(ckpt)
    x = Tensor(_data(seed=4))
    y, _, _ = model.forward(x, np.random.default_rng(0))
    assert y.shape == (12, 10)
    with pytest.raises(InvariantViolationError):
        bad = type(ckpt)(model="gan", config=ckpt.config, seed=0, iterations=1,
                         arrays=ckpt.arrays)
        bl.baseline_from_checkpoint(bad)


@pytest.mark.parametrize("edit,detail", [
    (lambda ae: ae.pop("latent"), "'latent'"),
    (lambda ae: ae.update(layers=2), "'layers'"),
    (lambda ae: ae.update(hidden=True), "'hidden'"),
], ids=["missing", "unknown", "bool-for-int"])
def test_baseline_from_checkpoint_rejects_malformed_ae_config(edit, detail):
    ckpt, _ = bl.train_baseline("rnn-ae", _data(), TINY,
                                TrainConfig(epochs=1, batch_size=8, lr=0.01, seed=1))
    edit(ckpt.config["ae"])
    with pytest.raises(IoError, match=detail):
        bl.baseline_from_checkpoint(ckpt)


def test_constant_sequences_reach_tiny_loss():
    data = np.full((8, 10), 0.7)
    config = bl.AeConfig(hidden=8, latent=4, seq_len=10)
    _, hist = bl.train_baseline("rnn-ae", data, config,
                                TrainConfig(epochs=300, batch_size=8, lr=0.02, seed=2))
    assert hist["loss"][-1] < 1e-3
