"""Finite-difference verification of every differentiable kernel.

Each check builds a tiny randomized model, computes a scalar loss, and
compares backprop gradients against central differences (``nn.FD_EPS``) via
``nn.check_gradients``. The same battery backs the `gradcheck` subcommand
and the test suite.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from . import autodiff as ad
from . import baselines, features, gan, nn
from .autodiff import Tensor

TOLERANCE = 1e-4

_MICRO_DISC = gan.DiscriminatorConfig(
    input_len=8, conv1=gan.ConvSpec(2, 3, 2), pool1=gan.PoolSpec(2, 1),
    conv2=gan.ConvSpec(2, 2, 1), pool2=gan.PoolSpec(1, 1), dense_units=3)
_MICRO_GEN = gan.GeneratorConfig(noise_dim=2, seq_len=8, hidden=2, dropout_p=0.0)


def _check_dense(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    layer = nn.Dense(pset, "d", 4, 3, rng)
    x = Tensor(rng.standard_normal((5, 4)))
    return nn.check_gradients(lambda: ad.mean(ad.power(ad.tanh(layer(x)), 2.0)), pset)


def _check_lstm_cell(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    cell = nn.LSTMCell(pset, "c", 3, 4, rng)
    seq = Tensor(np.stack([rng.standard_normal((2, 3)) for _ in range(3)], axis=1))
    return nn.check_gradients(
        lambda: ad.mean(ad.power(ad.select(nn.unroll(cell, seq), 1, 2), 2.0)), pset)


def _check_lstm_segments(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    cell = nn.LSTMCell(pset, "c", 1, 1, rng)
    h0 = pset.add("h0", rng.standard_normal((2, 1)))
    seq = Tensor(rng.standard_normal((2, 2 * nn.SEGMENT + 3, 1)))
    return nn.check_gradients(lambda: ad.mean(ad.power(nn.unroll(cell, seq, h0=h0), 2.0)), pset)


def _check_bilstm(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    layer = nn.BiLstmLayer(pset, "b", 2, 4, 3, rng)
    x = pset.add("x", rng.standard_normal((2, 3, 2)))  # dx sums both directions' terms
    return nn.check_gradients(lambda: ad.mean(ad.power(layer(x), 2.0)), pset)


def _check_conv1d(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    x = pset.add("x", rng.standard_normal((2, 2, 9)))
    f = pset.add("f", rng.standard_normal((3, 2, 3)))
    b = pset.add("b", rng.standard_normal(3))
    return nn.check_gradients(
        lambda: ad.mean(ad.power(ad.tanh(nn.conv1d(x, f, b, stride=2)), 2.0)), pset)


def _check_maxpool1d(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    x = pset.add("x", rng.standard_normal((2, 3, 10)))
    return nn.check_gradients(
        lambda: ad.mean(ad.power(nn.maxpool1d(x, window=3, stride=2), 2.0)), pset)


def _check_softmax(rng: np.random.Generator) -> float:
    pset = nn.ParamSet()
    z = pset.add("z", rng.standard_normal((4, 5)))
    target = rng.standard_normal((4, 5))
    return nn.check_gradients(
        lambda: ad.mean(ad.power(ad.sub(nn.softmax(z), target), 2.0)), pset)


def _check_gan_d_loss(rng: np.random.Generator) -> float:
    disc = gan.Discriminator(_MICRO_DISC, rng)
    real = Tensor(rng.standard_normal((3, 8)))
    fake = Tensor(rng.standard_normal((3, 8)))
    return nn.check_gradients(
        lambda: gan.discriminator_loss(disc.forward(real), disc.forward(fake)), disc.params)


def _check_gan_g_loss(rng: np.random.Generator) -> float:
    generator = gan.Generator(_MICRO_GEN, rng)
    disc = gan.Discriminator(_MICRO_DISC, rng)
    noise = gan.sample_noise(3, 8, 2, rng)

    def loss():
        fake = generator.forward(noise)
        return gan.generator_loss(disc.forward(fake), "printed")

    return nn.check_gradients(loss, generator.params)


def _check_autoencoder(rng: np.random.Generator, cell: str = "rnn",
                       variational: bool = False) -> float:
    # an lstm decoder also covers the gradient of ``unroll``'s h0
    config = baselines.AeConfig(hidden=3, latent=2, seq_len=4, cell=cell)
    model = baselines.RecurrentAutoencoder(config, rng, variational=variational)
    x = Tensor(rng.standard_normal((2, 4)))
    eps_seed = int(rng.integers(1 << 30))
    # a fresh rng with a fixed seed replays the same eps draw every call
    return nn.check_gradients(
        lambda: baselines.autoencoder_loss(model, x, np.random.default_rng(eps_seed)), model.params)


def _check_logistic_probe(rng: np.random.Generator) -> float:
    x = rng.standard_normal((12, 4))
    y = (rng.random(12) < 0.5).astype(np.float64)
    pset = nn.ParamSet()
    wb = pset.add("wb", np.append(rng.standard_normal(4), rng.standard_normal()))  # w, then b

    def loss_and_grad():
        return features.logistic_loss_and_grad(wb.data[:4], wb.data[4], x, y, l2=1e-3)

    _, gw, gb = loss_and_grad()
    numeric = nn.finite_difference_gradients(lambda: loss_and_grad()[0], pset)["wb"]
    return nn.relative_error(np.append(gw, gb), numeric)


KERNEL_CHECKS: dict[str, Callable[[np.random.Generator], float]] = {
    "dense": _check_dense,
    "lstm_cell": _check_lstm_cell,
    "lstm_segments": _check_lstm_segments,
    "bilstm_layer": _check_bilstm,
    "conv1d": _check_conv1d,
    "maxpool1d": _check_maxpool1d,
    "softmax": _check_softmax,
    "gan_d_loss": _check_gan_d_loss,
    "gan_g_loss": _check_gan_g_loss,
    "ae_loss": _check_autoencoder,
    "vae_loss": functools.partial(_check_autoencoder, variational=True),
    "lstm_vae_loss": functools.partial(_check_autoencoder, cell="lstm", variational=True),
    "logistic_probe": _check_logistic_probe,
}


def kernel_checks(seeds_per_kernel: int = 50) -> dict[str, float]:
    """Worst relative error per kernel over ``seeds_per_kernel`` random trials."""
    results = {}
    for name, check in KERNEL_CHECKS.items():
        worst = 0.0
        for seed in range(seeds_per_kernel):
            worst = max(worst, check(np.random.default_rng(seed)))
        results[name] = worst
    return results
