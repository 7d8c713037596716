"""Recurrent autoencoder baselines: plain AE and variational AE.

A single-layer recurrent encoder folds the input sequence into a latent
code; a single-layer recurrent decoder unrolls it back. The VAE encodes a
(mu, sigma) pair and samples z = mu + sigma*eps once per forward. One
``forward`` serves both kinds and one ``autoencoder_loss`` trains both: half
the mean squared error (a unit-variance Gaussian likelihood), plus for the
VAE the closed-form KL against a standard normal prior, which makes it the
single-sample negative ELBO. Swapping the cell kind turns RNN-AE/VAE into
LSTM-AE/VAE.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .checkpoint import ModelCheckpoint, read_config
from .errors import (
    EmptyDatasetError,
    InvariantViolationError,
    ShapeMismatchError,
)
from .gan import TrainConfig

BASELINE_KINDS = ("rnn-ae", "rnn-vae", "lstm-ae", "lstm-vae")


@dataclass(frozen=True)
class AeConfig:
    hidden: int = 64
    latent: int = 16
    seq_len: int = 64
    cell: str = "rnn"

    def __post_init__(self):
        if min(self.hidden, self.latent, self.seq_len) < 1:
            raise InvariantViolationError("hidden, latent, seq_len must be positive")
        if self.cell not in ("rnn", "lstm"):
            raise InvariantViolationError(f"cell must be rnn or lstm, got {self.cell!r}")


class RecurrentAutoencoder:
    """Encoder RNN -> latent code -> decoder RNN emitting one value per step.

    The decoder is teacher-forced: its input at step t is the target value
    of step t - 1, and step 0 feeds 0.
    """

    def __init__(self, config: AeConfig, rng: np.random.Generator,
                 variational: bool = False):
        self.config = config
        self.variational = variational
        self.params = nn.ParamSet()
        cell = nn.LSTMCell if config.cell == "lstm" else nn.RNNCell
        self.encoder = cell(self.params, "ae.enc", 1, config.hidden, rng)
        if variational:
            self.to_mu = nn.Dense(self.params, "ae.mu", config.hidden, config.latent, rng)
            self.to_logvar = nn.Dense(self.params, "ae.logvar", config.hidden, config.latent, rng)
        else:
            self.to_latent = nn.Dense(self.params, "ae.latent", config.hidden, config.latent, rng)
        self.from_latent = nn.Dense(self.params, "ae.dec0", config.latent, config.hidden, rng)
        self.decoder = cell(self.params, "ae.dec", 1, config.hidden, rng)
        self.emit = nn.Dense(self.params, "ae.emit", config.hidden, 1, rng)

    def _check_input(self, x: Tensor) -> tuple[int, int]:
        if x.data.ndim != 2 or x.shape[1] != self.config.seq_len:
            raise ShapeMismatchError(
                f"expected (batch, {self.config.seq_len}), got {x.shape}")
        return x.shape[0], x.shape[1]

    def encode(self, x: Tensor) -> Tensor:
        batch, steps = self._check_input(x)
        return ad.select(nn.unroll(self.encoder, ad.reshape(x, (batch, steps, 1))), 1, steps - 1)

    def decode(self, latent: Tensor, teacher: Tensor) -> Tensor:
        """One fused ``unroll`` of the decoder over ``teacher`` (batch, steps) shifted
        right by one step, then one emit over every step's h. The teacher is read as
        data: it gets no gradient."""
        batch, steps = teacher.shape
        h0 = ad.tanh(self.from_latent(latent))
        inputs = Tensor(np.concatenate([np.zeros((batch, 1)), teacher.data[:, :-1]], axis=1))
        hs = nn.unroll(self.decoder, ad.reshape(inputs, (batch, steps, 1)), h0=h0)
        y = self.emit(ad.reshape(hs, (batch * steps, self.config.hidden)))
        return ad.reshape(y, (batch, steps))

    def forward(self, x: Tensor,
                rng: np.random.Generator) -> tuple[Tensor, Tensor | None, Tensor | None]:
        """Returns (reconstruction, mu, sigma). A VAE decodes one z drawn with ``rng``;
        a plain autoencoder decodes its code and returns None for mu and sigma."""
        h = self.encode(x)
        if not self.variational:
            return self.decode(self.to_latent(h), x), None, None
        mu = self.to_mu(h)
        sigma = ad.exp(ad.mul(self.to_logvar(h), 0.5))
        return self.decode(reparameterize(mu, sigma, rng), x), mu, sigma


def reparameterize(mu: Tensor, sigma: Tensor, rng: np.random.Generator) -> Tensor:
    """z = mu + sigma * eps with eps ~ N(0, 1); gradients flow through both."""
    mu = ad.as_tensor(mu)
    sigma = ad.as_tensor(sigma)
    if mu.shape != sigma.shape:
        raise ShapeMismatchError(f"mu {mu.shape} vs sigma {sigma.shape}")
    eps = Tensor(rng.standard_normal(mu.shape))
    return ad.add(mu, ad.mul(sigma, eps))


def kl_standard_normal(mu: Tensor, sigma: Tensor) -> Tensor:
    """Closed-form KL(N(mu, sigma^2) || N(0, 1)): (1/2) sum(mu^2 + s^2 - log s^2 - 1),
    summed over latent dims and averaged over the batch; both are (batch, latent)."""
    mu, sigma = ad.as_tensor(mu), ad.as_tensor(sigma)
    if mu.data.ndim != 2 or mu.shape != sigma.shape:
        raise ShapeMismatchError(f"need (batch, latent) mu and sigma, got {mu.shape}, {sigma.shape}")
    s2 = ad.mul(sigma, sigma)
    per_entry = ad.sub(ad.sub(ad.add(ad.mul(mu, mu), s2), ad.log(s2)), 1.0)
    return ad.mul(ad.mean(ad.tensor_sum(per_entry, axis=1)), 0.5)


def autoencoder_loss(model: RecurrentAutoencoder, x: Tensor,
                     rng: np.random.Generator) -> Tensor:
    """The training objective. Half the mean squared error is the unit-variance
    Gaussian negative log-likelihood with its constant dropped; a VAE adds the KL
    of its one sample, making the loss the single-sample negative ELBO."""
    y, mu, sigma = model.forward(x, rng)
    recon = nn.mse_half(y, x)
    return recon if mu is None else ad.add(recon, kl_standard_normal(mu, sigma))


def train_baseline(kind: str, data: np.ndarray, config: AeConfig,
                   train_config: TrainConfig) -> tuple[ModelCheckpoint, dict[str, np.ndarray]]:
    """Seeded gradient training of one baseline; history has one loss per iteration."""
    if kind not in BASELINE_KINDS:
        raise InvariantViolationError(f"unknown baseline {kind!r}; pick from {BASELINE_KINDS}")
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDatasetError(f"need a nonempty (N, T) dataset, got {data.shape}")
    if data.shape[1] != config.seq_len:
        raise ShapeMismatchError(f"data length {data.shape[1]} vs config {config.seq_len}")
    config = replace(config, cell="lstm" if kind.startswith("lstm") else "rnn")

    init_rng, batch_rng, sample_rng = nn.seeded_streams(train_config.seed, 3)
    model = RecurrentAutoencoder(config, init_rng, variational=kind.endswith("vae"))
    opt = nn.Adam(model.params, lr=train_config.lr)

    def iteration(sample) -> dict[str, float]:
        return {"loss": opt.minimize(autoencoder_loss(model, sample(), sample_rng))}

    history = nn.fit(data, train_config.epochs, train_config.batch_size, batch_rng, iteration)

    # training always teacher-forces; the checkpoint still records that it did
    ckpt = ModelCheckpoint(
        model=kind,
        config={"ae": asdict(config), "train": asdict(train_config),
                "teacher_forcing": True},
        seed=train_config.seed, iterations=train_config.epochs, arrays=model.params.arrays())
    return ckpt, history


def baseline_from_checkpoint(ckpt: ModelCheckpoint) -> RecurrentAutoencoder:
    if ckpt.model not in BASELINE_KINDS:
        raise InvariantViolationError(f"checkpoint holds {ckpt.model!r}, not a baseline")
    config = read_config(ckpt, "ae", AeConfig)
    model = RecurrentAutoencoder(config, np.random.default_rng(0),
                                 variational=ckpt.model.endswith("vae"))
    model.params.load_arrays(ckpt.arrays)
    return model
