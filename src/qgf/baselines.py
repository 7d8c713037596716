"""Recurrent autoencoder baselines: plain AE and variational AE.

A single-layer recurrent encoder folds the input sequence into a latent
code; a single-layer recurrent decoder unrolls it back. The VAE encodes a
(mu, sigma) pair, samples z = mu + sigma*eps once per evaluation, and adds
the closed-form KL against a standard normal prior. A unit-variance
Gaussian likelihood makes the reconstruction term half the mean squared
error. Swapping the cell kind turns RNN-AE/VAE into LSTM-AE/VAE.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


@dataclass(frozen=True)
class ElboTerms:
    """reconstruction log-likelihood (up to its constant), KL term, and their
    difference; total = reconstruction - kl and kl is never negative."""

    reconstruction: float
    kl: float
    total: float

    def __post_init__(self):
        if self.kl < -1e-12:
            raise InvariantViolationError(f"negative KL {self.kl}")
        if abs(self.total - (self.reconstruction - self.kl)) > 1e-9:
            raise InvariantViolationError("total != reconstruction - kl")


class RecurrentAutoencoder:
    """Encoder RNN -> latent code -> decoder RNN emitting one value per step.

    The decoder is teacher-forced: its input at step t is the target value
    of step t - 1, and step 0 feeds 0.
    """

    def __init__(self, config: AeConfig, rng: np.random.Generator,
                 variational: bool = False, prefix: str = "ae"):
        self.config = config
        self.variational = variational
        self.params = nn.ParamSet()
        cell = nn.LSTMCell if config.cell == "lstm" else nn.RNNCell
        self.encoder = cell(self.params, f"{prefix}.enc", 1, config.hidden, rng)
        if variational:
            self.to_mu = nn.Dense(self.params, f"{prefix}.mu", config.hidden, config.latent, rng)
            self.to_logvar = nn.Dense(self.params, f"{prefix}.logvar", config.hidden,
                                      config.latent, rng)
        else:
            self.to_latent = nn.Dense(self.params, f"{prefix}.latent", config.hidden,
                                      config.latent, rng)
        self.from_latent = nn.Dense(self.params, f"{prefix}.dec0", config.latent,
                                    config.hidden, rng)
        self.decoder = cell(self.params, f"{prefix}.dec", 1, config.hidden, rng)
        self.emit = nn.Dense(self.params, f"{prefix}.emit", config.hidden, 1, rng)

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
        right by one step, then one emit over every step's h."""
        batch, steps = teacher.shape
        h0 = ad.tanh(self.from_latent(latent))
        inputs = ad.concat([Tensor(np.zeros((batch, 1))), ad.narrow(teacher, 1, 0, steps - 1)], axis=1)
        hs = nn.unroll(self.decoder, ad.reshape(inputs, (batch, steps, 1)), h0=h0)
        y = self.emit(ad.reshape(hs, (batch * steps, self.config.hidden)))
        return ad.reshape(y, (batch, steps))

    def forward(self, x: Tensor) -> Tensor:
        if self.variational:
            raise InvariantViolationError("variational model: use forward_vae")
        return self.decode(self.to_latent(self.encode(x)), x)

    def forward_vae(self, x: Tensor, rng: np.random.Generator) -> tuple[Tensor, Tensor, Tensor]:
        """Returns (reconstruction, mu, sigma) with one sampled z."""
        if not self.variational:
            raise InvariantViolationError("non-variational model: use forward")
        h = self.encode(x)
        mu = self.to_mu(h)
        sigma = ad.exp(ad.mul(self.to_logvar(h), 0.5))
        z = reparameterize(mu, sigma, rng)
        return self.decode(z, x), mu, sigma


def rnn_ae_loss(y: Tensor, x: Tensor) -> Tensor:
    """Half mean squared error: the unit-variance Gaussian negative
    log-likelihood with its constant dropped."""
    return nn.mse_half(y, x)


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
    summed over latent dims and averaged over the batch."""
    mu = ad.as_tensor(mu)
    sigma = ad.as_tensor(sigma)
    if mu.shape != sigma.shape:
        raise ShapeMismatchError(f"mu {mu.shape} vs sigma {sigma.shape}")
    s2 = ad.mul(sigma, sigma)
    per_entry = ad.sub(ad.sub(ad.add(ad.mul(mu, mu), s2), ad.log(s2)), 1.0)
    if mu.data.ndim == 2:
        per_row = ad.tensor_sum(per_entry, axis=1)
        return ad.mul(ad.mean(per_row), 0.5)
    return ad.mul(ad.tensor_sum(per_entry), 0.5)


def rnn_vae_loss(model: RecurrentAutoencoder, x: Tensor,
                 rng: np.random.Generator) -> tuple[Tensor, ElboTerms]:
    """Single-sample negative ELBO as the training objective, plus its parts."""
    y, mu, sigma = model.forward_vae(x, rng)
    recon_nll = rnn_ae_loss(y, x)
    kl = kl_standard_normal(mu, sigma)
    loss = ad.add(recon_nll, kl)
    terms = ElboTerms(reconstruction=-recon_nll.item(), kl=kl.item(), total=-loss.item())
    return loss, terms


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
    cell = "lstm" if kind.startswith("lstm") else "rnn"
    if config.cell != cell:
        config = AeConfig(hidden=config.hidden, latent=config.latent,
                          seq_len=config.seq_len, cell=cell)
    variational = kind.endswith("vae")

    init_rng, batch_rng, sample_rng = nn.seeded_streams(train_config.seed, 3)
    model = RecurrentAutoencoder(config, init_rng, variational=variational)
    opt = nn.Adam(model.params, lr=train_config.lr)

    def iteration(sample) -> dict[str, float]:
        x = sample()
        if variational:
            loss, _ = rnn_vae_loss(model, x, sample_rng)
        else:
            loss = rnn_ae_loss(model.forward(x), x)
        return {"loss": opt.minimize(loss)}

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
