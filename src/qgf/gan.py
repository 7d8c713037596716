"""Adversarial sequence model: Bi-LSTM generator versus 1-D CNN discriminator.

The generator stacks two bidirectional LSTM layers (90 cells each by
default), dropout, and a per-step dense projection to one value. The
discriminator runs two conv/pool stages, a 25-unit dense layer, and a 2-way
softmax whose second component is the probability the input is real.

Training alternates discriminator steps with one generator step per
iteration, minimizing d_loss = -mean[log D(x) + log(1 - D(G(z)))] and the
generator objective mean[log(1 - D(G(z)))] (a non-saturating -mean[log
D(G(z))] is available). The generator runs forward once per discriminator
step; the generator step scores the fakes of the iteration's last
discriminator step against the discriminator that has just stepped on them,
as PyTorch's DCGAN example reuses one ``fake`` per iteration, rather than
drawing fresh noise as Goodfellow et al. (2014, Algorithm 1) do. Everything
is seeded and bitwise reproducible.
"""

from __future__ import annotations

import contextlib
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from . import nn
from .autodiff import Tensor
from .checkpoint import ModelCheckpoint, read_config
from .errors import (
    EmptyDatasetError,
    FilterLargerThanInputError,
    InvariantViolationError,
    LengthMismatchError,
    NumericError,
    ShapeMismatchError,
)

PROB_FLOOR = 1e-7


@dataclass(frozen=True)
class GeneratorConfig:
    noise_dim: int = 5
    seq_len: int = 3120
    hidden: int = 90
    dropout_p: float = 0.4

    def __post_init__(self):
        if self.hidden < 1 or self.noise_dim < 1:
            raise InvariantViolationError("hidden and noise_dim must be positive")
        if self.seq_len < 2:
            raise InvariantViolationError("seq_len must be >= 2")
        if not 0.0 <= self.dropout_p < 1.0:
            raise InvariantViolationError("dropout_p must be in [0, 1)")

    @classmethod
    def desk(cls, seq_len: int = 64) -> "GeneratorConfig":
        return cls(noise_dim=4, seq_len=seq_len, hidden=16, dropout_p=0.1)


@dataclass(frozen=True)
class ConvSpec:
    filters: int
    size: int
    stride: int


@dataclass(frozen=True)
class PoolSpec:
    size: int
    stride: int


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Conv/pool stack sizes; defaults are the 3120-point configuration
    (C1: 10 filters 120 wide stride 5; P1: 46/3; C2: 5 filters 36/3; P2: 24/3;
    dense 25; softmax over 2 classes)."""

    input_len: int = 3120
    conv1: ConvSpec = ConvSpec(10, 120, 5)
    pool1: PoolSpec = PoolSpec(46, 3)
    conv2: ConvSpec = ConvSpec(5, 36, 3)
    pool2: PoolSpec = PoolSpec(24, 3)
    dense_units: int = 25

    def layer_shapes(self) -> list[tuple[int, int]]:
        """(channels, length) after each of C1, P1, C2, P2; raises on bad geometry,
        naming the stage."""
        length, shapes = self.input_len, []
        for stage in ("conv1", "pool1", "conv2", "pool2"):
            spec = getattr(self, stage)
            try:
                length = nn.conv_out_size(length, spec.size, spec.stride)
            except FilterLargerThanInputError as exc:
                raise FilterLargerThanInputError(f"{stage}: {exc}") from None
            if isinstance(spec, ConvSpec):
                channels = spec.filters  # a pool keeps its conv's channels
            shapes.append((channels, length))
        return shapes

    @classmethod
    def desk(cls, input_len: int = 64) -> "DiscriminatorConfig":
        return cls(input_len=input_len, conv1=ConvSpec(6, 8, 2), pool1=PoolSpec(3, 2),
                   conv2=ConvSpec(4, 5, 1), pool2=PoolSpec(2, 2), dense_units=10)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 500
    batch_size: int = 100
    lr: float = 1e-5
    seed: int = 42
    d_steps: int = 1
    g_loss_mode: str = "printed"

    def __post_init__(self):
        if min(self.epochs, self.batch_size, self.d_steps) < 1 or not 0 < self.lr < np.inf:
            raise InvariantViolationError("epochs, batch_size, d_steps, lr must be positive, lr finite")
        if self.g_loss_mode not in ("printed", "nonsaturating"):
            raise InvariantViolationError(f"unknown g_loss_mode {self.g_loss_mode!r}")


def sample_noise(batch: int, seq_len: int, noise_dim: int, rng: np.random.Generator) -> Tensor:
    """(batch, seq_len, noise_dim) of i.i.d. standard normals."""
    if min(batch, seq_len, noise_dim) < 1:
        raise InvariantViolationError("noise dims must be positive")
    return Tensor(rng.standard_normal((batch, seq_len, noise_dim)))


class Generator:
    def __init__(self, config: GeneratorConfig, rng: np.random.Generator):
        self.config = config
        self.params = nn.ParamSet()
        self.layer1 = nn.BiLstmLayer(self.params, "gen.l1", config.noise_dim,
                                     config.hidden, config.hidden, rng)
        self.layer2 = nn.BiLstmLayer(self.params, "gen.l2", config.hidden,
                                     config.hidden, config.hidden, rng)
        self.proj = nn.Dense(self.params, "gen.out", config.hidden, 1, rng)

    def forward(self, noise: Tensor, dropout_rng: np.random.Generator | None = None) -> Tensor:
        """Noise batch (B, T, d) to value sequences (B, T); dropout draws from
        ``dropout_rng`` when one is given (training) and is off without one."""
        if noise.data.ndim != 3 or noise.shape[2] != self.config.noise_dim:
            raise ShapeMismatchError(
                f"noise must be (batch, T, {self.config.noise_dim}), got {noise.shape}")
        batch, steps = noise.shape[0], noise.shape[1]
        h = self.layer2(self.layer1(noise))
        h = nn.dropout(h, self.config.dropout_p, dropout_rng)
        flat = ad.reshape(h, (batch * steps, self.config.hidden))
        return ad.reshape(self.proj(flat), (batch, steps))


class Discriminator:
    def __init__(self, config: DiscriminatorConfig, rng: np.random.Generator):
        # geometry must be valid before any parameters exist
        channels, length = config.layer_shapes()[-1]
        self.config = config
        self.params = nn.ParamSet()
        c1, c2 = config.conv1, config.conv2
        self.f1 = self.params.add("disc.c1.f", nn.xavier_uniform(rng, (c1.filters, 1, c1.size)))
        self.b1 = self.params.add("disc.c1.b", np.zeros(c1.filters))
        self.f2 = self.params.add("disc.c2.f",
                                  nn.xavier_uniform(rng, (c2.filters, c1.filters, c2.size)))
        self.b2 = self.params.add("disc.c2.b", np.zeros(c2.filters))
        self.flat_size = channels * length
        self.dense = nn.Dense(self.params, "disc.fc", self.flat_size, config.dense_units, rng)
        self.head = nn.Dense(self.params, "disc.head", config.dense_units, 2, rng)

    def forward(self, x: Tensor) -> Tensor:
        """Sequences (B, L) to P(real) per item, strictly inside (0, 1)."""
        x = ad.as_tensor(x)
        if x.data.ndim != 2 or x.shape[1] != self.config.input_len:
            raise LengthMismatchError(
                f"expected (batch, {self.config.input_len}), got {x.shape}")
        batch = x.shape[0]
        h = ad.reshape(x, (batch, 1, self.config.input_len))
        h = ad.tanh(nn.conv1d(h, self.f1, self.b1, self.config.conv1.stride))
        h = nn.maxpool1d(h, self.config.pool1.size, self.config.pool1.stride)
        h = ad.tanh(nn.conv1d(h, self.f2, self.b2, self.config.conv2.stride))
        h = nn.maxpool1d(h, self.config.pool2.size, self.config.pool2.stride)
        h = ad.reshape(h, (batch, self.flat_size))
        h = ad.tanh(self.dense(h))
        probs = nn.softmax(self.head(h))
        return ad.select(probs, 1, 1)


def _clamped_log(p: Tensor) -> Tensor:
    return ad.log(ad.clamp(p, PROB_FLOOR, 1.0 - PROB_FLOOR))


def _one_minus(p: Tensor) -> Tensor:
    return ad.sub(1.0, p)


def discriminator_loss(d_real: Tensor, d_fake: Tensor) -> Tensor:
    """-mean[log D(x) + log(1 - D(G(z)))]."""
    return ad.mul(ad.add(ad.mean(_clamped_log(d_real)),
                         ad.mean(_clamped_log(_one_minus(d_fake)))), -1.0)


def generator_loss(d_fake: Tensor, mode: str = "printed") -> Tensor:
    """mean[log(1 - D(G(z)))], or -mean[log D(G(z))] in nonsaturating mode."""
    if mode == "printed":
        return ad.mean(_clamped_log(_one_minus(d_fake)))
    if mode == "nonsaturating":
        return ad.mul(ad.mean(_clamped_log(d_fake)), -1.0)
    raise InvariantViolationError(f"unknown generator loss mode {mode!r}")


def standardize_rows(data: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per sequence; constant rows just go to zero. A finite
    row whose mean or variance overflows float64 raises NumericError naming it, counted
    from 1; a row that holds nan or inf already passes through as it is."""
    data = np.asarray(data, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        centered = data - data.mean(axis=1, keepdims=True)
        scale = centered.std(axis=1, keepdims=True)
    overflowed = np.flatnonzero(~np.isfinite(scale[:, 0]) & np.isfinite(data).all(axis=1))
    if overflowed.size:
        raise NumericError(f"data row {overflowed[0] + 1}: standardizing it overflows float64")
    return centered / np.where(scale == 0, 1.0, scale)


def train_gan(data: np.ndarray, gen_config: GeneratorConfig, disc_config: DiscriminatorConfig,
              train_config: TrainConfig) -> tuple[ModelCheckpoint, dict[str, np.ndarray]]:
    """Alternating adversarial training; returns checkpoint plus loss history.

    ``data`` is (N, L) with L = both configs' sequence length; each row is
    standardized (``standardize_rows``) before training. Each of an
    iteration's ``d_steps`` discriminator steps draws one noise batch and runs
    the generator forward once, untracked except on the last step; the
    generator step then backpropagates the updated discriminator's score of
    that last step's fakes. History holds one d_loss/g_loss pair per
    iteration (the d value from the last discriminator step of that
    iteration).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or data.shape[0] == 0:
        raise EmptyDatasetError(f"need a nonempty (N, L) dataset, got {data.shape}")
    if data.shape[1] != gen_config.seq_len or data.shape[1] != disc_config.input_len:
        raise LengthMismatchError(
            f"data length {data.shape[1]} vs generator {gen_config.seq_len} "
            f"and discriminator {disc_config.input_len}")
    data = standardize_rows(data)

    init_rng, noise_rng, batch_rng, dropout_rng = nn.seeded_streams(train_config.seed, 4)
    gen = Generator(gen_config, init_rng)
    disc = Discriminator(disc_config, init_rng)
    opt_g = nn.Adam(gen.params, lr=train_config.lr)
    opt_d = nn.Adam(disc.params, lr=train_config.lr)

    def fake_batch(batch: int) -> Tensor:
        noise = sample_noise(batch, gen_config.seq_len, gen_config.noise_dim, noise_rng)
        return gen.forward(noise, dropout_rng)

    def iteration(sample) -> dict[str, float]:
        for steps_left in range(train_config.d_steps, 0, -1):
            real = sample()
            # the last D step's fakes are tracked: the G step scores them below
            with ad.no_grad() if steps_left > 1 else contextlib.nullcontext():
                fake = fake_batch(real.shape[0])
            d_value = opt_d.minimize(
                discriminator_loss(disc.forward(real), disc.forward(Tensor(fake.data))))
            if not np.isfinite(d_value):
                # fit raises on this loss; a later D step or the G step must not run first
                return {"d_loss": d_value}
        g_loss = generator_loss(disc.forward(fake), train_config.g_loss_mode)
        return {"d_loss": d_value, "g_loss": opt_g.minimize(g_loss)}

    history = nn.fit(data, train_config.epochs, train_config.batch_size, batch_rng, iteration)
    ckpt = ModelCheckpoint(
        model="gan",
        config={"generator": asdict(gen_config), "discriminator": asdict(disc_config),
                "train": asdict(train_config), "standardized": True},
        seed=train_config.seed, iterations=train_config.epochs,
        arrays=gen.params.arrays() | disc.params.arrays())
    return ckpt, history


def generator_from_checkpoint(ckpt: ModelCheckpoint) -> Generator:
    if ckpt.model != "gan":
        raise InvariantViolationError(f"checkpoint holds a {ckpt.model!r} model, not a gan")
    config = read_config(ckpt, "generator", GeneratorConfig)
    gen = Generator(config, np.random.default_rng(0))
    gen.params.load_arrays({k: v for k, v in ckpt.arrays.items() if k.startswith("gen.")})
    return gen


GENERATE_ROWS = 16  # sequences per generator forward in generate_sequences, at least 2


def generate_sequences(gen: Generator, count: int, seq_len: int, seed: int) -> np.ndarray:
    """Deterministic eval-mode sampling: (count, seq_len) float array.

    Runs ``GENERATE_ROWS`` sequences at a time, drawing each block's noise in turn, so
    memory beyond the result does not grow with ``count``. The bytes are fixed by the
    weights, ``count``, ``seq_len`` and ``seed``. At the desk width (H=16) they are the
    bytes one batch of ``count`` rows gives; at H=90 and a few steps they need not be,
    as BLAS may round a small block's GEMMs differently (40 rows at 5 steps all differ
    in the last bits, at 8 steps the 8-row block does, at 64 steps none).
    Not ``nn.blocks``: a block of sequences x steps no multiple of 4 puts other rows on
    the tail path of the one-output projection's GEMV. A last block of one row joins
    the one before: a one-row GEMM goes to GEMV, whose bits differ."""
    if min(count, seq_len) < 1:
        raise InvariantViolationError(f"count and seq_len must be positive, got {count}, {seq_len}")
    rng = np.random.default_rng(seed)
    out = np.empty((count, seq_len))
    bounds = [*range(0, count, GENERATE_ROWS), count]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    with ad.no_grad():
        for first, stop in zip(bounds, bounds[1:]):
            noise = sample_noise(stop - first, seq_len, gen.config.noise_dim, rng)
            out[first:stop] = gen.forward(noise).data
    return out
