import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from qgf import autodiff as ad, gan, nn
from qgf.autodiff import Tensor
from qgf.errors import (
    EmptyDatasetError,
    FilterLargerThanInputError,
    InvariantViolationError,
    LengthMismatchError,
    NonFiniteLossError,
    ShapeMismatchError,
)

# numpy's floating-point warnings (overflow, invalid) mean a kernel read or made a bad value
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TINY_GEN = gan.GeneratorConfig(noise_dim=2, seq_len=16, hidden=4, dropout_p=0.0)
TINY_DISC = gan.DiscriminatorConfig(
    input_len=16, conv1=gan.ConvSpec(2, 5, 2), pool1=gan.PoolSpec(2, 2),
    conv2=gan.ConvSpec(2, 2, 1), pool2=gan.PoolSpec(2, 1), dense_units=3)
TINY_TRAIN = gan.TrainConfig(epochs=4, batch_size=8, lr=1e-3, seed=5)


def test_config_validation():
    with pytest.raises(InvariantViolationError):
        gan.GeneratorConfig(noise_dim=0)
    with pytest.raises(InvariantViolationError):
        gan.GeneratorConfig(dropout_p=1.0)
    with pytest.raises(InvariantViolationError):
        gan.TrainConfig(lr=0.0)
    with pytest.raises(InvariantViolationError):
        gan.TrainConfig(g_loss_mode="other")
    desk = gan.GeneratorConfig.desk()
    assert (desk.noise_dim, desk.seq_len, desk.hidden, desk.dropout_p) == (4, 64, 16, 0.1)


def test_default_discriminator_layer_shapes():
    shapes = gan.DiscriminatorConfig().layer_shapes()
    assert shapes == [(10, 601), (10, 186), (5, 51), (5, 10)]


def test_bad_geometry_raises_before_parameters_exist():
    cfg = gan.DiscriminatorConfig(input_len=32)  # default 120-wide filter cannot fit
    with pytest.raises(FilterLargerThanInputError):
        gan.Discriminator(cfg, np.random.default_rng(0))


def test_sample_noise_shape_and_validation(rng):
    z = gan.sample_noise(3, 7, 2, rng)
    assert z.shape == (3, 7, 2)
    with pytest.raises(InvariantViolationError):
        gan.sample_noise(0, 7, 2, rng)


@pytest.mark.parametrize("steps", [8, 64, 400])
def test_generator_output_shape(steps, rng):
    cfg = gan.GeneratorConfig(noise_dim=2, seq_len=steps, hidden=3, dropout_p=0.0)
    gen = gan.Generator(cfg, rng)
    out = gen.forward(gan.sample_noise(2, steps, 2, rng))
    assert out.shape == (2, steps)
    assert np.isfinite(out.data).all()


def test_generator_rejects_wrong_noise_width(rng):
    gen = gan.Generator(TINY_GEN, rng)
    with pytest.raises(ShapeMismatchError):
        gen.forward(Tensor(np.zeros((2, 16, 3))))


def test_generator_training_mode_needs_rng_and_eval_is_deterministic(rng):
    cfg = gan.GeneratorConfig(noise_dim=2, seq_len=8, hidden=3, dropout_p=0.5)
    gen = gan.Generator(cfg, rng)
    noise = gan.sample_noise(2, 8, 2, rng)
    a = gen.forward(noise)
    b = gen.forward(noise)
    assert np.array_equal(a.data, b.data)
    # dropout is on only when an rng is passed
    assert not np.array_equal(gen.forward(noise, np.random.default_rng(0)).data, a.data)


def test_discriminator_output_is_probability(rng):
    disc = gan.Discriminator(TINY_DISC, rng)
    p = disc.forward(Tensor(rng.standard_normal((6, 16))))
    assert p.shape == (6,)
    assert np.all((p.data > 0.0) & (p.data < 1.0))
    with pytest.raises(LengthMismatchError):
        disc.forward(Tensor(np.zeros((2, 17))))


def test_zero_head_discriminator_outputs_exactly_half(rng):
    disc = gan.Discriminator(TINY_DISC, rng)
    disc.head.w.data[:] = 0.0
    disc.head.b.data[:] = 0.0
    p = disc.forward(Tensor(rng.standard_normal((4, 16))))
    assert np.all(p.data == 0.5)


def test_loss_values_at_the_balanced_point():
    half = Tensor(np.full(5, 0.5))
    d = gan.discriminator_loss(half, half)
    assert d.item() == pytest.approx(2.0 * np.log(2.0))
    g = gan.generator_loss(half, "printed")
    assert g.item() == pytest.approx(np.log(0.5))
    g2 = gan.generator_loss(half, "nonsaturating")
    assert g2.item() == pytest.approx(np.log(2.0))
    with pytest.raises(InvariantViolationError):
        gan.generator_loss(half, "other")


def test_losses_stay_finite_at_probability_extremes():
    zero = Tensor(np.zeros(3))
    one = Tensor(np.ones(3))
    assert np.isfinite(gan.discriminator_loss(one, zero).item())
    assert np.isfinite(gan.discriminator_loss(zero, one).item())
    assert np.isfinite(gan.generator_loss(one, "printed").item())
    # clamp bounds the best/worst case at log of the floor
    assert gan.generator_loss(one, "printed").item() == pytest.approx(np.log(gan.PROB_FLOOR))


def test_standardize_rows_properties(rng):
    data = rng.standard_normal((5, 32)) * 7 + 3
    out = gan.standardize_rows(data)
    np.testing.assert_allclose(out.mean(axis=1), 0.0, atol=1e-12)
    np.testing.assert_allclose(out.std(axis=1), 1.0, atol=1e-12)
    flat = gan.standardize_rows(np.full((2, 8), 4.2))
    assert np.array_equal(flat, np.zeros((2, 8)))


def _tiny_data(seed=0, n=16):
    rng = np.random.default_rng(seed)
    t = np.arange(16)
    return np.stack([np.sin(2 * np.pi * (t / 8 + rng.random())) for _ in range(n)])


def test_train_gan_validates_inputs():
    with pytest.raises(EmptyDatasetError):
        gan.train_gan(np.empty((0, 16)), TINY_GEN, TINY_DISC, TINY_TRAIN)
    with pytest.raises(LengthMismatchError):
        gan.train_gan(np.zeros((4, 10)), TINY_GEN, TINY_DISC, TINY_TRAIN)


def test_train_gan_histories_and_checkpoint():
    ckpt, hist = gan.train_gan(_tiny_data(), TINY_GEN, TINY_DISC, TINY_TRAIN)
    assert hist["d_loss"].shape == (4,)
    assert hist["g_loss"].shape == (4,)
    assert np.isfinite(hist["d_loss"]).all() and np.isfinite(hist["g_loss"]).all()
    assert ckpt.model == "gan"
    assert ckpt.seed == 5
    assert ckpt.iterations == 4
    assert any(k.startswith("gen.") for k in ckpt.arrays)
    assert any(k.startswith("disc.") for k in ckpt.arrays)


def test_train_gan_equal_seeds_are_bitwise_identical():
    data = _tiny_data()
    ckpt1, h1 = gan.train_gan(data, TINY_GEN, TINY_DISC, TINY_TRAIN)
    ckpt2, h2 = gan.train_gan(data, TINY_GEN, TINY_DISC, TINY_TRAIN)
    assert np.array_equal(h1["d_loss"], h2["d_loss"])
    assert np.array_equal(h1["g_loss"], h2["g_loss"])
    for k in ckpt1.arrays:
        assert np.array_equal(ckpt1.arrays[k], ckpt2.arrays[k])
    _, h3 = gan.train_gan(data, TINY_GEN, TINY_DISC,
                          gan.TrainConfig(epochs=4, batch_size=8, lr=1e-3, seed=6))
    assert not np.array_equal(h1["g_loss"], h3["g_loss"])


def test_train_gan_with_two_d_steps_reruns_bitwise():
    config = gan.TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=5, d_steps=2)
    (ckpt1, h1), (ckpt2, h2) = (gan.train_gan(_tiny_data(), TINY_GEN, TINY_DISC, config)
                                for _ in range(2))
    assert list(h1) == ["d_loss", "g_loss"]
    for name in h1:
        assert np.array_equal(h1[name], h2[name])
    for k in ckpt1.arrays:
        assert np.array_equal(ckpt1.arrays[k], ckpt2.arrays[k])
    _, h_one = gan.train_gan(_tiny_data(), TINY_GEN, TINY_DISC,
                             gan.TrainConfig(epochs=3, batch_size=8, lr=1e-3, seed=5))
    assert not np.array_equal(h1["d_loss"], h_one["d_loss"])


def test_generator_round_trip_through_checkpoint():
    ckpt, _ = gan.train_gan(_tiny_data(), TINY_GEN, TINY_DISC, TINY_TRAIN)
    gen = gan.generator_from_checkpoint(ckpt)
    assert gen.config == TINY_GEN
    a = gan.generate_sequences(gen, count=3, seq_len=16, seed=11)
    b = gan.generate_sequences(gen, count=3, seq_len=16, seed=11)
    c = gan.generate_sequences(gen, count=3, seq_len=16, seed=12)
    assert a.shape == (3, 16)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_generate_sequences_peak_beyond_the_result_is_flat_in_count():
    gen = gan.Generator(replace(TINY_GEN, hidden=8), np.random.default_rng(0))

    def peak_beyond_result(count):
        tracemalloc.start()
        try:
            out = gan.generate_sequences(gen, count=count, seq_len=200, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - out.nbytes

    one_block = peak_beyond_result(gan.GENERATE_ROWS)
    assert peak_beyond_result(8 * gan.GENERATE_ROWS) < 1.1 * one_block


@pytest.mark.parametrize("steps", [5, 8])
def test_generate_sequences_reruns_byte_equal_at_paper_width(steps):
    """At H = 90 and a few steps the 16-row blocks need not give one batch's bits, but a
    rerun with the same weights, count, length and seed gives the same bytes."""
    gen = gan.Generator(gan.GeneratorConfig(seq_len=steps), np.random.default_rng(0))
    first, again = (gan.generate_sequences(gen, count=40, seq_len=steps, seed=3).tobytes()
                    for _ in range(2))
    assert first == again


def test_a_generator_step_at_paper_width_peaks_linearly_in_length():
    """A tracked forward and backward at the paper's H = 90 and B = 8 peaks about 0.058 MB
    higher per step (RSS: 0.77 MB per step at the paper's B = 100): no per-step tape is kept."""

    def peak(steps):
        gen = gan.Generator(gan.GeneratorConfig(seq_len=steps), np.random.default_rng(0))
        noise = gan.sample_noise(8, steps, gen.config.noise_dim, np.random.default_rng(1))
        tracemalloc.start()
        try:
            ad.backward(ad.tensor_sum(gen.forward(noise, np.random.default_rng(2))))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert (peak(512) - peak(256)) / 256 < 0.063e6


def test_generate_sequences_refuses_an_empty_request():
    gen = gan.Generator(TINY_GEN, np.random.default_rng(0))
    for count, seq_len in ((0, 16), (-1, 16), (3, 0)):
        with pytest.raises(InvariantViolationError):
            gan.generate_sequences(gen, count=count, seq_len=seq_len, seed=1)


def test_generator_from_checkpoint_rejects_other_models():
    ckpt, _ = gan.train_gan(_tiny_data(), TINY_GEN, TINY_DISC, TINY_TRAIN)
    wrong = type(ckpt)(model="rnn-ae", config=ckpt.config, seed=0, iterations=1,
                       arrays=ckpt.arrays)
    with pytest.raises(InvariantViolationError):
        gan.generator_from_checkpoint(wrong)


class _RecordedDraws:
    """Stands in for a numpy Generator and records each draw's method and size."""

    def __init__(self, rng: np.random.Generator):
        self.rng, self.draws = rng, []

    def __getattr__(self, name):
        draw = getattr(self.rng, name)

        def recorded(size, *args, **kwargs):
            self.draws.append((name, size))
            return draw(size, *args, **kwargs)

        return recorded


@pytest.mark.parametrize("d_steps", [1, 2])
def test_the_generator_step_scores_the_last_discriminator_steps_fakes(monkeypatch, d_steps):
    """One generator forward per discriminator step: the G loss scores, tracked, the very
    fakes the last D step scored detached, so noise and dropout draw d_steps batches."""
    init, noise, batches, dropout = nn.seeded_streams(5, 4)
    noise, dropout = _RecordedDraws(noise), _RecordedDraws(dropout)
    monkeypatch.setattr(nn, "seeded_streams", lambda seed, count: [init, noise, batches, dropout])
    scored = []
    forward = gan.Discriminator.forward

    def recorded_forward(self, x):
        scored.append((x.data.copy(), x.requires_grad))
        return forward(self, x)

    monkeypatch.setattr(gan.Discriminator, "forward", recorded_forward)
    epochs, calls = 3, 2 * d_steps + 1  # real and fake per D step, then the G step's fake
    gan.train_gan(_tiny_data(), replace(TINY_GEN, dropout_p=0.2), TINY_DISC,
                  gan.TrainConfig(epochs=epochs, batch_size=8, lr=1e-3, seed=5, d_steps=d_steps))
    assert len(scored) == epochs * calls
    for it in range(epochs):
        *d_inputs, (g_fake, g_tracked) = scored[it * calls:(it + 1) * calls]
        assert not any(tracked for _, tracked in d_inputs) and g_tracked
        d_fakes = [data for data, _ in d_inputs[1::2]]
        assert g_fake.tobytes() == d_fakes[-1].tobytes()
        assert all(not np.array_equal(a, b) for a, b in zip(d_fakes, d_fakes[1:]))
    assert noise.draws == [("standard_normal", (8, 16, TINY_GEN.noise_dim))] * (epochs * d_steps)
    assert dropout.draws == [("random", (8, 16, TINY_GEN.hidden))] * (epochs * d_steps)


def _train_into_a_nan_batch(monkeypatch, seed: int, step: int) -> None:
    """Train until the nan batch, which lands on D step ``step`` of 3 (the last runs the
    tracked generator forward): the error names its iteration although later steps would
    be finite, and that iteration made no generator Adam step."""
    data = _tiny_data()
    data[3, 5] = np.nan  # a nan row stays nan through standardizing; every other row is clean
    config = gan.TrainConfig(epochs=30, batch_size=2, lr=1e-3, seed=seed, d_steps=3)
    batches = nn.seeded_streams(config.seed, 4)[2]  # train_gan's batch stream
    first = next(k for k in range(90) if 3 in batches.choice(16, size=2, replace=False))
    assert first % 3 == step
    stepped = []
    adam_step = nn.Adam.step

    def recorded_step(self):
        stepped.append(self.pset.names()[0].split(".")[0])
        adam_step(self)

    monkeypatch.setattr(nn.Adam, "step", recorded_step)
    with pytest.raises(NonFiniteLossError) as err:
        gan.train_gan(data, TINY_GEN, TINY_DISC, config)
    assert err.value.iteration == first // 3
    assert stepped.count("gen") == first // 3
    assert stepped.count("disc") == first


def test_a_non_finite_discriminator_step_is_reported_although_later_steps_are_finite(
        monkeypatch):
    _train_into_a_nan_batch(monkeypatch, seed=5, step=0)


def test_a_non_finite_last_discriminator_step_ends_the_iteration_before_the_generator_step(
        monkeypatch):
    _train_into_a_nan_batch(monkeypatch, seed=2, step=2)


def test_non_finite_loss_is_reported_with_iteration():
    # probability clamping keeps healthy runs finite, so poison the data
    data = _tiny_data()
    data[3, 5] = np.nan
    config = gan.TrainConfig(epochs=30, batch_size=16, lr=1e-3, seed=1)
    with pytest.raises(NonFiniteLossError) as err:
        gan.train_gan(data, TINY_GEN, TINY_DISC, config)
    assert err.value.iteration == 0
