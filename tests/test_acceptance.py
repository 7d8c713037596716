"""Release gate: every guarantee the package advertises, one line of output
per check. Run as `pytest tests/test_acceptance.py -v -s` to see the lines.

Each check owns a wall-clock budget; blowing the budget fails the check
exactly like a wrong value does.
"""

import datetime as dt
import time

import numpy as np
from dataclasses import replace

from conftest import daily_dates, make_series, noisy_sine_batch
from oracles import oracle_all_indicators, oracle_frechet_exhaustive
from qgf import baselines, features, gan, gradcheck, indicators, metrics
from qgf.autodiff import Tensor
from qgf.checkpoint import FORMAT_VERSION, load_checkpoint, save_checkpoint
from qgf.errors import IoError, VersionMismatchError
from qgf.market_data import PriceSeries, WindowSpec, label_trend, sliding_windows


def _report(num: int, name: str, ok: bool, elapsed: float, budget: float,
            detail: str) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {num} ({name}): {status}  [{elapsed:.1f}s / {budget:.0f}s]  {detail}",
          flush=True)
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num}: took {elapsed:.1f}s, budget {budget:.0f}s"


def test_c1_discriminator_geometry():
    t0 = time.perf_counter()
    shapes = gan.DiscriminatorConfig().layer_shapes()
    expected = [(10, 601), (10, 186), (5, 51), (5, 10)]
    ok = shapes == expected
    _report(1, "conv/pool geometry", ok, time.perf_counter() - t0, 1.0,
            f"layer shapes {shapes}")


def test_c2_gradient_suite():
    t0 = time.perf_counter()
    results = gradcheck.kernel_checks(seeds_per_kernel=50)
    worst = max(results.values())
    worst_name = max(results, key=results.get)
    ok = len(results) == 13 and worst <= 1e-4
    _report(2, "gradient suite", ok, time.perf_counter() - t0, 120.0,
            f"13 kernels x 50 seeds, worst rel err {worst:.2e} ({worst_name})")


def test_c3_indicator_oracle_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        flat = (18 + seed % 10, 3 + seed % 4) if seed % 2 == 0 else None
        series = make_series(rng, 60, flat_run=flat)
        matrix = indicators.build_feature_matrix(series)
        expected = oracle_all_indicators(series)
        for name in indicators.FEATURE_ORDER:
            got = matrix.column(name)
            want = np.asarray(expected[name])
            mask = np.isnan(want)
            if not np.array_equal(np.isnan(got), mask):
                _report(3, "indicator oracles", False, time.perf_counter() - t0,
                        30.0, f"warmup mismatch in {name}, seed {seed}")
            diff = np.abs(got[~mask] - want[~mask]).max()
            worst = max(worst, float(diff))
    ok = worst <= 1e-9
    _report(3, "indicator oracles", ok, time.perf_counter() - t0, 30.0,
            f"15 indicators x 100 series (50 with flat windows), worst abs diff {worst:.1e}")


def test_c4_metric_identities_and_frechet_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.standard_normal(128)
    identities = (metrics.prd(x, x) == 0.0 and metrics.rmse(x, x) == 0.0
                  and metrics.frechet_distance(x, x) == 0.0
                  and metrics.pearson_r(x, x) == 1.0)

    mismatches = 0
    for trial in range(500):
        trng = np.random.default_rng(10_000 + trial)
        p = trng.standard_normal((int(trng.integers(1, 7)), 2))
        q = trng.standard_normal((int(trng.integers(1, 7)), 2))
        if metrics.frechet_distance(p, q) != oracle_frechet_exhaustive(p, q):
            mismatches += 1

    f1 = metrics.f1_score(0.64, 0.66)
    f1_ok = abs(f1 - 0.65) <= 0.01
    ok = identities and mismatches == 0 and f1_ok
    _report(4, "metric identities", ok, time.perf_counter() - t0, 60.0,
            f"identities {identities}, frechet enum mismatches {mismatches}/500, "
            f"F1(0.64,0.66)={f1:.5f}")


def test_c5_adversarial_training_improves_the_generator():
    t0 = time.perf_counter()
    data = noisy_sine_batch(np.random.default_rng(0), 128, 64)
    held_out = gan.standardize_rows(noisy_sine_batch(np.random.default_rng(17), 32, 64))
    gen_config = gan.GeneratorConfig(noise_dim=4, seq_len=64, hidden=16, dropout_p=0.1)
    disc_config = replace(gan.DiscriminatorConfig.desk(64), dense_units=6)
    train_config = gan.TrainConfig(epochs=300, batch_size=32, lr=1e-4, seed=42)

    ckpt, hist = gan.train_gan(data, gen_config, disc_config, train_config)
    _, hist2 = gan.train_gan(data, gen_config, disc_config, train_config)

    finite = bool(np.isfinite(hist["d_loss"]).all() and np.isfinite(hist["g_loss"]).all())
    first = float(hist["g_loss"][:10].mean())
    last = float(hist["g_loss"][-10:].mean())
    improved = last <= 0.8 * first
    bitwise = (np.array_equal(hist["d_loss"], hist2["d_loss"])
               and np.array_equal(hist["g_loss"], hist2["g_loss"]))

    disc = gan.Discriminator(disc_config, np.random.default_rng(0))
    disc.params.load_arrays({k: v for k, v in ckpt.arrays.items() if k.startswith("disc.")})
    p_real = disc.forward(Tensor(held_out)).data
    in_open_interval = bool(np.all((p_real > 0.0) & (p_real < 1.0)))

    ok = finite and improved and bitwise and in_open_interval
    _report(5, "adversarial training", ok, time.perf_counter() - t0, 300.0,
            f"g_loss first10 {first:.3f} -> last10 {last:.3f} "
            f"(needs <= {0.8 * first:.3f}), finite {finite}, "
            f"bitwise-identical reruns {bitwise}, D(real) in (0,1) {in_open_interval}")


def test_c6_baselines_reconstruction_and_kl():
    t0 = time.perf_counter()
    data = np.full((8, 10), 0.7)
    config = baselines.AeConfig(hidden=8, latent=4, seq_len=10)
    _, hist = baselines.train_baseline(
        "rnn-ae", data, config,
        gan.TrainConfig(epochs=500, batch_size=8, lr=0.02, seed=2))
    recon = float(hist["loss"][-1])
    recon_ok = recon < 1e-3

    one = Tensor(np.ones((1, 1)))
    kl_exact = baselines.kl_standard_normal(one, one).item() == 0.5

    # draws hug the prior so the minimum actually probes the KL >= 0 boundary
    rng = np.random.default_rng(3)
    kl_min = min(
        baselines.kl_standard_normal(
            Tensor(rng.standard_normal((1, 4)) * 0.1),
            Tensor(np.exp(rng.standard_normal((1, 4)) * 0.1))).item()
        for _ in range(1000))
    kl_nonneg = kl_min >= 0.0

    ok = recon_ok and kl_exact and kl_nonneg
    _report(6, "autoencoder baselines", ok, time.perf_counter() - t0, 120.0,
            f"constant-seq loss {recon:.1e} (needs < 1e-3), KL(1,1)=0.5 exact {kl_exact}, "
            f"min KL over 1000 draws {kl_min:.2e}")


def test_c7_windows_and_trend_labels():
    t0 = time.perf_counter()
    # 30 flat-priced bars cycling 10, 11, 12 so every label is hand-checkable
    start = dt.date(2021, 3, 1)
    p = 10.0 + np.arange(30) % 3
    series = PriceSeries("FIX", daily_dates(30, start), p, p, p, p, p, np.full(30, 100))

    windows = sliding_windows(series, WindowSpec(window_len=14))
    count_ok = len(windows) == 17 and all(len(w) == 14 for w in windows)

    # by hand: price rises within each 10,11,12 cycle and drops at the seam
    expect_n1 = tuple(1 if i % 3 in (0, 1) else 0 for i in range(29))
    expect_n2 = tuple(1 if i % 3 == 0 else 0 for i in range(28))
    expect_n5 = tuple(1 if i % 3 == 0 else 0 for i in range(25))
    got = {n: label_trend(series, n).labels for n in (1, 2, 5)}
    labels_ok = got[1] == expect_n1 and got[2] == expect_n2 and got[5] == expect_n5

    ok = count_ok and labels_ok
    _report(7, "windows and labels", ok, time.perf_counter() - t0, 1.0,
            f"windows {len(windows)}/17, hand-checked labels for n=1,2,5 {labels_ok}")


def test_c8_feature_selection_and_pca():
    t0 = time.perf_counter()
    hits = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        y = rng.integers(0, 2, 500)
        x = rng.standard_normal((500, 10))
        x[:, 0] = (y * 2 - 1) * 2.5 + rng.standard_normal(500)  # class means 5 sigma apart
        report = features.rfe(x, y, keep=1)
        hits += report.survivors == ("f0",)
    rfe_ok = hits >= 18

    rng = np.random.default_rng(42)
    basis = np.linalg.qr(rng.standard_normal((16, 2)))[0].T
    x = rng.standard_normal((200, 2)) @ basis + 1.5
    model = features.randomized_pca_fit(x, k=2, seed=0)
    recon = features.pca_inverse_transform(model, features.pca_transform(model, x))
    rel = float(np.linalg.norm(x - recon) / np.linalg.norm(x))
    pca_ok = rel <= 1e-6

    ok = rfe_ok and pca_ok
    _report(8, "feature selection", ok, time.perf_counter() - t0, 60.0,
            f"informative feature kept {hits}/20 (needs >= 18), "
            f"rank-2 recon rel Frobenius {rel:.1e}")


def test_c9_checkpoint_persistence(tmp_path):
    t0 = time.perf_counter()
    data = noisy_sine_batch(np.random.default_rng(2), 8, 16)
    gen_cfg = gan.GeneratorConfig(noise_dim=2, seq_len=16, hidden=4, dropout_p=0.0)
    disc_cfg = gan.DiscriminatorConfig(
        input_len=16, conv1=gan.ConvSpec(2, 5, 2), pool1=gan.PoolSpec(2, 2),
        conv2=gan.ConvSpec(2, 2, 1), pool2=gan.PoolSpec(2, 1), dense_units=3)
    ckpt, _ = gan.train_gan(data, gen_cfg, disc_cfg,
                            gan.TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0))
    save_checkpoint(ckpt, tmp_path / "m")
    loaded = load_checkpoint(tmp_path / "m")

    ref = gan.generator_from_checkpoint(ckpt)  # the trained weights, never rounded
    restored = gan.generator_from_checkpoint(loaded)
    noise = gan.sample_noise(4, 16, 2, np.random.default_rng(9))
    bitwise = np.array_equal(ref.forward(Tensor(noise.data.copy())).data,
                             restored.forward(Tensor(noise.data.copy())).data)

    rejections = 0
    target = sorted((tmp_path / "m").glob("*.npy"))[0]
    original = target.read_bytes()
    target.write_bytes(original[:-4])
    try:
        load_checkpoint(tmp_path / "m")
    except IoError as exc:
        rejections += str(target) in str(exc)
    target.write_bytes(original)

    manifest = tmp_path / "m" / "manifest.json"
    body = manifest.read_text()
    manifest.write_text(body.replace(f'"format_version": {FORMAT_VERSION}', '"format_version": 99'))
    try:
        load_checkpoint(tmp_path / "m")
    except VersionMismatchError:
        rejections += 1
    manifest.write_text("{broken")
    try:
        load_checkpoint(tmp_path / "m")
    except IoError:
        rejections += 1

    ok = bitwise and rejections == 3
    _report(9, "checkpoint persistence", ok, time.perf_counter() - t0, 10.0,
            f"forward bitwise after round trip {bitwise}, "
            f"corruption rejections {rejections}/3")
