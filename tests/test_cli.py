import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import awkward_cells, float_bits, noisy_sine_batch, per_line_path_taken
from qgf import baselines, cli, gan, nn
from qgf.checkpoint import load_checkpoint
from qgf.market_data import parse_csv

# a numpy warning a command prints breaks its one-line error contract
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def run(*argv):
    return cli.main([str(a) for a in argv])


def read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


@pytest.fixture
def prices(fixtures):
    return fixtures / "TST.csv"


def test_ingest_normalizes_and_writes_manifest(prices, tmp_path, capsys):
    out = tmp_path / "clean.csv"
    assert run("ingest", "--input", prices, "--out", out) == 0
    series = parse_csv(out.read_text(), "TST")
    assert len(series) == 60
    manifest = json.loads((tmp_path / "clean.manifest.json").read_text())
    assert manifest["subcommand"] == "ingest"
    assert manifest["seed"] == 42
    assert str(prices) in manifest["inputs"]
    assert len(manifest["inputs"][str(prices)]) == 64  # sha256 hex digest
    assert manifest["extras"]["bars"] == 60
    assert "wrote" in capsys.readouterr().out


def test_ingest_quiet_suppresses_output(prices, tmp_path, capsys):
    assert run("ingest", "--input", prices, "--out", tmp_path / "c.csv", "--quiet") == 0
    assert capsys.readouterr().out == ""


def test_ingest_fetch_url_with_file_scheme(prices, tmp_path):
    out = tmp_path / "fetched.csv"
    template = f"file://{prices.parent}/{{symbol}}.csv"
    assert run("ingest", "--fetch-url", template, "--symbol", "TST", "--out", out) == 0
    assert parse_csv(out.read_text(), "TST").symbol == "TST"


def test_indicators_writes_feature_table(prices, tmp_path):
    out = tmp_path / "features.csv"
    assert run("indicators", "--input", prices, "--out", out) == 0
    header, rows = read_csv_rows(out)
    assert header == ["Date", "K", "D", "WMS%R", "CCI", "RSI", "MACD", "DIF",
                      "MA10", "MTM", "ROC", "PSY", "AR", "BR", "VR", "AD", "BIAS5"]
    assert len(rows) == 60 - 26
    floats = np.array([[float(v) for v in r[1:]] for r in rows])
    assert np.isfinite(floats).all()


def test_indicators_label_horizon_appends_and_truncates(prices, tmp_path):
    out = tmp_path / "features.csv"
    assert run("indicators", "--input", prices, "--out", out,
               "--label-horizon", 2) == 0
    header, rows = read_csv_rows(out)
    assert header[-1] == "label_n2"
    assert len(rows) == 60 - 26 - 2
    assert set(r[-1] for r in rows) <= {"0", "1"}


@pytest.mark.parametrize("bars, code, rows", [(30, cli.EXIT_DATA, None), (37, 0, 1)])
def test_indicators_label_horizon_needs_a_row_past_the_warmup(prices, tmp_path, capsys,
                                                              bars, code, rows):
    """26 warmup bars plus a 10-bar label horizon leave no row below 37 bars."""
    short, out = tmp_path / "TST.csv", tmp_path / "features.csv"
    short.write_text("".join(prices.read_text().splitlines(keepends=True)[:bars + 1]))
    assert run("indicators", "--input", short, "--out", out, "--label-horizon", 10,
               "--quiet") == code
    if rows is None:
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "SeriesTooShortError" and "37 bars" in payload["message"]
        assert not out.exists()
    else:
        header, table = read_csv_rows(out)
        assert header[-1] == "label_n10" and len(table) == rows


def test_label_stamps_predictor_dates(prices, tmp_path):
    out = tmp_path / "labels.csv"
    assert run("label", "--input", prices, "--horizon", 5, "--out", out) == 0
    header, rows = read_csv_rows(out)
    assert header == ["Date", "label"]
    assert len(rows) == 55
    series = parse_csv(prices.read_text(), "TST")
    closes = series.close
    dates = series.dates
    for i, (date, label) in enumerate(rows):
        assert date == dates[i].isoformat()
        assert int(label) == int(closes[i + 5] > closes[i])


def test_select_pipeline_date_join(prices, tmp_path):
    feats = tmp_path / "features.csv"
    labels = tmp_path / "labels.csv"
    report_path = tmp_path / "rfe.json"
    assert run("indicators", "--input", prices, "--out", feats) == 0
    assert run("label", "--input", prices, "--horizon", 1, "--out", labels) == 0
    assert run("select", "--features", feats, "--labels", labels,
               "--keep", 4, "--out", report_path) == 0
    report = json.loads(report_path.read_text())
    assert len(report["survivors"]) == 4
    assert len(report["eliminated"]) == 12
    assert report["rows"] == 60 - 26 - 1  # feature dates that still have a label
    manifest = json.loads((tmp_path / "rfe.manifest.json").read_text())
    assert manifest["extras"]["survivors"] == report["survivors"]


def test_reduce_writes_components_and_explained(prices, tmp_path):
    feats = tmp_path / "features.csv"
    out = tmp_path / "reduced.csv"
    assert run("indicators", "--input", prices, "--out", feats) == 0
    assert run("reduce", "--features", feats, "--components", 3, "--out", out) == 0
    header, rows = read_csv_rows(out)
    assert header == ["Date", "pc1", "pc2", "pc3"]
    assert len(rows) == 34
    manifest = json.loads((tmp_path / "reduced.manifest.json").read_text())
    explained = manifest["extras"]["explained"]
    assert len(explained) == 3
    assert all(0.0 <= v <= 1.0 for v in explained)
    assert explained == sorted(explained, reverse=True)


@pytest.mark.parametrize("command", ["select", "reduce"])
def test_select_and_reduce_skip_the_label_column_indicators_appends(prices, tmp_path, command):
    with_label, without = tmp_path / "with_label.csv", tmp_path / "without.csv"
    labels = tmp_path / "labels.csv"
    assert run("indicators", "--input", prices, "--label-horizon", 5, "--out", with_label,
               "--quiet") == 0
    assert run("label", "--input", prices, "--horizon", 5, "--out", labels, "--quiet") == 0
    lines = with_label.read_text().splitlines()
    assert lines[0].endswith(",label_n5")
    without.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines))
    extra = {"select": ["--labels", labels, "--keep", 10], "reduce": ["--components", 3]}
    written = []
    for feats in (with_label, without):
        out = tmp_path / f"{feats.stem}.out"
        assert run(command, "--features", feats, *extra[command], "--out", out,
                   "--quiet") == 0
        written.append(out.read_bytes())
    assert written[0] == written[1]
    assert b"label_n5" not in written[0]
    if command == "reduce":
        manifest = json.loads((tmp_path / "with_label.manifest.json").read_text())
        assert manifest["extras"]["columns"] == lines[0].split(",")[1:-1]


def _write_train_data(path, count=12, length=64):
    data = noisy_sine_batch(np.random.default_rng(1), count, length)
    rows = "\n".join(",".join(f"{v:.17g}" for v in row) for row in data)
    path.write_text(rows + "\n")
    return data


def test_train_baseline_and_checkpoint_dir_layout(tmp_path):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, length=16)
    out = tmp_path / "ae_ckpt"
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--epochs", 4,
               "--batch", 8, "--lr", 0.01, "--hidden", 6, "--latent", 3,
               "--out", out, "--quiet") == 0
    names = sorted(p.name for p in out.iterdir())
    assert "manifest.json" in names
    assert "history.csv" in names
    assert "history.svg" in names
    assert "run_manifest.json" in names
    hist = (out / "history.csv").read_text().strip().split("\n")
    assert hist[0] == "iteration,loss"
    assert len(hist) == 5


def _train_digests(out):
    """sha256 of a ``train`` directory's history.csv and of its checkpoint tensors."""
    arrays = load_checkpoint(out).arrays
    tensors = hashlib.sha256()
    for name in sorted(arrays):
        tensors.update(name.encode() + arrays[name].tobytes())
    return hashlib.sha256((out / "history.csv").read_bytes()).hexdigest(), tensors.hexdigest()


def test_a_seeded_desk_gan_train_writes_pinned_bytes(tmp_path):
    """A desk-width GAN's history and weights, pinned: any change to the training
    schedule, an rng draw or a kernel's rounding shows here. At H=16 no product takes a
    BLAS-thread-dependent path, so these hold under OPENBLAS_NUM_THREADS unset, 1 and 2."""
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=12, length=64)
    out = tmp_path / "gan"
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 5, "--batch", 8,
               "--lr", 1e-3, "--seed", 3, "--out", out, "--quiet") == 0
    assert _train_digests(out) == (
        "256ad3735c0969a95f3881d0a98d4f90960d7518ed032f4f0500d6e2d5381ba4",
        "7bb573c815456f6dfc4172deff2bd9dac6ef9e4f34c8aa2b89246790f4311db6")


_BASELINE_DIGESTS = {
    "rnn-ae": ("12d4d9fa3c1fddb681f44e09cb497c3dc364881b66cbeb0ddec8747665f4618b",
               "cbad22bc013454c32407aa9a48b2d311f2a0ba2bce4bb3b28d8676eb1aaab783"),
    "rnn-vae": ("0c87e4be59aac37426398d2a46c4666af1600e042f708712e9455c6d8c96cb39",
                "0d41eef3c5e7f63b3e9da5f69cbcba58a6773b19fbcb06a304e085a09d670f09"),
    "lstm-ae": ("c86f70ec8c6225a8b041081bedec3286d54b74f7b1461ea5cc8ecec9b7d0be98",
                "6f801937c6e9f42e0433d729e7fd7915ca9b6cbe9a9c0051eedaf627c6f369eb"),
    "lstm-vae": ("30ad3edfbaf9b7ef809439263548a631f7c0e70cfe325e66699fb665569d1808",
                 "398ae74104e822b9c7d3f7386cacb63d8e7c27dd5b4478b2f4c58873a875fb54"),
}


@pytest.mark.parametrize("kind", baselines.BASELINE_KINDS)
def test_a_seeded_desk_baseline_train_writes_pinned_bytes(tmp_path, kind):
    """Each baseline's history and weights at H=16, pinned as the desk GAN's are: a change
    to the teacher shift, the encoder or decoder kernels, the VAE's draw or Adam shows here.
    These hold under OPENBLAS_NUM_THREADS unset, 1 and 2."""
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=12, length=64)
    out = tmp_path / kind
    assert run("train", "--model", kind, "--data", data_path, "--epochs", 5, "--batch", 8,
               "--lr", 1e-3, "--hidden", 16, "--latent", 4, "--seed", 3, "--out", out,
               "--quiet") == 0
    assert _train_digests(out) == _BASELINE_DIGESTS[kind]


def _run_in_process(*argv, env=None):
    """``python -m qgf.cli argv`` in a new process, in ``env`` or this process's environment."""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ if env is None else env,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "qgf.cli", *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def test_a_seeded_paper_width_gan_train_and_generate_write_pinned_bytes(tmp_path):
    """An H=90, B=32 GAN's history, weights and generated rows, pinned. Every command runs
    BLAS on one thread, and on two CPUs each BiLSTM direction of the training forward steps
    on its own thread; 130 steps make three segments, so BPTT replays two. These digests hold
    for this BLAS build; on one CPU the lockstep schedule gives the same bytes."""
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=40, length=130)
    out, gen_path = tmp_path / "gan", tmp_path / "generated.csv"
    _run_in_process("train", "--model", "gan", "--data", data_path, "--epochs", 2, "--batch", 32,
                    "--hidden", 90, "--lr", 1e-3, "--seed", 3, "--out", out, "--quiet")
    _run_in_process("generate", "--ckpt", out, "--count", 20, "--out", gen_path, "--seed", 7,
                    "--quiet")
    assert _train_digests(out) == (
        "656e5d6c3712cbf3a8178f33b2a585e3e533d7de56204a67d94b0f86902dd266",
        "e0ad01149008ae122fb99b9a93b656894805d8e8a8b513d2896be7fe334a5ff1")
    assert hashlib.sha256(gen_path.read_bytes()).hexdigest() == (
        "a927163107cbab1d20555499797bf01ded48bbda83c1588f422c979b3b8cc115")


@pytest.mark.skipif(nn._set_blas_threads is None, reason="qgf cannot set this BLAS's threads")
def test_a_seeded_paper_width_gan_trains_the_same_bytes_whatever_blas_threads_it_starts_with(
        tmp_path):
    """Six iterations of an H=90, B=32 GAN write the same history and weights whether the
    process starts OpenBLAS on its default count, one thread or two: the merge's 90-wide
    weight-gradient products round differently on two BLAS threads, and ``cli.main`` runs
    every command on one."""
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=40, length=130)
    unset = {var: value for var, value in os.environ.items() if var != "OPENBLAS_NUM_THREADS"}
    digests = []
    for env in (unset, dict(unset, OPENBLAS_NUM_THREADS="1"),
                dict(unset, OPENBLAS_NUM_THREADS="2")):
        out = tmp_path / f"gan{len(digests)}"
        _run_in_process("train", "--model", "gan", "--data", data_path, "--epochs", 6,
                        "--batch", 32, "--hidden", 90, "--lr", 1e-3, "--seed", 3, "--out", out,
                        "--quiet", env=env)
        digests.append(_train_digests(out))
    assert digests[0] == digests[1] == digests[2], digests


def _bytes_under(path):
    if path.is_file():
        return path.read_bytes()
    return {str(p.relative_to(path)): p.read_bytes() for p in path.rglob("*") if p.is_file()}


@pytest.mark.parametrize("target", ["data directory", "regular file", "checkpoint tensor"])
def test_train_refuses_to_replace_what_is_not_a_checkpoint(tmp_path, capsys, monkeypatch, target):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    data_path = data_dir / "seqs.csv"
    _write_train_data(data_path, length=16)
    (tmp_path / "notes.txt").write_text("keep me\n")
    (data_dir / "notes.txt").write_text("keep me too\n")
    ckpt = tmp_path / "ckpt"
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--epochs", 1,
               "--hidden", 4, "--out", ckpt, "--quiet") == 0
    out = {"data directory": data_dir, "regular file": tmp_path / "notes.txt",
           "checkpoint tensor": ckpt / "0.npy"}[target]
    before = _bytes_under(out)
    capsys.readouterr()
    train, training_calls = baselines.train_baseline, []
    monkeypatch.setattr(baselines, "train_baseline",
                        lambda *a, **k: training_calls.append(a) or train(*a, **k))
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--epochs", 1,
               "--hidden", 4, "--out", out, "--quiet") == cli.EXIT_DATA
    assert training_calls == []  # refused before training, not after it
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "IoError" and str(out) in payload["message"]
    assert _bytes_under(out) == before
    assert not [p for p in out.parent.iterdir() if ".staging" in p.name or ".retired" in p.name]
    baselines.baseline_from_checkpoint(load_checkpoint(ckpt))  # the checkpoint still loads


def test_train_generate_evaluate_round_trip(tmp_path):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, length=64)
    ckpt = tmp_path / "gan_ckpt"
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 2,
               "--batch", 8, "--lr", 1e-4, "--hidden", 4, "--noise-dim", 2,
               "--dropout", 0.0, "--out", ckpt, "--quiet") == 0

    gen_path = tmp_path / "generated.csv"
    assert run("generate", "--ckpt", ckpt, "--count", 12, "--out", gen_path,
               "--seed", 7, "--quiet") == 0
    generated = np.loadtxt(gen_path, delimiter=",", ndmin=2)
    assert generated.shape == (12, 64)

    # same checkpoint and seed: byte-identical output
    gen2 = tmp_path / "generated2.csv"
    assert run("generate", "--ckpt", ckpt, "--count", 12, "--out", gen2,
               "--seed", 7, "--quiet") == 0
    assert gen_path.read_text() == gen2.read_text()

    report_path = tmp_path / "report.json"
    svg_path = tmp_path / "overlay.svg"
    assert run("evaluate", "--real", data_path, "--generated", gen_path,
               "--plot", svg_path, "--out", report_path, "--quiet") == 0
    report = json.loads(report_path.read_text())
    assert {"prd", "rmse", "frechet", "pearson_r"} <= set(report)
    assert svg_path.exists()


def test_generate_rejects_baseline_checkpoint(tmp_path):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, length=16)
    ckpt = tmp_path / "ae_ckpt"
    run("train", "--model", "rnn-ae", "--data", data_path, "--epochs", 2,
        "--batch", 8, "--lr", 0.01, "--hidden", 6, "--out", ckpt, "--quiet")
    assert run("generate", "--ckpt", ckpt, "--count", 2,
               "--out", tmp_path / "x.csv", "--quiet") == cli.EXIT_DATA


def test_generate_on_checkpoint_without_tensors_exits_data_error(tmp_path, capsys):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, length=64)
    ckpt = tmp_path / "gan_ckpt"
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1,
               "--batch", 8, "--hidden", 4, "--noise-dim", 2, "--out", ckpt, "--quiet") == 0
    manifest = json.loads((ckpt / "manifest.json").read_text())
    del manifest["tensors"]
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("generate", "--ckpt", ckpt, "--count", 2,
               "--out", tmp_path / "x.csv", "--quiet") == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "IoError"
    assert "'tensors'" in payload["message"]


def test_paper_geometry_trains_generates_and_evaluates(tmp_path):
    """The paper's 3120-point windows through the CLI: the default H = 90 generator, a
    recurrence of 49 segments, and the paper discriminator, reproducible on a rerun."""
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=4, length=3120)
    for ckpt in ("ckpt", "again"):
        assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--batch", 2,
                   "--out", tmp_path / ckpt, "--quiet") == 0
    history = (tmp_path / "ckpt" / "history.csv").read_bytes()
    assert history == (tmp_path / "again" / "history.csv").read_bytes()
    gen_path = tmp_path / "generated.csv"
    assert run("generate", "--ckpt", tmp_path / "ckpt", "--count", 4, "--out", gen_path,
               "--quiet") == 0
    assert run("evaluate", "--real", data_path, "--generated", gen_path,
               "--out", tmp_path / "report.json", "--quiet") == 0


@pytest.fixture(scope="module")
def gan_ckpt(tmp_path_factory):
    work = tmp_path_factory.mktemp("gan")
    data_path = work / "seqs.csv"
    _write_train_data(data_path, length=64)
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--batch", 8,
               "--noise-dim", 2, "--out", work / "ckpt", "--quiet") == 0
    return work / "ckpt"


@pytest.mark.parametrize("edit,detail", [
    (lambda config: config.pop("generator"), "'generator'"),
    (lambda config: config.update(generator=[4]), "'generator'"),
    (lambda config: config["generator"].update(layers=2), "'layers'"),
    (lambda config: config["generator"].update(hidden="4"), "'hidden'"),
], ids=["missing", "list", "unknown-field", "string-for-int"])
def test_generate_on_malformed_generator_config_exits_data_error(
        gan_ckpt, tmp_path, capsys, edit, detail):
    ckpt = tmp_path / "ckpt"
    shutil.copytree(gan_ckpt, ckpt)
    manifest = json.loads((ckpt / "manifest.json").read_text())
    edit(manifest["config"])
    (ckpt / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert run("generate", "--ckpt", ckpt, "--count", 2,
               "--out", tmp_path / "x.csv", "--quiet") == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "IoError"
    assert detail in payload["message"]


def test_generate_refuses_a_zero_length(gan_ckpt, tmp_path, capsys):
    assert run("generate", "--ckpt", gan_ckpt, "--count", 2, "--len", 0,
               "--out", tmp_path / "x.csv", "--quiet") == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolationError"


@pytest.mark.parametrize("extra", [1, 5])  # a last block of one row joins the block before
def test_generate_in_blocks_writes_the_bytes_of_one_batch(gan_ckpt, tmp_path, monkeypatch, extra):
    """Also at 130 steps, where blocks of sequences x steps not a multiple of 4 would put
    other rows on the one-output projection's GEMV tail path than one batch does."""
    count = 2 * gan.GENERATE_ROWS + extra

    def generate(length):
        out = tmp_path / "out.csv"
        assert run("generate", "--ckpt", gan_ckpt, "--count", count, "--len", length,
                   "--out", out, "--quiet") == 0
        return out.read_bytes()

    blocks = [generate(length) for length in (64, 130)]
    monkeypatch.setattr(gan, "GENERATE_ROWS", count)
    assert blocks == [generate(length) for length in (64, 130)]


def _assert_one_memory_error_line(capsys):
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err
    payload = json.loads(err)
    assert payload["error"] == "MemoryError"
    assert "shape" in payload["message"]  # numpy names the size and shape it could not allocate


def test_generate_too_large_to_allocate_exits_numeric(gan_ckpt, tmp_path, capsys):
    assert run("generate", "--ckpt", gan_ckpt, "--count", 1_000_000_000, "--len", 150,
               "--out", tmp_path / "x.csv", "--quiet") == cli.EXIT_NUMERIC
    _assert_one_memory_error_line(capsys)
    assert not (tmp_path / "x.csv").exists()


def test_train_too_large_to_allocate_exits_numeric(tmp_path, capsys):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path)
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--hidden", 1_000_000,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_NUMERIC
    _assert_one_memory_error_line(capsys)
    assert not (tmp_path / "ckpt").exists()


def test_gradcheck_prints_one_line_per_kernel(tmp_path, capsys):
    out = tmp_path / "gradcheck.json"
    assert run("gradcheck", "--seeds", 1, "--out", out) == 0
    lines = [l for l in capsys.readouterr().out.strip().split("\n") if l]
    assert len(lines) == 13
    assert all(line.endswith("ok") for line in lines)
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert len(payload["max_relative_error"]) == 13


def test_gradcheck_failure_exits_numeric(tmp_path, capsys):
    out = tmp_path / "gradcheck.json"
    code = run("gradcheck", "--seeds", 1, "--tolerance", 0.0, "--out", out)
    assert code == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert json.loads(err)["error"] == "GradientCheckError"


@pytest.mark.parametrize("flag,value", [
    ("--seeds", 0), ("--seeds", -1), ("--tolerance", "nan"), ("--tolerance", "inf"),
    ("--tolerance", "-inf"), ("--tolerance", "-1e-4"),
])
def test_gradcheck_refuses_a_run_that_checks_nothing(tmp_path, capsys, flag, value):
    out = tmp_path / "gradcheck.json"
    assert run("gradcheck", f"{flag}={value}", "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    payload = json.loads(err)
    assert payload["error"] == "InvariantViolationError"
    assert payload["message"].startswith(flag)
    assert not out.exists()


@pytest.mark.parametrize("value", ["-1e-4", "-inf"])
def test_a_negative_tolerance_as_its_own_argument_reaches_the_value_check(tmp_path, capsys,
                                                                          value):
    out = tmp_path / "gradcheck.json"
    assert run("gradcheck", "--tolerance", value, "--out", out) == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvariantViolationError"
    assert payload["message"].startswith("--tolerance")
    assert not out.exists()


def test_train_refuses_non_finite_weights_before_writing(tmp_path, capsys, monkeypatch):
    from qgf.checkpoint import ModelCheckpoint

    def diverged_training(*args, **kwargs):
        arrays = {"gen.w": np.ones(2), "gen.b": np.array([1e39, np.inf])}
        ckpt = ModelCheckpoint(model="rnn-ae", config={}, seed=1, iterations=1, arrays=arrays)
        return ckpt, {"loss": np.ones(1)}

    monkeypatch.setattr(cli.baselines, "train_baseline", diverged_training)
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, length=16)
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--epochs", 1,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_NUMERIC
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "NonFiniteTensorError"
    assert "'gen.b'" in payload["message"] and "flat index 1" in payload["message"]
    assert not (tmp_path / "ckpt").exists()


@pytest.fixture
def training_calls(monkeypatch):
    """Record the configs ``train`` hands to the trainers, and train nothing."""
    from qgf.checkpoint import ModelCheckpoint

    calls = []

    def fake_training(*args):
        calls.append(args)
        epochs = args[-1].epochs
        ckpt = ModelCheckpoint(model="x", config={}, seed=1, iterations=epochs,
                               arrays={"w": np.ones(1)})
        return ckpt, {"loss": np.ones(epochs)}

    monkeypatch.setattr(cli.gan, "train_gan", fake_training)
    monkeypatch.setattr(cli.baselines, "train_baseline", fake_training)
    return calls


def test_train_defaults_are_the_config_defaults(tmp_path, training_calls):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=2, length=16)
    for model in ("gan", "rnn-ae"):
        assert run("train", "--model", model, "--data", data_path, "--out", tmp_path / model,
                   "--quiet") == 0
    (_, gen_config, disc_config, gan_train), (kind, _, ae_config, ae_train) = training_calls
    assert gan_train == ae_train == gan.TrainConfig()
    assert gen_config == gan.GeneratorConfig(seq_len=16, hidden=gan.GeneratorConfig.desk().hidden)
    assert disc_config == gan.DiscriminatorConfig.desk(16)
    assert (kind, ae_config) == ("rnn-ae", baselines.AeConfig(seq_len=16))


@pytest.mark.parametrize("flags,hidden", [([], 90), (["--hidden", 7], 7)])
def test_train_at_3120_points_keeps_the_generator_flags(tmp_path, training_calls, flags, hidden):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=2, length=3120)
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--noise-dim", 3,
               "--dropout", 0.2, *flags, "--out", tmp_path / "ckpt", "--quiet") == 0
    [(_, gen_config, disc_config, _)] = training_calls
    assert gen_config == gan.GeneratorConfig(noise_dim=3, seq_len=3120, hidden=hidden,
                                             dropout_p=0.2)
    # --hidden trades the paper's discriminator for the desk one
    want = gan.DiscriminatorConfig.desk(3120) if flags else gan.DiscriminatorConfig()
    assert disc_config == want


@pytest.mark.parametrize("model", ["gan", "lstm-ae"])
@pytest.mark.parametrize("flag", ["--hidden"])
def test_train_refuses_a_zero_size_flag(tmp_path, capsys, training_calls, model, flag):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=2, length=16)
    assert run("train", "--model", model, "--data", data_path, flag, 0,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "InvariantViolationError"
    assert training_calls == []


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        run("ingest", "--out", "x.csv")  # neither --input nor --fetch-url
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run("no-such-command")
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:  # train takes its length from the data
        run("train", "--model", "gan", "--data", "x.csv", "--seq-len", 16, "--out", "o")
    assert exc.value.code == 2


def test_data_errors_exit_3(tmp_path, capsys):
    assert run("ingest", "--input", tmp_path / "missing.csv",
               "--out", tmp_path / "o.csv") == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert "message" in payload

    bad = tmp_path / "bad.csv"
    bad.write_text("Date,Open\n")
    assert run("ingest", "--input", bad, "--out", tmp_path / "o.csv") == cli.EXIT_DATA
    assert run("label", "--input", bad, "--horizon", 1,
               "--out", tmp_path / "o.csv") == cli.EXIT_DATA


@pytest.mark.parametrize("body,line,detail", [
    ("1,2,3\n4,abc,6\n", 2, "abc"),
    ("1,2,3\n\n4,5\n", 3, "2 fields, expected 3"),
    ("1,2,3\n4,nan,6\n", 2, "non-finite"),
    ("1,2,3\n4,5,6\n-inf,0,0\n", 3, "non-finite"),
], ids=["bad-cell", "ragged", "nan", "inf"])
def test_bad_sequence_csv_names_its_line(tmp_path, capsys, body, line, detail):
    bad, ok = tmp_path / "bad.csv", tmp_path / "ok.csv"
    bad.write_text(body)
    ok.write_text("1,2,3\n4,5,6\n")
    for argv in (["evaluate", "--real", bad, "--generated", ok, "--out", tmp_path / "r.json"],
                 ["train", "--model", "rnn-ae", "--data", bad, "--epochs", 1,
                  "--out", tmp_path / "ckpt"]):
        assert run(*argv) == cli.EXIT_DATA
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RowParseError"
        assert payload["message"].startswith(f"line {line}: ")
        assert detail in payload["message"]


@pytest.mark.parametrize("body,line,detail", [
    ("Date,a,b\n2020-01-01,1,2\n2020-01-02,nan,3\n", 3, "non-finite value"),
    ("Date,a,b\n2020-01-01,1,2\n2020-01-02,4,5\n2020-01-03,-inf,0\n", 4, "non-finite value"),
    ("Date,a,b\n2020-01-01,1,2\n\n2020-01-02,4\n", 4, "2 fields, expected 3"),
    ("Date,a,b\n2020-01-01,1,2\n2020-01-02,4,5,6\n", 3, "4 fields, expected 3"),
], ids=["nan", "inf", "ragged", "extra-field"])
def test_bad_feature_table_names_its_line(tmp_path, capsys, body, line, detail):
    bad, labels = tmp_path / "f.csv", tmp_path / "l.csv"
    bad.write_text(body)
    labels.write_text("Date,label\n2020-01-01,1\n2020-01-02,0\n")
    for argv in (["reduce", "--features", bad, "--components", 1, "--out", tmp_path / "r.csv"],
                 ["select", "--features", bad, "--labels", labels, "--keep", 1,
                  "--out", tmp_path / "s.json"]):
        assert run(*argv) == cli.EXIT_DATA
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "RowParseError"
        assert payload["message"] == f"line {line}: {bad}: {detail}"


def _write_plain_and_keyed(tmp_path, rows):
    """The same rows of cells as a plain sequence table and a keyed feature table."""
    plain, keyed = tmp_path / "plain.csv", tmp_path / "keyed.csv"
    plain.write_text("".join(",".join(row) + "\n" for row in rows))
    header = ",".join(["Date", *(f"c{j}" for j in range(len(rows[0])))])
    keyed.write_text(header + "\n" + "".join(f"2020-01-{i + 1:02d},{','.join(row)}\n"
                                             for i, row in enumerate(rows)))
    return plain, keyed


def test_read_rows_gives_every_cell_the_bits_float_gives(tmp_path, monkeypatch):
    cells = awkward_cells(np.random.default_rng(2026), 28 * 40)
    rows = [cells[i:i + 40] for i in range(0, len(cells), 40)]
    want = float_bits([[float(c) for c in row] for row in rows])
    plain, keyed = _write_plain_and_keyed(tmp_path, rows)
    monkeypatch.setattr(cli, "parse_floats", per_line_path_taken)  # all in the one pass
    assert np.array_equal(float_bits(cli._read_rows(plain, keyed=False)[2]), want)
    names, dates, table = cli._read_rows(keyed, keyed=True)
    assert np.array_equal(float_bits(table), want)
    assert names == [f"c{j}" for j in range(40)] and dates[-1] == "2020-01-28"


@pytest.mark.parametrize("body,want", [
    ("1,1_000\n2,3\n", [[1, 1000], [2, 3]]),
    ("1,١٢٣\n2,3\n", [[1, 123], [2, 3]]),
    ("1,2\x0c3,4\n", [[1, 2], [3, 4]]),  # str.splitlines ends a line at a form feed
    ("1,2\r\n3,4\r\n", [[1, 2], [3, 4]]),
    ("1,2\n \t\n3,4\n\n", [[1, 2], [3, 4]]),
], ids=["underscore", "arabic-digits", "form-feed", "crlf", "whitespace-line"])
def test_read_rows_reads_what_float_and_splitlines_read(tmp_path, body, want):
    rows = [line.split(",") for line in body.splitlines() if line.strip()]
    plain, keyed = _write_plain_and_keyed(tmp_path, rows)
    plain.write_text(body)  # the exact bytes, line endings and blank lines included
    assert np.array_equal(cli._read_rows(plain, keyed=False)[2], want)
    assert np.array_equal(cli._read_rows(keyed, keyed=True)[2], want)


@pytest.mark.parametrize("body,line,detail", [
    ("1,2\n3,nan\n", 2, "non-finite value"),
    ("1,2\n3,inf\n", 2, "non-finite value"),
    ("1,2\n\n3,4\n5,1e999\n", 4, "non-finite value"),
    ("1,2,\n3,4,\n", 1, "could not convert string to float: ''"),
    ("1,2\x0c3\n", 2, "1 fields, expected 2"),
    ("1,2\n \n3,\x1f4\n", 3, "could not convert string to float: '\\x1f4'"),
], ids=["nan", "inf", "overflow", "trailing-comma", "form-feed", "unit-separator"])
def test_a_table_the_one_pass_refuses_names_its_line(tmp_path, capsys, body, line, detail):
    bad, ok = tmp_path / "bad.csv", tmp_path / "ok.csv"
    bad.write_text(body)
    ok.write_text("1,2\n")
    assert run("evaluate", "--real", bad, "--generated", ok,
               "--out", tmp_path / "r.json") == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err) == {
        "error": "RowParseError", "message": f"line {line}: {bad}: {detail}"}


def _f_string_table(values, header=None, keys=None):
    """The table written one ``{v:.17g}`` cell at a time, as _write_rows once did."""
    body = [",".join(f"{v:.17g}" for v in row) for row in values]
    if keys is not None:
        body = [f"{key},{cells}" for key, cells in zip(keys, body)]
    return "\n".join(([] if header is None else [",".join(header)]) + body) + "\n"


# Python floats and ints, numpy floats, a negative zero, the smallest subnormal, 1e17
WRITTEN = [0.1, 2 / 3, np.float64(1 / 3), 7, 2**53 + 1, -0.0, 5e-324, 1e17,
           1.7976931348623157e308, -123.456]


@pytest.mark.parametrize("kind", ["plain", "keyed", "header-only", "empty"])
def test_write_rows_writes_the_bytes_of_one_17g_cell_at_a_time(tmp_path, kind):
    rng = np.random.default_rng(25)
    rows = [WRITTEN[i:] + WRITTEN[:i] for i in range(len(WRITTEN))]  # each value in each column
    rows += (rng.standard_normal((30, len(WRITTEN))) * 10.0 ** rng.integers(-300, 300, (30, 1))
             ).tolist()
    header = keys = None
    if kind != "plain":
        header = ["Date", *(f"c{j}" for j in range(len(WRITTEN)))]
        keys = [f"2020-01-{i + 1:02d}" for i in range(len(rows))]
    if kind in ("header-only", "empty"):
        rows, keys = [], []
        header = header if kind == "header-only" else None
    out = tmp_path / "t.csv"
    cli._write_rows(out, rows, header, keys)
    assert out.read_text() == _f_string_table(rows, header, keys)
    if rows:
        table = cli._read_rows(out, keyed=kind == "keyed")[2]
        assert np.array_equal(float_bits(table), float_bits(rows))


def test_main_builds_one_parser_and_keeps_no_state_between_runs(prices, tmp_path):
    cli.build_parser.cache_clear()
    data = tmp_path / "seqs.csv"
    _write_train_data(data, count=6, length=8)
    train = ["train", "--model", "rnn-ae", "--data", data, "--epochs", 1, "--hidden", 4,
             "--latent", 2, "--quiet"]

    def flags(out):
        return json.loads((out / "run_manifest.json").read_text())["args"]

    fetch = f"file://{prices.parent}/{{symbol}}.csv"
    assert run("ingest", "--fetch-url", fetch, "--symbol", "TST", "--out", tmp_path / "a.csv",
               "--quiet") == 0
    assert run("ingest", "--input", prices, "--out", tmp_path / "b.csv", "--quiet") == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    with pytest.raises(SystemExit) as exc:  # the group still refuses both sources at once
        run("ingest", "--input", prices, "--fetch-url", fetch, "--out", tmp_path / "c.csv")
    assert exc.value.code == 2

    assert run(*train, "--lr", "0.01", "--out", tmp_path / "fast") == 0
    assert run(*train, "--out", tmp_path / "default") == 0
    assert flags(tmp_path / "fast")["lr"] == "0.01"
    assert flags(tmp_path / "default")["lr"] == str(gan.TrainConfig.lr)
    with pytest.raises(SystemExit) as exc:
        run(*train, "--model", "no-such-model", "--out", tmp_path / "bad")
    assert exc.value.code == 2
    assert run(*train, "--out", tmp_path / "again") == 0
    assert flags(tmp_path / "again") == flags(tmp_path / "default") | {
        "out": str(tmp_path / "again")}
    assert cli.build_parser.cache_info().misses == 1
    assert cli.build_parser() is cli.build_parser()


_OHLCV_HEADER = "Date,Open,High,Low,Close,Adj Close,Volume\n"
BAD = object()  # where the file under test goes in a command line

# every file a subcommand reads: its command line, and that file's header without rows
FILE_READERS = {
    "ingest": (["ingest", "--input", BAD], _OHLCV_HEADER),
    "ingest-fetch": (["ingest", "--fetch-url", BAD, "--symbol", "bad"], _OHLCV_HEADER),
    "indicators": (["indicators", "--input", BAD], _OHLCV_HEADER),
    "label": (["label", "--input", BAD, "--horizon", 1], _OHLCV_HEADER),
    "select-features": (["select", "--features", BAD, "--labels", "labels.csv", "--keep", 1],
                        "Date,a,b\n"),
    "select-labels": (["select", "--features", "features.csv", "--labels", BAD, "--keep", 1],
                      "Date,label\n"),
    "reduce": (["reduce", "--features", BAD, "--components", 1], "Date,a,b\n"),
    "train": (["train", "--model", "rnn-ae", "--data", BAD, "--epochs", 1], "t0,t1,t2\n"),
    "evaluate-real": (["evaluate", "--real", BAD, "--generated", "seqs.csv"], "t0,t1,t2\n"),
    "evaluate-generated": (["evaluate", "--real", "seqs.csv", "--generated", BAD],
                           "t0,t1,t2\n"),
    # generate reads the checkpoint's manifest.json; its "header" is the format version alone
    "generate": (["generate", "--ckpt", BAD, "--count", 1], '{"format_version": 2}\n'),
}


@pytest.mark.parametrize("body", ["missing", "non-utf8", "empty", "header-only"])
@pytest.mark.parametrize("reader", sorted(FILE_READERS))
def test_every_unreadable_input_exits_3_with_one_json_line(tmp_path, monkeypatch, capsys,
                                                          reader, body):
    monkeypatch.chdir(tmp_path)
    Path("features.csv").write_text("Date,a,b\n2020-01-01,1,2\n2020-01-02,3,4\n")
    Path("labels.csv").write_text("Date,label\n2020-01-01,1\n2020-01-02,0\n")
    Path("seqs.csv").write_text("1,2,3\n4,5,6\n")
    argv, header = FILE_READERS[reader]
    arg = bad = Path("bad.csv")
    if reader == "generate":
        arg, bad = Path("ckpt"), Path("ckpt", "manifest.json")
    elif reader == "ingest-fetch":
        arg = f"file://{tmp_path}/{{symbol}}.csv"
    if body != "missing":
        bad.parent.mkdir(exist_ok=True)
        bad.write_bytes({"non-utf8": header.encode() + b"\xff\n", "empty": b"",
                         "header-only": header.encode()}[body])
    argv = [arg if a is BAD else a for a in argv]
    assert run(*argv, "--out", "out", "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}


@pytest.mark.parametrize("row", [
    "2015-01-05,10,11,9,10.5,10.5,inf",
    "2015-01-05,10,11,9,10.5,10.5,1e400",
    "2015-01-05,10,11,9,10.5,10.5,nan",
    "2015-01-05,10,11,9,10.5,10.5,100,7",
], ids=["inf-volume", "1e400-volume", "nan-volume", "extra-field"])
@pytest.mark.parametrize("reader", ["ingest", "indicators", "label"])
def test_bad_ohlcv_row_exits_3_naming_its_line(tmp_path, capsys, reader, row):
    bad = tmp_path / "bad.csv"
    bad.write_text(_OHLCV_HEADER + "2015-01-02,10,11,9,10.5,10.5,100\n" + row + "\n")
    argv = [bad if a is BAD else a for a in FILE_READERS[reader][0]]
    assert run(*argv, "--out", tmp_path / "out", "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.endswith("\n") and err.count("\n") == 1
    assert json.loads(err)["message"].startswith("line 3: ")


@pytest.mark.parametrize("reader,body", [
    ("evaluate-real", "1,2,3\n4,{cell},6\n"),
    ("reduce", "Date,a,b\n2020-01-01,{cell},2\n"),
    ("ingest", _OHLCV_HEADER + "2015-01-02,{cell},11,9,10.5,10.5,100\n"),
    ("ingest", _OHLCV_HEADER + "{cell},10,11,9,10.5,10.5,100\n"),
], ids=["sequences", "feature-table", "ohlcv-value", "ohlcv-date"])
def test_a_huge_bad_cell_gives_a_short_error_line(tmp_path, monkeypatch, capsys, reader, body):
    monkeypatch.chdir(tmp_path)
    Path("seqs.csv").write_text("1,2,3\n4,5,6\n")
    Path("bad.csv").write_text(body.format(cell="x" * 200_000))
    argv = [Path("bad.csv") if a is BAD else a for a in FILE_READERS[reader][0]]
    assert run(*argv, "--out", "out", "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and len(err.encode()) < 1024
    message = json.loads(err)["message"]
    assert message.startswith("line 2: ") and "(200000 characters)" in message


@pytest.mark.parametrize("lr", ["nan", "inf"])
def test_train_refuses_a_non_finite_lr(tmp_path, capsys, training_calls, lr):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=2, length=16)
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--lr", lr,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["error"] == "InvariantViolationError"
    assert training_calls == []


def test_a_negative_lr_as_its_own_argument_reaches_the_value_check(tmp_path, capsys,
                                                                   training_calls):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=2, length=16)
    assert run("train", "--model", "rnn-ae", "--data", data_path, "--lr", "-1e-3",
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "InvariantViolationError" and "lr" in payload["message"]
    assert training_calls == []


def test_label_horizon_out_of_range_is_data_error(prices, tmp_path):
    assert run("label", "--input", prices, "--horizon", 11,
               "--out", tmp_path / "o.csv") == cli.EXIT_DATA


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run("--version")
    assert exc.value.code == 0
    assert "qgf" in capsys.readouterr().out


def _write_feature_table(path, columns, dates):
    rows = [",".join(["Date", *(f"f{j}" for j in range(len(columns)))])]
    rows += [",".join([d, *(repr(float(c[i])) for c in columns)]) for i, d in enumerate(dates)]
    path.write_text("\n".join(rows) + "\n")


_DATES = [f"2020-01-{day:02d}" for day in range(1, 21)]


@pytest.mark.parametrize("label", ["2", "0.7"])
def test_select_refuses_a_label_that_is_not_0_or_1(tmp_path, capsys, label):
    rng = np.random.default_rng(3)
    feats, labels, out = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "s.json"
    _write_feature_table(feats, rng.standard_normal((3, 20)), _DATES)
    values = ["1", "0"] * 10
    values[7] = label
    labels.write_text("Date,label\n" + "".join(f"{d},{v}\n" for d, v in zip(_DATES, values)))
    assert run("select", "--features", feats, "--labels", labels, "--keep", 1,
               "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    message = json.loads(err)["message"]
    assert str(labels) in message and _DATES[7] in message and repr(float(label)) in message
    assert not out.exists()


def _overflowing_features(path):
    rng = np.random.default_rng(4)
    columns = rng.standard_normal((3, 20))
    columns[1] *= 1e300  # finite cells whose squares overflow float64
    _write_feature_table(path, columns, _DATES)


def test_reduce_on_overflowing_features_exits_numeric_naming_the_step(tmp_path, capsys):
    feats, out = tmp_path / "f.csv", tmp_path / "r.csv"
    _overflowing_features(feats)
    assert run("reduce", "--features", feats, "--components", 2,
               "--out", out) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["message"] == "randomized pca: variance overflows float64"
    assert not out.exists()


def test_reduce_refuses_a_negative_oversample(tmp_path, capsys):
    feats, out = tmp_path / "f.csv", tmp_path / "r.csv"
    _write_feature_table(feats, np.random.default_rng(3).standard_normal((3, 20)), _DATES)
    assert run("reduce", "--features", feats, "--components", 1, "--oversample", -5,
               "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "InvariantViolationError",
                               "message": "oversample must be >= 0, got -5"}
    assert not out.exists()


def test_reduce_fits_features_whose_cube_overflows(tmp_path):
    feats, out = tmp_path / "f.csv", tmp_path / "r.csv"
    columns = np.random.default_rng(4).standard_normal((17, 1250))
    columns[3] *= 1e102
    dates = [str(np.datetime64("2000-01-01") + i) for i in range(1250)]
    _write_feature_table(feats, columns, dates)
    assert run("reduce", "--features", feats, "--components", 3, "--out", out, "--quiet") == 0
    header, rows = read_csv_rows(out)
    assert header == ["Date", "pc1", "pc2", "pc3"] and len(rows) == 1250


def test_select_on_overflowing_features_exits_numeric_naming_the_column(tmp_path, capsys):
    feats, labels, out = tmp_path / "f.csv", tmp_path / "l.csv", tmp_path / "s.json"
    _overflowing_features(feats)
    labels.write_text("Date,label\n" + "".join(f"{d},{i % 2}\n" for i, d in enumerate(_DATES)))
    assert run("select", "--features", feats, "--labels", labels, "--keep", 1,
               "--out", out) == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["message"] == "feature 'f1': standardizing it overflows float64"
    assert not out.exists()


def test_evaluate_on_overflowing_sequences_prints_one_error_line(tmp_path, capsys):
    rng = np.random.default_rng(5)
    real, generated, out = tmp_path / "real.csv", tmp_path / "gen.csv", tmp_path / "r.json"
    for path in (real, generated):
        rows = rng.standard_normal((2, 20)) * 1e300
        path.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
    assert run("evaluate", "--real", real, "--generated", generated,
               "--out", out) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err)["message"] == "metric prd is not finite"
    assert not out.exists()


@pytest.mark.parametrize("value", ["1e160", "1e300", "-1e308"])
def test_train_gan_on_a_row_that_overflows_standardizing_exits_numeric_naming_it(
        tmp_path, capsys, value):
    data_path = tmp_path / "seqs.csv"
    rows = 1000 + 100 * noisy_sine_batch(np.random.default_rng(1), 6, 64)
    cells = [[f"{v:.17g}" for v in row] for row in rows]
    cells[2][5] = value
    data_path.write_text("".join(",".join(row) + "\n" for row in cells))
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--batch", 6,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "NumericError",
                               "message": "data row 3: standardizing it overflows float64"}
    assert not (tmp_path / "ckpt").exists()


@pytest.mark.parametrize("model", ["rnn-ae", "lstm-vae"])
def test_train_baseline_on_a_row_that_overflows_its_loss_prints_one_error_line(
        tmp_path, capsys, model):
    data_path = tmp_path / "seqs.csv"
    rows = noisy_sine_batch(np.random.default_rng(1), 6, 64)
    cells = [[f"{v:.17g}" for v in row] for row in rows]
    cells[2][5] = "1e300"  # its square overflows float64
    data_path.write_text("".join(",".join(row) + "\n" for row in cells))
    assert run("train", "--model", model, "--data", data_path, "--epochs", 2, "--batch", 6,
               "--hidden", 4, "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "NonFiniteLossError",
                               "message": "non-finite loss at iteration 0"}
    assert not (tmp_path / "ckpt").exists()


def test_indicators_on_a_volume_that_overflows_vr_names_the_column_and_bar(
        prices, tmp_path, capsys):
    lines = prices.read_text().splitlines()
    cells = lines[2].split(",")
    cells[6] = "1e308"  # the Volume of line 3
    lines[2] = ",".join(cells)
    bad, out = tmp_path / "TST.csv", tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert run("indicators", "--input", bad, "--out", out, "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "InvariantViolationError",
        "message": "non-finite value in the defined region: column 'VR', bar 26"}
    assert not out.exists()


def _one_row_at_1e308(lines):
    cells = lines[40].split(",")
    lines[40] = ",".join([cells[0], *["1e308"] * 6])  # line 41: every price and the volume


def _every_price_times_5e305(lines):
    for i, line in enumerate(lines[1:], start=1):
        date, *prices, volume = line.split(",")
        lines[i] = ",".join([date, *(repr(float(v) * 5e305) for v in prices), volume])


@pytest.mark.parametrize("damage,bar", [(_one_row_at_1e308, 39), (_every_price_times_5e305, 26)])
def test_indicators_on_prices_near_the_float64_limit_prints_one_error_line(
        prices, tmp_path, capsys, damage, bar):
    lines = prices.read_text().splitlines()
    damage(lines)
    bad, out = tmp_path / "TST.csv", tmp_path / "features.csv"
    bad.write_text("\n".join(lines) + "\n")
    # an overflow warning would raise here: the module turns RuntimeWarning into an error
    assert run("indicators", "--input", bad, "--out", out, "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {
        "error": "InvariantViolationError",
        "message": f"non-finite value in the defined region: column 'K', bar {bar}"}
    assert not out.exists()


def test_train_on_rows_too_short_for_the_discriminator_names_the_stage(tmp_path, capsys):
    data_path = tmp_path / "seqs.csv"
    _write_train_data(data_path, count=4, length=16)
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1,
               "--out", tmp_path / "ckpt", "--quiet") == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "FilterLargerThanInputError",
                               "message": "conv2: filter 5 exceeds input 2"}
    assert not (tmp_path / "ckpt").exists()
