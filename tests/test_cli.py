import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_sine_batch
from qgf import baselines, cli, gan
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


@pytest.fixture(scope="module")
def gan_ckpt(tmp_path_factory):
    work = tmp_path_factory.mktemp("gan")
    data_path = work / "seqs.csv"
    _write_train_data(data_path, length=64)
    assert run("train", "--model", "gan", "--data", data_path, "--epochs", 1, "--batch", 8,
               "--hidden", 4, "--noise-dim", 2, "--out", work / "ckpt", "--quiet") == 0
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
    count = 2 * gan.GENERATE_ROWS + extra
    blocks, whole = tmp_path / "blocks.csv", tmp_path / "whole.csv"
    assert run("generate", "--ckpt", gan_ckpt, "--count", count, "--out", blocks, "--quiet") == 0
    monkeypatch.setattr(gan, "GENERATE_ROWS", count)
    assert run("generate", "--ckpt", gan_ckpt, "--count", count, "--out", whole, "--quiet") == 0
    assert blocks.read_bytes() == whole.read_bytes()


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
], ids=["nan", "inf", "ragged"])
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
