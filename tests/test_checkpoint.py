import hashlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from conftest import noisy_sine_batch
from qgf import cli, gan
from qgf.autodiff import Tensor
from qgf.checkpoint import (
    FORMAT_VERSION,
    ModelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from qgf.errors import (
    IoError,
    NonFiniteTensorError,
    NumericError,
    VersionMismatchError,
)


def _ckpt(rng):
    return ModelCheckpoint(
        model="gan",
        config={"lr": 1e-4, "note": "test"},
        seed=7,
        iterations=12,
        arrays={"gen.w": rng.standard_normal((3, 4)),
                "disc/f": rng.standard_normal((2, 1, 5)),
                "gen.b": rng.standard_normal(4)})


def _file(out, name):
    return out / json.loads((out / "manifest.json").read_text())["tensors"][name]["file"]


def _generate(ckpt, out):
    return cli.main(["generate", "--ckpt", str(ckpt), "--count", "2", "--out", str(out),
                     "--quiet"])


def test_round_trip_preserves_metadata_and_float64_values(tmp_path, rng):
    ckpt = _ckpt(rng)
    tiny = float(np.finfo(np.float64).smallest_subnormal)
    top = float(np.finfo(np.float64).max)
    ckpt.arrays["edges"] = np.array([1e39, -1e39, top, -top, tiny, -tiny, 0.0, -0.0, 0.1])
    out = save_checkpoint(ckpt, tmp_path / "model")
    assert (out / "manifest.json").exists()
    loaded = load_checkpoint(out)
    assert loaded.model == "gan"
    assert loaded.config == ckpt.config
    assert (loaded.seed, loaded.iterations) == (7, 12)
    assert set(loaded.arrays) == set(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        got = loaded.arrays[name]
        assert got.dtype == np.float64
        assert np.array_equal(got, arr)
        assert got.tobytes() == arr.tobytes()  # bit for bit, the sign of -0.0 too


def test_save_load_save_is_stable(tmp_path, rng):
    ckpt = _ckpt(rng)
    save_checkpoint(ckpt, tmp_path / "a")
    first = load_checkpoint(tmp_path / "a")
    save_checkpoint(first, tmp_path / "b")
    second = load_checkpoint(tmp_path / "b")
    for name in first.arrays:
        assert np.array_equal(first.arrays[name], second.arrays[name])
    assert (tmp_path / "a" / "manifest.json").read_text() == \
        (tmp_path / "b" / "manifest.json").read_text()


def test_manifest_maps_each_tensor_to_a_file_and_its_sha256(tmp_path):
    # files go by position in name order: names that differ only in '/' and '_' cannot collide
    arrays = {"a/b": np.ones(2), "c": np.ones(1), "a_b": np.zeros(2)}
    ckpt = ModelCheckpoint(model="gan", config={}, seed=1, iterations=1, arrays=arrays)
    out = save_checkpoint(ckpt, tmp_path / "m")
    tensors = json.loads((out / "manifest.json").read_text())["tensors"]
    assert {n: t["file"] for n, t in tensors.items()} == \
        {"a/b": "0.npy", "a_b": "1.npy", "c": "2.npy"}
    for meta in tensors.values():
        assert meta["sha256"] == hashlib.sha256((out / meta["file"]).read_bytes()).hexdigest()
    loaded = load_checkpoint(out)
    assert all(np.array_equal(loaded.arrays[n], a) for n, a in arrays.items())


def test_overwrite_flag(tmp_path, rng):
    ckpt = _ckpt(rng)
    save_checkpoint(ckpt, tmp_path / "m")
    with pytest.raises(IoError):
        save_checkpoint(ckpt, tmp_path / "m")
    replacement = ModelCheckpoint(model="rnn-ae", config={}, seed=1, iterations=1,
                                  arrays={"w": np.ones(2)})
    save_checkpoint(replacement, tmp_path / "m", overwrite=True)
    loaded = load_checkpoint(tmp_path / "m")
    assert loaded.model == "rnn-ae"
    assert set(loaded.arrays) == {"w"}
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


def test_overwrite_replaces_an_empty_directory_and_refuses_a_foreign_one(tmp_path, rng):
    (tmp_path / "empty").mkdir()
    save_checkpoint(_ckpt(rng), tmp_path / "empty", overwrite=True)
    assert load_checkpoint(tmp_path / "empty").model == "gan"
    (tmp_path / "notes").mkdir()
    (tmp_path / "notes" / "a.txt").write_text("keep\n")
    with pytest.raises(IoError, match="refusing to replace .*notes"):
        save_checkpoint(_ckpt(rng), tmp_path / "notes", overwrite=True)
    assert [p.name for p in (tmp_path / "notes").iterdir()] == ["a.txt"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty", "notes"]


def test_no_staging_directory_left_behind(tmp_path, rng):
    save_checkpoint(_ckpt(rng), tmp_path / "m")
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


def test_missing_or_corrupt_manifest(tmp_path):
    with pytest.raises(IoError):
        load_checkpoint(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    (bad / "manifest.json").write_text("{nope")
    with pytest.raises(IoError):
        load_checkpoint(bad)


def test_version_mismatch_rejected(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["format_version"] = FORMAT_VERSION + 1
    (out / "manifest.json").write_text(json.dumps(manifest))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(out)


def test_a_format_1_checkpoint_exits_3(tmp_path, capsys):
    # the float32 .bin layout: no reader is kept, such a checkpoint is retrained
    out = tmp_path / "v1"
    out.mkdir()
    (out / "gen.w.bin").write_bytes(np.ones(2, dtype="<f4").tobytes())
    (out / "manifest.json").write_text(json.dumps({
        "format_version": 1, "model": "gan", "config": {}, "seed": 1, "iterations": 1,
        "tensors": {"gen.w": {"shape": [2], "file": "gen.w.bin"}}, "extras": {}}))
    with pytest.raises(VersionMismatchError, match="format 1"):
        load_checkpoint(out)
    assert _generate(out, tmp_path / "x.csv") == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "VersionMismatchError"


def test_truncated_tensor_file_rejected(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    target = _file(out, "gen.w")
    target.write_bytes(target.read_bytes()[:-4])
    with pytest.raises(IoError, match=f"{target}.*sha256"):
        load_checkpoint(out)


def test_missing_tensor_file_rejected(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _file(out, "gen.b").unlink()
    with pytest.raises(IoError):
        load_checkpoint(out)


def test_forward_pass_bitwise_after_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    t = np.arange(16)
    data = np.stack([np.sin(2 * np.pi * (t / 8 + rng.random())) for _ in range(8)])
    gen_cfg = gan.GeneratorConfig(noise_dim=2, seq_len=16, hidden=4, dropout_p=0.0)
    disc_cfg = gan.DiscriminatorConfig(
        input_len=16, conv1=gan.ConvSpec(2, 5, 2), pool1=gan.PoolSpec(2, 2),
        conv2=gan.ConvSpec(2, 2, 1), pool2=gan.PoolSpec(2, 1), dense_units=3)
    ckpt, _ = gan.train_gan(data, gen_cfg, disc_cfg,
                            gan.TrainConfig(epochs=2, batch_size=8, lr=1e-3, seed=0))
    save_checkpoint(ckpt, tmp_path / "gan")
    loaded = load_checkpoint(tmp_path / "gan")

    ref = gan.generator_from_checkpoint(ckpt)  # the trained weights, never rounded
    restored = gan.generator_from_checkpoint(loaded)
    noise = gan.sample_noise(3, 16, 2, np.random.default_rng(5))
    a = ref.forward(Tensor(noise.data.copy()))
    b = restored.forward(Tensor(noise.data.copy()))
    assert np.array_equal(a.data, b.data)


def test_generate_from_a_reloaded_checkpoint_is_the_trained_generator_byte_for_byte(tmp_path):
    gen_cfg = gan.GeneratorConfig.desk()
    data = noisy_sine_batch(np.random.default_rng(3), 8, gen_cfg.seq_len)
    ckpt, _ = gan.train_gan(data, gen_cfg, gan.DiscriminatorConfig.desk(gen_cfg.seq_len),
                            gan.TrainConfig(epochs=2, batch_size=8, seed=0))
    save_checkpoint(ckpt, tmp_path / "gan")
    assert _generate(tmp_path / "gan", tmp_path / "reloaded.csv") == 0

    in_memory = gan.generate_sequences(gan.generator_from_checkpoint(ckpt), count=2,
                                       seq_len=gen_cfg.seq_len, seed=42)
    cli._write_rows(tmp_path / "in_memory.csv", in_memory)
    assert (tmp_path / "reloaded.csv").read_bytes() == (tmp_path / "in_memory.csv").read_bytes()


def _edit_manifest(out, edit):
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))


def _replace_tensor_file(out, name, raw):
    """Put ``raw`` in ``name``'s file and its sha256 in the manifest, so only the
    parse of the bytes can refuse them."""
    _file(out, name).write_bytes(raw)
    _edit_manifest(out, lambda m: m["tensors"][name].update(
        {"sha256": hashlib.sha256(raw).hexdigest()}))


@pytest.mark.parametrize("key", ["tensors", "model", "config", "seed", "iterations"])
def test_missing_manifest_key_is_io_error_naming_it(tmp_path, rng, key):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m.pop(key))
    with pytest.raises(IoError, match=f"'{key}'.*missing"):
        load_checkpoint(out)


@pytest.mark.parametrize("key,value", [
    ("tensors", []), ("model", 3), ("config", "lr=1"), ("seed", "7"),
    ("iterations", 1.5), ("seed", True),
])
def test_mistyped_manifest_key_is_io_error_naming_it(tmp_path, rng, key, value):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m.update({key: value}))
    with pytest.raises(IoError, match=f"'{key}'"):
        load_checkpoint(out)


def test_manifest_that_is_not_an_object_is_io_error(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    (out / "manifest.json").write_text("[1, 2]")
    with pytest.raises(IoError):
        load_checkpoint(out)


@pytest.mark.parametrize("meta", [
    "gen.w.bin", {"file": "0.npy"}, {"file": "0.npy", "sha256": 12},
    {"file": "0.npy", "sha256": ["0" * 64]}, {"file": "0.npy", "sha256": "0" * 64},
    {"sha256": "0" * 64}, {"file": 5, "sha256": "0" * 64},
    {"file": "absent.npy", "sha256": "0" * 64},
])
def test_malformed_tensor_entry_is_io_error_naming_the_tensor(tmp_path, rng, meta):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m["tensors"].update({"gen.w": meta}))
    with pytest.raises(IoError, match="tensor 'gen.w'"):
        load_checkpoint(out)


@pytest.mark.parametrize("shape", [None, (2**62, 4)], ids=["truncated", "int64-overflow"])
def test_tensor_bytes_that_do_not_fill_the_shape_exit_3(tmp_path, rng, capsys, shape):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    target = _file(out, "gen.w")
    if shape is None:  # the digest no longer matches
        target.write_bytes(target.read_bytes()[:-8])
    else:  # a header whose 2**62 * 4 * 8 bytes wrap to 0 in int64, over no data, digest matching
        header = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            header, {"descr": "<f8", "fortran_order": False, "shape": shape})
        _replace_tensor_file(out, "gen.w", header.getvalue())
    with pytest.raises(IoError, match=f"tensor 'gen.w': {target}"):
        load_checkpoint(out)
    assert _generate(out, tmp_path / "x.csv") == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "IoError"


class _Tripwire:
    """Unpickling one calls ``_tripped``, which fails the test that loaded it."""

    def __reduce__(self):
        return _tripped, ()


def _tripped():
    pytest.fail("a checkpoint tensor was unpickled")


@pytest.mark.parametrize("array,detail", [
    (np.array([_Tripwire()], dtype=object), "Object arrays cannot be loaded"),
    (np.ones((3, 4), dtype=np.float32), "holds float32, not float64"),
], ids=["object", "float32"])
def test_a_tensor_file_of_another_dtype_exits_3_and_is_never_unpickled(tmp_path, rng, capsys,
                                                                      array, detail):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    raw = io.BytesIO()
    np.save(raw, array, allow_pickle=True)
    _replace_tensor_file(out, "gen.w", raw.getvalue())
    with pytest.raises(IoError, match=detail):
        load_checkpoint(out)
    assert _generate(out, tmp_path / "x.csv") == cli.EXIT_DATA
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "IoError" and str(_file(out, "gen.w")) in payload["message"]


@pytest.mark.parametrize("fname", ["../x.bin", "sub/gen.w.bin", "/tmp/x.bin", "..", ".", ""])
def test_tensor_file_outside_the_checkpoint_is_refused(tmp_path, rng, fname):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    (tmp_path / "x.bin").write_bytes(_file(out, "gen.w").read_bytes())
    _edit_manifest(out, lambda m: m["tensors"]["gen.w"].update({"file": fname}))
    with pytest.raises(IoError, match="tensor 'gen.w'.*not a plain file name"):
        load_checkpoint(out)


def test_failed_overwrite_leaves_the_old_checkpoint_loadable(tmp_path, rng, monkeypatch):
    original = _ckpt(rng)
    save_checkpoint(original, tmp_path / "m")
    replacement = ModelCheckpoint(model="rnn-ae", config={}, seed=1, iterations=1,
                                  arrays={"w": np.ones(2)})

    def disk_full(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    # the manifest is the last file staged
    monkeypatch.setattr(Path, "write_text", disk_full)
    with pytest.raises(IoError, match="No space left"):
        save_checkpoint(replacement, tmp_path / "m", overwrite=True)
    monkeypatch.undo()

    loaded = load_checkpoint(tmp_path / "m")
    assert loaded.model == "gan"
    assert set(loaded.arrays) == set(original.arrays)
    assert [p.name for p in tmp_path.iterdir()] == ["m"]


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_non_finite_values_are_refused_naming_tensor_and_index(tmp_path, rng, value):
    arrays = {"gen.b": rng.standard_normal(3), "gen.w": rng.standard_normal((3, 4))}
    arrays["gen.w"][1, 2] = value
    arrays["gen.w"][2, 0] = value  # only the first bad flat index is reported
    ckpt = ModelCheckpoint(model="gan", config={}, seed=1, iterations=1, arrays=arrays)
    with pytest.raises(NonFiniteTensorError, match="tensor 'gen.w'.*flat index 6 ") as exc:
        save_checkpoint(ckpt, tmp_path / "m")
    assert isinstance(exc.value, NumericError)
    assert (exc.value.tensor, exc.value.index) == ("gen.w", 6)
    assert list(tmp_path.iterdir()) == []


def test_float32_extremes_are_stored_exactly(tmp_path):
    top = float(np.finfo(np.float32).max)
    tiny = float(np.finfo(np.float32).smallest_subnormal)
    values = np.array([top, -top, tiny, -tiny, 0.0])
    ckpt = ModelCheckpoint(model="gan", config={}, seed=1, iterations=1, arrays={"w": values})
    loaded = load_checkpoint(save_checkpoint(ckpt, tmp_path / "m"))
    assert np.array_equal(loaded.arrays["w"], values)


# Checkpoint corruption fuzz: seeded and bounded, so every run makes the same cases.
FUZZ_SEED = 17
FUZZ_CASES = 150
_NAN_BYTES = np.array([np.nan]).tobytes()


def _corrupt(raw: bytes, rng: np.random.Generator) -> tuple[str, bytes]:
    at = int(rng.integers(len(raw)))
    how = ("flip", "truncate", "nan")[int(rng.integers(3))]
    if how == "flip":
        changed = bytearray(raw)
        changed[at] ^= 1 << int(rng.integers(8))
        return how, bytes(changed)
    if how == "truncate":
        return how, raw[:at]
    return how, raw[:at] + _NAN_BYTES + raw[at + 8:]


def test_a_corrupted_checkpoint_never_loads_silently(tmp_path, capsys):
    data = tmp_path / "seqs.csv"
    rows = noisy_sine_batch(np.random.default_rng(3), 8, 64)
    data.write_text("".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows))
    ckpt = tmp_path / "gan"
    assert cli.main(["train", "--model", "gan", "--data", str(data), "--epochs", "1",
                     "--batch", "8", "--out", str(ckpt), "--quiet"]) == 0
    manifest = ckpt / "manifest.json"
    tensor_files = [ckpt / t["file"] for t in json.loads(manifest.read_text())["tensors"].values()]
    rng = np.random.default_rng(FUZZ_SEED)
    for case in range(FUZZ_CASES):
        # one case in four edits the manifest, the rest a tensor file
        target = manifest if rng.random() < 0.25 else tensor_files[rng.integers(len(tensor_files))]
        original = target.read_bytes()
        how, changed = _corrupt(original, rng)
        assert changed != original
        target.write_bytes(changed)
        try:
            code = _generate(ckpt, tmp_path / "out.csv")
        finally:
            target.write_bytes(original)
        err = capsys.readouterr().err
        where = f"case {case}: {how} in {target.name}: exit {code}, stderr {err!r}"
        if target != manifest:
            assert code == cli.EXIT_DATA, where
            assert err.count("\n") == 1 and str(target) in json.loads(err)["message"], where
        # The manifest carries no digest of its own, so an edit that keeps it valid JSON
        # and the model buildable (a digit of "seed" or "iterations", a discriminator
        # tensor's name) still loads. What it may never do is end in a traceback.
        elif code == 0:
            assert err == "", where
        else:
            assert code == cli.EXIT_DATA and err.count("\n") == 1, where
            assert set(json.loads(err)) == {"error", "message"}, where
