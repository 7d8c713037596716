import json
from pathlib import Path

import numpy as np
import pytest

from qgf import cli, gan
from qgf.autodiff import Tensor
from qgf.checkpoint import (
    FORMAT_VERSION,
    ModelCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from qgf.errors import (
    Float32RangeError,
    IoError,
    NumericError,
    ShapeMismatchError,
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
                "gen.b": rng.standard_normal(4)},
        extras={"tag": "x"})


def test_round_trip_preserves_metadata_and_float32_values(tmp_path, rng):
    ckpt = _ckpt(rng)
    out = save_checkpoint(ckpt, tmp_path / "model")
    assert (out / "manifest.json").exists()
    loaded = load_checkpoint(out)
    assert loaded.model == "gan"
    assert loaded.config == ckpt.config
    assert (loaded.seed, loaded.iterations) == (7, 12)
    assert loaded.extras == {"tag": "x"}
    assert set(loaded.arrays) == set(ckpt.arrays)
    for name, arr in ckpt.arrays.items():
        got = loaded.arrays[name]
        assert got.dtype == np.float64
        assert got.shape == arr.shape
        # stored at single precision, returned as exactly those float32 values
        assert np.array_equal(got, arr.astype(np.float32).astype(np.float64))


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


def test_truncated_tensor_file_rejected(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    target = out / "gen.w.bin"
    target.write_bytes(target.read_bytes()[:-4])
    with pytest.raises(ShapeMismatchError):
        load_checkpoint(out)


def test_missing_tensor_file_rejected(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    (out / "gen.b.bin").unlink()
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

    # reference: the original generator with weights rounded to float32
    ref = gan.generator_from_checkpoint(ckpt)
    ref.params.load_arrays({k: v.astype(np.float32).astype(np.float64)
                            for k, v in ckpt.arrays.items() if k.startswith("gen.")})
    restored = gan.generator_from_checkpoint(loaded)
    noise = gan.sample_noise(3, 16, 2, np.random.default_rng(5))
    a = ref.forward(Tensor(noise.data.copy()))
    b = restored.forward(Tensor(noise.data.copy()))
    assert np.array_equal(a.data, b.data)


def _edit_manifest(out, edit):
    manifest = json.loads((out / "manifest.json").read_text())
    edit(manifest)
    (out / "manifest.json").write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["tensors", "model", "config", "seed", "iterations"])
def test_missing_manifest_key_is_io_error_naming_it(tmp_path, rng, key):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m.pop(key))
    with pytest.raises(IoError, match=f"'{key}'.*missing"):
        load_checkpoint(out)


@pytest.mark.parametrize("key,value", [
    ("tensors", []), ("model", 3), ("config", "lr=1"), ("seed", "7"),
    ("iterations", 1.5), ("seed", True), ("extras", [1]),
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
    "gen.w.bin", {"file": "gen.w.bin"}, {"shape": 12, "file": "gen.w.bin"},
    {"shape": [3, "4"], "file": "gen.w.bin"}, {"shape": [-3, -4], "file": "gen.w.bin"},
    {"shape": [3, True], "file": "gen.w.bin"}, {"shape": [3, 4]},
    {"shape": [3, 4], "file": 5},
])
def test_malformed_tensor_entry_is_io_error_naming_the_tensor(tmp_path, rng, meta):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m["tensors"].update({"gen.w": meta}))
    with pytest.raises(IoError, match="tensor 'gen.w'"):
        load_checkpoint(out)


@pytest.mark.parametrize("shape,size", [([3, 4], 44), ([2**62, 4], 0)],
                         ids=["truncated", "int64-overflow"])
def test_tensor_bytes_that_do_not_fill_the_shape_exit_3(tmp_path, rng, capsys, shape, size):
    # 2**62 * 4 * 4 bytes wraps to 0 in int64, which an empty file would match
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    _edit_manifest(out, lambda m: m["tensors"]["gen.w"].update({"shape": shape}))
    (out / "gen.w.bin").write_bytes(bytes(size))
    with pytest.raises(ShapeMismatchError, match="tensor gen.w"):
        load_checkpoint(out)
    assert cli.main(["generate", "--ckpt", str(out), "--count", "1",
                     "--out", str(tmp_path / "x.csv"), "--quiet"]) == cli.EXIT_DATA
    assert json.loads(capsys.readouterr().err)["error"] == "ShapeMismatchError"


@pytest.mark.parametrize("fname", ["../x.bin", "sub/gen.w.bin", "/tmp/x.bin", "..", ".", ""])
def test_tensor_file_outside_the_checkpoint_is_refused(tmp_path, rng, fname):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    (tmp_path / "x.bin").write_bytes((out / "gen.w.bin").read_bytes())
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


def test_existing_file_names_are_unchanged(tmp_path, rng):
    out = save_checkpoint(_ckpt(rng), tmp_path / "m")
    tensors = json.loads((out / "manifest.json").read_text())["tensors"]
    assert {n: t["file"] for n, t in tensors.items()} == \
        {"gen.w": "gen.w.bin", "disc/f": "disc_f.bin", "gen.b": "gen.b.bin"}


def test_two_names_sharing_one_file_are_refused_naming_both(tmp_path):
    ckpt = ModelCheckpoint(model="gan", config={}, seed=1, iterations=1,
                           arrays={"a/b": np.ones(2), "c": np.ones(1), "a_b": np.zeros(2)})
    with pytest.raises(IoError, match="'a/b' and 'a_b'.*a_b.bin"):
        save_checkpoint(ckpt, tmp_path / "m")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [1e39, -1e39, np.inf, -np.inf, np.nan])
def test_values_float32_cannot_hold_are_refused_naming_tensor_and_index(tmp_path, rng, value):
    arrays = {"gen.b": rng.standard_normal(3), "gen.w": rng.standard_normal((3, 4))}
    arrays["gen.w"][1, 2] = value
    arrays["gen.w"][2, 0] = value  # only the first bad flat index is reported
    ckpt = ModelCheckpoint(model="gan", config={}, seed=1, iterations=1, arrays=arrays)
    with pytest.raises(Float32RangeError, match="tensor 'gen.w'.*flat index 6 ") as exc:
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
