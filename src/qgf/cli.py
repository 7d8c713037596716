"""Command-line entry point: reproducible pipelines over the library.

Every subcommand runs numpy's OpenBLAS on one thread, restoring its count after, and writes
its outputs atomically plus a run manifest recording the flags, seed, input digests and
wall-clock duration. Exit codes: 0 ok, 2 usage, 3 data problem, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from . import baselines, features, gan, gradcheck, indicators, market_data, metrics, nn, plotting
from .checkpoint import check_replaceable, load_checkpoint, save_checkpoint
from .errors import (
    DataError,
    EmptyDatasetError,
    GradientCheckError,
    InvariantViolationError,
    MalformedHeaderError,
    NumericError,
    RowParseError,
    SeriesTooShortError,
)
from .ioutil import parse_floats, read_floats, sha256_file, write_text_atomic

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4
# the column ``indicators --label-horizon N`` appends; ``select`` and ``reduce`` skip it
LABEL_PREFIX = "label_n"


@dataclass
class RunManifest:
    """What ran, on what, with what seed; written next to every output."""

    subcommand: str
    args: dict[str, str]
    seed: int
    inputs: dict[str, str]
    outputs: list[str]
    tool_version: str = __version__
    duration_seconds: float = 0.0
    extras: dict = field(default_factory=dict)

    def write(self, path: Path) -> Path:
        return write_text_atomic(path, json.dumps(asdict(self), indent=2, sort_keys=True) + "\n")


def _manifest_path(out: Path, is_dir: bool) -> Path:
    if is_dir:
        return out / "run_manifest.json"
    return out.with_suffix(".manifest.json")


def _start(args: argparse.Namespace, inputs: list[Path]) -> tuple[RunManifest, float]:
    flags = {k: str(v) for k, v in vars(args).items() if k != "func" and v is not None}
    manifest = RunManifest(subcommand=args.subcommand, args=flags,
                           seed=getattr(args, "seed", 42),
                           inputs={str(p): sha256_file(p) for p in inputs},
                           outputs=[])
    return manifest, time.monotonic()


def _finish(manifest: RunManifest, t0: float, out: Path, is_dir: bool = False,
            quiet: bool = False, **extras) -> None:
    manifest.duration_seconds = round(time.monotonic() - t0, 6)
    manifest.extras.update(extras)
    manifest.outputs.append(str(out))
    mpath = manifest.write(_manifest_path(out, is_dir))
    if not quiet:
        print(f"wrote {out} (manifest {mpath})")


def _read_text(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _read_rows(path: Path, keyed: bool) -> tuple[list[str], list[str], np.ndarray]:
    """A comma-separated table of finite floats into (column names, dates, float
    matrix); blank lines are skipped. Keyed: a header whose first column is Date,
    then a date and the values on each row. Plain: no header, one sequence per row.
    The whole table is converted in one pass; only a table that pass refuses is read
    line by line, which accepts what ``float`` accepts and names the first bad line."""
    lines = _read_text(path).splitlines()
    header: list[str] = []
    if keyed:
        if not lines:
            raise MalformedHeaderError(f"{path} is empty")
        header = lines[0].split(",")
        if header[0] != "Date":
            raise MalformedHeaderError(f"{path}: first column must be Date, got {header[:1]}")
    start = 2 if keyed else 1
    body = [line for line in lines[start - 1:] if line.strip()]
    if not body:
        raise EmptyDatasetError(f"{path} holds no rows")
    width = len(header) or body[0].count(",") + 1
    table = read_floats(body, width, range(1 if keyed else 0, width))
    if table is not None:
        return header[1:], [line.split(",", 1)[0] for line in body] if keyed else [], table
    dates, rows = [], []
    for line_no, line in enumerate(lines[start - 1:], start=start):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != width:
            raise RowParseError(line_no, f"{path}: {len(cells)} fields, expected {width}")
        if keyed:
            dates.append(cells.pop(0))
        values = parse_floats(cells, line_no, f"{path}: ")
        if not all(map(math.isfinite, values)):
            raise RowParseError(line_no, f"{path}: non-finite value")
        rows.append(values)
    return header[1:], dates, np.array(rows, dtype=np.float64)


def _read_features(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    """A keyed feature table without its label columns."""
    names, dates, x = _read_rows(path, keyed=True)
    keep = [i for i, name in enumerate(names) if not name.startswith(LABEL_PREFIX)]
    return [names[i] for i in keep], dates, x.take(keep, axis=1)


def _write_rows(path: Path, values: np.ndarray, header: list[str] | None = None,
                keys: Iterable | None = None) -> None:
    """The table ``_read_rows`` reads: an optional header line, then each row of
    ``values`` as ``{v:.17g}`` fields, after its key when ``keys`` is given. Each
    row is formatted in one call, and ``%.17g`` writes the bytes ``{v:.17g}`` does."""
    rows = np.asarray(values, dtype=np.float64)
    fmt = ",".join(["%.17g"] * (rows.shape[1] if rows.ndim == 2 else 0))
    lines = [] if header is None else [",".join(header)]
    if keys is None:
        lines.extend(fmt % tuple(row.tolist()) for row in rows)
    else:
        fmt = "%s," + fmt
        lines.extend(fmt % (key, *row.tolist()) for key, row in zip(keys, rows))
    write_text_atomic(path, "\n".join(lines) + "\n")


def _load_series(args: argparse.Namespace) -> tuple[market_data.PriceSeries, list[Path]]:
    if getattr(args, "fetch_url", None):
        text = market_data.fetch_csv(args.fetch_url, args.symbol)
        return market_data.parse_csv(text, args.symbol), []
    path = Path(args.input)
    symbol = getattr(args, "symbol", None) or path.stem
    return market_data.parse_csv(_read_text(path), symbol), [path]


# --- subcommands ----------------------------------------------------------------


def cmd_ingest(args: argparse.Namespace) -> int:
    series, inputs = _load_series(args)
    manifest, t0 = _start(args, inputs)
    out = Path(args.out)
    write_text_atomic(out, market_data.serialize_csv(series))
    _finish(manifest, t0, out, quiet=args.quiet, bars=len(series),
            symbol=series.symbol, adj_close_imputed=series.adj_close_imputed)
    return 0


def cmd_indicators(args: argparse.Namespace) -> int:
    series, inputs = _load_series(args)
    manifest, t0 = _start(args, inputs)
    matrix = indicators.build_feature_matrix(series, args.vr_convention)
    header = ["Date", *matrix.feature_names]
    values = matrix.values
    if args.label_horizon is not None:
        # the label of bar i looks args.label_horizon bars ahead, so the last bars have none
        labels = market_data.label_trend(series, args.label_horizon)
        if len(labels) <= matrix.valid_from:
            raise SeriesTooShortError(
                f"--label-horizon {args.label_horizon} needs at least "
                f"{matrix.valid_from + args.label_horizon + 1} bars, got {len(series)}")
        header.append(f"{LABEL_PREFIX}{args.label_horizon}")
        values = np.column_stack([values[:len(labels)], labels.labels])
    keys = [d.isoformat() for d in series.dates[matrix.valid_from:len(values)]]
    out = Path(args.out)
    _write_rows(out, values[matrix.valid_from:], header, keys)
    _finish(manifest, t0, out, quiet=args.quiet, valid_from=matrix.valid_from,
            cap_flags={k: list(v) for k, v in matrix.cap_flags.items()})
    return 0


def cmd_label(args: argparse.Namespace) -> int:
    series, inputs = _load_series(args)
    manifest, t0 = _start(args, inputs)
    labels = market_data.label_trend(series, args.horizon)
    # stamp each label with the bar whose features predict it, n bars earlier
    out = Path(args.out)
    _write_rows(out, np.array(labels.labels)[:, None], ["Date", "label"],
                [d.isoformat() for d in series.dates[:len(labels)]])
    _finish(manifest, t0, out, quiet=args.quiet, horizon=args.horizon,
            positive=int(sum(labels.labels)), total=len(labels))
    return 0


def cmd_select(args: argparse.Namespace) -> int:
    f_path, l_path = Path(args.features), Path(args.labels)
    names, f_dates, x_all = _read_features(f_path)
    l_names, l_dates, y_all = _read_rows(l_path, keyed=True)
    if len(l_names) != 1:
        raise MalformedHeaderError(f"{l_path}: expected Date plus one label column")
    bad = np.flatnonzero((y_all[:, 0] != 0) & (y_all[:, 0] != 1))
    if bad.size:
        i = int(bad[0])
        raise InvariantViolationError(
            f"{l_path}: label {float(y_all[i, 0])!r} on {l_dates[i]} is not 0 or 1")
    manifest, t0 = _start(args, [f_path, l_path])

    by_date = {d: y_all[i, 0] for i, d in enumerate(l_dates)}
    keep_rows = [i for i, d in enumerate(f_dates) if d in by_date]
    if not keep_rows:
        raise InvariantViolationError("no dates shared between features and labels")
    x = x_all[keep_rows]
    y = np.array([by_date[f_dates[i]] for i in keep_rows])

    report = features.rfe(x, y.astype(int), keep=args.keep, feature_names=tuple(names))
    out = Path(args.out)
    write_text_atomic(out, json.dumps({
        "eliminated": list(report.eliminated),
        "survivors": list(report.survivors),
        "accuracies": list(report.accuracies),
        "rows": len(keep_rows),
    }, indent=2) + "\n")
    _finish(manifest, t0, out, quiet=args.quiet, survivors=list(report.survivors))
    return 0


def cmd_reduce(args: argparse.Namespace) -> int:
    f_path = Path(args.features)
    names, dates, x = _read_features(f_path)
    manifest, t0 = _start(args, [f_path])
    model = features.randomized_pca_fit(x, k=args.components,
                                        oversample=args.oversample, seed=args.seed)
    reduced = features.pca_transform(model, x)
    out = Path(args.out)
    _write_rows(out, reduced, ["Date", *(f"pc{i + 1}" for i in range(args.components))], dates)
    _finish(manifest, t0, out, quiet=args.quiet,
            explained=[float(v) for v in model.explained], columns=names)
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    data_path = Path(args.data)
    _, _, data = _read_rows(data_path, keyed=False)
    manifest, t0 = _start(args, [data_path])
    out = Path(args.out)
    check_replaceable(out, overwrite=True)  # before training, not after it
    seq_len = data.shape[1]
    train_config = gan.TrainConfig(epochs=args.epochs, batch_size=args.batch,
                                   lr=args.lr, seed=args.seed, d_steps=args.d_steps,
                                   g_loss_mode=args.g_loss)
    if args.model == "gan":
        # 3120 points and no --hidden train the paper's network, anything else the desk one
        paper = seq_len == 3120 and args.hidden is None
        hidden = (gan.GeneratorConfig() if paper else gan.GeneratorConfig.desk()).hidden
        gen_config = gan.GeneratorConfig(noise_dim=args.noise_dim, seq_len=seq_len,
                                         hidden=hidden if args.hidden is None else args.hidden,
                                         dropout_p=args.dropout)
        disc_config = gan.DiscriminatorConfig() if paper else gan.DiscriminatorConfig.desk(seq_len)
        ckpt, history = gan.train_gan(data, gen_config, disc_config, train_config)
    else:
        config = baselines.AeConfig(
            hidden=baselines.AeConfig.hidden if args.hidden is None else args.hidden,
            latent=args.latent, seq_len=seq_len)
        ckpt, history = baselines.train_baseline(args.model, data, config, train_config)

    save_checkpoint(ckpt, out, overwrite=True)
    _write_rows(out / "history.csv", np.column_stack([*history.values()]),
                ["iteration", *history], range(train_config.epochs))
    plotting.plot_series(history, out / "history.svg", title=f"{args.model} training loss")
    _finish(manifest, t0, out, is_dir=True, quiet=args.quiet, model=args.model,
            final_losses={n: float(v[-1]) for n, v in history.items()})
    return 0


def cmd_generate(args: argparse.Namespace) -> int:
    ckpt_path = Path(args.ckpt)
    ckpt = load_checkpoint(ckpt_path)
    manifest, t0 = _start(args, [ckpt_path / "manifest.json"])
    generator = gan.generator_from_checkpoint(ckpt)
    seq_len = generator.config.seq_len if args.length is None else args.length
    sequences = gan.generate_sequences(generator, count=args.count,
                                       seq_len=seq_len, seed=args.seed)
    out = Path(args.out)
    _write_rows(out, sequences)
    _finish(manifest, t0, out, quiet=args.quiet, count=args.count, length=seq_len)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    real_path, gen_path = Path(args.real), Path(args.generated)
    _, _, real = _read_rows(real_path, keyed=False)
    _, _, generated = _read_rows(gen_path, keyed=False)
    manifest, t0 = _start(args, [real_path, gen_path])
    report = metrics.compare_sequences(real, generated, pairing=args.pairing,
                                       real_id=str(real_path), generated_id=str(gen_path))
    out = Path(args.out)
    write_text_atomic(out, report.to_json())
    if args.plot:
        plotting.plot_series({"real": real[0], "generated": generated[0]},
                             Path(args.plot), title="first pair")
        manifest.outputs.append(str(args.plot))
    _finish(manifest, t0, out, quiet=args.quiet, metrics=report.metrics,
            undefined=list(report.undefined_flags))
    return 0


def cmd_gradcheck(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        raise InvariantViolationError(f"--seeds must be at least 1, got {args.seeds}")
    if not 0.0 <= args.tolerance < math.inf:
        raise InvariantViolationError(
            f"--tolerance must be finite and non-negative, got {args.tolerance}")
    manifest, t0 = _start(args, [])
    results = gradcheck.kernel_checks(seeds_per_kernel=args.seeds)
    failures = {k: v for k, v in results.items() if v > args.tolerance}
    out = Path(args.out)
    write_text_atomic(out, json.dumps({
        "tolerance": args.tolerance, "seeds_per_kernel": args.seeds,
        "max_relative_error": results,
        "passed": not failures,
    }, indent=2, sort_keys=True) + "\n")
    _finish(manifest, t0, out, quiet=True)
    for name in sorted(results):
        status = "FAIL" if name in failures else "ok"
        if not args.quiet:
            print(f"{name:16s} {results[name]:.3e}  {status}")
    if failures:
        raise GradientCheckError(f"{len(failures)} kernel(s) above {args.tolerance}: "
                                 f"{sorted(failures)}")
    return 0


# --- parser ----------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reads an argument that ``float`` parses, such as ``-1e-4`` or ``-inf``, as a value.
    argparse alone takes only forms like ``-1`` and ``-0.5`` for negative numbers and the
    rest for unknown options, so ``--lr -1e-3`` would end in a usage error instead of the
    check that names the flag."""

    def _parse_optional(self, arg_string):
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``qgf`` parser, built on the first call and shared by every later one, so
    ``main`` called over and over in one process builds it once. Parsing keeps no
    state on it; a caller that adds to it changes it for ``main`` too."""
    parser = _Parser(prog="qgf", description="Seeded financial time-series toolkit")
    parser.add_argument("--version", action="version", version=f"qgf {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=42, help="rng seed (default 42)")
    common.add_argument("--quiet", action="store_true", help="suppress progress lines")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("ingest", parents=[common], help="fetch/validate an OHLCV csv")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="local csv path")
    src.add_argument("--fetch-url", help="url template containing {symbol}")
    p.add_argument("--symbol", help="ticker symbol (default: input stem)")
    p.add_argument("--out", required=True, help="normalized csv path")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("indicators", parents=[common], help="compute the 16 feature columns")
    p.add_argument("--input", required=True)
    p.add_argument("--symbol")
    p.add_argument("--out", required=True, help="features csv path")
    p.add_argument("--label-horizon", type=int, help="append label_nN column")
    p.add_argument("--vr-convention", choices=["printed", "standard"], default="printed")
    p.set_defaults(func=cmd_indicators)

    p = sub.add_parser("label", parents=[common], help="binary up/down trend labels")
    p.add_argument("--input", required=True)
    p.add_argument("--symbol")
    p.add_argument("--horizon", type=int, required=True, help="lookback n in [1, 10]")
    p.add_argument("--out", required=True, help="labels csv path")
    p.set_defaults(func=cmd_label)

    p = sub.add_parser("select", parents=[common], help="recursive feature elimination")
    p.add_argument("--features", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--keep", type=int, required=True)
    p.add_argument("--out", required=True, help="report json path")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("reduce", parents=[common], help="randomized pca projection")
    p.add_argument("--features", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--oversample", type=int, default=5)
    p.add_argument("--out", required=True, help="reduced csv path")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("train", parents=[common], help="train the gan or a baseline")
    p.add_argument("--model", required=True,
                   choices=["gan", *baselines.BASELINE_KINDS])
    p.add_argument("--data", required=True, help="csv, one sequence per row")
    p.add_argument("--epochs", type=int, default=gan.TrainConfig.epochs)
    p.add_argument("--batch", type=int, default=gan.TrainConfig.batch_size)
    p.add_argument("--lr", type=float, default=gan.TrainConfig.lr)
    p.add_argument("--d-steps", type=int, default=gan.TrainConfig.d_steps)
    p.add_argument("--g-loss", choices=["printed", "nonsaturating"],
                   default=gan.TrainConfig.g_loss_mode)
    p.add_argument("--hidden", type=int, help="gan: generator cells; baselines: hidden")
    p.add_argument("--latent", type=int, default=baselines.AeConfig.latent,
                   help="baseline latent size")
    p.add_argument("--noise-dim", type=int, default=gan.GeneratorConfig.noise_dim)
    p.add_argument("--dropout", type=float, default=gan.GeneratorConfig.dropout_p)
    p.add_argument("--out", required=True, help="checkpoint directory")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("generate", parents=[common], help="sample sequences from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--len", type=int, dest="length", help="default: trained length")
    p.add_argument("--out", required=True, help="csv, one sequence per row")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("evaluate", parents=[common], help="distance metrics between sets")
    p.add_argument("--real", required=True)
    p.add_argument("--generated", required=True)
    p.add_argument("--pairing", choices=["paired", "concatenated"], default="paired",
                   help="paired (default): row i against row i. concatenated: one "
                        "Frechet distance over all rows joined, whose time grows with "
                        "(rows x length)^2: minutes at 200x1024, where paired takes seconds")
    p.add_argument("--plot", help="optional svg overlay of the first pair")
    p.add_argument("--out", required=True, help="report json path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("gradcheck", parents=[common], help="finite-difference kernel checks")
    p.add_argument("--seeds", type=int, default=5, help="random trials per kernel")
    p.add_argument("--tolerance", type=float, default=gradcheck.TOLERANCE)
    p.add_argument("--out", default="gradcheck.json", help="report json path")
    p.set_defaults(func=cmd_gradcheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with nn.one_blas_thread():  # the one-thread bytes, whatever BLAS's count
            return args.func(args)
    except (NumericError, DataError, MemoryError) as exc:
        name = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
        return EXIT_DATA if isinstance(exc, DataError) else EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
