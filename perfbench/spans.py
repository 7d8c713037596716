"""Outside-in tracing of qgf: timing wrappers around each module's public calls.

Wrappers are installed on the attribute the caller looks up at call time
(``qgf.cli.save_checkpoint`` rather than ``qgf.checkpoint.save_checkpoint``,
because cli imported the name) and are removed again by ``Tracer.restore``.
Spans stay in memory as ``[name, start, end, parent, run_id]`` rows; the
exact counters (graph size, useful generator outputs) are taken by walking
the loss graph as each ``backward`` starts.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

MIB = float(1 << 20)
_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _malloc_trim():
    """glibc's malloc_trim, or a no-op where the C library has none."""
    trim = getattr(ctypes.CDLL(None), "malloc_trim", None)
    if trim is None:
        return lambda pad: 0
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def self_times(spans: list) -> list[float]:
    """Each span's duration minus its children's durations.

    Spans come from one thread's begin/end stack, so a span's children run
    one after another inside it.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def under(spans: list, root: str) -> list[bool]:
    """For each span, whether it runs inside a span named ``root``."""
    out: list[bool] = []
    for _, _, _, parent, _ in spans:  # a parent is always recorded before its children
        out.append(parent >= 0 and (spans[parent][0] == root or out[parent]))
    return out


class Tracer:
    """Span recorder plus the wrappers that feed it.

    With ``probe_rss`` the generator forward and ``backward`` wrappers also
    measure how much resident memory each call adds. That trims the heap
    first, so the call's pages fault in again inside its span; a tracer whose
    times are reported leaves it off.
    """

    def __init__(self, probe_rss: bool = False):
        self.probe_rss = probe_rss
        self.spans: list[list] = []
        self.run_id = -1
        self.iterations: dict[int, int] = {}  # run id -> training iterations of that command
        self._open: list[int] = []
        self._installed: list[tuple[object, str, object]] = []
        self._bilstm_order: dict[int, int] = {}
        self._pending_outputs: list[tuple[int, object]] = []
        self.graph_nodes: list[int] = []  # per backward inside gan.train_gan
        self.graph_bytes: list[int] = []
        self.gen_outputs = 0
        self.gen_useful = 0
        self.rss_delta: dict[str, list[int]] = defaultdict(list)
        self.ckpt_bytes: list[int] = []
        self._trim = _malloc_trim()

    # --- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run_id])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def begin_command(self, subcommand: str, iterations: int) -> int:
        """Open the span of one qgf command; its spans share a new run id."""
        self.run_id += 1
        self.iterations[self.run_id] = iterations
        return self.begin(f"cli.{subcommand}")

    def end_command(self, idx: int) -> None:
        self.end(idx)
        # generator outputs no backward reached by the end of a command were wasted
        self._pending_outputs.clear()
        self._bilstm_order.clear()

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "run_id")
        path.write_text("".join(json.dumps(dict(zip(keys, span))) + "\n" for span in self.spans))

    # --- wrappers ------------------------------------------------------------

    def _timed(self, fn, name, before=None, after=None, rss=False):
        rss = rss and self.probe_rss

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            rss0 = 0
            if before is not None or rss:
                probe = self.begin("trace.probe")
                if before is not None:
                    before(args)
                if rss:
                    # hand freed heap pages back first, so the delta counts the
                    # pages this call itself needed rather than reusing a warm heap
                    self._trim(0)
                    rss0 = rss_bytes()
                self.end(probe)
            idx = self.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if after is not None:
                after(args, result, rss_bytes() - rss0 if rss else 0)
            return result
        return wrapper

    def wrap(self, owner, attr: str, name, before=None, after=None, rss=False) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._installed.append((owner, attr, original))
        setattr(owner, attr, self._timed(original, name, before, after, rss))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def install(self, qgf) -> None:
        """Wrap every layer boundary the benchmark reports on."""
        cli, gan, nn, ad = qgf.cli, qgf.gan, qgf.nn, qgf.autodiff
        self.wrap(cli, "save_checkpoint", "checkpoint.save_checkpoint",
                  after=lambda a, r, d: self.ckpt_bytes.append(checkpoint_bytes(a[1])))
        self.wrap(cli, "load_checkpoint", "checkpoint.load_checkpoint",
                  after=lambda a, r, d: self.ckpt_bytes.append(checkpoint_bytes(a[0])))
        self.wrap(cli, "sha256_file", "ioutil.sha256_file")
        self.wrap(cli, "write_text_atomic", "ioutil.write_text_atomic")
        self.wrap(qgf.plotting, "write_text_atomic", "ioutil.write_text_atomic")
        self.wrap(qgf.plotting, "plot_series", "plotting.plot_series")
        self.wrap(gan, "train_gan", "gan.train_gan")
        self.wrap(gan.Generator, "forward", "gan.Generator.forward",
                  after=self._generator_output, rss=True)
        self.wrap(gan.Discriminator, "forward", "gan.Discriminator.forward")
        self.wrap(nn.BiLstmLayer, "__call__", self._bilstm_name)
        self.wrap(nn, "dropout", "nn.dropout")
        self.wrap(nn, "conv1d", "nn.conv1d")
        self.wrap(nn, "maxpool1d", "nn.maxpool1d")
        self.wrap(nn.Adam, "step", "nn.Adam.step")
        self.wrap(ad, "backward", "autodiff.backward", before=self._walk_graph,
                  after=lambda a, r, d: self._record_rss("autodiff.backward", d), rss=True)
        self.wrap(qgf.baselines, "train_baseline", "baselines.train_baseline")
        autoencoder = qgf.baselines.RecurrentAutoencoder
        self.wrap(autoencoder, "encode", "baselines.RecurrentAutoencoder.encode")
        self.wrap(autoencoder, "decode", "baselines.RecurrentAutoencoder.decode")
        self.wrap(qgf.metrics, "compare_sequences", "metrics.compare_sequences")
        self.wrap(qgf.metrics, "frechet_distance", "metrics.frechet_distance")
        self.wrap(qgf.market_data, "parse_csv", "market_data.parse_csv")
        self.wrap(qgf.market_data, "label_trend", "market_data.label_trend")
        self.wrap(qgf.indicators, "build_feature_matrix", "indicators.build_feature_matrix")
        self.wrap(qgf.features, "rfe", "features.rfe")
        self.wrap(qgf.features, "fit_logistic_probe", "features.fit_logistic_probe")
        self.wrap(qgf.features, "randomized_pca_fit", "features.randomized_pca_fit")

    def _bilstm_name(self, args) -> str:
        """l1 and l2 are told apart by call order inside one Generator.forward."""
        parent = self._open[-1] if self._open else -1
        if parent < 0 or self.spans[parent][0] != "gan.Generator.forward":
            return "nn.BiLstmLayer"
        order = self._bilstm_order.get(parent, 0) + 1
        self._bilstm_order[parent] = order
        return f"nn.BiLstmLayer.l{order}"

    def _record_rss(self, layer: str, delta: int) -> None:
        if self.probe_rss:
            self.rss_delta[layer].append(delta)

    def _generator_output(self, args, out, rss_delta: int) -> None:
        self._record_rss("gan.Generator.forward", rss_delta)
        self.gen_outputs += 1
        # hold the output's array, not the tensor, so its graph is freed as usual;
        # a match needs both the tensor's id and that exact array object
        self._pending_outputs.append((id(out), out.data))

    def _walk_graph(self, args) -> None:
        loss = args[0]
        seen: dict[int, object] = {}
        stack = [loss]
        nbytes = 0
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen[id(node)] = node
            nbytes += node.data.nbytes
            stack.extend(node._parents)
        if any(self.spans[i][0] == "gan.train_gan" for i in self._open):
            self.graph_nodes.append(len(seen))
            self.graph_bytes.append(nbytes)
        self.gen_useful += sum(1 for i, arr in self._pending_outputs
                               if i in seen and seen[i].data is arr)
        self._pending_outputs.clear()


def checkpoint_bytes(path) -> int:
    """Size of a checkpoint: its manifest plus the tensor files it lists."""
    manifest = Path(path) / "manifest.json"
    files = [t["file"] for t in json.loads(manifest.read_text())["tensors"].values()]
    return manifest.stat().st_size + sum((Path(path) / f).stat().st_size for f in files)


# --- per-layer metrics ----------------------------------------------------------

SUBCOMMANDS = ("train", "generate", "evaluate", "ingest", "indicators", "label",
               "select", "reduce")

TIMED = (
    ("gan.Generator.forward", "ms"), ("gan.Generator.forward", "calls"),
    ("nn.BiLstmLayer.l1", "ms"), ("nn.BiLstmLayer.l2", "ms"), ("nn.dropout", "ms"),
    ("gan.Discriminator.forward", "ms"),
    ("autodiff.backward", "ms"), ("autodiff.backward", "calls"),
    ("nn.Adam.step", "ms"), ("nn.conv1d", "ms"), ("nn.maxpool1d", "ms"),
    ("gan.train_gan", "ms"), ("gan.train_gan", "self_ms"),
    ("baselines.RecurrentAutoencoder.encode", "ms"),
    ("baselines.RecurrentAutoencoder.decode", "ms"),
    ("baselines.train_baseline", "self_ms"),
    ("metrics.frechet_distance", "ms"), ("metrics.frechet_distance", "calls"),
    ("metrics.compare_sequences", "self_ms"), ("plotting.plot_series", "ms"),
    ("checkpoint.save_checkpoint", "ms"), ("checkpoint.load_checkpoint", "ms"),
    ("ioutil.sha256_file", "ms"), ("ioutil.write_text_atomic", "ms"),
    ("market_data.parse_csv", "ms"), ("market_data.label_trend", "ms"),
    ("indicators.build_feature_matrix", "ms"), ("features.rfe", "ms"),
    ("features.fit_logistic_probe", "calls"), ("features.randomized_pca_fit", "ms"),
    *((f"cli.{sub}", "self_ms") for sub in SUBCOMMANDS),
)

UNITS = {"ms": "ms", "self_ms": "ms", "calls": "count"}


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tracer: Tracer, rss_delta: dict | None = None) -> dict[str, tuple[float, str]]:
    """Per-layer figures from the spans of the traced commands.

    Inside training commands a figure is per training iteration; elsewhere
    times are per call and call counts per command. A layer that runs inside
    ``gan.train_gan`` is counted only there, so the LSTM-VAE's iterations do
    not dilute the GAN's figures. Layers a workload does not exercise read 0.
    ``rss_delta`` comes from a tracer made with ``probe_rss``.
    """
    iterations = tracer.iterations
    self_ms = self_times(tracer.spans)
    in_gan = under(tracer.spans, "gan.train_gan")
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, span in enumerate(tracer.spans):
        by_name[span[0]].append(i)

    out: dict[str, tuple[float, str]] = {}
    for name, kind in TIMED:
        idx = by_name.get(name, [])
        idx = [i for i in idx if in_gan[i]] or idx
        runs = {tracer.spans[i][4] for i in idx}
        per_iter = sum(iterations.get(r, 0) for r in runs)
        if kind == "calls":
            total = float(len(idx))
            value = total / per_iter if per_iter else (total / len(runs) if runs else 0.0)
        else:
            durations = [self_ms[i] if kind == "self_ms" else
                         tracer.spans[i][2] - tracer.spans[i][1] for i in idx]
            total = 1e3 * sum(durations)
            value = total / per_iter if per_iter else (total / len(idx) if idx else 0.0)
        out[f"{name}.{kind}"] = (value, UNITS[kind])

    out["autodiff.graph_nodes"] = (_mean(tracer.graph_nodes), "count")
    out["autodiff.graph_mb"] = (_mean(tracer.graph_bytes) / MIB, "MB")
    out["gan.Generator.forward.useful_ratio"] = (
        tracer.gen_useful / tracer.gen_outputs if tracer.gen_outputs else 0.0, "ratio")
    for layer in ("gan.Generator.forward", "autodiff.backward"):
        deltas = (rss_delta or {}).get(layer, [])
        out[f"{layer}.rss_delta_mb"] = (max(deltas) / MIB if deltas else 0.0, "MB")
    out["checkpoint.bytes"] = (_mean(tracer.ckpt_bytes), "bytes")
    return out


def train_shares(tracer: Tracer) -> dict[str, float]:
    """Share of gan.train_gan time spent in the generator forward and in backward."""
    spans = tracer.spans
    in_gan = under(spans, "gan.train_gan")
    total = sum(s[2] - s[1] for s in spans if s[0] == "gan.train_gan")
    shares = {}
    for name in ("gan.Generator.forward", "autodiff.backward"):
        part = sum(s[2] - s[1] for i, s in enumerate(spans) if s[0] == name and in_gan[i])
        shares[name] = part / total if total else 0.0
    return shares
