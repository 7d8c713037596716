"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import itertools
import random

import pytest

from frechet_ref import frechet_1d
from spans import Tracer, checkpoint_bytes, layer_metrics, self_times, under
from worker import relative_time


def couplings(n: int, m: int):
    """Every monotone coupling of (0..n-1) x (0..m-1), as index-pair paths."""
    def extend(path):
        i, j = path[-1]
        if (i, j) == (n - 1, m - 1):
            yield path
            return
        for di, dj in ((1, 0), (0, 1), (1, 1)):
            if i + di < n and j + dj < m:
                yield from extend(path + [(i + di, j + dj)])
    yield from extend([(0, 0)])


def brute_force_frechet(p, q) -> float:
    return min(max(abs(p[i] - q[j]) for i, j in path) for path in couplings(len(p), len(q)))


@pytest.mark.parametrize("n,m", list(itertools.product(range(1, 5), range(1, 5))))
def test_reference_frechet_matches_enumeration(n, m):
    rng = random.Random(100 * n + m)
    for _ in range(5):
        p = [rng.uniform(-3, 3) for _ in range(n)]
        q = [rng.uniform(-3, 3) for _ in range(m)]
        assert frechet_1d(p, q) == brute_force_frechet(p, q)


def test_reference_frechet_known_values():
    assert frechet_1d([0.0], [2.5]) == 2.5
    assert frechet_1d([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]) == 0.0
    # p's middle points couple to q's nearer end, never to the far one
    assert frechet_1d([0.0, 1.0, 2.0, 3.0], [0.0, 3.0]) == 1.0
    with pytest.raises(ValueError):
        frechet_1d([], [1.0])


def test_self_time_subtracts_child_durations():
    # one command: train_gan runs two forwards then a backward; the second
    # forward calls two layers; a second command stands alone
    spans = [
        ["cli.train", 0.0, 10.0, -1, 0],
        ["gan.train_gan", 1.0, 9.0, 0, 0],
        ["gan.Generator.forward", 1.5, 3.0, 1, 0],
        ["gan.Generator.forward", 3.0, 6.0, 1, 0],
        ["nn.BiLstmLayer.l1", 3.5, 4.5, 3, 0],
        ["nn.BiLstmLayer.l2", 4.5, 5.5, 3, 0],
        ["autodiff.backward", 6.0, 8.5, 1, 0],
        ["cli.label", 20.0, 21.5, -1, 1],
    ]
    assert self_times(spans) == pytest.approx([2.0, 1.0, 1.5, 1.0, 1.0, 1.0, 2.5, 1.5])
    assert under(spans, "gan.train_gan") == [False, False, True, True, True, True, True, False]


def test_layer_metrics_normalise_per_iteration_and_per_call():
    tracer = Tracer()
    tracer.spans = [
        ["cli.train", 0.0, 1.0, -1, 0],
        ["autodiff.backward", 0.1, 0.3, 0, 0],
        ["autodiff.backward", 0.4, 0.6, 0, 0],
        ["cli.evaluate", 2.0, 3.0, -1, 1],
        ["metrics.frechet_distance", 2.0, 2.25, 3, 1],
        ["metrics.frechet_distance", 2.5, 2.75, 3, 1],
    ]
    tracer.iterations = {0: 2, 1: 0}
    m = layer_metrics(tracer)
    assert m["autodiff.backward.ms"][0] == pytest.approx(200.0)   # 400 ms over 2 iterations
    assert m["autodiff.backward.calls"][0] == 1.0
    assert m["cli.train.self_ms"][0] == pytest.approx(300.0)
    assert m["metrics.frechet_distance.ms"][0] == pytest.approx(250.0)   # per call
    assert m["metrics.frechet_distance.calls"][0] == 2.0                  # per command
    assert m["cli.evaluate.self_ms"][0] == pytest.approx(500.0)
    assert m["features.rfe.ms"][0] == 0.0


def test_layer_metrics_count_gan_layers_only_inside_train_gan():
    # GAN command: 2 iterations, 2 backward calls each; VAE command: 6
    # iterations, 1 backward each, which must not dilute the GAN's figures
    tracer = Tracer()
    tracer.spans = [["cli.train", 0.0, 10.0, -1, 0], ["gan.train_gan", 0.0, 10.0, 0, 0]]
    tracer.spans += [["autodiff.backward", k, k + 0.5, 1, 0] for k in range(4)]
    tracer.spans += [["cli.train", 20.0, 30.0, -1, 1],
                     ["baselines.train_baseline", 20.0, 30.0, 4 + 2, 1]]
    tracer.spans += [["autodiff.backward", 20 + k, 20.1 + k, 7, 1] for k in range(6)]
    tracer.iterations = {0: 2, 1: 6}
    m = layer_metrics(tracer)
    assert m["autodiff.backward.calls"][0] == 2.0
    assert m["autodiff.backward.ms"][0] == pytest.approx(1000.0)   # 2 s over 2 iterations
    assert m["baselines.train_baseline.self_ms"][0] == pytest.approx(10000 / 6 - 100)


def test_checkpoint_bytes_counts_manifest_and_tensors_only(tmp_path):
    (tmp_path / "w.bin").write_bytes(b"x" * 40)
    (tmp_path / "manifest.json").write_text('{"tensors": {"w": {"file": "w.bin"}}}')
    (tmp_path / "history.csv").write_text("iteration,loss\n" * 100)
    assert checkpoint_bytes(tmp_path) == 40 + len('{"tensors": {"w": {"file": "w.bin"}}}')


def test_memory_probe_only_in_a_probe_tracer():
    class Owner:
        def forward(self):
            return 1

    for probe_rss, expected in ((False, []), (True, [1])):
        tracer = Tracer(probe_rss)
        tracer.wrap(Owner, "forward", "owner.forward",
                    after=lambda a, r, d: tracer._record_rss("owner.forward", d), rss=True)
        Owner().forward()
        tracer.restore()
        assert len(tracer.rss_delta["owner.forward"]) == len(expected)


def test_relative_time_divides_each_command_by_its_neighbouring_references():
    # the host runs at full speed for the first command and half speed for
    # the second; the reference takes 0.1 s at full speed
    assert relative_time([1.0, 3.0], [0.1, 0.1, 0.2]) == pytest.approx(1.0 / 0.1 + 3.0 / 0.15)
    assert relative_time([], [0.1]) == 0.0


def test_wrappers_restore_the_original_attributes():
    class Owner:
        def method(self, x):
            return 2 * x

    original = Owner.__dict__["method"]
    tracer = Tracer()
    tracer.wrap(Owner, "method", "owner.method")
    assert Owner().method(3) == 6
    assert [s[0] for s in tracer.spans] == ["owner.method"]
    tracer.restore()
    assert Owner.__dict__["method"] is original
    assert tracer.spans[0][2] >= tracer.spans[0][1]


def test_benchmark_json_names_every_reported_metric():
    import json
    from pathlib import Path

    import run

    bench = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    traced = {k: u for k, (_, u) in layer_metrics(Tracer()).items()}
    traced.update({"trace.overhead_pct": "%", "src_lines": "lines"})
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == traced
