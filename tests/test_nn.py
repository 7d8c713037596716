import json
import os
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import float_bits
from oracles import (concat, oracle_adam_step, oracle_bilstm, oracle_flip, oracle_step,
                     oracle_unroll, oracle_zero_state)

from qgf import autodiff as ad, nn
from qgf.autodiff import Tensor
from qgf.errors import (
    EmptySequenceError,
    FilterLargerThanInputError,
    InvalidProbabilityError,
    NonFiniteLossError,
    ShapeMismatchError,
)

# numpy's floating-point warnings (overflow, invalid) mean a kernel read or made a bad value
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


def test_paramset_rejects_duplicates_and_tracks_counts():
    pset = nn.ParamSet()
    pset.add("w", np.ones((2, 3)))
    with pytest.raises(ValueError):
        pset.add("w", np.ones(1))
    pset.add("b", np.zeros(3))
    assert pset.names() == ["w", "b"]


def test_paramset_load_arrays_validates_names_and_shapes():
    pset = nn.ParamSet()
    pset.add("w", np.ones((2, 2)))
    with pytest.raises(ShapeMismatchError):
        pset.load_arrays({"other": np.ones((2, 2))})
    with pytest.raises(ShapeMismatchError):
        pset.load_arrays({"w": np.ones((3, 2))})
    pset.load_arrays({"w": np.full((2, 2), 7.0)})
    assert np.array_equal(pset["w"].data, np.full((2, 2), 7.0))


def test_xavier_limits_follow_fan_rules():
    rng = np.random.default_rng(0)
    w = nn.xavier_uniform(rng, (40, 60))
    limit = np.sqrt(6.0 / 100.0)
    assert np.abs(w).max() <= limit
    # 3-D conv filters: fan_in = in_channels * width, fan_out = out_channels * width
    f = nn.xavier_uniform(rng, (10, 1, 120))
    limit = np.sqrt(6.0 / (1 * 120 + 10 * 120))
    assert np.abs(f).max() <= limit


def test_conv_out_size_formula():
    # the paper's chain C1 -> P1 -> C2 -> P2 over 3120 points
    assert nn.conv_out_size(3120, 120, 5) == 601
    assert nn.conv_out_size(601, 46, 3) == 186
    assert nn.conv_out_size(186, 36, 3) == 51
    assert nn.conv_out_size(51, 24, 3) == 10


def test_layer_geometry_rejects_oversized_filter():
    with pytest.raises(FilterLargerThanInputError, match="filter 5 exceeds input 4"):
        nn.conv_out_size(4, 5, 1)
    assert nn.conv_out_size(4, 4, 1) == 1
    with pytest.raises(ValueError):
        nn.conv_out_size(4, 2, 0)


def test_dense_affine_identity():
    pset = nn.ParamSet()
    layer = nn.Dense(pset, "d", 3, 2, np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 3))
    out = layer(Tensor(x))
    assert np.allclose(out.data, x @ pset["d.w"].data + pset["d.b"].data)
    with pytest.raises(ShapeMismatchError):
        layer(Tensor(np.ones((4, 4))))


CELLS = {"rnn": nn.RNNCell, "lstm": nn.LSTMCell}


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_cell_zero_weights_keep_zero_state(kind):
    pset = nn.ParamSet()
    cell = CELLS[kind](pset, "c", 3, 4, np.random.default_rng(0))
    for t in pset.tensors():
        t.data[:] = 0.0
    # an lstm's gates all read sigmoid(0)=0.5 and its candidate tanh(0)=0, so c stays 0
    hs = nn.unroll(cell, Tensor(np.ones((2, 5, 3))))
    assert np.array_equal(hs.data, np.zeros((2, 5, 4)))


def test_lstm_cell_forget_gate_scales_carry():
    pset = nn.ParamSet()
    cell = nn.LSTMCell(pset, "c", 1, 1, np.random.default_rng(0))
    # step 0 writes c = tanh(1) through open input and output gates (x = 1 lifts the
    # input gate's bias from -40 to 40); after it the forget gate holds c and the
    # input gate stays shut, so h = tanh(tanh(1)) at every step
    pset["c.w_x"].data[:] = np.array([[80.0, 0.0, 1.0, 0.0]])
    pset["c.w_h"].data[:] = 0.0
    pset["c.b"].data[:] = np.array([-40.0, 40.0, 0.0, 40.0])
    hs = nn.unroll(cell, Tensor(np.array([1.0, 0.0, 0.0, 0.0]).reshape(1, 4, 1)))
    np.testing.assert_allclose(hs.data, np.full((1, 4, 1), np.tanh(np.tanh(1.0))), rtol=1e-15)


def test_unroll_gates_past_the_exp_overflow_are_exactly_zero_without_warnings():
    pset = nn.ParamSet()
    cell = nn.LSTMCell(pset, "c", 1, 1, np.random.default_rng(0))
    # the input gate's pre-activation is -1000, below exp's overflow at -709, while the
    # candidate is tanh(1) and the other gates are open: c and h stay 0 only if the input
    # gate is exactly 0, not a denormal
    pset["c.w_x"].data[:] = 0.0
    pset["c.w_h"].data[:] = 0.0
    pset["c.b"].data[:] = np.array([-1000.0, 40.0, 1.0, 40.0])
    for steps in (5, nn.SEGMENT + 3):  # the second, in two segments, replays the first
        seq = Tensor(np.ones((2, steps, 1)), requires_grad=True)
        pset.zero_grad()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hs = nn.unroll(cell, seq)
            ad.backward(ad.tensor_sum(hs))
        assert np.array_equal(hs.data, np.zeros((2, steps, 1)))
        assert pset["c.b"].grad[0] == 0.0


def _cell_and_sequence(kind):
    rng = np.random.default_rng(4)
    pset = nn.ParamSet()
    cell = CELLS[kind](pset, "c", 3, 4, rng)
    return cell, Tensor(rng.standard_normal((2, 5, 3)))


def _unroll(cell, seq, reverse, h0=None):
    """``nn.unroll``, or with ``reverse`` the backward direction as ``oracle_bilstm``
    builds it: unrolled over the time-flipped sequence and flipped back."""
    if not reverse:
        return nn.unroll(cell, seq, h0=h0)
    return oracle_flip(nn.unroll(cell, oracle_flip(seq), h0=h0))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_matches_a_manual_step_loop_in_time_order(kind, reverse):
    cell, seq = _cell_and_sequence(kind)
    state = oracle_zero_state(cell, 2)
    manual = {}
    for t in (range(4, -1, -1) if reverse else range(5)):
        state = oracle_step(cell, Tensor(seq.data[:, t, :]), state)
        manual[t] = state[0].data
    hs = _unroll(cell, seq, reverse)
    assert hs.shape == (2, 5, 4)
    assert all(np.array_equal(hs.data[:, t], manual[t]) for t in range(5))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_gradients_match_a_manual_step_loop(kind, reverse):
    cell, seq = _cell_and_sequence(kind)
    seq.requires_grad = True
    tensors = {"w_x": cell.w_x, "w_h": cell.w_h, "b": cell.b, "seq": seq}
    weights = np.random.default_rng(5).standard_normal((2, 5, 4))

    def grads(build_loss):
        for t in tensors.values():
            t.grad = None
        ad.backward(build_loss())
        return {name: t.grad for name, t in tensors.items()}

    def manual_loss():
        state, loss = oracle_zero_state(cell, 2), 0.0
        for t in (range(4, -1, -1) if reverse else range(5)):
            state = oracle_step(cell, ad.select(seq, 1, t), state)
            loss = ad.add(loss, ad.tensor_sum(ad.mul(state[0], weights[:, t])))
        return loss

    fused = grads(lambda: ad.tensor_sum(ad.mul(_unroll(cell, seq, reverse), weights)))
    manual = grads(manual_loss)
    for name in tensors:
        np.testing.assert_allclose(fused[name], manual[name], rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_from_h0_matches_a_manual_step_loop(kind, reverse):
    cell, seq = _cell_and_sequence(kind)
    seq.requires_grad = True
    rng = np.random.default_rng(6)
    h0 = Tensor(rng.standard_normal((2, 4)), requires_grad=True)
    tensors = {"w_x": cell.w_x, "w_h": cell.w_h, "b": cell.b, "seq": seq, "h0": h0}
    weights = rng.standard_normal((2, 5, 4))
    times = range(4, -1, -1) if reverse else range(5)

    def run(build_hs):
        for t in tensors.values():
            t.grad = None
        hs = build_hs()
        ad.backward(ad.tensor_sum(ad.mul(hs, weights)))
        return hs.data, {name: t.grad for name, t in tensors.items()}

    def manual_hs():
        state, hs = (h0,) + oracle_zero_state(cell, 2)[1:], {}  # h from h0, an LSTM's c from zero
        for t in times:
            state = oracle_step(cell, ad.select(seq, 1, t), state)
            hs[t] = ad.reshape(state[0], (2, 1, 4))
        return concat([hs[t] for t in range(5)], axis=1)

    fused_hs, fused = run(lambda: _unroll(cell, seq, reverse, h0=h0))
    manual_out, manual = run(manual_hs)
    np.testing.assert_allclose(fused_hs, manual_out, rtol=1e-12)
    assert not np.array_equal(fused_hs, _unroll(cell, seq, reverse).data)
    for name in tensors:
        np.testing.assert_allclose(fused[name], manual[name], rtol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_at_its_input_width_matches_the_step_loop_over_four_segments(monkeypatch, kind):
    """With n_in == hidden and a tracked seq, BPTT writes dx over the rows of g it has read
    and hands them to seq uncopied, and an LSTM replays three of its four segments: h is
    the step loop's bit for bit, and every gradient matches it."""
    batch = 2
    monkeypatch.setattr(nn, "SEGMENT", 3)
    rng = np.random.default_rng(21)
    pset = nn.ParamSet()
    cell = CELLS[kind](pset, "c", 4, 4, rng)
    steps = 3 * nn.SEGMENT + 2
    assert len(nn.blocks(steps, nn.SEGMENT)) == 4
    seq = Tensor(rng.standard_normal((batch, steps, 4)), requires_grad=True)
    tensors = {"w_x": cell.w_x, "w_h": cell.w_h, "b": cell.b, "seq": seq}
    weights = rng.standard_normal((batch, steps, 4))

    def run(build_hs):
        for t in tensors.values():
            t.grad = None
        hs = build_hs()
        ad.backward(ad.tensor_sum(ad.mul(hs, weights)))
        return hs.data, {name: t.grad for name, t in tensors.items()}

    def manual_hs():
        state, hs = oracle_zero_state(cell, batch), []
        for t in range(steps):
            state = oracle_step(cell, ad.select(seq, 1, t), state)
            hs.append(ad.reshape(state[0], (batch, 1, 4)))
        return concat(hs, axis=1)

    fused_hs, fused = run(lambda: nn.unroll(cell, seq))
    manual_out, manual = run(manual_hs)
    assert np.array_equal(fused_hs, manual_out)
    for name in tensors:
        np.testing.assert_allclose(fused[name], manual[name], rtol=1e-12, err_msg=name)


def test_unroll_rejects_an_h0_of_the_wrong_shape():
    cell, seq = _cell_and_sequence("lstm")
    for shape in [(2, 3), (3, 4), (4,), (2, 4, 1)]:
        with pytest.raises(ShapeMismatchError):
            nn.unroll(cell, seq, h0=Tensor(np.zeros(shape)))


def test_unroll_rejects_non_sequences_and_empty_ones():
    cell, _ = _cell_and_sequence("rnn")
    with pytest.raises(ShapeMismatchError):
        nn.unroll(cell, Tensor(np.zeros((2, 3))))
    with pytest.raises(EmptySequenceError):
        nn.unroll(cell, Tensor(np.zeros((2, 0, 3))))


@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_rejects_a_feature_width_the_cell_does_not_take(kind):
    cell, _ = _cell_and_sequence(kind)
    with pytest.raises(ShapeMismatchError):
        nn.unroll(cell, Tensor(np.zeros((2, 5, 2))))


def test_input_gemms_run_per_segment_and_never_on_one_row(monkeypatch):
    monkeypatch.setattr(nn, "SEGMENT", 3)
    matmul, rows = np.matmul, []

    def spy(a, b, **kwargs):
        if "out" in kwargs and a.ndim == 2:  # the forward's only 2-D product into a buffer is
            # the input GEMM; the steps' h @ w_h take (directions, batch, hidden) operands
            rows.append(a.shape[0])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    cell = nn.RNNCell(nn.ParamSet(), "c", 2, 3, np.random.default_rng(0))
    # (batch, steps): rows of each segment's GEMM; segments within one step of each other
    # leave no one-step segment, and a one-step sequence is one row as it is unsegmented
    for (batch, steps), want in {(2, 7): [4, 4, 6], (1, 7): [2, 2, 3], (1, 8): [2, 3, 3],
                                 (1, 1): [1]}.items():
        rows.clear()
        with ad.no_grad():
            nn.unroll(cell, Tensor(np.zeros((batch, steps, 2))))
        assert rows == want, (batch, steps)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_blocks_are_the_fewest_and_within_one_step_of_each_other():
    for most in range(3, 71):
        for total in range(1, 401):
            parts = nn.blocks(total, most)
            covered = [t for first, n in parts for t in range(first, first + n)]
            assert covered == list(range(total)), (total, most)
            lengths = {n for _, n in parts}
            assert max(lengths) <= most and max(lengths) - min(lengths) <= 1
            assert len(parts) == -(-total // most)
            assert total == 1 or 1 not in lengths, (total, most)


def test_blocks_refuse_a_bound_that_may_leave_one_row(monkeypatch):
    for total, most in ((3, 2), (2, 1), (1, 0), (5, -1)):
        with pytest.raises(ValueError):
            nn.blocks(total, most)
    assert nn.blocks(2, 2) == [(0, 2)] and nn.blocks(1, 1) == [(0, 1)]
    # segments of 2 would split 3 steps into 1 + 2, a one-row GEMM at batch 1
    monkeypatch.setattr(nn, "SEGMENT", 2)
    cell = nn.LSTMCell(nn.ParamSet(), "c", 3, 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        nn.unroll(cell, Tensor(np.zeros((1, 3, 3))))


@pytest.mark.parametrize("segment", [3, 4, 5, 20])
@pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm"])
def test_segment_length_changes_no_bit(monkeypatch, model, segment):
    """Values and every gradient equal, bit for bit, those of the same run in one segment:
    with and without h0, and for both directions of a BiLSTM, at batch 1 and 2, for
    T = 1, S - 1, S, S + 1 and 3S + 2. At S = 20 a replayed segment takes its h @ w_h in
    blocks of up to ``REPLAY_BLOCK`` steps (a step at a time at batch 1)."""
    for batch in (1, 2):
        for steps in sorted({1, segment - 1, segment, segment + 1, 3 * segment + 2}):
            rng = np.random.default_rng(batch * 100 + steps)
            pset = nn.ParamSet()
            seq = Tensor(rng.standard_normal((batch, steps, 3)), requires_grad=True)
            h0 = Tensor(rng.standard_normal((batch, 4)), requires_grad=True)
            if model == "bilstm":
                layer = nn.BiLstmLayer(pset, "bi", 3, 4, 5, rng)
                runs = [(lambda: layer(seq), ())]
            else:
                cell = CELLS[model](pset, "c", 3, 4, rng)
                runs = [(lambda h=h: nn.unroll(cell, seq, h0=h), () if h is None else (h,))
                        for h in (None, h0)]
            for build, extra in runs:
                tensors = [*pset.tensors(), seq, *extra]

                def run():
                    for t in tensors:
                        t.grad = None
                    out = build()
                    weights = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
                    ad.backward(ad.tensor_sum(ad.mul(out, weights)))
                    return [out.data, *(t.grad for t in tensors)]

                monkeypatch.setattr(nn, "SEGMENT", segment)
                segmented = run()
                monkeypatch.setattr(nn, "SEGMENT", steps)
                whole = run()
                assert all(map(_bitwise_equal, segmented, whole)), (batch, steps, extra)


@pytest.mark.parametrize("n_in", [3, 1])
@pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm"])
def test_block_weight_gradients_match_the_per_step_bptt(model, n_in):
    """BPTT's weight gradients, each summed from one product per block of ``REPLAY_BLOCK``
    steps, match the per-step BPTT's within 1e-12 of each array's largest entry, as do the
    output, seq's and h0's grads: with and without h0, at batch 1 and 2, for T = 1, 7, 9
    (one block and a one-step block) and 3S + 2, and at n_in = 1, whose x.T @ dz is a GEMV.
    The bound is relative to the array, not the entry: a sum of ~10-sized terms that cancels
    to 1e-3 is 1e-12 off its own size after a last-bit change to one term."""
    for batch in (1, 2):
        for steps in (1, 7, 9, 3 * nn.SEGMENT + 2):
            rng = np.random.default_rng(batch * 1000 + steps * 10 + n_in)
            pset = nn.ParamSet()
            seq = Tensor(rng.standard_normal((batch, steps, n_in)), requires_grad=True)
            h0 = Tensor(rng.standard_normal((batch, 4)), requires_grad=True)
            if model == "bilstm":
                layer = nn.BiLstmLayer(pset, "bi", n_in, 4, 5, rng)
                runs = [(layer, lambda s: oracle_bilstm(layer, s, unroll=oracle_unroll), ())]
            else:
                cell = CELLS[model](pset, "c", n_in, 4, rng)
                runs = [(lambda s, h=h: nn.unroll(cell, s, h0=h),
                         lambda s, h=h: oracle_unroll(cell, s, h0=h), () if h is None else (h,))
                        for h in (None, h0)]
            for build, oracle, extra in runs:
                tensors = [*pset.tensors(), seq, *extra]
                weights = rng.standard_normal((batch, steps, 5 if model == "bilstm" else 4))

                def run(make):
                    for t in tensors:
                        t.grad = None
                    out = make(seq)
                    ad.backward(ad.tensor_sum(ad.mul(out, weights)))
                    return [out.data, *(t.grad for t in tensors)]

                for got, want in zip(run(build), run(oracle)):
                    np.testing.assert_allclose(got, want, rtol=1e-12,
                                               atol=1e-12 * np.abs(want).max(),
                                               err_msg=(batch, steps, extra))


def _bilstm_bits(layer, pset, seq):
    """Output, ``seq.grad`` and every parameter grad of one forward and weighted backward."""
    tensors = [*pset.tensors(), seq]
    for t in tensors:
        t.grad = None
    out = layer(seq)
    weights = np.linspace(-1.0, 1.0, out.data.size).reshape(out.shape)
    ad.backward(ad.tensor_sum(ad.mul(out, weights)))
    return [out.data, *(t.grad for t in tensors)]


def _both_schedules(monkeypatch, layer, pset, seq):
    """``_bilstm_bits`` with the directions in lockstep, then on a thread each, switching
    threads as often as the interpreter can."""
    on_threads, tasks = nn._on_threads, []
    monkeypatch.setattr(nn, "_on_threads", lambda *t: tasks.append(len(t)) or on_threads(*t))
    width = seq.shape[0] * layer.fwd.hidden
    runs, interval = [], sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for threaded, lanes in ((width + 1, 1), (width, 2)):  # just past the cut-over, then at it
            monkeypatch.setattr(nn, "THREADED", threaded)
            runs.append(_bilstm_bits(layer, pset, seq))
            assert tasks == [lanes, lanes], threaded  # the forward, then the replay and BPTT
            tasks.clear()
    finally:
        sys.setswitchinterval(interval)
    return runs


@pytest.mark.parametrize("batch", [1, 3])
def test_thread_schedule_changes_no_bit(monkeypatch, batch):
    """A BiLSTM layer's output, seq.grad and every parameter grad are the same bits whether
    its directions step in lockstep or each on its own thread, for T = S - 1 (one segment),
    S + 1 and 3S + 2 (whose BPTT replays earlier segments)."""
    for steps in (nn.SEGMENT - 1, nn.SEGMENT + 1, 3 * nn.SEGMENT + 2):
        rng = np.random.default_rng(batch * 1000 + steps)
        pset = nn.ParamSet()
        layer = nn.BiLstmLayer(pset, "bi", 3, 4, 5, rng)
        seq = Tensor(rng.standard_normal((batch, steps, 3)), requires_grad=True)
        stacked, threaded = _both_schedules(monkeypatch, layer, pset, seq)
        assert len(stacked) == 1 + 9 + 1  # out, nine parameters, seq
        assert all(map(_bitwise_equal, stacked, threaded)), (batch, steps)


def test_threaded_directions_ignore_exp_overflow_on_their_own(monkeypatch):
    """numpy's errstate is context-local, so each direction's thread sets its own: gate
    pre-activations below exp's overflow at -709 make no warning and no error on either
    schedule, even for a caller that makes overflow an error, and the same bits."""
    rng = np.random.default_rng(13)
    pset = nn.ParamSet()
    layer = nn.BiLstmLayer(pset, "bi", 2, 3, 4, rng)
    for cell in (layer.fwd, layer.bwd):
        cell.b.data[:cell.hidden] = -1000.0  # the input gate
    seq = Tensor(rng.standard_normal((2, nn.SEGMENT + 3, 2)), requires_grad=True)
    with warnings.catch_warnings(), np.errstate(over="raise"):
        warnings.simplefilter("error")
        stacked, threaded = _both_schedules(monkeypatch, layer, pset, seq)
    assert all(map(_bitwise_equal, stacked, threaded))
    assert np.all(np.isfinite(stacked[0]))


def test_on_threads_returns_in_task_order_once_all_end_and_reraises_a_failure():
    assert nn._on_threads(lambda: 1) == [1]
    caller, worker = nn._on_threads(threading.get_ident, threading.get_ident)
    assert caller == threading.get_ident() != worker
    with np.errstate(invalid="raise"):  # a worker starts in the caller's context
        assert nn._on_threads(np.geterr, np.geterr) == [np.geterr()] * 2
    ended = []

    def slow():
        time.sleep(0.05)
        ended.append(threading.get_ident())

    def fail(message):
        raise ZeroDivisionError(message)

    with pytest.raises(ZeroDivisionError, match="worker"):
        nn._on_threads(slow, lambda: fail("worker"))
    with pytest.raises(ZeroDivisionError, match="caller"):  # raised once the worker has ended
        nn._on_threads(lambda: fail("caller"), slow)
    assert len(ended) == 2
    with pytest.raises(ZeroDivisionError, match="first"):
        nn._on_threads(lambda: fail("first"), lambda: fail("second"))


# prints what BLAS's thread count reads at each point, in a process started with two
_BLAS_OWNER_CHECK = """
import json, sys
from qgf import cli, metrics, nn
get, seen = nn._get_blas_threads, []
seen.append(get())
with nn.one_blas_thread():
    with nn.one_blas_thread():
        seen.append(get())
    seen.append(get())
seen += [get(), *nn._on_threads(get, get), get()]
compare = metrics.compare_sequences
metrics.compare_sequences = lambda *a, **k: seen.append(get()) or compare(*a, **k)
evaluate = ["evaluate", "--generated", sys.argv[1], "--out", sys.argv[2], "--quiet", "--real"]
seen += [cli.main(evaluate + [sys.argv[1]]), get(), cli.main(evaluate + ["missing.csv"]), get()]
def called(*args):
    raise AssertionError("called")
nn._get_blas_threads, nn._set_blas_threads = called, None  # as where qgf cannot set them
with nn.one_blas_thread():
    seen += [get(), *nn._on_threads(get, get)]
seen += [cli.main(evaluate + [sys.argv[1]]), get()]
print(json.dumps(seen))
"""


@pytest.mark.skipif(nn._set_blas_threads is None, reason="qgf cannot set this BLAS's threads")
def test_one_blas_thread_holds_blas_at_one_and_restores_its_count(tmp_path):
    """In a process started with two BLAS threads, BLAS reads one inside ``one_blas_thread``,
    nested or not, in both tasks of ``_on_threads`` and inside a ``cli.main`` command, and
    reads its count again after each, after a command that exits 3 too. Where qgf cannot set
    BLAS's threads, it calls nothing and BLAS keeps its count."""
    rows = tmp_path / "rows.csv"
    rows.write_text("1,2,3,4\n2,3,1,0\n")
    src = str(Path(nn.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _BLAS_OWNER_CHECK, str(rows),
                           str(tmp_path / "report.json")], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout)
    n = seen[0]  # OpenBLAS takes no more threads than the process has CPUs
    assert n == 2 or nn._CPUS == 1
    assert seen == [n, 1, 1, n, 1, 1, n, 1, 0, n, 3, n, n, n, n, n, 0, n]


# thread A enters one_blas_thread, B enters, A leaves, B reads; then both have left. Then
# eight threads enter and leave it 200 times each, switching every 10 us, and each reads
# inside its block and records what it read
_BLAS_OVERLAP_CHECK = """
import json, sys, threading
from qgf import nn
get, seen, stress = nn._get_blas_threads, [], []
a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
def a():
    with nn.one_blas_thread():
        a_in.set()
        b_in.wait(30)
        seen.append(get())
    a_out.set()
def b():
    a_in.wait(30)
    with nn.one_blas_thread():
        b_in.set()
        a_out.wait(30)
        seen.append(get())
def churn():
    for _ in range(200):
        with nn.one_blas_thread():
            stress.append(get())
def run(*targets):
    threads = [threading.Thread(target=f) for f in targets]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    return not any(t.is_alive() for t in threads)
done = run(a, b)
seen.append(get())
interval = sys.getswitchinterval()
sys.setswitchinterval(1e-5)
try:
    done = run(*[churn] * 8) and done
finally:
    sys.setswitchinterval(interval)
print(json.dumps([done, seen, sorted(set(stress)), len(stress), get()]))
"""


@pytest.mark.skipif(nn._set_blas_threads is None, reason="qgf cannot set this BLAS's threads")
def test_one_blas_thread_holds_blas_at_one_while_any_thread_is_inside():
    """Two threads' blocks overlap: the first to leave restores nothing while the other is
    still inside, and the last to leave restores the count the process started with. Eight
    threads entering and leaving at once each read one thread inside every block."""
    src = str(Path(nn.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _BLAS_OVERLAP_CHECK], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    finished, seen, inside, blocks, after = json.loads(done.stdout)
    assert finished
    assert seen[:2] == [1, 1]
    assert seen[2] == after == 2 or nn._CPUS == 1  # OpenBLAS takes no more threads than CPUs
    assert inside == [1] and blocks == 8 * 200


# prints every (n_in, 4H, batch, what, step) whose rows differ from the full product's
_GEMM_ROWS_CHECK = """
import numpy as np
rng = np.random.default_rng(0)
steps, seg = 29, 7  # segments of 7, 7, 7, 7 and a remainder of 1 step
for n_in in (4, 5, 16, 90):
    for gates in (64, 360):
        w_x = rng.standard_normal((n_in, gates))
        for batch in (2, 32):
            seq = rng.standard_normal((batch, steps, n_in))
            full = (seq.reshape(-1, n_in) @ w_x).reshape(batch, steps, gates)
            for t in range(0, steps, seg):
                part = seq[:, t:t + seg]
                rows = (part.reshape(-1, n_in) @ w_x).reshape(*part.shape[:2], gates)
                if not np.array_equal(rows, full[:, t:t + seg]):
                    print(n_in, gates, batch, "segment", t)
                # as the recurrence projects: step-major rows, each direction in step order
                for what, o in (("forward", slice(None)), ("reversed", slice(None, None, -1))):
                    part = np.ascontiguousarray(seq[:, o][:, t:t + seg].transpose(1, 0, 2))
                    rows = np.empty((part.shape[0] * batch, gates))
                    np.matmul(part.reshape(-1, n_in), w_x, out=rows)
                    if not np.array_equal(rows.reshape(-1, batch, gates),
                                          full[:, o][:, t:t + seg].transpose(1, 0, 2)):
                        print(n_in, gates, batch, what, "step-major segment", t)
            for t in range(steps):
                if not np.array_equal(seq[:, t] @ w_x, full[:, t]):
                    print(n_in, gates, batch, "step", t)
"""


def test_input_gemm_rows_are_bitwise_equal_per_segment_and_per_step():
    """Rows of the hoisted (B*T, n_in) @ w_x input projection equal, bit for bit, the
    same rows computed per segment of steps and per step, with one and with two BLAS
    threads, so a recurrence may project its input one segment at a time: batch-major,
    and step-major as ``nn._recur`` copies them, with a reversed direction's segments
    taken from the reversed sequence, into a preallocated output. That needs
    every smaller product to have at least 2 rows: at batch 1, a one-step segment or
    ``seq[:, t] @ w_x`` is a 1-row product that numpy sends to GEMV, whose bits
    differ."""
    runs = {}
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        runs[threads] = subprocess.Popen([sys.executable, "-c", _GEMM_ROWS_CHECK], env=env,
                                         stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                         text=True)
    for threads, run in runs.items():
        out, err = run.communicate(timeout=60)
        assert run.returncode == 0, err
        assert out == "", f"{threads} BLAS thread(s), rows differ at:\n{out}"


def test_bilstm_output_shape_and_direction_sensitivity():
    pset = nn.ParamSet()
    layer = nn.BiLstmLayer(pset, "bi", 2, 3, 4, np.random.default_rng(7))
    rng = np.random.default_rng(8)
    x = rng.standard_normal((5, 6, 2))
    out = layer(Tensor(x))
    assert out.shape == (5, 6, 4)
    rev = layer(Tensor(x[:, ::-1, :].copy()))
    # a genuinely bidirectional layer is not equivariant to time reversal
    assert not np.allclose(out.data, rev.data[:, ::-1, :])
    with pytest.raises(EmptySequenceError):
        layer(Tensor(np.zeros((2, 0, 2))))
    with pytest.raises(ShapeMismatchError):
        layer(Tensor(np.zeros((2, 2))))


BILSTM_SHAPES = [(batch, steps, 2, 3, 4) for batch in (1, 3) for steps in (1, 2, 7)]


@pytest.mark.parametrize("batch,steps,n_in,hidden,n_out", BILSTM_SHAPES + [
    (32, 40, 90, 90, 90), (32, 2 * nn.SEGMENT + 3, 90, 90, 90)])
def test_bilstm_is_bitwise_the_two_unroll_composite(batch, steps, n_in, hidden, n_out):
    """The layer, on either schedule, and its oracle give the same bits. Both run with BLAS
    on one thread, as every lane does: two BLAS threads split the oracle's 90-wide
    ``h.T @ dm`` reduction otherwise, and its bits with it."""
    rng = np.random.default_rng(batch * 100 + steps)
    pset = nn.ParamSet()
    layer = nn.BiLstmLayer(pset, "bi", n_in, hidden, n_out, rng)
    seq = Tensor(rng.standard_normal((batch, steps, n_in)), requires_grad=True)
    weights = rng.standard_normal((batch, steps, n_out))
    tensors = dict(pset.items(), seq=seq)

    def run(build):
        for t in tensors.values():
            t.grad = None
        out = build(seq)
        ad.backward(ad.tensor_sum(ad.mul(out, weights)))
        return out.data, {name: t.grad for name, t in tensors.items()}

    with nn.one_blas_thread():
        out, grads = run(layer)
        want, want_grads = run(lambda s: oracle_bilstm(layer, s))
    assert len(grads) == 10
    assert np.array_equal(out, want)
    for name in tensors:
        assert np.array_equal(grads[name], want_grads[name]), name


def _graph_nodes(out: Tensor) -> int:
    """Tensors reachable from ``out`` that have a backward, i.e. recorded ops."""
    seen, stack = {}, [out]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return sum(node._backward is not None for node in seen.values())


def test_bilstm_layer_records_one_graph_node_and_none_without_grad():
    rng = np.random.default_rng(9)
    layer = nn.BiLstmLayer(nn.ParamSet(), "bi", 2, 3, 4, rng)
    seq = Tensor(rng.standard_normal((3, 5, 2)), requires_grad=True)
    assert _graph_nodes(layer(seq)) == 1
    assert _graph_nodes(oracle_bilstm(layer, seq)) == 10 + 2 * (5 + 1)
    with ad.no_grad():
        out = layer(seq)
    assert out._parents == () and out._backward is None and not out.requires_grad


def _bilstm(rng, n_in=2, hidden=4, n_out=5):
    return nn.BiLstmLayer(nn.ParamSet(), "bi", n_in, hidden, n_out, rng)


def test_no_grad_forwards_allocate_no_tape(monkeypatch):
    rng = np.random.default_rng(6)
    layer = _bilstm(rng)
    empty, made = np.empty, []

    def tapes():  # the recurrence's is the only five-axis array
        shapes = [s for s in made if len(s) == 5]
        made.clear()
        return shapes

    monkeypatch.setattr(np, "empty", lambda shape, *a, **k: made.append(shape) or empty(shape, *a, **k))
    with ad.no_grad():
        layer(Tensor(rng.standard_normal((3, 6, 2))))
        layer(Tensor(rng.standard_normal((2, 9, 2))))
    assert tapes() == [(1, 4, 2, 3, 4), (1, 4, 2, 2, 4)]  # only the running step's slots
    layer(Tensor(rng.standard_normal((3, 6, 2))))
    assert tapes() == [(6, 4, 2, 3, 4)]  # steps, gates i f g o, directions, batch, hidden


def _held_and_kept(layer, seq):
    """Bytes a tracked forward of ``layer`` holds, then the bytes still held after backward."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = ad.tensor_sum(layer(seq))
        held = tracemalloc.get_traced_memory()[0] - before
        ad.backward(out)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return held, kept


def test_backward_frees_the_tape_with_the_graph():
    batch, steps, width = 8, 200, 16
    rng = np.random.default_rng(5)
    layer = _bilstm(rng, width, width, width)
    seq = Tensor(rng.standard_normal((batch, steps, width)))
    tape = steps * 4 * 2 * batch * width * 8  # four gates per step and direction
    _, kept = _held_and_kept(layer, seq)
    assert kept < tape / 4  # what stays is the parameters' grads
    # from 4 to 8 segments the forward holds more output and one c per segment, but the
    # same one segment of gates, so less than half what a tape of every step would add
    short, _ = _held_and_kept(layer, Tensor(rng.standard_normal((batch, 4 * nn.SEGMENT, width))))
    long, _ = _held_and_kept(layer, Tensor(rng.standard_normal((batch, 8 * nn.SEGMENT, width))))
    assert long - short < 4 * nn.SEGMENT * 4 * 2 * batch * width * 8 / 2


def test_a_tracked_bilstm_one_step_past_a_segment_holds_no_more_than_one_segment():
    batch, width = 16, 32  # n_in = hidden = n_out
    rng = np.random.default_rng(12)
    layer = _bilstm(rng, width, width, width)
    # two segments of about half a segment each tape about half the gates of one
    held = [_held_and_kept(layer, Tensor(rng.standard_normal((batch, steps, width))))[0]
            for steps in (nn.SEGMENT, nn.SEGMENT + 1)]
    assert held[1] <= held[0], held


@pytest.mark.parametrize("model", ["lstm", "bilstm"])
def test_a_direction_stepped_on_its_own_tapes_its_gates_in_its_input_workspace(monkeypatch, model):
    """An ``unroll``, or a BiLSTM direction on its own thread, writes each step's gates over
    the input projection the step has read: after a tracked forward that BPTT will replay
    it holds its output, one (directions, span, batch, 4 * hidden) workspace, each direction's
    input rows and c tape, and no gate buffer beside them."""
    batch, n_in, hidden, steps = 16, 4, 16, 3 * nn.SEGMENT + 2
    rng = np.random.default_rng(14)
    if model == "bilstm":
        monkeypatch.setattr(nn, "THREADED", batch * hidden)
        build, directions, merged = _bilstm(rng, n_in, hidden, hidden), 2, 1
    else:
        cell = nn.LSTMCell(nn.ParamSet(), "c", n_in, hidden, rng)
        build, directions, merged = (lambda seq: nn.unroll(cell, seq)), 1, 0
    segments = nn.blocks(steps, nn.SEGMENT)
    span = max(n for _, n in segments)
    workspace = directions * span * batch * 4 * hidden * 8
    needed = 8 * ((directions + merged) * batch * steps * hidden  # hs, and the merge's output
                  + directions * span * batch * n_in  # each direction's input rows
                  + directions * (span + 1 + len(segments)) * batch * hidden) + workspace
    held, _ = _held_and_kept(build, Tensor(rng.standard_normal((batch, steps, n_in))))
    # what else stays is the stacked weights and the graph's nodes, far below one gate buffer
    assert needed <= held < needed + workspace / directions / 4, (held, needed)


@pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm"])
def test_bptt_reruns_the_steps_before_the_last_segment_only(monkeypatch, model):
    """The forward runs one h @ w_h per step. An LSTM's BPTT re-runs it for every step
    before the last segment, whose gates the forward left taped, and for no other step, in
    products of up to ``REPLAY_BLOCK`` steps' rows; an RNN's BPTT, which reads h back from the
    output, never does."""
    rng = np.random.default_rng(11)
    pset = nn.ParamSet()
    if model == "bilstm":
        layer = nn.BiLstmLayer(pset, "bi", 2, 4, 3, rng)
        build, w_h = layer, np.stack([layer.fwd.w_h.data, layer.bwd.w_h.data])
    else:
        cell = CELLS[model](pset, "c", 2, 4, rng)
        build, w_h = (lambda seq: nn.unroll(cell, seq)), cell.w_h.data[None]
    matmul, products = np.matmul, []

    def spy(a, b, **kwargs):  # backward's products take w_h transposed, or no w_h
        if b.shape == w_h.shape and np.array_equal(b, w_h):
            products.append(a.shape)
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    for steps in (1, nn.SEGMENT, 3 * nn.SEGMENT + 2):
        replayed = 0 if model == "rnn" else steps - nn.blocks(steps, nn.SEGMENT)[-1][1]
        out = build(Tensor(rng.standard_normal((2, steps, 2)), requires_grad=True))
        assert len(products) == steps, steps
        products.clear()
        ad.backward(ad.tensor_sum(out))
        rows = [shape[1] for shape in products]  # (directions, steps * batch, hidden) each
        assert sum(rows) == replayed * 2 and max(rows, default=0) <= nn.REPLAY_BLOCK * 2, steps
        products.clear()


def test_a_tracked_bilstm_forward_projects_its_input_one_segment_at_a_time():
    batch, width = 8, 16  # n_in = hidden = n_out
    steps = 4 * nn.SEGMENT
    rng = np.random.default_rng(4)
    layer = _bilstm(rng, width, width, width)
    seq = Tensor(rng.standard_normal((batch, steps, width)))
    projection = batch * steps * 4 * width * 8  # one direction's whole (B, T, 4H) input GEMM
    tracemalloc.start()
    try:
        out = layer(seq)
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # what the forward freed before it returned: both directions' (S, B, 4H) projections,
    # the (S, B, n_in) input rows and a step's temporaries, a quarter of the sequence each
    assert peak - end < projection * 3 / 4
    assert out.shape == (batch, steps, width)


def test_a_tracked_rnn_unroll_keeps_only_its_output_alive():
    rng = np.random.default_rng(7)
    cell = nn.RNNCell(nn.ParamSet(), "c", 8, 16, rng)
    seq = Tensor(rng.standard_normal((8, 200, 8)))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = nn.unroll(cell, seq)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # h is read back from the output in backward, not saved a second time per step
    assert out.data.nbytes <= kept < 1.2 * out.data.nbytes
    ad.backward(ad.tensor_sum(out))
    assert cell.w_h.grad is not None


def test_bilstm_backward_peak_stays_within_five_sequence_sized_buffers():
    batch, steps, width = 16, 100, 32  # n_in = hidden = n_out
    rng = np.random.default_rng(8)
    layer = _bilstm(rng, width, width, width)
    seq = Tensor(rng.standard_normal((batch, steps, width)), requires_grad=True)
    weights = Tensor(rng.standard_normal((batch, steps, width)))
    unit = batch * steps * width * 8
    tracemalloc.start()
    try:
        loss = ad.tensor_sum(ad.mul(layer(seq), weights))
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        ad.backward(loss)
        rise = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the merge's dm and the recurrence's (2, B, T, H) grad, then BPTT's (2, B, T, n_in) dx
    # and the input's grad, less the graph released: about 4.2 units, where keeping the
    # graph, stacking the two directions' dh and copying one direction's rows peaked at 10
    assert rise < 5 * unit


@pytest.mark.parametrize("threaded", [False, True])
def test_a_bilstm_backward_at_its_input_width_writes_dx_over_its_dh_buffer(monkeypatch, threaded):
    """At n_in == hidden a tracked layer's backward, given a grad it alone holds, computes dm
    in that grad, makes one (2, B, T, hidden) dh buffer, writes dx over it and hands dx[0]
    to seq uncopied: no second (2, B, T, n_in) buffer and no copy of the input grad, on
    either schedule."""
    batch, steps, width = 16, 400, 32  # n_in = hidden = n_out
    rng = np.random.default_rng(15)
    layer = _bilstm(rng, width, width, width)
    monkeypatch.setattr(nn, "THREADED", batch * width + (0 if threaded else 1))
    seq = Tensor(rng.standard_normal((batch, steps, width)), requires_grad=True)
    out = layer(seq)
    g = rng.standard_normal(out.shape)
    unit = batch * steps * width * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out._backward(g)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    # the dh buffer's two units, and the weights' sums, the replay's blocks and a step's
    # temporaries; dm's slope (one unit) is freed before dh is made. A second buffer would
    # add two, a copy one
    assert 2 * unit < peak < 2.75 * unit, peak / unit
    assert seq.grad.shape == seq.shape and layer.fwd.w_x.grad is not None


def _loop_conv1d(x, f, b, stride):
    batch, _, length = x.shape
    m, c, fs = f.shape
    l_out = (length - fs) // stride + 1
    out = np.zeros((batch, m, l_out))
    for bi in range(batch):
        for mi in range(m):
            for li in range(l_out):
                s = li * stride
                out[bi, mi, li] = (x[bi, :, s:s + fs] * f[mi]).sum() + b[mi]
    return out


@pytest.mark.parametrize("stride", [1, 2, 3])
def test_conv1d_matches_loop_reference(stride):
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2, 3, 12))
    f = rng.standard_normal((4, 3, 5))
    b = rng.standard_normal(4)
    out = nn.conv1d(Tensor(x), Tensor(f), Tensor(b), stride)
    assert np.allclose(out.data, _loop_conv1d(x, f, b, stride), atol=1e-12)


def test_conv1d_rejects_channel_mismatch():
    with pytest.raises(ShapeMismatchError):
        nn.conv1d(Tensor(np.ones((1, 2, 8))), Tensor(np.ones((3, 4, 2))), Tensor(np.zeros(3)), 1)


def test_maxpool1d_matches_loop_reference():
    rng = np.random.default_rng(12)
    x = rng.standard_normal((2, 3, 11))
    out = nn.maxpool1d(Tensor(x), window=4, stride=3)
    expected = np.stack([x[:, :, s:s + 4].max(axis=2) for s in range(0, 8, 3)], axis=2)
    assert np.array_equal(out.data, expected)


def test_maxpool1d_routes_gradient_to_argmax():
    x = Tensor(np.array([[[1.0, 5.0, 2.0, 3.0]]]), requires_grad=True)
    out = nn.maxpool1d(x, window=2, stride=2)
    ad.backward(ad.tensor_sum(out))
    assert np.array_equal(x.grad, np.array([[[0.0, 1.0, 0.0, 1.0]]]))


def test_dropout_distribution_and_scaling():
    rng = np.random.default_rng(99)
    n = 100_000
    x = Tensor(np.ones(n))
    out = nn.dropout(x, 0.4, rng=rng)
    kept = out.data != 0
    assert abs(kept.mean() - 0.6) < 0.01
    assert np.allclose(out.data[kept], 1.0 / 0.6)
    # mean preserved in expectation
    assert abs(out.data.mean() - 1.0) < 0.02


def test_dropout_gives_the_float_mask_bits_and_keeps_one_byte_per_entry():
    """Output and gradient equal ``v * ((u >= p) / (1 - p))`` bit for bit, -0.0 for a
    dropped negative entry and nan for a dropped inf included, while the graph keeps a
    bool per entry beside the output instead of a float64 mask."""
    rng = np.random.default_rng(4)
    x_data = rng.standard_normal((64, 50)) * np.exp(rng.uniform(-600, 600, (64, 50)))
    g = rng.standard_normal(x_data.shape)
    u = np.random.default_rng(7).random(x_data.shape)  # the draws dropout makes below
    for where in (u < 0.1, u >= 0.4):  # dropped, then kept, at every p below
        x_data.flat[np.flatnonzero(where)[:4]] = np.inf, -np.inf, -0.0, np.nan
    for p in (0.1, 0.4, 1 / 3):
        mask = (u >= p) / (1.0 - p)
        x = Tensor(x_data.copy(), requires_grad=True)
        tracemalloc.start()
        try:
            with np.errstate(invalid="ignore"):  # inf * 0.0 where an inf is dropped
                out = nn.dropout(x, p, np.random.default_rng(7))
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < out.data.nbytes + x_data.size + 4096
        with np.errstate(invalid="ignore"):
            ad.backward(ad.tensor_sum(ad.mul(out, Tensor(g))))
            want = x_data * mask
        assert np.array_equal(float_bits(out.data), float_bits(want))
        assert np.array_equal(float_bits(x.grad), float_bits(g * mask))
        assert (np.signbit(out.data) & (mask == 0)).any()


def test_dropout_eval_mode_is_identity_and_validates_p():
    x = Tensor(np.ones(5))
    assert nn.dropout(x, 0.4) is x  # no rng: evaluation
    assert nn.dropout(x, 0.0, rng=np.random.default_rng(0)) is x
    with pytest.raises(InvalidProbabilityError):
        nn.dropout(x, 1.0, rng=np.random.default_rng(0))


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((6, 4)) * 50
    s = nn.softmax(Tensor(z))
    assert np.allclose(s.data.sum(axis=1), 1.0)
    shifted = nn.softmax(Tensor(z + 1000.0))
    assert np.allclose(s.data, shifted.data)
    huge = nn.softmax(Tensor(np.array([[1e4, -1e4]])))
    assert np.all(np.isfinite(huge.data))


def test_softmax_gradient_matches_jacobian():
    rng = np.random.default_rng(6)
    z = Tensor(rng.standard_normal(5), requires_grad=True)
    s = nn.softmax(z)
    w = rng.standard_normal(5)
    ad.backward(ad.tensor_sum(ad.mul(s, Tensor(w))))
    p = s.data
    jac = np.diag(p) - np.outer(p, p)
    assert np.allclose(z.grad, jac @ w)


def test_mse_half_value_and_shape_check():
    y = Tensor(np.array([1.0, 2.0]))
    x = Tensor(np.array([0.0, 0.0]))
    assert nn.mse_half(y, x).item() == pytest.approx(2.5 / 2.0)
    with pytest.raises(ShapeMismatchError):
        nn.mse_half(Tensor(np.ones(2)), Tensor(np.ones(3)))


def test_adam_zero_gradient_is_noop():
    pset = nn.ParamSet()
    pset.add("w", np.array([1.0, -2.0]))
    before = pset["w"].data.copy()
    opt = nn.Adam(pset, lr=0.1)
    pset.zero_grad()
    opt.step()
    assert np.array_equal(pset["w"].data, before)


def test_adam_constant_gradient_step_approaches_lr():
    # with a constant gradient the bias-corrected step size tends to lr
    value = np.array([0.0])
    m = np.zeros(1)
    v = np.zeros(1)
    grad = np.array([3.0])
    prev = value
    for t in range(1, 200):
        value, m, v = oracle_adam_step(value, grad, m, v, t, lr=0.01)
        if t > 150:
            assert abs(abs(prev - value)[0] - 0.01) < 1e-4
        prev = value
    with pytest.raises(ValueError):
        oracle_adam_step(value, grad, m, v, 0, lr=0.01)


def test_adam_step_is_bitwise_the_oracle_update():
    """``Adam.step`` updates m, v and each parameter in place with the oracle's bits, step
    after step, and a parameter without a gradient steps as the oracle does on zeros."""
    rng = np.random.default_rng(5)
    pset = nn.ParamSet()
    for name, shape in (("w", (3, 4)), ("b", (4,))):
        pset.add(name, rng.standard_normal(shape))
    opt = nn.Adam(pset, lr=0.01)
    expected = {name: (t.data.copy(), np.zeros(t.shape), np.zeros(t.shape))
                for name, t in pset.items()}
    for step in range(1, 6):
        for name, param in pset.items():
            param.grad = None if (name, step) == ("b", 3) else rng.standard_normal(param.shape)
            grad = np.zeros(param.shape) if param.grad is None else param.grad
            value, m, v = expected[name]
            expected[name] = oracle_adam_step(value, grad, m, v, step, lr=0.01)
        opt.step()
        for name, param in pset.items():
            actual = (param.data, opt._m[name], opt._v[name])
            assert all(map(_bitwise_equal, actual, expected[name])), (name, step)


def test_adam_first_step_is_lr_times_sign():
    pset = nn.ParamSet()
    p = pset.add("w", np.array([1.0, 1.0]))
    opt = nn.Adam(pset, lr=0.5)
    p.grad = np.array([10.0, -0.01])
    opt.step()
    # bias correction makes the very first step lr * sign(grad) (up to eps)
    assert np.allclose(p.data, [0.5, 1.5], atol=1e-6)


def _quadratic_problem(seed):
    pset = nn.ParamSet()
    w = pset.add("w", np.random.default_rng(seed).standard_normal((3, 2)))
    x = Tensor(np.random.default_rng(seed + 1).standard_normal((4, 3)))
    return pset, lambda: ad.mean(ad.power(ad.matmul(x, w), 2.0))


def test_adam_minimize_equals_zero_grad_backward_step():
    explicit, loss_a = _quadratic_problem(3)
    fused, loss_b = _quadratic_problem(3)
    opt_a, opt_b = nn.Adam(explicit, lr=0.05), nn.Adam(fused, lr=0.05)
    for _ in range(5):
        explicit.zero_grad()
        loss = loss_a()
        ad.backward(loss)
        opt_a.step()
        assert opt_b.minimize(loss_b()) == loss.item()
    assert np.array_equal(explicit["w"].data, fused["w"].data)


def test_adam_minimize_makes_no_update_from_a_non_finite_loss():
    pset, loss = _quadratic_problem(3)
    before = pset["w"].data.copy()
    opt = nn.Adam(pset, lr=0.05)
    assert opt.minimize(ad.mul(loss(), np.inf)) == np.inf
    assert opt.t == 0 and pset["w"].grad is None
    assert np.array_equal(pset["w"].data, before)


def test_seeded_streams_spawn_in_order():
    streams = nn.seeded_streams(11, 3)
    spawned = np.random.SeedSequence(11).spawn(3)
    for got, seq in zip(streams, spawned):
        assert np.array_equal(got.random(4), np.random.default_rng(seq).random(4))


def test_fit_histories_are_keyed_and_ordered_as_returned():
    values = iter(range(100))

    def iteration(sample):
        return {"b": float(next(values)), "a": float(next(values))}

    hist = nn.fit(np.zeros((5, 2)), 3, 2, np.random.default_rng(0), iteration)
    assert list(hist) == ["b", "a"]
    assert np.array_equal(hist["b"], [0.0, 2.0, 4.0])
    assert np.array_equal(hist["a"], [1.0, 3.0, 5.0])


@pytest.mark.parametrize("batch_size,expected", [(4, 4), (9, 6)])
def test_fit_samples_distinct_rows_capped_at_the_dataset(batch_size, expected):
    data = np.arange(12.0).reshape(6, 2)
    batches = []

    def iteration(sample):
        batches.extend(sample().data for _ in range(2))
        return {"loss": 0.0}

    nn.fit(data, 3, batch_size, np.random.default_rng(1), iteration)
    assert len(batches) == 6
    for batch in batches:
        assert batch.shape == (expected, 2)
        assert len({tuple(row) for row in batch}) == expected
        assert all(tuple(row) in {tuple(r) for r in data} for row in batch)


def test_fit_reports_the_first_non_finite_iteration():
    seen = []

    def iteration(sample):
        seen.append(len(seen))
        return {"d": 1.0, "g": np.nan if len(seen) == 3 else 0.5}

    with pytest.raises(NonFiniteLossError) as err:
        nn.fit(np.zeros((4, 2)), 10, 2, np.random.default_rng(0), iteration)
    assert err.value.iteration == 2
    assert seen == [0, 1, 2]
