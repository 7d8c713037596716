import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from oracles import oracle_bilstm, oracle_step, oracle_zero_state

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


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("kind", sorted(CELLS))
def test_unroll_matches_a_manual_step_loop_in_time_order(kind, reverse):
    cell, seq = _cell_and_sequence(kind)
    state = oracle_zero_state(cell, 2)
    manual = {}
    for t in (range(4, -1, -1) if reverse else range(5)):
        state = oracle_step(cell, Tensor(seq.data[:, t, :]), state)
        manual[t] = state[0].data
    hs = nn.unroll(cell, seq, reverse=reverse)
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

    fused = grads(lambda: ad.tensor_sum(ad.mul(nn.unroll(cell, seq, reverse=reverse), weights)))
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
        return ad.concat([hs[t] for t in range(5)], axis=1)

    fused_hs, fused = run(lambda: nn.unroll(cell, seq, reverse=reverse, h0=h0))
    manual_out, manual = run(manual_hs)
    np.testing.assert_allclose(fused_hs, manual_out, rtol=1e-12)
    assert not np.array_equal(fused_hs, nn.unroll(cell, seq, reverse=reverse).data)
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
        if "out" in kwargs:  # the forward's only product into a buffer is the input GEMM
            rows.append(a.shape[0])
        return matmul(a, b, **kwargs)

    monkeypatch.setattr(np, "matmul", spy)
    cell = nn.RNNCell(nn.ParamSet(), "c", 2, 3, np.random.default_rng(0))
    # (batch, steps): rows of each segment's GEMM; at batch 1 a one-step last segment
    # joins the one before, and a one-step sequence is one row as it is unsegmented
    for (batch, steps), want in {(2, 7): [6, 6, 2], (1, 7): [3, 4], (1, 8): [3, 3, 2],
                                 (1, 1): [1]}.items():
        rows.clear()
        with ad.no_grad():
            nn.unroll(cell, Tensor(np.zeros((batch, steps, 2))))
        assert rows == want, (batch, steps)


def _bitwise_equal(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("segment", [2, 3, 5])
@pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm"])
def test_segment_length_changes_no_bit(monkeypatch, model, segment):
    """Values and every gradient equal, bit for bit, those of the same run in one segment:
    for each direction, with and without h0, at batch 1 and 2, for T = 1, S - 1, S, S + 1
    and 3S + 2 (at batch 1, T = S + 1 ends in a one-step segment)."""
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
                runs = [(lambda r=reverse, h=h: nn.unroll(cell, seq, reverse=r, h0=h),
                         () if h is None else (h,)) for reverse in (False, True) for h in (None, h0)]
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


@pytest.mark.parametrize("batch,steps,n_in,hidden,n_out", BILSTM_SHAPES + [(32, 40, 90, 90, 90)])
def test_bilstm_is_bitwise_the_two_unroll_composite(batch, steps, n_in, hidden, n_out):
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


def test_bilstm_layer_records_two_graph_nodes_and_none_without_grad():
    rng = np.random.default_rng(9)
    layer = nn.BiLstmLayer(nn.ParamSet(), "bi", 2, 3, 4, rng)
    seq = Tensor(rng.standard_normal((3, 5, 2)), requires_grad=True)
    assert _graph_nodes(layer(seq)) == 2
    assert _graph_nodes(oracle_bilstm(layer, seq)) == 10
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


@pytest.mark.parametrize("model", ["rnn", "lstm", "bilstm"])
def test_bptt_reruns_the_steps_before_the_last_segment_only(monkeypatch, model):
    """The forward runs one h @ w_h per step. An LSTM's BPTT re-runs it for every step
    before the last segment, whose gates the forward left taped, and for no other step; an
    RNN's BPTT, which reads h back from the output, never does."""
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
    for steps, replayed in ((1, 0), (nn.SEGMENT, 0),
                            (3 * nn.SEGMENT + 2, 0 if model == "rnn" else 3 * nn.SEGMENT)):
        out = build(Tensor(rng.standard_normal((2, steps, 2)), requires_grad=True))
        assert len(products) == steps, steps
        products.clear()
        ad.backward(ad.tensor_sum(out))
        assert len(products) == replayed, steps
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
    # the merge's dm, the recurrence's (2, B, T, H) grad, one direction's reversed rows,
    # then BPTT's time-major input and (2, B, T, n_in) dx: about 5 units, where keeping the
    # graph and stacking the two directions' dh peaked at 10
    assert rise < 6 * unit


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
        value, m, v = nn.adam_step(value, grad, m, v, t, lr=0.01)
        if t > 150:
            assert abs(abs(prev - value)[0] - 0.01) < 1e-4
        prev = value
    with pytest.raises(ValueError):
        nn.adam_step(value, grad, m, v, 0, lr=0.01)


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


def test_check_gradients_flags_wrong_backward():
    pset = nn.ParamSet()
    w = pset.add("w", np.array([0.3, -0.7]))

    def good():
        return ad.tensor_sum(ad.power(w, 2.0))

    assert nn.check_gradients(good, pset) < 1e-8

    def bad():
        out = ad.tensor_sum(ad.power(w, 2.0))
        broken = Tensor(out.data.copy(), requires_grad=True)
        broken._parents = (w,)
        broken._backward = lambda g: ad._accumulate(w, np.full_like(w.data, 123.0))
        return broken

    assert nn.check_gradients(bad, pset) > 1.0


def test_finite_differences_without_graph_match_tracked_probes():
    rng = np.random.default_rng(3)
    pset = nn.ParamSet()
    cell = nn.LSTMCell(pset, "c", 3, 4, rng)
    xs = [Tensor(rng.standard_normal((2, 3))) for _ in range(3)]

    recorded = []

    def loss():
        state = oracle_zero_state(cell, 2)
        for x_t in xs:
            state = oracle_step(cell, x_t, state)
        out = ad.mean(ad.power(state[0], 2.0))
        recorded.append(out.requires_grad)
        return out.item()

    before = {name: t.data.copy() for name, t in pset.items()}
    eps = 1e-5
    tracked = {}
    for name, t in pset.items():
        grad = np.zeros_like(t.data)
        flat, gflat = t.data.reshape(-1), grad.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            up = loss()
            flat[i] = original - eps
            down = loss()
            flat[i] = original
            gflat[i] = (up - down) / (2.0 * eps)
        tracked[name] = grad
    assert all(recorded)
    recorded.clear()

    numeric = nn.finite_difference_gradients(loss, pset)
    assert recorded and not any(recorded)
    assert list(numeric) == pset.names()
    for name, t in pset.items():
        assert np.array_equal(numeric[name], tracked[name])
        assert np.array_equal(t.data, before[name])
        assert t.grad is None
