import warnings

import numpy as np
import pytest
from oracles import concat, narrow, oracle_logistic_where, sigmoid

from qgf import autodiff as ad
from qgf.autodiff import Tensor
from qgf.errors import DetachedGraphError, NonScalarLossError, ShapeMismatchError


def test_sum_gradient_is_ones():
    p = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    ad.backward(ad.tensor_sum(p))
    assert np.array_equal(p.grad, np.ones((2, 3)))


def test_half_square_gradient_is_value():
    p = Tensor(np.array([1.0, -2.0, 3.5]), requires_grad=True)
    ad.backward(ad.mul(ad.tensor_sum(ad.power(p, 2.0)), 0.5))
    assert np.allclose(p.grad, p.data)


def test_backward_requires_scalar():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(NonScalarLossError):
        ad.backward(ad.mul(p, 2.0))


def test_backward_requires_tracked_graph():
    x = Tensor(np.ones(1))
    with pytest.raises(DetachedGraphError):
        ad.backward(ad.tensor_sum(x))


def test_item_rejects_non_scalar():
    with pytest.raises(NonScalarLossError):
        Tensor(np.ones(2)).item()


def test_add_broadcasts_and_unbroadcasts_grad():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.arange(3.0), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.add(a, b)))
    assert np.array_equal(a.grad, np.ones((2, 3)))
    assert np.array_equal(b.grad, np.full(3, 2.0))


def test_mul_product_rule():
    a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
    b = Tensor(np.array([5.0, 7.0]), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.mul(a, b)))
    assert np.array_equal(a.grad, b.data)
    assert np.array_equal(b.grad, a.data)


def test_matmul_shapes_and_grad():
    a = Tensor(np.random.default_rng(0).standard_normal((2, 3)), requires_grad=True)
    b = Tensor(np.random.default_rng(1).standard_normal((3, 4)), requires_grad=True)
    out = ad.matmul(a, b)
    assert out.shape == (2, 4)
    ad.backward(ad.tensor_sum(out))
    assert np.allclose(a.grad, np.ones((2, 4)) @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ np.ones((2, 4)))


def test_matmul_rejects_bad_shapes():
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(ShapeMismatchError):
        ad.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))


def test_sigmoid_matches_closed_form_and_is_stable():
    z = Tensor(np.array([-800.0, -1.0, 0.0, 1.0, 800.0]), requires_grad=True)
    s = sigmoid(z)
    assert np.all(np.isfinite(s.data))
    assert s.data[2] == 0.5
    ad.backward(ad.tensor_sum(s))
    assert np.allclose(z.grad, s.data * (1 - s.data))


def test_logistic_matches_the_two_branch_formula_in_both_tails():
    edges = [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf]
    x = np.concatenate([np.random.default_rng(9).uniform(-800.0, 800.0, 100_000), edges])
    before = x.copy()
    with warnings.catch_warnings(), np.errstate(over="ignore"):
        warnings.simplefilter("error", RuntimeWarning)  # overflow in exp is the only one
        got = ad._logistic(x, np.empty_like(x))
    assert np.array_equal(x, before)  # the input is not written
    assert np.max(np.abs(got - oracle_logistic_where(x))) <= 2.2e-16
    assert np.array_equal(got[-8:], [0.5, 0.5, 1.0, 0.0, 1.0, 0.0, 1.0, 0.0])


def test_logistic_propagates_nan_and_fills_out():
    x = np.array([[np.nan, 0.0], [2.0, -3.0]])
    out = np.empty_like(x)
    assert ad._logistic(x, out=out) is out
    assert np.isnan(out[0, 0])
    np.testing.assert_array_equal(out[0, 1:], [0.5])
    np.testing.assert_allclose(out[1], 1.0 / (1.0 + np.exp([-2.0, 3.0])), rtol=1e-15)
    assert ad._logistic(np.float64(0.0), np.empty(())) == 0.5


def test_tanh_exp_log_gradients():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(0.5, 2.0, 5), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.log(x)))
    assert np.allclose(x.grad, 1.0 / x.data)
    y = Tensor(rng.standard_normal(5), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.tanh(y)))
    assert np.allclose(y.grad, 1.0 - np.tanh(y.data) ** 2)
    z = Tensor(rng.standard_normal(5), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.exp(z)))
    assert np.allclose(z.grad, np.exp(z.data))


def test_clamp_zeroes_gradient_outside_interval():
    x = Tensor(np.array([-1.0, 0.3, 2.0]), requires_grad=True)
    ad.backward(ad.tensor_sum(ad.clamp(x, 0.0, 1.0)))
    assert np.array_equal(x.grad, np.array([0.0, 1.0, 0.0]))


def test_select_narrow_concat_stack_roundtrip():
    rng = np.random.default_rng(4)
    x = Tensor(rng.standard_normal((2, 5)), requires_grad=True)
    col = ad.select(x, 1, 2)
    assert col.shape == (2,)
    ad.backward(ad.tensor_sum(col))
    expected = np.zeros((2, 5))
    expected[:, 2] = 1
    assert np.array_equal(x.grad, expected)

    x.grad = None
    part = narrow(x, 1, 1, 3)
    assert part.shape == (2, 3)
    ad.backward(ad.tensor_sum(part))
    expected = np.zeros((2, 5))
    expected[:, 1:4] = 1
    assert np.array_equal(x.grad, expected)

    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=True)
    cat = concat([a, b], axis=1)
    assert cat.shape == (2, 4)
    ad.backward(ad.tensor_sum(cat))
    assert np.array_equal(a.grad, np.ones((2, 2)))


def test_mean_gradient_divides_by_count():
    x = Tensor(np.ones((4, 5)), requires_grad=True)
    ad.backward(ad.mean(x))
    assert np.allclose(x.grad, np.full((4, 5), 1.0 / 20.0))


def test_reused_node_accumulates_gradient():
    p = Tensor(np.array([3.0]), requires_grad=True)
    y = ad.add(ad.mul(p, p), ad.mul(p, 2.0))  # p^2 + 2p -> 2p + 2
    ad.backward(ad.tensor_sum(y))
    assert np.allclose(p.grad, [8.0])


def test_accumulate_sums_into_its_own_copy():
    p = Tensor(np.zeros(3), requires_grad=True)
    first, second = np.array([1.0, 2.0, 3.0]), np.array([0.5, -2.0, 4.0])
    ad._accumulate(p, first)
    ad._accumulate(p, second)
    assert np.array_equal(p.grad, [1.5, 0.0, 7.0])
    assert np.array_equal(first, [1.0, 2.0, 3.0]) and np.array_equal(second, [0.5, -2.0, 4.0])
    assert not np.shares_memory(p.grad, first)


def test_backward_is_deterministic():
    rng = np.random.default_rng(9)
    p = Tensor(rng.standard_normal((3, 3)), requires_grad=True)
    x = Tensor(rng.standard_normal((3, 3)))

    def run():
        p.grad = None
        ad.backward(ad.mean(ad.power(ad.tanh(ad.matmul(x, p)), 2.0)))
        return p.grad.copy()

    assert np.array_equal(run(), run())


def _tracks(p: Tensor) -> bool:
    return ad.mul(p, 2.0).requires_grad


def test_no_grad_ops_record_nothing():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    x = Tensor(np.array([0.5, 4.0]))
    with ad.no_grad():
        outs = [ad.add(p, x), ad.mul(p, x), ad.tanh(p),
                ad.matmul(ad.reshape(p, (1, 2)), ad.reshape(x, (2, 1))),
                ad.select(p, 0, 1), ad.mean(ad.power(p, 2.0))]
    for out in outs:
        assert not out.requires_grad
        assert out._parents == () and out._backward is None
    assert np.array_equal(outs[1].data, p.data * x.data)


def test_no_grad_loss_cannot_be_backpropagated():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with ad.no_grad():
        loss = ad.tensor_sum(ad.power(p, 2.0))
    with pytest.raises(DetachedGraphError):
        ad.backward(loss)
    assert p.grad is None


def test_no_grad_restores_tracking_on_exit_error_and_nesting():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with ad.no_grad():
        assert not _tracks(p)
    assert ad._grad_enabled and _tracks(p)

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("boom")
    assert ad._grad_enabled and _tracks(p)

    with ad.no_grad():
        with ad.no_grad():
            assert not _tracks(p)
        assert not ad._grad_enabled and not _tracks(p)
    assert ad._grad_enabled and _tracks(p)


def test_ops_after_no_grad_track_again():
    p = Tensor(np.array([3.0]), requires_grad=True)
    with ad.no_grad():
        ad.mul(p, p)
    ad.backward(ad.tensor_sum(ad.mul(p, p)))
    assert np.array_equal(p.grad, [6.0])


def _graph(loss: Tensor) -> list[Tensor]:
    """Every tensor reachable from ``loss``, found before its backward runs."""
    seen, stack = {}, [loss]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


def test_backward_releases_every_non_leaf_and_keeps_leaf_grads():
    rng = np.random.default_rng(4)
    p = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    q = Tensor(rng.standard_normal(4), requires_grad=True)
    x = Tensor(rng.standard_normal((5, 3)))
    t = ad.tanh(ad.add(ad.matmul(x, p), q))
    loss = ad.mean(ad.power(t, 2.0))
    nodes = _graph(loss)
    inner = [n for n in nodes if n._backward is not None]
    assert len(inner) == 6 and any(n is loss for n in inner)  # matmul, add, tanh, power, sum, mul
    ad.backward(loss)
    for node in inner:
        assert node._backward is None and node._parents is None and node.grad is None
    assert loss.item() == float(np.mean(np.tanh(x.data @ p.data + q.data) ** 2))
    # leaves keep their links (none) and their gradients
    dz = 2.0 * t.data * (1.0 - t.data * t.data) / t.size
    assert np.allclose(p.grad, x.data.T @ dz) and np.allclose(q.grad, dz.sum(axis=0))
    assert p._parents == () and q._parents == () and x.grad is None


def test_a_loss_sharing_a_released_subgraph_raises():
    rng = np.random.default_rng(5)
    p = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
    h = ad.tanh(ad.matmul(Tensor(rng.standard_normal((3, 2))), p))
    first, second = ad.tensor_sum(h), ad.mean(ad.mul(h, h))
    ad.backward(first)
    grad = p.grad.copy()
    with pytest.raises(DetachedGraphError, match="released"):
        ad.backward(second)
    with pytest.raises(DetachedGraphError, match="released"):
        ad.backward(ad.tensor_sum(h))  # built after the release
    with pytest.raises(DetachedGraphError, match="released"):
        ad.backward(first)
    assert np.array_equal(p.grad, grad)
