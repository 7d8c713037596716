import numpy as np
import pytest
from oracles import oracle_step, oracle_zero_state

from qgf import autodiff as ad, gradcheck, nn
from qgf.autodiff import Tensor


@pytest.mark.parametrize("name", sorted(gradcheck.KERNEL_CHECKS))
def test_each_kernel_beats_tolerance_on_a_few_seeds(name):
    check = gradcheck.KERNEL_CHECKS[name]
    for seed in range(3):
        err = check(np.random.default_rng(seed))
        assert err <= gradcheck.TOLERANCE, f"{name} seed {seed}: {err:.3e}"


def test_kernel_checks_reports_all_kernels():
    results = gradcheck.kernel_checks(seeds_per_kernel=1)
    assert set(results) == set(gradcheck.KERNEL_CHECKS)
    assert all(v <= gradcheck.TOLERANCE for v in results.values())
    assert gradcheck.kernel_checks(seeds_per_kernel=1) == results  # deterministic


def test_check_gradients_flags_wrong_backward():
    pset = nn.ParamSet()
    w = pset.add("w", np.array([0.3, -0.7]))

    def good():
        return ad.tensor_sum(ad.power(w, 2.0))

    assert gradcheck.check_gradients(good, pset) < 1e-8

    def bad():
        out = ad.tensor_sum(ad.power(w, 2.0))
        broken = Tensor(out.data.copy(), requires_grad=True)
        broken._parents = (w,)
        broken._backward = lambda g: ad._accumulate(w, np.full_like(w.data, 123.0))
        return broken

    assert gradcheck.check_gradients(bad, pset) > 1.0


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
    eps = gradcheck.FD_EPS
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

    numeric = gradcheck.finite_difference_gradients(loss, pset)
    assert recorded and not any(recorded)
    assert list(numeric) == pset.names()
    for name, t in pset.items():
        assert np.array_equal(numeric[name], tracked[name])
        assert np.array_equal(t.data, before[name])
        assert t.grad is None
