import numpy as np
import pytest

from qgf import gradcheck


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
