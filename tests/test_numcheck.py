import numpy as np
import pytest

from numcheck import finite_diff_grad


class TestFiniteDiff:
    def test_square(self):
        g = finite_diff_grad(lambda p: float(p[0][0] ** 2),
                         [np.array([3.0])], step=1e-5)
        assert g[0][0] == pytest.approx(6.0, abs=1e-8)

    def test_constant(self):
        g = finite_diff_grad(lambda p: 1.0, [np.zeros(4)], step=1e-5)
        assert np.array_equal(g[0], np.zeros(4))

    def test_product(self):
        g = finite_diff_grad(lambda p: float(p[0][0] * p[0][1]),
                         [np.array([2.0, 5.0])], step=1e-5)
        assert g[0][0] == pytest.approx(5.0, abs=1e-7)
        assert g[0][1] == pytest.approx(2.0, abs=1e-7)
