import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflq import BlowUpError, IllPosedError, ValidationError, rk4_backward
from mflq import integrators
from mflq.integrators import feedback_gain


class TestRK4Backward:
    def test_exact_on_scalar_tanh(self):
        # p' = -(1 - p^2), p(T) = 0  =>  p(s) = tanh(T - s)
        times, vals = rk4_backward(lambda s, p: -(1.0 - p * p), 0.0, 1.0,
                                   np.array([[0.0]]), 1e-3)
        assert vals[0, 0, 0] == pytest.approx(np.tanh(1.0), abs=1e-10)

    def test_fourth_order(self):
        def err(h):
            _, vals = rk4_backward(lambda s, p: -(1.0 - p * p), 0.0, 1.0,
                                   np.array([[0.0]]), h)
            return abs(vals[0, 0, 0] - np.tanh(1.0))

        ratio = err(0.05) / err(0.025)
        assert 10.0 < ratio < 22.0

    def test_endpoints_are_nodes(self):
        times, _ = rk4_backward(lambda s, p: p * 0, 0.2, 0.9,
                                np.zeros((1, 1)), 0.13)
        assert times[0] == pytest.approx(0.2)
        assert times[-1] == pytest.approx(0.9)

    def test_bad_inputs(self):
        with pytest.raises(ValidationError):
            rk4_backward(lambda s, p: p, 0.0, 1.0, np.zeros((1, 1)), -1.0)
        with pytest.raises(ValidationError):
            rk4_backward(lambda s, p: p, 1.0, 1.0, np.zeros((1, 1)), 0.1)

    def test_blow_up_detected(self):
        # p' = -p^2 with p(1) = 10 has a pole at s = 0.9
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(BlowUpError) as exc:
            rk4_backward(lambda s, p: -(p @ p), 0.0, 1.0,
                         np.array([[10.0]]), 1e-4)
        assert exc.value.time is not None

    def test_symmetric_projection(self):
        rng = np.random.default_rng(1)
        M = rng.normal(size=(3, 3))

        def rhs(s, P):
            return -(P @ M + M.T @ P + np.eye(3))

        _, vals = rk4_backward(rhs, 0.0, 1.0, np.eye(3), 1e-2, symmetric=True)
        assert np.abs(vals - np.swapaxes(vals, -1, -2)).max() < 1e-14


class TestRK4Step:
    LAM = -1.3

    def _march(self, h, steps):
        """y' = LAM y from y = 1 over `steps` steps of h (backward if h < 0)."""
        y = np.ones(1)
        for _ in range(steps):
            y = integrators.rk4_step(lambda j, Y: self.LAM * Y, y, h)[0]
        return float(y[0])

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_one_step_is_the_taylor_polynomial(self, sign):
        z = self.LAM * sign * 0.1
        assert self._march(sign * 0.1, 1) == pytest.approx(
            1 + z + z ** 2 / 2 + z ** 3 / 6 + z ** 4 / 24, rel=1e-15)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_fourth_order(self, sign):
        """Over one unit of time forward or backward, the error falls about
        16-fold per halving of the step."""
        exact = np.exp(self.LAM * sign)
        errs = [abs(self._march(sign / k, k) - exact) for k in (8, 16, 32)]
        assert all(14.0 < a / b < 18.0 for a, b in zip(errs, errs[1:])), errs

    def test_propagator_is_the_step_of_a_linear_field(self):
        """rk4_propagator's transition matrices map any start to what
        rk4_step gives from it, under the start, midpoint and end matrices."""
        from mflq.simulate import rk4_propagator
        rng = np.random.default_rng(3)
        F = rng.normal(size=(3, 5, 4, 4))
        dts = rng.uniform(0.01, 0.2, size=5)
        y0 = rng.normal(size=(5, 4, 2))
        stages = (F[0], F[1], F[1], F[2])
        want = integrators.rk4_step(lambda j, Y: stages[j] @ Y, y0, dts[:, None, None])[0]
        np.testing.assert_allclose(rk4_propagator(*F, dts) @ y0, want, rtol=0, atol=1e-14)


@given(arrays(np.float64, (3, 2), elements=st.floats(-3, 3)))
@settings(max_examples=60, deadline=None)
def test_inverse_identity(L):
    # I - L (I + L'L)^{-1} L' = (I + L L')^{-1}
    n = L.shape[0]
    lhs = np.eye(n) - L @ np.linalg.solve(np.eye(2) + L.T @ L, L.T)
    rhs = np.linalg.inv(np.eye(n) + L @ L.T)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("plain", [1.0, np.nan])
def test_stacked_scalar_factor_names_its_hat_entry(plain):
    """A stacked 1x1 factor that fails only in its hat entry names that entry
    and the time, also when the plain entry is NaN."""
    K = np.array([[[plain]], [[0.1]]])
    what = np.array(["R(t)+D'PD", "Rhat(t)+Dhat'PDhat"])
    with pytest.raises(IllPosedError,
                       match=re.escape("Rhat(t)+Dhat'PDhat lost definiteness at s=0.25")):
        feedback_gain(K, np.ones((2, 1, 2)), 0.5, what, 0.25)
    np.testing.assert_allclose(feedback_gain(K, np.ones((2, 1, 2)), 0.1, what, 0.25)[1],
                               [[10.0, 10.0]])
