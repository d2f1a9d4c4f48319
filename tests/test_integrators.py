import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflq import (BlowUpError, IllPosedError, MatrixFn, RiccatiCoefficients,
                  ValidationError, rk4_backward, solve_lyapunov, solve_riccati)
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


class TestLyapunov:
    def test_scalar_closed_form(self):
        # p' + 2 a p + q = 0, p(T) = g  =>  p(s) = g e^{2a(T-s)} + q (e^{2a(T-s)} - 1)/(2a)
        a, q, g, T = 0.4, 0.7, 1.3, 1.0
        A = MatrixFn.constant([[a]], T)
        forcing = MatrixFn.constant([[q]], T)
        times, vals = solve_lyapunov(A, None, forcing, np.array([[g]]),
                                     (0.0, T), 1e-3)
        exact = g * np.exp(2 * a * T) + q * (np.exp(2 * a * T) - 1) / (2 * a)
        assert vals[0, 0, 0] == pytest.approx(exact, abs=1e-9)

    def test_external_sandwich(self):
        # with C = I and sandwich S(s) = I the equation gains a constant forcing I
        A = MatrixFn.constant(np.zeros((2, 2)), 1.0)
        C = MatrixFn.constant(np.eye(2), 1.0)
        Z = MatrixFn.constant(np.zeros((2, 2)), 1.0)
        _, vals = solve_lyapunov(A, C, Z, np.zeros((2, 2)), (0.0, 1.0), 1e-3,
                                 sandwich=lambda s: np.eye(2))
        np.testing.assert_allclose(vals[0], np.eye(2), atol=1e-10)

    @pytest.mark.parametrize("external", [False, True])
    def test_matches_scipy_reference(self, external):
        """C != I, sandwiching P itself or a non-constant external path."""
        from scipy.integrate import solve_ivp
        A0, C0 = np.array([[-0.3, 0.5], [0.2, 0.1]]), np.array([[0.4, -0.6], [0.3, 0.8]])
        A = MatrixFn(lambda s: A0 + np.sin(3 * s) * np.eye(2), (2, 2), 1.0)
        C = MatrixFn(lambda s: (1 + s) * C0, (2, 2), 1.0)
        F = MatrixFn(lambda s: np.array([[1 + s, 0.3], [0.3, 2 - s]]), (2, 2), 1.0)
        G = np.array([[1.0, 0.2], [0.2, 0.5]])

        def S(s):
            return np.array([[np.exp(s), s], [s, 1 + s * s]])

        def rhs(s, y):
            P = y.reshape(2, 2)
            mid = S(s) if external else P
            return -(P @ A(s) + A(s).T @ P + C(s).T @ mid @ C(s) + F(s)).reshape(-1)

        _, vals = solve_lyapunov(A, C, F, G, (0.0, 1.0), 1e-3,
                                 sandwich=S if external else None)
        ref = solve_ivp(rhs, (1.0, 0.0), G.reshape(-1), rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(vals[0], ref.y[:, -1].reshape(2, 2), atol=1e-8)


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


def _classical_coeffs(classical, t=0.0):
    T = classical.T
    return RiccatiCoefficients(
        A=classical.A, B=classical.B, C=classical.C, D=classical.D,
        S=MatrixFn.constant(np.zeros((1, 2)), T),
        Q=MatrixFn(lambda s: classical.Q(s, t), (2, 2), T),
        R=MatrixFn(lambda s: classical.R(s, t), (1, 1), T),
        G=classical.G(t), delta=classical.delta)


class TestRiccati:
    def test_matches_scipy_reference(self, classical):
        from scipy.integrate import solve_ivp
        coeffs = _classical_coeffs(classical)
        sol = solve_riccati(coeffs, (0.0, 1.0), 5e-4)

        def rhs(s, y):
            P = y.reshape(2, 2)
            A, B = classical.A(s), classical.B(s)
            C, D = classical.C(s), classical.D(s)
            K = classical.R(s, 0.0) + D.T @ P @ D
            L = B.T @ P + D.T @ P @ C
            dP = -(P @ A + A.T @ P + C.T @ P @ C + classical.Q(s, 0.0)
                   - L.T @ np.linalg.solve(K, L))
            return dP.reshape(-1)

        ref = solve_ivp(rhs, (1.0, 0.0), classical.G(0.0).reshape(-1),
                        rtol=1e-11, atol=1e-12)
        P0 = ref.y[:, -1].reshape(2, 2)
        np.testing.assert_allclose(sol.P[0], P0, atol=1e-8)

    def test_gain_consistent_with_P(self, classical):
        coeffs = _classical_coeffs(classical)
        sol = solve_riccati(coeffs, (0.0, 1.0), 1e-3)
        i = len(sol.times) // 2
        s = sol.times[i]
        D = classical.D(s)
        K = classical.R(s, 0.0) + D.T @ sol.P[i] @ D
        L = classical.B(s).T @ sol.P[i] + D.T @ sol.P[i] @ classical.C(s)
        np.testing.assert_allclose(sol.Theta[i], np.linalg.solve(K, L),
                                   atol=1e-12)

    def test_psd_along_path(self, classical):
        coeffs = _classical_coeffs(classical)
        sol = solve_riccati(coeffs, (0.0, 1.0), 1e-3)
        assert min(np.linalg.eigvalsh(P).min() for P in sol.P) >= -1e-10

    def test_definiteness_precheck(self, classical):
        bad = RiccatiCoefficients(
            A=classical.A, B=classical.B, C=classical.C, D=classical.D,
            S=MatrixFn.constant(np.zeros((1, 2)), 1.0),
            Q=MatrixFn.constant(np.eye(2), 1.0),
            R=MatrixFn.constant([[-1.0]], 1.0),
            G=np.eye(2), delta=0.5)
        with pytest.raises(ValidationError):
            solve_riccati(bad, (0.0, 1.0), 1e-3)


def _cross_coeffs(R=None):
    """A time-varying problem with n = 3, m = 2 and cross term S != 0."""
    rng = np.random.default_rng(7)
    A0, A1, B0, C0, D0, S0, S1 = (rng.normal(scale=0.5, size=s) for s in
                                  [(3, 3), (3, 3), (3, 2), (3, 3), (3, 2), (2, 3), (2, 3)])

    def fn(f, shape):
        return MatrixFn(f, shape, 1.0)

    return RiccatiCoefficients(
        A=fn(lambda s: A0 + np.sin(2 * s) * A1, (3, 3)), B=fn(lambda s: (1 + s) * B0, (3, 2)),
        C=fn(lambda s: np.cos(s) * C0, (3, 3)), D=fn(lambda s: D0 + 0.1 * s, (3, 2)),
        S=fn(lambda s: S0 + s * S1, (2, 3)), Q=fn(lambda s: (4 + s) * np.eye(3), (3, 3)),
        R=R or fn(lambda s: np.array([[1.5 + s, 0.2], [0.2, 1.0]]), (2, 2)),
        G=np.eye(3), delta=1e-3)


class TestRiccatiCrossTerm:
    @pytest.fixture(scope="class")
    def solved(self):
        coeffs = _cross_coeffs()
        return coeffs, solve_riccati(coeffs, (0.0, 1.0), 5e-4)

    def test_matches_scipy_reference(self, solved):
        from scipy.integrate import solve_ivp
        c, sol = solved

        def rhs(s, y):
            P = y.reshape(3, 3)
            A, B, C, D = c.A(s), c.B(s), c.C(s), c.D(s)
            L = B.T @ P + c.S(s) + D.T @ P @ C
            dP = -(P @ A + A.T @ P + C.T @ P @ C + c.Q(s)
                   - L.T @ np.linalg.solve(c.R(s) + D.T @ P @ D, L))
            return dP.reshape(-1)

        ref = solve_ivp(rhs, (1.0, 0.0), c.G.reshape(-1), rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(sol.P[0], ref.y[:, -1].reshape(3, 3), atol=1e-8)

    def test_gain_consistent_with_P(self, solved):
        c, sol = solved
        i = len(sol.times) // 3
        s, P = sol.times[i], sol.P[i]
        D = c.D(s)
        L = c.B(s).T @ P + c.S(s) + D.T @ P @ c.C(s)
        np.testing.assert_allclose(sol.Theta[i], np.linalg.solve(c.R(s) + D.T @ P @ D, L),
                                   atol=1e-12)

    def test_midpoint_check_passes_at_coarser_step(self):
        """The midpoint residual of the exact solution is about 8.6 h^2 here,
        above a tolerance that scaled with max|P| alone (5.4e-6 at h = 1e-3)."""
        sol = solve_riccati(_cross_coeffs(), (0.0, 1.0), 1e-3)
        assert len(sol.times) == 1001

    def test_midpoint_check_rejects_scaled_solution(self, monkeypatch):
        march = integrators.rk4_march
        monkeypatch.setattr(integrators, "rk4_march", lambda *a, **k: 1.01 * march(*a, **k))
        with pytest.raises(IllPosedError, match="midpoint residual"):
            solve_riccati(_cross_coeffs(), (0.0, 1.0), 1e-3)

    def test_indefinite_R_between_samples_is_ill_posed(self):
        """R dips below delta/2 only between the sampled definiteness checks."""
        def R(s):
            return np.diag([1.0, 1.0 - 2.0 * np.exp(-((s - 0.0625) / 0.005) ** 2)])

        coeffs = _cross_coeffs(MatrixFn(R, (2, 2), 1.0))
        with pytest.raises(IllPosedError, match=r"R lost definiteness at s=0\.0[56]"):
            solve_riccati(coeffs, (0.0, 1.0), 5e-4)
