import re

import numpy as np
import pytest

from mflq import (IllPosedError, MatrixFn, MCConfig, ProblemData, TwoTimeMatrixFn,
                  cost_via_lyapunov, estimate_cost, example_oracles, precommit_bounds,
                  rk4_march, simulate_closed_loop, solve_precommitment, stage_times)
from mflq.precommit import MeanFieldGenerator, QuadraticWeights


class TestScalarTerminalOracle:
    """Scalar problem dX = u ds + X dW, cost E[X(T)^2] evaluated at E_t; the
    base Riccati vanishes and the hat one solves p' + p - p^2 = 0, p(T) = 1."""

    def test_P_vanishes(self, ex12):
        sol = solve_precommitment(ex12, 0.0)
        assert np.abs(sol.P).max() < 1e-12

    def test_Phat_matches_closed_form(self, ex12):
        oracle = example_oracles(ex12.T)
        sol = solve_precommitment(ex12, 0.0)
        exact = np.array([oracle.phat(s) for s in sol.times])
        np.testing.assert_allclose(sol.Phat[:, 0, 0], exact, atol=1e-9)

    def test_value_at(self, ex12):
        sol = solve_precommitment(ex12, 0.0)
        assert sol.value_at([2.0]) == pytest.approx(4.0 * 0.5, abs=1e-8)

    def test_later_initial_time(self, ex12):
        oracle = example_oracles(ex12.T)
        sol = solve_precommitment(ex12, 0.4)
        assert sol.Phat[0, 0, 0] == pytest.approx(oracle.phat(0.4), abs=1e-9)

    def test_gain_interpolation(self, ex12):
        oracle = example_oracles(ex12.T)
        sol = solve_precommitment(ex12, 0.0)
        assert sol.theta_hat_at(0.3)[0, 0] == pytest.approx(oracle.phat(0.3),
                                                            abs=1e-8)


class TestClassicalReduction:
    def test_hat_equals_base(self, classical):
        sol = solve_precommitment(classical, 0.0)
        np.testing.assert_allclose(sol.Phat, sol.P, atol=1e-12)
        np.testing.assert_allclose(sol.Theta_hat, sol.Theta, atol=1e-12)

    def test_symmetry_and_psd(self, classical):
        sol = solve_precommitment(classical, 0.0)
        assert np.abs(sol.P - np.swapaxes(sol.P, -1, -2)).max() < 1e-12
        assert min(np.linalg.eigvalsh(P).min() for P in sol.Phat) >= -1e-10


def test_time_inconsistency_of_weights(discounting):
    """With t-dependent weights the value matrix genuinely depends on the
    evaluation time, not only through the remaining horizon."""
    v0 = solve_precommitment(discounting, 0.0).Phat[0]
    sol5 = solve_precommitment(discounting, 0.5)
    j = int(np.argmin(np.abs(solve_precommitment(discounting, 0.0).times - 0.5)))
    restricted = solve_precommitment(discounting, 0.0).Phat[j]
    assert np.abs(sol5.Phat[0] - restricted).max() > 1e-3
    assert v0.shape == (1, 1)


def test_bounds_hold(classical, meanfield, discounting):
    for p in (classical, meanfield, discounting):
        rep = precommit_bounds(p, 0.0, h=p.T / 500)
        assert rep.bounds_hold, (rep.min_gap_P, rep.min_gap_Phat)


def _time_varying(D=None, R=None):
    """n = 3, m = 2: A, B, C and D vary in time, Abar, Bbar and Cbar are
    nonzero, and Q, Qbar and R are weights of (s, t)."""
    rng = np.random.default_rng(7)
    A0, A1, B0, C0, D0, Ab, Bb, Cb = (rng.normal(scale=0.5, size=s) for s in
                                      [(3, 3), (3, 3), (3, 2), (3, 3), (3, 2),
                                       (3, 3), (3, 2), (3, 3)])
    T = 1.0

    def fn(f, shape):
        return MatrixFn(f, shape, T)

    def fn2(f, shape):
        return TwoTimeMatrixFn(f, shape, T)

    return ProblemData(
        n=3, m=2, T=T,
        A=fn(lambda s: A0 + np.sin(2 * s) * A1, (3, 3)), Abar=MatrixFn.constant(Ab, T),
        B=fn(lambda s: (1 + s) * B0, (3, 2)), Bbar=MatrixFn.constant(Bb, T),
        C=fn(lambda s: np.cos(s) * C0, (3, 3)), Cbar=MatrixFn.constant(Cb, T),
        D=D or fn(lambda s: D0 + 0.1 * s, (3, 2)), Dbar=MatrixFn.constant(np.zeros((3, 2)), T),
        Q=fn2(lambda s, t: (4 + s) * np.eye(3) + np.exp(t - s) * np.ones((3, 3)), (3, 3)),
        Qbar=fn2(lambda s, t: (s - t) * np.eye(3), (3, 3)),
        R=R or fn2(lambda s, t: np.array([[1.5 + s - t, 0.2], [0.2, 1.0 + t]]), (2, 2)),
        Rbar=TwoTimeMatrixFn.constant(np.diag([0.3, 0.1]), T),
        G=MatrixFn.constant(np.eye(3), T), Gbar=MatrixFn.constant(0.5 * np.eye(3), T),
        delta=1e-3)


class TestTimeVaryingPair:
    """The pair march against an outside reference, at n = 3 and m = 2."""

    def test_matches_scipy_reference(self):
        from scipy.integrate import solve_ivp
        p, t = _time_varying(), 0.2
        sol = solve_precommitment(p, t)

        def factors(s, P, Ph):
            A, B, C, D = p.A(s), p.B(s), p.C(s), p.D(s)
            Ah, Bh, Ch, Dh = A + p.Abar(s), B + p.Bbar(s), C + p.Cbar(s), D + p.Dbar(s)
            R = p.R(s, t)
            return ((A, C, p.Q(s, t), R + D.T @ P @ D, B.T @ P + D.T @ P @ C),
                    (Ah, Ch, p.Q(s, t) + p.Qbar(s, t), R + p.Rbar(s, t) + Dh.T @ P @ Dh,
                     Bh.T @ Ph + Dh.T @ P @ Ch))

        def rhs(s, y):
            P, Ph = y.reshape(2, 3, 3)
            # both equations sandwich P
            return -np.stack([Z @ A + A.T @ Z + C.T @ P @ C + Q - L.T @ np.linalg.solve(K, L)
                              for Z, (A, C, Q, K, L) in zip((P, Ph), factors(s, P, Ph))]
                             ).reshape(-1)

        G = p.G(t)
        ref = solve_ivp(rhs, (p.T, t), np.stack([G, G + p.Gbar(t)]).reshape(-1),
                        rtol=1e-12, atol=1e-13)
        P, Ph = ref.y[:, -1].reshape(2, 3, 3)
        assert sol.times[0] == t
        np.testing.assert_allclose(sol.P[0], P, rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.Phat[0], Ph, rtol=0, atol=1e-9)
        (*_, K, L), (*_, Kh, Lh) = factors(t, P, Ph)
        np.testing.assert_allclose(sol.Theta[0], np.linalg.solve(K, L), rtol=0, atol=1e-9)
        np.testing.assert_allclose(sol.Theta_hat[0], np.linalg.solve(Kh, Lh), rtol=0, atol=1e-9)

    @pytest.mark.parametrize("h", [None, 1e-3])
    def test_indefinite_R_between_samples_is_ill_posed(self, h):
        """R dips below delta/2 only on a stretch of width 0.008 around
        s = 0.0625, between the times `validate` samples (it passes); the march
        checks the factor at every stage and names it."""
        def R(s, t):
            return np.diag([1.0, 1.0 - 2.0 * np.exp(-((s - 0.0625) / 0.005) ** 2)])

        p = _time_varying(MatrixFn.constant(np.zeros((3, 2)), 1.0),
                          TwoTimeMatrixFn(R, (2, 2), 1.0))
        with pytest.raises(IllPosedError,
                           match=re.escape("R(t)+D'PD lost definiteness at s=0.06")):
            solve_precommitment(p, 0.0, h)


class TestCostRepresentation:
    def test_uncontrolled_scalar_against_mc(self, ex12):
        # dX = 0.1 X ds + 0.3 X dW, cost  int <X,X> + <E[X],E[X]> + terminal
        T = 1.0
        gen = MeanFieldGenerator(
            A=MatrixFn.constant([[0.1]], T),
            Abar=MatrixFn.constant([[0.0]], T),
            C=MatrixFn.constant([[0.3]], T),
            Cbar=MatrixFn.constant([[0.0]], T))
        w = QuadraticWeights(
            Q=MatrixFn.constant([[1.0]], T),
            Qtilde=MatrixFn.constant([[0.0]], T),
            Qbar=MatrixFn.constant([[0.5]], T),
            G=np.array([[1.0]]), Gbar=np.array([[0.5]]))
        rep = cost_via_lyapunov(gen, w, (0.0, T), 1e-3)
        exact = rep.evaluate([1.0], [1.0])

        rng = np.random.default_rng(5)
        paths, steps = 20000, 400
        dt = T / steps
        X = np.ones(paths)
        dW = rng.normal(scale=np.sqrt(dt), size=(paths, steps))
        run = np.zeros(paths)
        run_det = 0.0
        m = 1.0
        for j in range(steps):
            run += (X * X) * dt
            run_det += 0.5 * m * m * dt
            X = X + 0.1 * X * dt + 0.3 * X * dW[:, j]
            m = m * (1 + 0.1 * dt)
        total = run + X * X
        mean = total.mean() + run_det + 0.5 * m * m
        stderr = total.std(ddof=1) / np.sqrt(paths)
        assert abs(mean - exact) < 3 * stderr + 5e-3

    def test_triple_components_consistent(self):
        T = 1.0
        gen = MeanFieldGenerator(
            A=MatrixFn.constant([[0.2]], T), Abar=MatrixFn.constant([[0.1]], T),
            C=MatrixFn.constant([[0.0]], T), Cbar=MatrixFn.constant([[0.0]], T))
        w = QuadraticWeights(
            Q=MatrixFn.constant([[1.0]], T),
            Qtilde=MatrixFn.constant([[0.0]], T),
            Qbar=MatrixFn.constant([[0.0]], T),
            G=np.array([[1.0]]), Gbar=np.array([[0.0]]))
        rep = cost_via_lyapunov(gen, w, (0.0, T), 1e-3)
        # deterministic dynamics (C = 0): Gamma solves the hat-Lyapunov equation
        a_hat = 0.3
        exact = np.exp(2 * a_hat * T) + (np.exp(2 * a_hat * T) - 1) / (2 * a_hat)
        assert rep.Gamma0[0, 0] == pytest.approx(exact, abs=1e-8)
        assert np.abs(rep.triple.Gamma_bar).max() == 0.0
        np.testing.assert_allclose(rep.triple.Gamma_hat,
                                   rep.triple.Gamma + rep.triple.Gamma_bar)

    def test_matches_joint_rk4_march(self):
        """The affine step maps reproduce one RK4 march of the three coupled
        equations on time-varying 2x2 data."""
        T = 1.0
        gen = MeanFieldGenerator(
            A=MatrixFn(lambda s: np.array([[0.1, 0.3 * s], [-0.2, 0.05]]), (2, 2), T),
            Abar=MatrixFn.constant([[0.05, 0.0], [0.1, 0.02]], T),
            C=MatrixFn(lambda s: np.array([[0.2, 0.0], [0.1 * s, 0.15]]), (2, 2), T),
            Cbar=MatrixFn.constant([[0.0, 0.05], [0.0, 0.1]], T))
        w = QuadraticWeights(
            Q=MatrixFn(lambda s: np.array([[1.0 + s, 0.2], [0.2, 0.5]]), (2, 2), T),
            Qtilde=MatrixFn.constant([[0.3, 0.0], [0.0, 0.1]], T),
            Qbar=MatrixFn(lambda s: np.exp(-s) * np.eye(2), (2, 2), T),
            G=np.array([[1.0, 0.1], [0.1, 2.0]]), Gbar=np.array([[0.2, 0.0], [0.0, 0.3]]))
        rep = cost_via_lyapunov(gen, w, (0.0, T), 1e-2)

        times = rep.triple.times
        ss = stage_times(times)
        A, C = gen.A.at_many(ss), gen.C.at_many(ss)
        Ah, Ch = (gen.A + gen.Abar).at_many(ss), (gen.C + gen.Cbar).at_many(ss)
        Q, Qt, Qb = w.Q.at_many(ss), w.Qtilde.at_many(ss), w.Qbar.at_many(ss)

        def rhs(q, Z):
            Gt, Gm, Gb = Z
            return -np.stack([
                Gt @ A[q] + A[q].T @ Gt + C[q].T @ Gt @ C[q] + Q[q],
                Gm @ Ah[q] + Ah[q].T @ Gm + Ch[q].T @ Gt @ Ch[q] + Q[q] + Qt[q],
                Gb @ Ah[q] + Ah[q].T @ Gb + Qb[q]])

        Z = rk4_march(rhs, times, np.stack([w.G, w.G, w.Gbar]), symmetric=True)
        for got, ref in ((rep.triple.Gamma_tilde, Z[:, 0]), (rep.triple.Gamma, Z[:, 1]),
                         (rep.triple.Gamma_bar, Z[:, 2])):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def test_precommit_control_reproduces_oracle_mean(ex12):
    """Simulating the pre-commitment feedback reproduces the known optimal
    mean trajectory E[X(s)] = (T - s + 1)/(T - t + 1) x."""
    oracle = example_oracles(ex12.T)
    sol = solve_precommitment(ex12, 0.0)
    from mflq.types import PiecewiseGain
    pg = PiecewiseGain.single(0.0, ex12.T, sol.times, sol.Theta, sol.Theta_hat)
    mc = MCConfig(paths=20000, steps=200, seed=2)
    ens = simulate_closed_loop(ex12, pg, 0.0, [1.0], mc)
    emp = ens.states[:, :, 0].mean(axis=0)
    exact = np.array([oracle.mean(s, 0.0, 1.0) for s in ens.times])
    stderr = ens.states[:, :, 0].std(axis=0) / np.sqrt(mc.paths)
    assert np.all(np.abs(emp - exact) <= 3 * stderr + 5e-3)
    # the simulated cost matches the value <Phat(0) x, x>
    mean, se = estimate_cost(ex12, ens, 0.0)
    assert abs(mean - 0.5) < 3 * se + 5e-3
