"""Pre-commitment solution at a fixed initial time, its Lyapunov upper bounds,
and the quadratic-cost representation by a triple of Lyapunov equations."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import (feedback_gain, gain_path, march_times, march_triples,
                          rk4_march, solve_lyapunov, stage_times)
from .types import MatrixFn, ProblemData, _interp, hat, min_eig


def default_step(problem: ProblemData) -> float:
    return problem.T / 2000.0


@dataclass(frozen=True)
class PrecommitSolution:
    """Riccati pair and feedback gains for the problem frozen at initial time t."""

    t: float
    times: np.ndarray
    P: np.ndarray        # (len(times), n, n) symmetric
    Phat: np.ndarray     # (len(times), n, n) symmetric
    Theta: np.ndarray    # (len(times), m, n)
    Theta_hat: np.ndarray

    def value_at(self, x) -> float:
        x = np.asarray(x, float).reshape(-1)
        return float(x @ self.Phat[0] @ x)

    def theta_at(self, s) -> np.ndarray:
        return _interp(s, self.times, self.Theta)

    def theta_hat_at(self, s) -> np.ndarray:
        return _interp(s, self.times, self.Theta_hat)


def solve_precommitment(problem: ProblemData, t: float, h: float | None = None
                        ) -> PrecommitSolution:
    """Solve the decoupled Riccati pair (P first, then the hat equation reading P).

    Weights are frozen at the initial time t; the value of the optimally
    controlled problem at (t, x) is <Phat(t) x, x>.  P is marched at half the
    step of Phat, so the hat march reads P at each of its stage times.
    """
    if h is None:
        h = default_step(problem)
    a, b = t, problem.T
    hp = hat(problem)
    n_coarse = max(1, math.ceil((b - a) / h - 1e-12))
    fine = np.linspace(a, b, 2 * n_coarse + 1)
    times = np.linspace(a, b, n_coarse + 1)
    delta = problem.delta

    ss = stage_times(fine)
    A, B, C, D = (f.at_many(ss) for f in (problem.A, problem.B, problem.C, problem.D))
    Q, R = problem.Q.at_many(ss, t), problem.R.at_many(ss, t)

    def base_rhs(q, P):
        As, Cs, Ds = A[q], C[q], D[q]
        DP = Ds.T @ P
        L = B[q].T @ P + DP @ Cs
        Th = feedback_gain(R[q] + DP @ Ds, L, delta, "R(t)+D'PD", ss[q])
        return -(P @ As + As.T @ P + Cs.T @ P @ Cs + Q[q] - L.T @ Th)

    P_fine = rk4_march(base_rhs, fine, problem.G(t), symmetric=True)

    hs = stage_times(times)
    Ah, Bh, Ch, Dh = (f.at_many(hs) for f in (hp.A, hp.B, hp.C, hp.D))
    Qh, Rh = hp.Q.at_many(hs, t), hp.R.at_many(hs, t)

    def hat_rhs(q, Ph):
        P, As, Cs, Ds = P_fine[q], Ah[q], Ch[q], Dh[q]
        DP = Ds.T @ P
        L = Bh[q].T @ Ph + DP @ Cs
        Th = feedback_gain(Rh[q] + DP @ Ds, L, delta, "Rhat(t)+Dhat'PDhat", hs[q])
        return -(Ph @ As + As.T @ Ph + Cs.T @ P @ Cs + Qh[q] - L.T @ Th)

    Phat = rk4_march(hat_rhs, times, hp.G(t), symmetric=True)
    P = P_fine[::2]

    Theta = gain_path(P, P, B[::4], C[::4], D[::4], R[::4], delta, "R(t)+D'PD", times)
    Theta_hat = gain_path(Phat, P, Bh[::2], Ch[::2], Dh[::2], Rh[::2], delta,
                          "Rhat(t)+Dhat'PDhat", times)
    return PrecommitSolution(t=t, times=times, P=P, Phat=Phat,
                             Theta=Theta, Theta_hat=Theta_hat)


@dataclass(frozen=True)
class BoundReport:
    times: np.ndarray
    Pi: np.ndarray
    Pi_hat: np.ndarray
    min_gap_P: float       # min eigenvalue of Pi - P over all nodes
    min_gap_Phat: float
    min_eig_P: float
    min_eig_Phat: float

    @property
    def bounds_hold(self) -> bool:
        tol = 1e-8
        return (self.min_gap_P >= -tol and self.min_gap_Phat >= -tol
                and self.min_eig_P >= -tol and self.min_eig_Phat >= -tol)


def precommit_bounds(problem: ProblemData, t: float, h: float | None = None
                     ) -> BoundReport:
    """Lyapunov upper bounds: drop the quadratic gain term from each equation.

    Returns the bound paths together with the sampled eigenvalue margins of
    0 <= P <= Pi and 0 <= Phat <= Pi_hat (reported, never thrown).
    """
    if h is None:
        h = default_step(problem)
    a, b = t, problem.T
    hp = hat(problem)
    n_coarse = max(1, math.ceil((b - a) / h - 1e-12))
    dt_fine = (b - a) / (2 * n_coarse)

    _, Pi_fine = solve_lyapunov(problem.A, problem.C, problem.Q.frozen(t), problem.G(t),
                                (a, b), dt_fine)

    def Pi_at(s):
        return Pi_fine[int(round((s - a) / dt_fine))]

    times, Pi_hat = solve_lyapunov(hp.A, hp.C, hp.Q.frozen(t), hp.G(t), (a, b),
                                   (b - a) / n_coarse, sandwich=Pi_at)
    Pi = Pi_fine[::2]

    sol = solve_precommitment(problem, t, h)
    gap_p = min(min_eig(Pi[i] - sol.P[i]) for i in range(len(times)))
    gap_ph = min(min_eig(Pi_hat[i] - sol.Phat[i]) for i in range(len(times)))
    me_p = min(min_eig(sol.P[i]) for i in range(len(times)))
    me_ph = min(min_eig(sol.Phat[i]) for i in range(len(times)))
    return BoundReport(times=times, Pi=Pi, Pi_hat=Pi_hat,
                       min_gap_P=gap_p, min_gap_Phat=gap_ph,
                       min_eig_P=me_p, min_eig_Phat=me_ph)


@dataclass(frozen=True)
class MeanFieldGenerator:
    """Homogeneous mean-field dynamics dX = (A X + Abar E[X]) ds + (C X + Cbar E[X]) dW."""

    A: MatrixFn
    Abar: MatrixFn
    C: MatrixFn
    Cbar: MatrixFn


@dataclass(frozen=True)
class QuadraticWeights:
    """Three running-cost layers (plain, E_t-squared, E_tau-squared) plus terminals."""

    Q: MatrixFn
    Qtilde: MatrixFn
    Qbar: MatrixFn
    G: np.ndarray
    Gbar: np.ndarray


@dataclass(frozen=True)
class LyapunovTriple:
    times: np.ndarray
    Gamma_tilde: np.ndarray
    Gamma: np.ndarray
    Gamma_bar: np.ndarray

    @property
    def Gamma_hat(self) -> np.ndarray:
        return self.Gamma + self.Gamma_bar


@dataclass(frozen=True)
class CostRepresentation:
    """Exact quadratic representation of a conditional-expectation cost functional."""

    Gamma0: np.ndarray
    Gammabar0: np.ndarray
    triple: LyapunovTriple

    def evaluate(self, x, ex) -> float:
        """Cost given the state x at the interval start and its E_tau mean ex."""
        x = np.asarray(x, float).reshape(-1)
        ex = np.asarray(ex, float).reshape(-1)
        return float(x @ self.Gamma0 @ x + ex @ self.Gammabar0 @ ex)


def cost_via_lyapunov(generator: MeanFieldGenerator, weights: QuadraticWeights,
                      interval: tuple[float, float], h: float) -> CostRepresentation:
    """Represent the quadratic cost over [t, T] by three coupled Lyapunov equations.

    The middle equation consumes the first one inside its sandwich term; the
    triple is marched by the affine maps of its RK4 steps (`march_triples`).
    """
    times = march_times(*interval, h)
    ss = stage_times(times)
    A, C, Ah, Ch, Q, Qt, Qb = (f.at_many(ss) for f in (
        generator.A, generator.C, generator.A + generator.Abar,
        generator.C + generator.Cbar, weights.Q, weights.Qtilde, weights.Qbar))
    F = np.stack([Q, Q + Qt, Qb], axis=1)[:, :, None]

    def coefficients(rows, q):
        return A[q], C[q], Ah[q], Ch[q], F[q]

    terminal = np.stack([
        np.atleast_2d(np.asarray(weights.G, float)),
        np.atleast_2d(np.asarray(weights.G, float)),
        np.atleast_2d(np.asarray(weights.Gbar, float)),
    ])
    Z = march_triples(times, terminal[:, None], coefficients)[:, :, 0]
    triple = LyapunovTriple(times=times, Gamma_tilde=Z[:, 0], Gamma=Z[:, 1],
                            Gamma_bar=Z[:, 2])
    return CostRepresentation(Gamma0=Z[0, 1], Gammabar0=Z[0, 2], triple=triple)
