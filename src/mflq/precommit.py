"""Pre-commitment solution at a fixed initial time, its Lyapunov upper bounds,
and the quadratic-cost representation by a triple of Lyapunov equations.

The Riccati pair (P, Phat) and its Lyapunov majorants (Pi, Pi_hat) are each
marched as one stacked (2, n, n) state, plain coefficients over hat ones
(`pair_coefficients`), the hat equation reading P (or Pi) in its sandwich
term.  The game marches its players' pairs with the same coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .integrators import (feedback_gain, gain_path, march_times, march_triples,
                          rk4_march, stage_times)
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


def pair_coefficients(problem: ProblemData, ss: np.ndarray, t: float):
    """(A, B, C, D, Q, R) at the stage times ss, the weights frozen at t, each
    stacked plain over hat along axis 1: (len(ss), 2, ., .)."""
    hp = hat(problem)
    plain = (problem.A, problem.B, problem.C, problem.D, problem.Q.frozen(t),
             problem.R.frozen(t))
    hats = (hp.A, hp.B, hp.C, hp.D, hp.Q.frozen(t), hp.R.frozen(t))
    return tuple(np.stack([f.at_many(ss), g.at_many(ss)], axis=1)
                 for f, g in zip(plain, hats))


def lyapunov_pair(problem: ProblemData, times: np.ndarray, t: float,
                  terminal: np.ndarray) -> np.ndarray:
    """March the Lyapunov majorants (Pi, Pi_hat) of the Riccati pair, weights
    frozen at t: each Riccati equation without its quadratic gain term, the hat
    one sandwiching Pi.  One stacked (2, n, n) state from `terminal`; returns
    (len(times), 2, n, n)."""
    A, _, C, _, Q, _ = pair_coefficients(problem, stage_times(times), t)
    At, Ct = A.swapaxes(-1, -2), C.swapaxes(-1, -2)

    def lyap_rhs(q, Z):
        return -(Z @ A[q] + At[q] @ Z + Ct[q] @ Z[0] @ C[q] + Q[q])

    return rk4_march(lyap_rhs, times, terminal, symmetric=True)


def solve_precommitment(problem: ProblemData, t: float, h: float | None = None
                        ) -> PrecommitSolution:
    """Solve the decoupled Riccati pair (P, and the hat equation reading P).

    Weights are frozen at the initial time t; the value of the optimally
    controlled problem at (t, x) is <Phat(t) x, x>.  The pair is one stacked
    (2, n, n) state under one RK4 march at the step h: plain coefficients over
    hat ones, the sandwich and D'PD terms reading P, and one feedback gain on
    the stacked factors R(t)+D'PD and Rhat(t)+Dhat'PDhat, so an ill-posed
    factor is named by whichever loses definiteness first in backward time.
    """
    if h is None:
        h = default_step(problem)
    times = np.linspace(t, problem.T, max(1, math.ceil((problem.T - t) / h - 1e-12)) + 1)
    ss = stage_times(times)
    A, B, C, D, Q, R = pair_coefficients(problem, ss, t)
    At, Bt, Ct, Dt = (x.swapaxes(-1, -2) for x in (A, B, C, D))
    delta = problem.delta
    what = np.array(["R(t)+D'PD", "Rhat(t)+Dhat'PDhat"])

    def rhs(q, Z):
        P = Z[0]
        DP = Dt[q] @ P
        L = Bt[q] @ Z + DP @ C[q]
        Th = feedback_gain(R[q] + DP @ D[q], L, delta, what, ss[q])
        return -(Z @ A[q] + At[q] @ Z + Ct[q] @ P @ C[q] + Q[q]
                 - L.swapaxes(-1, -2) @ Th)

    hp = hat(problem)
    Z = rk4_march(rhs, times, np.stack([np.atleast_2d(problem.G(t)),
                                        np.atleast_2d(hp.G(t))]), symmetric=True)
    th = gain_path(Z, Z[:, :1], B[::2], C[::2], D[::2], R[::2], delta, what,
                   times[:, None])
    return PrecommitSolution(t=t, times=times, P=Z[:, 0], Phat=Z[:, 1],
                             Theta=th[:, 0], Theta_hat=th[:, 1])


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
    sol = solve_precommitment(problem, t, h)
    Z = lyapunov_pair(problem, sol.times, t, np.stack([sol.P[-1], sol.Phat[-1]]))
    Pi, Pi_hat = Z[:, 0], Z[:, 1]
    return BoundReport(times=sol.times, Pi=Pi, Pi_hat=Pi_hat,
                       min_gap_P=min_eig(Pi - sol.P),
                       min_gap_Phat=min_eig(Pi_hat - sol.Phat),
                       min_eig_P=min_eig(sol.P), min_eig_Phat=min_eig(sol.Phat))


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
