"""Pre-commitment solution at a fixed initial time, its Lyapunov upper bounds,
and the quadratic-cost representation by a triple of Lyapunov equations.

The Riccati pair (P, Phat) is marched as one stacked (2, n, n) state, plain
coefficients over hat ones (`pair_coefficients`), on `integrators.PairField`
by `_pair_march`, which every game interval runs too: the hat equation reads
P in its sandwich and D'PD terms, and the Lyapunov majorants (Pi, Pi_hat) run
on the same field without control, as its linear part alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import MFLQError, ValidationError
from .integrators import (PairField, dense_march, feedback_gain, gain_path,
                          march_times, march_triples, rk4_march, stage_times,
                          without_control)
from .types import MatrixFn, ProblemData, hat, min_eig, stack_pair

#: default solves return their paths on a grid of step T/OUTPUT_STEPS, the
#: finest step the pilot of `default_step` may choose
OUTPUT_STEPS = 2000
#: the pilot's coarse march has T/PILOT_STEPS steps, the coarsest default step
PILOT_STEPS = 64
#: the default target of `step_choice`: the step whose march error the pilot
#: puts at STEP_TOL * (1 + max|Z|)
STEP_TOL = 1e-12
#: the pair's two factors, named in a loss of definiteness
_PAIR_FACTORS = np.array(["R(t)+D'PD", "Rhat(t)+Dhat'PDhat"])


class StepChoice(NamedTuple):
    """The march step of a problem for a target error and the pilot's error
    estimate behind it (None when the pilot raised and the step fell back)."""

    step: float
    pilot_error: float | None


def step_choice(problem: ProblemData, target: float = STEP_TOL) -> StepChoice:
    """The measured step whose RK4 error is about target (1 + max|Z|), from one
    pilot per problem object.

    The pilot marches the pre-commitment pair at t = 0 with H = T/64 and
    again with every step halved, the pair alone without its output gains.
    err = |Z_H - Z_{H/2}|/15, the largest over the coarse nodes, estimates
    the error of the finer march; RK4's h^4 law then gives the step
    0.5 H (target (1 + max|Z_{H/2}|) / err)^(1/4), clamped to [T/2000, T/64].
    The pilot runs once and is kept on the problem; each target is a few
    flops on its two numbers.  If the pilot raises, the step falls back to
    T/2000 for every target, at which the solvers raise what they raise
    there.
    """
    T = problem.T
    if "pilot" not in problem.memo:
        try:
            coarse = march_times(0.0, T, T / PILOT_STEPS, problem.breakpoints((0.0,)))
            fine = stage_times(coarse)
            Zc, Zf = (_pair_march(problem, 0.0, x, x)[0] for x in (coarse, fine))
        except MFLQError:
            problem.memo["pilot"] = None
        else:
            problem.memo["pilot"] = (float(np.abs(Zc - Zf[::2]).max()) / 15.0,
                                     float(np.abs(Zf).max()))
    pilot = problem.memo["pilot"]
    if pilot is None:
        return StepChoice(T / OUTPUT_STEPS, None)
    err, size = pilot
    h = 0.5 * T / PILOT_STEPS * (target * (1.0 + size) / err) ** 0.25 if err > 0 else np.inf
    return StepChoice(min(max(h, T / OUTPUT_STEPS), T / PILOT_STEPS), err)


def default_step(problem: ProblemData, target: float = STEP_TOL) -> float:
    """The RK4 step a solve marches at when no h is given: `step_choice`'s
    step for the target error, between T/2000 and T/64.  Every solve but the
    refinement of `closedloop.solve_closed_loop` aims at STEP_TOL."""
    return step_choice(problem, target).step


def march_grids(problem: ProblemData, a: float, b: float, h: float | None,
                anchors, target: float = STEP_TOL) -> tuple[np.ndarray, np.ndarray]:
    """(march nodes, output nodes) of a solve over [a, b] whose weights are
    read at `anchors`, both holding every breakpoint.

    An explicit h marches and returns at h.  By default the march runs at
    `default_step` for the target error and the output keeps the resolution
    T/2000; the two are one array when the steps agree.
    """
    bps = problem.breakpoints(anchors)
    if h is not None:
        times = march_times(a, b, h, bps)
        return times, times
    step, out = default_step(problem, target), problem.T / OUTPUT_STEPS
    times = march_times(a, b, step, bps)
    return times, times if step == out else march_times(a, b, out, bps)


@dataclass(frozen=True)
class PrecommitSolution:
    """Riccati pair and feedback gains for the problem frozen at initial time t.

    A game interval [t_k, t_{k+1}) has the same form (`IntervalSolution`),
    with t = t_k: its player solves this pair on that interval, from terminal
    data stitched from the next player's cost triple.
    """

    t: float
    times: np.ndarray
    P: np.ndarray        # (len(times), n, n) symmetric
    Phat: np.ndarray     # (len(times), n, n) symmetric
    Theta: np.ndarray    # (len(times), m, n)
    Theta_hat: np.ndarray


def pair_coefficients(problem: ProblemData, ss: np.ndarray, t, names: str = "ABCDQR"):
    """The coefficients `names`, of A, B, C, D, Q and R, at the times ss, each
    stacked plain over hat along axis 1 (`stack_pair`, a broadcast view for a
    constant): (len(ss), 2, ., .).  The weights are read at (ss, t), t one
    anchor for every time or an array of one anchor per time, so that the
    stages of several intervals, each frozen at its own t_k, are one call."""
    def at(p, x):
        f = getattr(p, x)
        return f.at_many(ss, t) if x in "QR" else f.at_many(ss)

    hp = hat(problem)
    return tuple(stack_pair(at(problem, x), at(hp, x)) for x in names)


def lyapunov_pair(problem: ProblemData, times: np.ndarray, t: float,
                  terminal: np.ndarray) -> np.ndarray:
    """March the Lyapunov majorants (Pi, Pi_hat) of the Riccati pair, weights
    frozen at t: each Riccati equation without its quadratic gain term, i.e.
    the pair field without control, the hat one sandwiching Pi.  One stacked
    (2, n, n) state from `terminal`; returns (len(times), 2, n, n)."""
    field = PairField(without_control(*pair_coefficients(problem, stage_times(times), t,
                                                         "ACQ")))
    return rk4_march(lambda q, Z: -field(q, Z)[0], times, terminal, symmetric=True)


def _pair_march(problem: ProblemData, t: float, times: np.ndarray, out: np.ndarray,
                terminal: np.ndarray | None = None, what=_PAIR_FACTORS,
                coefficients=None) -> tuple[np.ndarray, list]:
    """The stacked pair (P, Phat), weights frozen at t, marched over `times`
    from `terminal` (default (G(t), Ghat(t))) on `PairField`: its values
    (len(out), 2, n, n) at the times `out` (`dense_march`), and the list of
    the (2, m, n) gains of every RK4 stage in call order, four per step from
    the top (and one at times[0] if dense output asked for it).

    A loss of definiteness names the failing factor of `what`.  The pair's
    coefficients at every stage of the march are `pair_coefficients`,
    sampled in one call unless a caller that samples them anyway gives them.
    """
    ss = stage_times(times)
    if terminal is None:
        terminal = np.stack([np.atleast_2d(problem.G(t)), np.atleast_2d(hat(problem).G(t))])
    if coefficients is None:
        coefficients = pair_coefficients(problem, ss, t)
    delta = problem.delta
    field = PairField(coefficients)
    record = []

    def rhs(q, Z):
        lin, L, K = field(q, Z)
        Th = feedback_gain(K, L, delta, what, ss[q])
        record.append(Th)
        return L.swapaxes(-1, -2) @ Th - lin

    return dense_march(rhs, times, out, terminal, symmetric=True), record


def _pair_solution(problem: ProblemData, t: float, out: np.ndarray, Z: np.ndarray,
                   what=_PAIR_FACTORS, coefficients=None) -> PrecommitSolution:
    """The solution whose pair Z (`_pair_march`) is given at the times `out`,
    its gains recomputed there from the coefficients B, C, D and R at `out`
    (`pair_coefficients` frozen at t, sampled unless given)."""
    if coefficients is None:
        coefficients = pair_coefficients(problem, out, t, "BCDR")
    th = gain_path(Z, Z[:, :1], *coefficients, problem.delta, what, out[:, None])
    return PrecommitSolution(t=t, times=out, P=Z[:, 0], Phat=Z[:, 1],
                             Theta=th[:, 0], Theta_hat=th[:, 1])


def solve_precommitment(problem: ProblemData, t: float, h: float | None = None
                        ) -> PrecommitSolution:
    """Solve the decoupled Riccati pair (P, and the hat equation reading P).

    Weights are frozen at the initial time t, which must lie in [0, T); the
    value of the optimally controlled problem at (t, x) is <Phat(t) x, x>.
    The pair is one stacked (2, n, n) state under one RK4 march on
    `PairField` (`_pair_march`, which every game interval runs too), with one
    feedback gain on the stacked factors R(t)+D'PD and Rhat(t)+Dhat'PDhat, so
    an ill-posed factor is named by whichever loses definiteness first in
    backward time.  The march and output grids are `march_grids`': an
    explicit h marches and returns at h; by default the march runs at
    `default_step` and P, Phat come back at step T/2000 by Hermite dense
    output, with the gains recomputed there (`_pair_solution`).
    """
    if not 0.0 <= t < problem.T:
        raise ValidationError(f"initial time t={t:g} outside [0, T) with T={problem.T:g}")
    times, out = march_grids(problem, t, problem.T, h, (t,))
    return _pair_solution(problem, t, out, _pair_march(problem, t, times, out)[0])


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
