"""Closed forms of the two scalar motivating examples, constant gains and the
cost triple of the zero feedback, shared by the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mflq import PiecewiseGain, rk4_march, stage_times
from mflq.game import cost_triples
from mflq.precommit import pair_coefficients


@dataclass(frozen=True)
class ExampleOracles:
    """Closed-form fixtures for the two scalar motivating examples."""

    T: float = 1.0

    def phat(self, s: float) -> float:
        return 1.0 / (self.T - s + 1.0)

    def control(self, t: float, x: float) -> float:
        return -x / (self.T - t + 1.0)

    def mean(self, s: float, t: float, x: float) -> float:
        return (self.T - s + 1.0) / (self.T - t + 1.0) * x

    def value(self, t: float, x: float) -> float:
        return x * x / (self.T - t + 1.0)

    def discount_riccati(self, rho: Callable[[float, float], float],
                         g: Callable[[float], float], t: float,
                         h: float = 5e-4) -> tuple[np.ndarray, np.ndarray]:
        """Backward solve of p_s + p - p^2 / rho(s,t) = 0, p(T,t) = g(t), by RK4
        with rho(., t) sampled once on the stage grid."""
        n = max(1, math.ceil((self.T - t) / h))
        times = np.linspace(t, self.T, n + 1)
        r = np.array([rho(s, t) for s in stage_times(times)], dtype=float)

        def rhs(q, v):
            return -(v - v * v / r[q])

        return times, rk4_march(rhs, times, g(t))

    def consistency_witness(self, rho, g, samples: int = 21) -> bool:
        """True when t -> g(t)/rho(T,t) is constant (time-consistent memory)."""
        ts = np.linspace(0.0, self.T, samples)
        vals = np.array([g(t) / rho(self.T, t) for t in ts])
        return float(vals.max() - vals.min()) <= 1e-10 * (1.0 + float(np.abs(vals).max()))


def example_oracles(T: float = 1.0) -> ExampleOracles:
    return ExampleOracles(T=T)


def constant_gain(T: float, theta, theta_hat) -> PiecewiseGain:
    """The gain pair (theta, theta_hat) held constant on [0, T]: a one-interval
    `PiecewiseGain` of two equal samples, so zero gains read back exactly."""
    theta, theta_hat = (np.atleast_2d(np.asarray(x, float)) for x in (theta, theta_hat))
    return PiecewiseGain.single(0.0, T, [0.0, T], np.stack([theta, theta]),
                                np.stack([theta_hat, theta_hat]))


def uncontrolled_triple(problem, times) -> np.ndarray:
    """(Gamma_tilde, Gamma, Gamma_bar) on `times`, (len(times), 3, n, n): the
    cost triple of the zero feedback with the weights frozen at t = times[0],
    by the game's march (`game.cost_triples`).  The cost from a state x with
    E_t-mean ex at t is x'Gamma x + ex'Gamma_bar ex."""
    t = float(times[0])
    terminal = np.stack([problem.G(t), problem.G(t), problem.Gbar(t)])[:, None]
    gains = np.zeros((len(times) - 1, 4, 2, problem.m, problem.n))
    coefficients = pair_coefficients(problem, stage_times(times), t, "ABCD")
    return cost_triples(problem, times, np.array([t]), terminal, gains,
                        coefficients)[:, :, 0]
