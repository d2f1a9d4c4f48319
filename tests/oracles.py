"""Closed forms of the two scalar motivating examples, and constant gains,
shared by the tests."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from mflq import PiecewiseGain, rk4_march, stage_times


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
