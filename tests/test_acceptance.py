"""Acceptance suite: one test (and one pass/fail line) per release criterion.

Every test pins its tolerance and a wall-clock budget; Monte Carlo checks use
fixed seeds so the whole suite is deterministic.
"""

import time
from dataclasses import replace

import numpy as np
import pytest
from oracles import constant_gain, example_oracles, uncontrolled_triple

from mflq import (MatrixFn, MCConfig, TimeGrid,
                  TwoTimeMatrixFn, bsde_residual_check,
                  build_delta_equilibrium,
                  delta_local_optimality_check, direct_diagonal_solve,
                  estimate_cost, jump_magnitudes,
                  ordering_report, semigroup_failure_demo,
                  simulate_closed_loop, solve_closed_loop, solve_open_loop,
                  solve_precommitment)
from mflq.cli import converge_study
from mflq.integrators import march_times
from mflq.types import PiecewiseGain, ProblemData


class _Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.start = time.monotonic()

    def check(self):
        elapsed = time.monotonic() - self.start
        assert elapsed < self.limit, f"runtime {elapsed:.1f}s over budget"
        return elapsed


def test_criterion_01_scalar_terminal_closed_forms(ex12):
    """Value matrix 0.5 at the origin and the optimal mean trajectory."""
    budget = _Budget(30)
    sol = solve_precommitment(ex12, 0.0)
    assert abs(sol.Phat[0, 0, 0] - 0.5) <= 1e-6

    oracle = example_oracles(ex12.T)
    pg = PiecewiseGain.single(0.0, ex12.T, sol.times, sol.Theta, sol.Theta_hat)
    mc = MCConfig(paths=100000, steps=500, seed=21)
    ens = simulate_closed_loop(ex12, pg, 0.0, [1.0], mc)
    emp = ens.states[:, :, 0].mean(axis=0)
    stderr = ens.states[:, :, 0].std(axis=0) / np.sqrt(mc.paths)
    exact = np.array([oracle.mean(s, 0.0, 1.0) for s in ens.times])
    gap = np.abs(emp - exact)[1:]
    assert np.all(gap <= 3 * stderr[1:]), float((gap / stderr[1:]).max())
    budget.check()


def test_criterion_02_classical_reduction_across_solvers(classical):
    """All four solvers reproduce the standard Riccati gain to 1e-8."""
    budget = _Budget(10)
    pre = solve_precommitment(classical, 0.0, h=classical.T / 2048)
    ol = solve_open_loop(classical, t_nodes=32)
    game = build_delta_equilibrium(classical, TimeGrid.uniform(classical.T, 4))
    cl = solve_closed_loop(classical, N0=4, tol=1e-6)
    pre_gain = PiecewiseGain.single(0.0, classical.T, pre.times, pre.Theta, pre.Theta_hat)

    worst = 0.0
    for j, t in enumerate(ol.tgrid.nodes[:-1]):
        worst = max(worst, float(np.abs(ol.Theta_open[j]
                                        - pre_gain.at_many(t)[0]).max()))
    for t in np.linspace(0.0, classical.T, 17)[:-1]:
        worst = max(worst, float(np.abs(game.gains.at_many(t)[1]
                                        - pre_gain.at_many(t)[1]).max()))
    for j, t in enumerate(cl.nodes[:-1]):
        worst = max(worst, float(np.abs(cl.Theta_hat[j]
                                        - pre_gain.at_many(t)[1]).max()))
    assert worst <= 1e-8, worst
    budget.check()


def test_criterion_03_cross_scheme_uniqueness(meanfield):
    """Game-limit refinement and the direct diagonal solve agree to 5e-4."""
    budget = _Budget(60)
    game = solve_closed_loop(meanfield, N0=4, tol=1e-4)
    N = game.grid.num_intervals
    direct = direct_diagonal_solve(meanfield, t_nodes=N)
    gap = max(np.nanmax(np.abs(game.Gamma - direct.Gamma)),
              np.nanmax(np.abs(game.Gamma_hat - direct.Gamma_hat)))
    assert gap <= 5e-4, gap
    budget.check()


def test_criterion_04_partition_convergence(meanfield, discounting):
    """Refinement deltas decrease monotonically through N = 64, ending
    below 1e-3."""
    budget = _Budget(90)
    for prob in (meanfield, discounting):
        records = converge_study(prob, N0=4, N_max=64)
        deltas = [max(r["sup_delta_Gamma"], r["sup_delta_Theta"])
                  for r in records]
        assert len(deltas) >= 3
        assert all(a > b for a, b in zip(deltas, deltas[1:])), deltas
        assert deltas[-1] < 1e-3, deltas
    budget.check()


def test_criterion_05_eigenvalue_ordering(discounting):
    """Monotone-weight problem: 0 <= triples <= Riccati <= Lyapunov majorant
    at every node, and inter-player jumps below the data-variation bound."""
    budget = _Budget(20)
    eq = build_delta_equilibrium(discounting, TimeGrid.uniform(1.0, 8))
    order = ordering_report(eq)
    assert order["passed"], order["min_margin"]
    assert order["min_margin"] >= -1e-8
    jumps = jump_magnitudes(eq)
    assert jumps["passed"], jumps["max_ratio"]
    budget.check()


def _random_uncontrolled(rng, n):
    T = 1.0
    z = np.zeros((n, 1))

    def psd():
        M = rng.normal(scale=0.6, size=(n, n))
        return M @ M.T

    return ProblemData(
        n=n, m=1, T=T,
        A=MatrixFn.constant(rng.normal(scale=0.4, size=(n, n)), T),
        Abar=MatrixFn.constant(rng.normal(scale=0.2, size=(n, n)), T),
        B=MatrixFn.constant(z, T), Bbar=MatrixFn.constant(z, T),
        C=MatrixFn.constant(rng.normal(scale=0.25, size=(n, n)), T),
        Cbar=MatrixFn.constant(rng.normal(scale=0.1, size=(n, n)), T),
        D=MatrixFn.constant(z, T), Dbar=MatrixFn.constant(z, T),
        Q=TwoTimeMatrixFn.constant(psd(), T),
        Qbar=TwoTimeMatrixFn.constant(psd(), T),
        R=TwoTimeMatrixFn.constant(np.eye(1), T),
        Rbar=TwoTimeMatrixFn.constant(np.zeros((1, 1)), T),
        G=MatrixFn.constant(psd(), T),
        Gbar=MatrixFn.constant(psd(), T),
        delta=0.5)


def test_criterion_06_quadratic_cost_oracle_equivalence():
    """The cost x'(Gamma + Gamma_bar)(0) x of the game's Lyapunov-triple
    march at the zero feedback (`game.cost_triples`) equals the Monte Carlo
    estimate on 100 random uncontrolled instances (scalar and 2x2)."""
    budget = _Budget(120)
    failures = []
    for i in range(100):
        rng = np.random.default_rng(1000 + i)
        n = 1 if i % 2 == 0 else 2
        prob = _random_uncontrolled(rng, n)
        x0 = rng.normal(size=n)
        Z = uncontrolled_triple(prob, march_times(0.0, prob.T, 2e-3))[0]
        exact = float(x0 @ (Z[1] + Z[2]) @ x0)

        # independent (non-antithetic) sampling: the pairing would shrink the
        # stderr of these nearly-deterministic costs below the Euler bias
        zero = np.zeros((1, n))
        mc = MCConfig(paths=500, steps=1000, seed=3000 + i, antithetic=False)
        ens = simulate_closed_loop(prob, constant_gain(prob.T, zero, zero), 0.0, x0, mc)
        mean, stderr = estimate_cost(prob, ens, 0.0)
        if abs(mean - exact) > 3 * stderr:
            failures.append((i, mean, exact, stderr))
    assert not failures, failures[:5]
    budget.check()


def test_criterion_07_interval_deviation_optimality(ex12):
    """No player on a 4-interval partition profits from any of 10 deviation
    probes under common random numbers."""
    budget = _Budget(120)
    eq = build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4))
    for k in range(4):
        rep = delta_local_optimality_check(
            ex12, eq, k, [1.0], mc=MCConfig(paths=20000, steps=400, seed=13),
            n_probes=10)
        assert rep["passed"], (k, rep["min_margin"])
    budget.check()


def test_criterion_08_conditioning_restart_gap():
    """The simulated restart discrepancy matches its closed form at
    (t, tau, s) = (0, 0.5, 1) and vanishes when tau = t."""
    budget = _Budget(20)
    mc = MCConfig(paths=30000, steps=1200, seed=0)
    rep = semigroup_failure_demo(1.0, 0.5, 0.0, 1.0, mc)
    assert abs(rep["simulated"] - rep["closed_form"]) <= 3 * rep["stderr"], rep
    same = semigroup_failure_demo(1.0, 0.0, 0.0, 1.0,
                                  MCConfig(paths=2000, steps=100, seed=0))
    assert same["simulated"] == 0.0
    budget.check()


def test_criterion_09_open_loop_special_cases(classical):
    """Field collapse without mean-field costs, t-independence with constant
    weights, and a vanishing pathwise stationarity residual.  The residual is
    Theta_open's defining equation at the t-grid nodes, so it also vanishes on
    a wrong field whose gain is recomputed from it
    (`test_openloop.test_bsde_residual_passes_a_wrong_field`)."""
    budget = _Budget(30)
    sol1 = solve_open_loop(classical, t_nodes=16)
    assert np.abs(sol1.P.values - sol1.Phat.values).max() <= 1e-10

    prob2 = replace(classical,
                    Qbar=TwoTimeMatrixFn.constant(0.2 * np.eye(2), 1.0),
                    Rbar=TwoTimeMatrixFn.constant([[0.1]], 1.0),
                    Gbar=MatrixFn.constant(0.3 * np.eye(2), 1.0))
    sol2 = solve_open_loop(prob2, t_nodes=16)
    J = len(sol2.tgrid.nodes)
    worst = max(float(np.abs(F.values[i, j] - F.values[i, 0]).max())
                for F in (sol2.P, sol2.Phat)
                for j in range(1, J) for i in range(j, J))
    assert worst <= 1e-8, worst

    rep = bsde_residual_check(prob2, sol2,
                              mc=MCConfig(paths=1000, steps=128, seed=11))
    assert rep["max_relative_residual"] <= 1e-8
    budget.check()


@pytest.mark.parametrize("name", ["classical", "meanfield", "discounting", "ex12"])
def test_criterion_10_integrator_order(name, request):
    """Halving the step of the pair march (`solve_precommitment` at an explicit
    h) divides the error of the stacked (P, Phat) at t = 0 against an h/8
    reference by a factor in [8, 32].  h = T/16 keeps the grids nested on
    every problem: discounting's lag knots sit at multiples of T/8."""
    budget = _Budget(10)
    problem = request.getfixturevalue(name)
    h = problem.T / 16

    def pair(hh):
        sol = solve_precommitment(problem, 0.0, hh)
        return np.stack([sol.P[0], sol.Phat[0]])

    ref = pair(h / 8)
    err = [float(np.abs(pair(hh) - ref).max()) for hh in (h, h / 2)]
    ratio = err[0] / err[1]
    assert 8.0 <= ratio <= 32.0, ratio
    budget.check()
