"""The shared variant-cost kernel behind both Monte Carlo equilibrium checks.

A probe is an (m, 2n + 1) control map on [X; W; 1].  A probe equal to the
equilibrium's own control map must march exactly as the equilibrium does, so
its excess cost is zero on every path; a shifted map must not be.
"""

from dataclasses import replace

import numpy as np

import mflq.game
import mflq.openloop
from mflq import (GainSegment, MCConfig, PiecewiseGain, TimeGrid, build_delta_equilibrium,
                  delta_local_optimality_check, solve_open_loop,
                  verify_open_loop_equilibrium)


def _spy_costs(monkeypatch, module):
    """Record every (variants, paths) cost array the module's checks compute."""
    costs = []
    real = module.variant_costs

    def spy(*args, **kwargs):
        costs.append(real(*args, **kwargs))
        return costs[-1]

    monkeypatch.setattr(module, "variant_costs", spy)
    return costs


def _assert_own_zero_shifted_not(costs, rep_records):
    base, own, shifted = costs
    np.testing.assert_array_equal(own, base)
    assert np.all(shifted != base)
    assert rep_records[0]["stderr"] == 0.0
    assert rep_records[1]["stderr"] > 0.0


def test_game_probe_equal_to_equilibrium_map(meanfield, monkeypatch):
    """Player 1 of an N = 4 game on meanfield (mean-field dynamics, re-anchoring
    at two later nodes), with each interval's gains frozen at its start so the
    equilibrium's control map is one matrix on the window."""
    eq = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 4))
    frozen = PiecewiseGain(eq.partition, tuple(
        GainSegment(s.times, np.repeat(s.theta[:1], len(s.times), axis=0),
                    np.repeat(s.theta_hat[:1], len(s.times), axis=0))
        for s in eq.gains.segments))
    eq = replace(eq, gains=frozen)
    th, thh = (g[0] for g in frozen.at_many(np.array([0.25])))
    own = np.concatenate([-th, th - thh, np.zeros((1, 1))], axis=1)   # u = -Th X + (Th - Thh) E_rho X
    shifted = own + np.array([[0.0, 0.0, 0.1, 0.0, 0.0]])
    monkeypatch.setattr(mflq.game, "_deviation_probes",
                        lambda *args: [("own", own), ("shifted", shifted)])
    costs = _spy_costs(monkeypatch, mflq.game)
    for antithetic in (True, False):
        costs.clear()
        rep = delta_local_optimality_check(
            meanfield, eq, 1, [1.0, -0.5],
            mc=MCConfig(paths=40, steps=40, seed=8, antithetic=antithetic))
        _assert_own_zero_shifted_not(costs[0], rep["records"])
        assert rep["records"][0]["excess_cost"] == 0.0


def test_spike_probe_equal_to_equilibrium_map(classical, monkeypatch):
    """A spike that applies the equilibrium's own map u = -Theta X_eq, with a
    constant Theta_open so that map is one matrix on the window."""
    sol = solve_open_loop(classical, t_nodes=8)
    sol = replace(sol, Theta_open=np.repeat(sol.Theta_open[2:3], len(sol.Theta_open), axis=0))
    th = sol.Theta_open[0]
    own = np.concatenate([np.zeros((1, 2)), -th, np.zeros((1, 1))], axis=1)
    shifted = own - np.array([[0.2, 0.0, 0.0, 0.0, 0.0]])
    monkeypatch.setattr(mflq.openloop, "_default_probes",
                        lambda *args: [("own", own), ("shifted", shifted)])
    costs = _spy_costs(monkeypatch, mflq.openloop)
    for antithetic in (True, False):
        costs.clear()
        rep = verify_open_loop_equilibrium(
            classical, sol, np.ones(2), check_times=[0.3], eps_list=[0.1],
            mc=MCConfig(paths=40, steps=40, seed=9, antithetic=antithetic))
        _assert_own_zero_shifted_not(costs[0], rep["records"])
        assert rep["records"][0]["ratio"] == 0.0

