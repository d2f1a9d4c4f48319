import json
from dataclasses import replace

import numpy as np
import pytest

from mflq import (ConfigurationError, MCConfig, PiecewiseGain, TwoTimeMatrixFn,
                  ValidationError, MatrixFn, bsde_residual_check, solve_open_loop,
                  parse_problem, solve_precommitment, verify_open_loop_equilibrium)
from mflq.cli import main
from mflq.integrators import gain_path
from mflq.problem_io import resolve_document
from mflq.types import TwoParamMatrixField, hat


def _with_bar_weights(classical):
    """Classical dynamics with constant (t-independent) mean-field weights."""
    T = classical.T
    return replace(classical,
                   Qbar=TwoTimeMatrixFn.constant(0.2 * np.eye(2), T),
                   Rbar=TwoTimeMatrixFn.constant([[0.1]], T),
                   Gbar=MatrixFn.constant(0.3 * np.eye(2), T))


def test_rejects_mean_field_dynamics(meanfield):
    with pytest.raises(ValidationError):
        solve_open_loop(meanfield)


def test_rejects_a_bar_that_vanishes_at_seven_even_samples(tmp_path):
    """Abar is 2I at t = 0.08 and zero at every k T / 6."""
    abar = {"kind": "samples", "times": [0.05, 0.08, 0.11],
            "values": [np.zeros((2, 2)).tolist(), (2 * np.eye(2)).tolist(),
                       np.zeros((2, 2)).tolist()]}
    doc = resolve_document("classical")
    doc = {**doc, "coefficients": {**doc["coefficients"], "Abar": abar}}
    with pytest.raises(ValidationError, match="mean-field terms in the dynamics"):
        solve_open_loop(parse_problem(doc))
    path = tmp_path / "abar.json"
    path.write_text(json.dumps(doc))
    assert main(["open-loop", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("kwargs", [{"h": -0.1}, {"h": 0.0}, {"h": float("nan")},
                                    {"t_nodes": 0}, {"t_nodes": -2}])
def test_rejects_bad_step_or_grid(classical, kwargs):
    with pytest.raises(ValidationError):
        solve_open_loop(classical, **kwargs)


class TestSpecialCaseCollapses:
    def test_no_bar_weights_collapses_pair(self, classical):
        """With no mean-field cost terms the hat equation has the same data as
        the base one, so the two fields coincide."""
        sol = solve_open_loop(classical, h=classical.T / 1000, t_nodes=16)
        gap = np.abs(sol.P.values - sol.Phat.values).max()
        assert gap <= 1e-10

    def test_t_independent_weights_give_t_independent_slices(self, classical):
        prob = _with_bar_weights(classical)
        sol = solve_open_loop(prob, h=prob.T / 1000, t_nodes=16)
        J = len(sol.tgrid.nodes)
        worst = 0.0
        for j in range(1, J):
            for i in range(j, J):
                worst = max(worst, float(np.abs(sol.P.values[i, j]
                                                - sol.P.values[i, 0]).max()))
                worst = max(worst, float(np.abs(sol.Phat.values[i, j]
                                                - sol.Phat.values[i, 0]).max()))
        assert worst <= 1e-8

    def test_classical_gain_matches_riccati(self, classical):
        sol = solve_open_loop(classical, t_nodes=32)
        pre = solve_precommitment(classical, 0.0, h=classical.T / 2048)
        pre_gain = PiecewiseGain.single(0.0, classical.T, pre.times, pre.Theta,
                                        pre.Theta_hat)
        np.testing.assert_allclose(sol.Theta_open[:-1],
                                   pre_gain.at_many(sol.tgrid.nodes[:-1])[0], atol=1e-8)


def test_scalar_pure_terminal_oracle(ex12):
    """On the scalar terminal-cost problem the diagonal hat field must follow
    p(t) = 1/(T - t + 1) while the base field stays zero."""
    sol = solve_open_loop(ex12, t_nodes=32)
    nodes = sol.tgrid.nodes
    idx = np.arange(len(nodes))
    diag = sol.Phat.values[idx, idx, 0, 0]
    exact = 1.0 / (ex12.T - nodes + 1.0)
    np.testing.assert_allclose(diag, exact, atol=1e-6)
    assert np.abs(sol.P.values).max() < 1e-10


def test_field_extension_below_diagonal(classical):
    """An entry at s < t, [i, j] with i < j, holds the diagonal value at t."""
    sol = solve_open_loop(classical, t_nodes=8)
    j = int(np.argmin(np.abs(sol.tgrid.nodes - 0.5)))
    assert sol.tgrid.nodes[j] == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_array_equal(sol.P.values[0, j], sol.P.values[j, j])


def test_bsde_residual_vanishes(classical):
    prob = _with_bar_weights(classical)
    rep = bsde_residual_check(prob, solve_open_loop(prob, t_nodes=32),
                              mc=MCConfig(paths=500, steps=128, seed=11))
    assert rep["max_relative_residual"] <= 1e-8
    assert len(rep["per_time"]) > 0


def test_bsde_residual_passes_a_wrong_field(classical):
    """The residual is the defining equation of Theta_open at the t-grid
    nodes, so any field with the gain recomputed from it passes: P x 3,
    Phat x 0.2 gives a gain far off the equilibrium's and a residual of
    rounding size; the spike test is the check that sees such a gain."""
    sol = solve_open_loop(classical, t_nodes=16)
    tg = sol.tgrid.nodes
    P, Ph = (TwoParamMatrixField(sol.tgrid, k * F.values)
             for F, k in ((sol.P, 3.0), (sol.Phat, 0.2)))
    idx = np.arange(len(tg))
    B, C, D = (f.at_many(tg) for f in (classical.B, classical.C, classical.D))
    theta = gain_path(Ph.values[idx, idx], P.values[idx, idx], B, C, D,
                      hat(classical).R.at_many(tg, tg), classical.delta, "K", tg)
    assert np.abs(theta - sol.Theta_open).max() > 0.5
    rep = bsde_residual_check(classical, replace(sol, P=P, Phat=Ph, Theta_open=theta),
                              mc=MCConfig(paths=500, steps=128, seed=11))
    assert rep["max_relative_residual"] <= 1e-12


def test_spike_verification_passes(classical):
    prob = _with_bar_weights(classical)
    sol = solve_open_loop(prob, t_nodes=32)
    rep = verify_open_loop_equilibrium(prob, sol, np.ones(2),
                                       mc=MCConfig(paths=4000, steps=200,
                                                   seed=7))
    assert rep["passed"], rep["min_margin"]
    assert all("ratio" in r and "stderr" in r for r in rep["records"])


@pytest.mark.parametrize("check_times, eps_list", [
    ([0.99], [0.025]),          # the spike runs past T
    ([0.5], [0.6, 0.1]),        # one of the spikes runs past T
    ([1.0], [0.01]),            # t = T
    ([-0.1], [0.01]),           # t < 0
    ([0.5], [0.0]),             # eps = 0
    ([0.5], [-0.05]),           # eps < 0
    ([0.5], [float("nan")]),
    ([0.5], []),                # no spike length
    ([0.5], [1e-13]),           # shorter than the node tolerance
])
def test_spike_verification_rejects_spikes_outside_horizon(classical, check_times,
                                                           eps_list):
    sol = solve_open_loop(classical, t_nodes=4)
    with pytest.raises(ConfigurationError):
        verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                     mc=MCConfig(paths=4, steps=40, seed=1),
                                     check_times=check_times, eps_list=eps_list)


def test_spike_verification_accepts_spike_ending_at_horizon(classical):
    sol = solve_open_loop(classical, t_nodes=4)
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=4, steps=40, seed=1),
                                       check_times=[0.0, 0.7], eps_list=[0.3])
    assert len(rep["records"]) == 2 * 3
