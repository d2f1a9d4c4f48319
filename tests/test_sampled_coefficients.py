"""Coefficients are sampled once per march segment, never once per RK4 stage
or Euler step."""

import numpy as np
import pytest

from mflq import (IllPosedError, MatrixFn, MCConfig, TimeGrid, TwoTimeMatrixFn,
                  build_delta_equilibrium, delta_local_optimality_check,
                  estimate_cost, hat, simulate_closed_loop, solve_open_loop,
                  solve_precommitment, verify_open_loop_equilibrium)
from mflq.integrators import feedback_gain


@pytest.fixture
def count_calls(monkeypatch):
    """Number of scalar MatrixFn / TwoTimeMatrixFn evaluations made so far."""
    calls = [0]
    for cls in (MatrixFn, TwoTimeMatrixFn):
        original = cls.__call__

        def counted(self, *args, _original=original):
            calls[0] += 1
            return _original(self, *args)

        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_scalar_calls_do_not_grow_with_stages(count_calls, meanfield, classical):
    # precommit: 2000 steps of 4 stages each for the stacked pair (P, Phat)
    solve_precommitment(meanfield, 0.0)
    assert count_calls[0] <= 10
    # game: 8 intervals of 250 steps, each stage reading up to 8 anchors
    count_calls[0] = 0
    build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 8))
    assert count_calls[0] <= 10
    # open loop: 2048 steps, each stage reading 65 anchor slices
    count_calls[0] = 0
    solve_open_loop(classical)
    assert count_calls[0] <= 10


@pytest.mark.parametrize("steps", [40, 160])
def test_monte_carlo_calls_do_not_grow_with_steps(count_calls, steps, meanfield, ex12,
                                                  classical):
    mf_game = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 8),
                                      h=meanfield.T / 200)
    ex12_game = build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4),
                                        h=ex12.T / 200)
    open_loop = solve_open_loop(classical, t_nodes=8)
    mc = MCConfig(paths=20, steps=steps, seed=1)
    # the terminal weights G(t) and Gbar(t) once per cost
    count_calls[0] = 0
    estimate_cost(meanfield, simulate_closed_loop(meanfield, mf_game.gains, 0.0,
                                                  np.ones(2), mc), 0.0)
    assert count_calls[0] <= 2
    count_calls[0] = 0
    delta_local_optimality_check(ex12, ex12_game, 1, [1.0], mc=mc)
    assert count_calls[0] <= 2
    # six spike batches: two check times, three epsilons
    count_calls[0] = 0
    verify_open_loop_equilibrium(classical, open_loop, np.ones(2), mc=mc)
    assert count_calls[0] <= 12


def test_open_loop_discounting_converges_in_t_mesh(discounting):
    # non-constant weights: the stage-sampled kernels must refine at second order
    sols = [solve_open_loop(discounting, t_nodes=k) for k in (32, 64, 128)]
    gaps = []
    for coarse, fine in zip(sols, sols[1:]):
        gaps.append(max(np.abs(fine.P.values[::2, ::2] - coarse.P.values).max(),
                        np.abs(fine.Phat.values[::2, ::2] - coarse.Phat.values).max(),
                        np.abs(fine.Theta_open[::2] - coarse.Theta_open).max()))
    assert gaps[1] < 2e-6
    assert 3.0 < gaps[0] / gaps[1] < 5.0


def test_constant_samples_are_broadcast_views(meanfield):
    ss = np.linspace(0.0, 1.0, 1001)
    A = meanfield.A.at_many(ss)
    assert A.shape == (1001, 2, 2) and A.strides[0] == 0 and not A.flags.writeable
    hp = hat(meanfield)
    Ah = hp.A.at_many(ss)
    assert Ah.strides[0] == 0
    np.testing.assert_array_equal(Ah[17], meanfield.A(ss[17]) + meanfield.Abar(ss[17]))
    Q = hp.Q.at_many(ss[:, None], ss[:7])
    assert Q.shape == (1001, 7, 2, 2) and Q.strides[:2] == (0, 0)


def test_vectorized_kinds_match_scalar_calls(discounting):
    ss = np.linspace(0.0, 1.0, 13)
    hp = hat(discounting)
    for f in (discounting.G, hp.G, MatrixFn.polynomial([[[1.0]], [[-2.0]], [[0.5]]], 1.0),
              MatrixFn.from_samples([0.0, 0.4, 1.0], np.array([1.0, 3.0, 2.0]), 1.0)):
        np.testing.assert_array_equal(f.at_many(ss), np.stack([f(s) for s in ss]))
    for f in (discounting.Q, discounting.Qbar, hp.Q, hp.R):
        grid = f.at_many(ss[:, None], ss[:5])
        loop = np.array([[f(s, t) for t in ss[:5]] for s in ss])
        np.testing.assert_array_equal(grid, loop)
        np.testing.assert_array_equal(f.at_many(ss, ss), np.stack([f(s, s) for s in ss]))


class TestFeedbackGain:
    def test_scalar_closed_form(self):
        K = np.array([[[2.0]], [[4.0]]])
        L = np.array([[[2.0, 6.0]], [[1.0, 2.0]]])
        np.testing.assert_allclose(feedback_gain(K, L, 0.5, "K", [0.0, 1.0]),
                                   np.linalg.solve(K, L), rtol=0, atol=1e-15)
        with pytest.raises(IllPosedError, match="K lost definiteness at s=1"):
            feedback_gain(np.array([[[2.0]], [[0.2]]]), L, 0.5, "K", [0.0, 1.0])

    def test_cholesky_path(self, rng):
        X = rng.normal(size=(5, 2, 2))
        K = X @ np.swapaxes(X, -1, -2) + np.eye(2)
        L = rng.normal(size=(5, 2, 3))
        np.testing.assert_allclose(feedback_gain(K, L, 1.0, "K", np.arange(5.0)),
                                   np.linalg.solve(K, L), atol=1e-12)
        K[3] = np.diag([2.0, 0.4])   # eigenvalue 0.4 below delta/2 = 0.5
        with pytest.raises(IllPosedError, match="at s=3"):
            feedback_gain(K, L, 1.0, "K", np.arange(5.0))
