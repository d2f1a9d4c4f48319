"""The closed-loop ensemble adds up each path's cost in its march.

The reference is the earlier layout: the march records the states and the
controls, [X; u], on every path, and the trapezoid rule runs over those
records afterwards.  The ensemble itself keeps only its states, so its peak
memory is the states and the increments.
"""

import tracemalloc

import numpy as np
import pytest
from oracles import constant_gain

from mflq import (MCConfig, TimeGrid, brownian_increments, build_delta_equilibrium,
                  estimate_cost, simulate_closed_loop)
from mflq.simulate import (_closed_loop_system, _start, euler_maruyama,
                           paired_mean_stderr, trapezoid_weights)

RTOL = 1e-12


def _recorded_cost(problem, gains, t, x0, mc):
    """(per-path Q, R and G cost, (mean, stderr) of J) by the trapezoid rule
    over the full [X; u] records, weights frozen at t."""
    cl = _closed_loop_system(problem, gains, t, mc.steps)
    n = problem.n
    Z = np.repeat(_start(x0), mc.paths, axis=1)
    rec = euler_maruyama(Z, cl.drift, cl.noise, brownian_increments(mc, np.diff(cl.times)),
                         observe=cl.observe, reset=cl.reset)[2]
    X, U = rec[:, :n], rec[:, n:]                       # (L, n, paths), (L, m, paths)
    mean = euler_maruyama(_start(x0), cl.mean_drift, observe=cl.observe,
                          reset=cl.reset)[2][..., 0]
    m, u = mean[:, :n], mean[:, n:]
    w = trapezoid_weights(cl.times)
    Q, R, Qb, Rb = (f.at_many(cl.times, t) for f in (problem.Q, problem.R,
                                                     problem.Qbar, problem.Rbar))
    running = np.einsum("lip,lij,ljp->lp", X, Q, X) + np.einsum("lip,lij,ljp->lp", U, R, U)
    per_path = w @ running + np.einsum("ip,ij,jp->p", X[-1], problem.G(t), X[-1])
    det = np.einsum("li,lij,lj->l", m, Qb, m) + np.einsum("li,lij,lj->l", u, Rb, u)
    det_total = w @ det + m[-1] @ problem.Gbar(t) @ m[-1]
    total, stderr = paired_mean_stderr(per_path, mc.antithetic)
    return per_path, (total + det_total, stderr)


@pytest.mark.parametrize("name, t, x0", [
    ("ex12", 0.0, [1.0]),
    ("classical", 0.0, [1.0, -0.5]),
    ("meanfield", 0.0, [1.0, -0.5]),        # re-anchored at the game's nodes
    ("discounting", 0.2, [1.0]),            # weights that depend on t
])
def test_march_cost_matches_the_recorded_trapezoid(name, t, x0, request):
    problem = request.getfixturevalue(name)
    eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 3), h=problem.T / 200)
    mc = MCConfig(paths=40, steps=30, seed=9)
    ens = simulate_closed_loop(problem, eq.gains, t, x0, mc)
    per_path, expected = _recorded_cost(problem, eq.gains, t, x0, mc)
    np.testing.assert_allclose(ens.cost, per_path, rtol=RTOL,
                               atol=RTOL * float(np.abs(per_path).max()))
    np.testing.assert_allclose(estimate_cost(problem, ens, t), expected, rtol=RTOL,
                               atol=RTOL * abs(expected[0]))


def test_peak_memory_is_the_states_and_the_increments(ex12):
    """No control rows: the march's peak is the state records and the draw,
    with 10% to spare for its step buffers."""
    mc = MCConfig(paths=20000, steps=200, seed=1)
    gains = constant_gain(ex12.T, [[1.0]], [[1.0]])
    tracemalloc.start()
    try:
        ens = simulate_closed_loop(ex12, gains, 0.0, [1.0], mc)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    increments = mc.paths * mc.steps * np.dtype(float).itemsize
    assert ens.states.shape == (mc.paths, mc.steps + 1, ex12.n)
    assert peak <= 1.1 * (ens.states.nbytes + increments)
