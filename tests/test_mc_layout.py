"""Monte Carlo layout: step-major increments that the ensemble does not keep,
one grid and one draw per spike test with one head march and one spiked
march per check time, and a deviation-check head that marches only to t_k,
its variants only to t_{k+1}.

Every test here pins the layout or the amount of work; the values themselves
are pinned by test_mc_parity.py and test_simulate.py.
"""

import numpy as np
import pytest

import mflq.openloop
import mflq.simulate
from mflq import (MCConfig, TimeGrid, brownian_increments, build_delta_equilibrium,
                  delta_local_optimality_check, simulate_closed_loop, solve_open_loop,
                  verify_open_loop_equilibrium)
from mflq.simulate import (_DRAW_BLOCK, _closed_loop_system, _start, closed_loop_states_at,
                           euler_maruyama)


def _row_major(mc, dts):
    """The draw as one row-major (paths, steps) array, mirrored, then scaled."""
    rng = np.random.Generator(np.random.Philox(key=mc.seed))
    Z = rng.standard_normal((mc.paths // 2 if mc.antithetic else mc.paths, len(dts)))
    if mc.antithetic:
        Z = np.concatenate([Z, -Z], axis=0)
    return Z * np.sqrt(dts)[None, :]


@pytest.mark.parametrize("rows", [_DRAW_BLOCK - 1, _DRAW_BLOCK + 1, 2 * _DRAW_BLOCK + 3])
@pytest.mark.parametrize("antithetic", [True, False])
def test_increments_match_row_major_across_blocks(rows, antithetic):
    """Drawn rows on either side of the block size give the row-major values
    bit for bit, stored step-major."""
    dts = np.linspace(0.01, 0.03, 13)
    mc = MCConfig(paths=2 * rows if antithetic else rows, steps=len(dts), seed=11,
                  antithetic=antithetic)
    dW = brownian_increments(mc, dts)
    assert dW.shape == (mc.paths, len(dts))
    np.testing.assert_array_equal(dW, _row_major(mc, dts))
    assert all(dW[:, j].flags.c_contiguous for j in range(len(dts)))


def test_ensemble_states_are_the_march_on_the_draw(meanfield):
    """The ensemble keeps no increments: its states are the march of the
    closed-loop system, re-anchoring included, on the draw brownian_increments
    makes for its grid."""
    eq = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 4))
    mc = MCConfig(paths=6, steps=20, seed=2)
    x0 = [1.0, -0.5]
    ens = simulate_closed_loop(meanfield, eq.gains, 0.0, x0, mc)
    cl = _closed_loop_system(meanfield, eq.gains, 0.0, mc.steps)
    np.testing.assert_array_equal(cl.times, ens.times)
    Z = np.repeat(_start(x0), mc.paths, axis=1)
    records = euler_maruyama(Z, cl.drift, cl.noise,
                             brownian_increments(mc, np.diff(ens.times)),
                             observe=cl.observe, reset=cl.reset)[2]
    np.testing.assert_allclose(ens.states, records[:, :meanfield.n].transpose(2, 0, 1),
                               rtol=1e-14, atol=1e-14)


def _count_calls(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def test_spike_test_draws_once(classical, monkeypatch):
    """The default 2 x 3 (t, eps) spikes share one grid and one draw."""
    sol = solve_open_loop(classical, t_nodes=8)
    calls = _count_calls(monkeypatch, mflq.openloop, "brownian_increments")
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=20, steps=400, seed=3))
    assert len(rep["records"]) == 2 * 3 * 3
    assert len(calls) == 1


def test_spike_test_marches_one_head_per_check_time(classical, monkeypatch):
    """One head march per check time serves all three default spikes."""
    sol = solve_open_loop(classical, t_nodes=8)
    calls = _count_calls(monkeypatch, mflq.openloop, "_equilibrium_run")
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=20, steps=400, seed=3))
    assert len(rep["records"]) == 2 * 3 * 3
    assert [call[-1] for call in calls] == [80, 200]


def _per_path_marches(monkeypatch, paths):
    """(steps, state shape, variants) of every march on the paths, from the
    spike test's heads and from its variant kernel; the kernel's march of
    the mean propagator has a basis, not the paths, as columns."""
    marched = []

    def spy_on(module):
        real = module.euler_maruyama

        def spy(Z, drift, *args, **kwargs):
            if Z.shape[-1] == paths:
                marched.append((len(drift), Z.shape, drift.shape[1:-2]))
            return real(Z, drift, *args, **kwargs)

        monkeypatch.setattr(module, "euler_maruyama", spy)

    spy_on(mflq.openloop)
    spy_on(mflq.simulate)
    return marched


def _record_keys(rep):
    return [(r["t"], r["epsilon"], r["probe"]) for r in rep["records"]]


def _expected_keys(check_times, eps_list):
    names = ("const+1", "const-1", "feedback-shift")
    return [(t, e, p) for t in check_times for e in sorted(eps_list, reverse=True)
            for p in names]


def _one_grid_layout(problem, monkeypatch, mc, check_times, eps_list):
    """Run the spike test and check its layout: one draw on one grid that
    holds every t and t + eps as a node, with no step shorter than the node
    tolerance; per t one head 0 -> t, one window t -> t + max eps of
    1 + 3k variants on [X; X_eq; 1] and one anchored tail to T on [X; X_eq];
    records in (t, eps descending, probe) order.  Returns the marches."""
    sol = solve_open_loop(problem, t_nodes=8)
    draws = _count_calls(monkeypatch, mflq.openloop, "brownian_increments")
    heads = _count_calls(monkeypatch, mflq.openloop, "_equilibrium_run")
    spiked = _count_calls(monkeypatch, mflq.openloop, "_spiked_run")
    marched = _per_path_marches(monkeypatch, mc.paths)
    rep = verify_open_loop_equilibrium(problem, sol, np.ones(2), mc=mc,
                                       check_times=check_times, eps_list=eps_list)
    grid = heads[0][2]
    tol = 1e-12 * max(1.0, problem.T)
    assert len(draws) == 1 and len(draws[0][1]) == len(grid) - 1
    assert np.diff(grid).min() > tol
    assert all(call[2] is grid for call in heads + spiked)
    assert len(heads) == len(spiked) == len(check_times)
    eps_desc = np.sort(eps_list)[::-1]
    n, k = problem.n, len(eps_list)
    expected = []
    for t, head, (*_, it, spikes) in zip(check_times, heads, spiked):
        assert head[-1] == it and abs(grid[it] - t) <= tol
        ends = [ie for ie, _ in spikes[::3]]
        np.testing.assert_allclose(grid[ends], t + eps_desc, rtol=0, atol=tol)
        w = max(ends) - it
        expected += [(it, (n, mc.paths), ()), (w, (2 * n + 1, mc.paths), (1 + 3 * k,)),
                     (len(grid) - 1 - it - w, ((n + 1) * (n + 2) // 2, 2 * n, mc.paths), ())]
    assert marched == expected
    assert _record_keys(rep) == _expected_keys(check_times, eps_list)
    return marched


def test_spike_test_marches_once_per_check_time(classical, monkeypatch):
    """The default 2 x 3 spikes on the uniform 400-step grid: per t one head,
    one window t -> t + 0.1 of 1 + 3 x 3 variants and one tail t + 0.1 -> T
    of the 6 columns of the anchored form, 6 marches on the paths."""
    mc = MCConfig(paths=20, steps=400, seed=3)
    marched = _one_grid_layout(classical, monkeypatch, mc, [0.2, 0.5], [0.1, 0.05, 0.025])
    assert [m[0] for m in marched] == [80, 40, 280, 200, 40, 160]


@pytest.mark.parametrize("steps, check_times, eps_list", [
    (7, [0.3], [0.05, 0.4]), (10, [0.3], [0.2, 0.22]), (10, [0.3], [0.1, 0.12, 0.2]),
    (40, [0.2, 0.3], [0.1])])
def test_spike_test_marches_once_per_check_time_on_one_grid(classical, monkeypatch, steps,
                                                            check_times, eps_list):
    """Spike ends off the uniform grid (0.35 at 7 steps; 0.52 and 0.42 at 10)
    become nodes of the one grid and still march once per check time, with
    the records in order also when eps_list is not.  At 40 steps 0.2 + 0.1
    is 0.30000000000000004, one node with the check time 0.3, not a 5.5e-17
    step."""
    _one_grid_layout(classical, monkeypatch, MCConfig(paths=20, steps=steps, seed=4),
                     check_times, eps_list)


def test_deviation_head_stops_at_tk(ex12, monkeypatch):
    """The head marches the it steps up to t_k, with no deterministic mean;
    the variants march only the window [t_k, t_{k+1}), and one march of
    n(n + 1)/2 polarization columns on y = [X; E_rho X] carries the shared
    tail from t_{k+1} to T.  Only the per-path marches count: the tail's one
    march of its mean propagator has a basis, not the paths, as columns."""
    eq = build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4))
    mc = MCConfig(paths=20, steps=40, seed=5)
    marched = []
    real = mflq.simulate.euler_maruyama

    def spy(Z, drift, *args, **kwargs):
        if Z.shape[-1] == mc.paths:
            marched.append((len(drift), Z.shape))
        return real(Z, drift, *args, **kwargs)

    monkeypatch.setattr(mflq.simulate, "euler_maruyama", spy)
    rep = delta_local_optimality_check(ex12, eq, 1, [1.0], mc=mc)
    assert np.isfinite(rep["min_margin"])
    n = ex12.n
    # t_1 = 0.25, t_2 = 0.5: 10 head steps on [X; E_rho X], 10 window steps
    # on [y; 1] for the 11 variants, 20 tail steps on n(n + 1)/2 columns of y
    assert marched == [(10, (2 * n, mc.paths)), (10, (2 * n + 1, mc.paths)),
                       (20, (n * (n + 1) // 2, 2 * n, mc.paths))]


def test_head_states_match_the_full_ensemble(meanfield):
    """The head's states at a node equal the full ensemble's, re-anchoring included."""
    eq = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 4))
    mc = MCConfig(paths=10, steps=40, seed=6)
    x0 = [1.0, -0.5]
    ens = simulate_closed_loop(meanfield, eq.gains, 0.0, x0, mc)
    for s in (0.0, 0.5, 0.75, 1.0):
        it = int(np.argmin(np.abs(ens.times - s)))
        np.testing.assert_array_equal(
            closed_loop_states_at(meanfield, eq.gains, 0.0, x0, mc, s),
            ens.states[:, it].T)
