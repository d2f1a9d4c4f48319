"""Monte Carlo layout: step-major increments that the ensemble does not keep,
one draw, one head march and one spiked march per spike-test check time, and
a deviation-check head that marches only to t_k, its variants only to
t_{k+1}.

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
    """The default 2 x 3 (t, eps) grids share one step count and one draw."""
    sol = solve_open_loop(classical, t_nodes=8)
    calls = _count_calls(monkeypatch, mflq.openloop, "brownian_increments")
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=20, steps=400, seed=3))
    assert len(rep["records"]) == 2 * 3 * 3
    assert len(calls) == 1


def test_spike_test_marches_one_head_per_check_time(classical, monkeypatch):
    """The default 2 x 3 (t, eps) grids agree up to each t and share one draw:
    one head march per check time serves all three spikes."""
    sol = solve_open_loop(classical, t_nodes=8)
    calls = _count_calls(monkeypatch, mflq.openloop, "_equilibrium_run")
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=20, steps=400, seed=3))
    assert len(rep["records"]) == 2 * 3 * 3
    assert [call[-1] for call in calls] == [80, 200]


def test_spike_test_redraws_per_step_count(classical, monkeypatch):
    """Grids whose aligned step counts differ draw their own normals."""
    sol = solve_open_loop(classical, t_nodes=8)
    mc = MCConfig(paths=20, steps=7, seed=4)
    kw = dict(mc=mc, check_times=[0.3], eps_list=[0.4, 0.05])
    grids = [mflq.simulate.aligned_time_grid(0.0, 1.0, 7, (0.3, 0.3 + e)) for e in (0.4, 0.05)]
    assert len(grids[0]) != len(grids[1])
    calls = _count_calls(monkeypatch, mflq.openloop, "brownian_increments")
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2), **kw)
    assert len(calls) == 2
    for rec in rep["records"]:
        assert np.isfinite(rec["ratio"]) and np.isfinite(rec["stderr"])


def test_spike_test_new_draw_marches_new_head(classical, monkeypatch):
    """Grids that agree up to t but differ in step count read other normals
    there, so each marches its own head."""
    sol = solve_open_loop(classical, t_nodes=8)
    grids = [mflq.simulate.aligned_time_grid(0.0, 1.0, 7, (0.3, 0.3 + e)) for e in (0.4, 0.05)]
    np.testing.assert_array_equal(grids[0][:3], grids[1][:3])
    heads = _count_calls(monkeypatch, mflq.openloop, "_equilibrium_run")
    verify_open_loop_equilibrium(classical, sol, np.ones(2), check_times=[0.3],
                                 eps_list=[0.4, 0.05], mc=MCConfig(paths=20, steps=7, seed=4))
    assert len(heads) == 2


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


def test_spike_test_marches_once_per_check_time(classical, monkeypatch):
    """The default 2 x 3 grids are one uniform grid per check time, so the
    three spikes of a t are variants of one march: per t one head 0 -> t,
    one window t -> t + 0.1 of 1 + 3 x 3 variants on [X; X_eq; 1], and one
    tail t + 0.1 -> T of the 6 columns of the anchored form on [X; X_eq]:
    6 marches on the paths, where each (t, eps) used to march its own 4."""
    sol = solve_open_loop(classical, t_nodes=8)
    mc = MCConfig(paths=20, steps=400, seed=3)
    marched = _per_path_marches(monkeypatch, mc.paths)
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2), mc=mc)
    n = classical.n
    pairs = (n + 1) * (n + 2) // 2
    assert marched == [(80, (n, 20), ()), (40, (2 * n + 1, 20), (10,)),
                       (280, (pairs, 2 * n, 20), ()),
                       (200, (n, 20), ()), (40, (2 * n + 1, 20), (10,)),
                       (160, (pairs, 2 * n, 20), ())]
    assert _record_keys(rep) == _expected_keys([0.2, 0.5], [0.1, 0.05, 0.025])


@pytest.mark.parametrize("steps, eps_list, heads, windows", [
    (7, [0.05, 0.4], 2, [4, 4]), (10, [0.2, 0.22], 1, [4, 4]),
    (10, [0.1, 0.12, 0.2], 1, [7, 4])])
def test_spike_test_marches_apart_when_grids_differ(classical, monkeypatch, steps,
                                                   eps_list, heads, windows):
    """Grids that do not coincide march apart, each group its own window of
    1 + 3k variants and its own anchored tail.  At 7 steps the two grids
    have different step counts; at 10 steps 0.22 and 0.12 keep the step
    count but move a node after t (0.52, 0.42), while 0.1 and 0.2 share the
    uniform grid; all 10-step grids share the head up to t.  The records
    keep their order, t, then eps descending, then probe, also when a
    group's spikes are not adjacent in it (0.2 and 0.1 around 0.12)."""
    sol = solve_open_loop(classical, t_nodes=8)
    mc = MCConfig(paths=20, steps=steps, seed=4)
    marched = _per_path_marches(monkeypatch, mc.paths)
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2), check_times=[0.3],
                                       eps_list=eps_list, mc=mc)
    assert [m[2][0] for m in marched if m[2]] == windows
    assert len(marched) == heads + 2 * len(windows)
    assert _record_keys(rep) == _expected_keys([0.3], eps_list)


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
