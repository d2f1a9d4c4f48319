"""The shared variant-cost kernel behind both Monte Carlo equilibrium checks.

A probe is an (m, 2n + 1) control map on [X; W; 1].  A probe equal to the
equilibrium's own control map must march exactly as the equilibrium does, so
its excess cost is zero on every path; a shifted map must not be.

The kernel marches [y; 1] per path and the mean propagator Phi once per tail.
It must give the costs of the mirrored formulation, which marches
[y, E_t y, 1] on every path, on the systems both checks build.  Before the
last player the deviation check splits the path march at t_{k+1}: the
variants march the window, and one march of polarization columns carries
the shared tail; that split must give the same costs, and must refuse a tail
that is not shared.  The spike test splits at its last spike's end, its
form anchored on the equilibrium row's state, under the same conditions.
"""

from dataclasses import replace

import numpy as np
import pytest

import mflq.game
import mflq.openloop
import mflq.simulate
from mflq import (GainSegment, MCConfig, PiecewiseGain, TimeGrid, build_delta_equilibrium,
                  delta_local_optimality_check, solve_open_loop,
                  verify_open_loop_equilibrium)
from mflq.errors import ConfigurationError
from mflq.simulate import (euler_maruyama, euler_transition, sandwich, stack_rows,
                           trapezoid_weights, variant_costs)


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



def _mirrored_variant_costs(problem, grid, dW, y0, drift, noise, controls, reset=None,
                            tail=None):
    """Reference: every variant carries [y, E_t y, 1] on every path, the E_t
    rows mirroring the Euler recursion and the re-anchoring, and every cost
    term is read along the march.  It marches every variant to T, so it
    ignores `tail`."""
    n, m = problem.n, problem.m
    ny = y0.shape[0]
    Y, EY = np.split(np.eye(2 * ny, 2 * ny + 1), 2)
    zero = np.zeros(controls.shape[:-1] + (ny,))
    c = np.concatenate([controls[..., :ny], zero, controls[..., ny:]], axis=-1)
    ec = np.concatenate([zero, controls], axis=-1)
    F, G, Nx, Nc = (M[:, None] for M in drift + noise)
    gen = stack_rows((F @ Y + G @ c, F @ EY + G @ ec, np.zeros((1, 1, 1, 2 * ny + 1))))
    t = grid[0]
    Q, Qb, R, Rb = (f.at_many(grid, t)[:, None] for f in (
        problem.Q, problem.Qbar, problem.R, problem.Rbar))
    weight = trapezoid_weights(grid)[:, None, None, None] * (
        sandwich(Y[:n], Q) + sandwich(EY[:n], Qb)
        + sandwich(c[..., :m, :], R) + sandwich(ec[..., :m, :], Rb))
    weight[-1] += sandwich(Y[:n], problem.G(t)) + sandwich(EY[:n], problem.Gbar(t))
    if reset is not None:
        mask, dst, src = reset
        rows = np.arange(ny)
        reset = (mask, np.r_[rows[dst], ny + rows[dst]], np.r_[rows[src], ny + rows[src]])
    Z = np.concatenate([y0, y0, np.ones((1, y0.shape[1]))])
    return euler_maruyama(Z, euler_transition(gen[:-1], np.diff(grid)),
                          (Nx @ Y + Nc @ c)[:-1], dW, weight=weight, reset=reset)[1]


def _kernel_calls(monkeypatch, module, run):
    """The arguments of every variant_costs call the module makes in run()."""
    calls = []
    real = module.variant_costs

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(module, "variant_costs", spy)
        run()
    assert calls
    return calls


def _game_calls(monkeypatch, problem, k, eq=None, antithetic=True):
    if eq is None:
        eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 4))
    return _kernel_calls(monkeypatch, mflq.game, lambda: delta_local_optimality_check(
        problem, eq, k, np.linspace(1.0, -0.5, problem.n),
        mc=MCConfig(paths=60, steps=40, seed=8, antithetic=antithetic)))


def _spike_calls(monkeypatch, problem, check_times=(0.3,), eps_list=(0.1,), antithetic=True):
    sol = solve_open_loop(problem, t_nodes=8)
    return _kernel_calls(monkeypatch, mflq.openloop, lambda: verify_open_loop_equilibrium(
        problem, sol, np.ones(problem.n), check_times=list(check_times),
        eps_list=list(eps_list), mc=MCConfig(paths=60, steps=40, seed=9,
                                             antithetic=antithetic)))


def _assert_matches_mirrored(args, kwargs):
    ref = _mirrored_variant_costs(*args, **kwargs)
    got = variant_costs(*args, **kwargs)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("name, k", [("meanfield", 1), ("discounting", 0)])
def test_game_tail_matches_mirrored_rows(name, k, monkeypatch, request):
    """meanfield, player 1: mean-field dynamics and two re-anchorings after
    t_1; discounting, player 0: non-constant weights from a fixed start."""
    problem = request.getfixturevalue(name)
    for args, kwargs in _game_calls(monkeypatch, problem, k):
        _assert_matches_mirrored(args, kwargs)


@pytest.mark.parametrize("name", ["ex12", "discounting"])
def test_spike_tail_matches_mirrored_rows(name, monkeypatch, request):
    """Problems whose hat weights are not zero, so the E_t part of the cost
    counts.  The three spikes at t = 0.3 share the uniform 40-step grid, so
    they are the 1 + 3 x 3 variants of one call, split at the largest
    spike's end; the spike [0.5, 1] ends at T, so its tail has no step.
    Every split is anchored on the equilibrium row's state."""
    problem = request.getfixturevalue(name)
    assert problem.Gbar(0.3).any()
    n = problem.n
    for antithetic in (True, False):
        (args, kwargs), = _spike_calls(monkeypatch, problem, eps_list=(0.025, 0.1, 0.05),
                                       antithetic=antithetic)
        grid, controls = args[1], args[6]
        w, basis, anchored = kwargs["tail"]
        assert controls.shape[1] == 1 + 3 * 3 and anchored
        assert grid[w] == pytest.approx(0.4, abs=1e-12)
        np.testing.assert_array_equal(basis, np.eye(2 * n + 1, n))
        _assert_matches_mirrored(args, kwargs)
        (args, kwargs), = _spike_calls(monkeypatch, problem, check_times=(0.5,),
                                       eps_list=(0.5,), antithetic=antithetic)
        assert kwargs["tail"][0] == len(args[1]) - 1
        _assert_matches_mirrored(args, kwargs)


def test_reanchored_mean_from_a_partner_off_the_state(meanfield, monkeypatch, rng):
    """Started with W != X, the re-anchoring W := X changes E_t y, so the
    propagator Phi must carry it as the mirrored rows do."""
    (args, kwargs), = _game_calls(monkeypatch, meanfield, 1)
    y0 = args[3].copy()
    y0[meanfield.n:] += rng.normal(scale=0.5, size=y0[meanfield.n:].shape)
    args = args[:3] + (y0,) + args[4:]
    assert args[-1][0].any()    # the reset mask: re-anchorings do happen
    _assert_matches_mirrored(args, kwargs)


def test_per_path_march_carries_only_y_and_one(meanfield, monkeypatch):
    """Per variant, each path marches ny + 1 rows over the window [t_1, t_2);
    the shared tail is one march of n(n + 1)/2 columns of y alone; the mean
    propagator is one march on the (ny + 1)-column identity over the whole
    grid."""
    (args, kwargs), = _game_calls(monkeypatch, meanfield, 1)
    ny, paths = args[3].shape
    n, steps = meanfield.n, len(args[1]) - 1
    w = kwargs["tail"][0]
    marched = []
    real = mflq.simulate.euler_maruyama

    def spy(Z, drift, *rest, **kw):
        marched.append((Z.shape, len(drift)))
        return real(Z, drift, *rest, **kw)

    monkeypatch.setattr(mflq.simulate, "euler_maruyama", spy)
    variant_costs(*args, **kwargs)
    assert 0 < w < steps
    assert marched == [((ny + 1, ny + 1), steps), ((ny + 1, paths), w),
                       ((n * (n + 1) // 2, ny, paths), steps - w)]


def test_last_player_marches_every_variant_to_T(meanfield, monkeypatch):
    """The last player has no re-anchoring before T, so no shared tail: the
    variants march [y; 1] over the whole grid in one batch, the march the
    kernel made before the split, and the split never runs."""
    (args, kwargs), = _game_calls(monkeypatch, meanfield, 3)
    assert kwargs["tail"] is None
    ny, paths = args[3].shape
    steps = len(args[1]) - 1
    marched = []
    real = mflq.simulate.euler_maruyama

    def spy(Z, drift, *rest, **kw):
        marched.append((Z.shape, len(drift)))
        return real(Z, drift, *rest, **kw)

    def refuse(*args):
        raise AssertionError("the last player's march was split")

    monkeypatch.setattr(mflq.simulate, "euler_maruyama", spy)
    monkeypatch.setattr(mflq.simulate, "_shared_tail_cost", refuse)
    variant_costs(*args, **kwargs)
    assert marched == [((ny + 1, ny + 1), steps), ((ny + 1, paths), steps)]


@pytest.mark.parametrize("name", ["ex12", "meanfield", "discounting"])
def test_split_tail_matches_mirrored_rows_for_every_player(name, monkeypatch, request):
    """Every player of an N = 4 game, with and without antithetic sampling:
    the split march gives the mirrored costs, and it splits exactly at
    t_{k+1} for every player but the last, who has no shared tail."""
    problem = request.getfixturevalue(name)
    eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 4))
    n = problem.n
    for antithetic in (True, False):
        for k in range(eq.N):
            (args, kwargs), = _game_calls(monkeypatch, problem, k, eq, antithetic)
            if k == eq.N - 1:
                assert kwargs["tail"] is None
            else:
                w, basis = kwargs["tail"]
                assert args[1][w] == pytest.approx(eq.partition.nodes[k + 1], abs=1e-12)
                np.testing.assert_array_equal(
                    basis, np.concatenate([np.eye(n), np.eye(n), np.zeros((1, n))]))
            _assert_matches_mirrored(args, kwargs)


def test_game_probe_equal_to_equilibrium_map_before_each_split(meanfield, monkeypatch):
    """Players 0 and 2 as player 1 above: the probe that applies the
    equilibrium's own map has excess cost exactly 0 through the split."""
    eq = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 4))
    frozen = PiecewiseGain(eq.partition, tuple(
        GainSegment(s.times, np.repeat(s.theta[:1], len(s.times), axis=0),
                    np.repeat(s.theta_hat[:1], len(s.times), axis=0))
        for s in eq.gains.segments))
    eq = replace(eq, gains=frozen)
    costs = _spy_costs(monkeypatch, mflq.game)
    for k in (0, 2):
        th, thh = (g[0] for g in frozen.at_many(eq.partition.nodes[k:k + 1]))
        own = np.concatenate([-th, th - thh, np.zeros((1, 1))], axis=1)
        shifted = own + np.array([[0.0, 0.0, 0.1, 0.0, 0.0]])
        monkeypatch.setattr(mflq.game, "_deviation_probes",
                            lambda *args: [("own", own), ("shifted", shifted)])
        for antithetic in (True, False):
            costs.clear()
            rep = delta_local_optimality_check(
                meanfield, eq, k, [1.0, -0.5],
                mc=MCConfig(paths=40, steps=40, seed=8, antithetic=antithetic))
            _assert_own_zero_shifted_not(costs[0], rep["records"])
            assert rep["records"][0]["excess_cost"] == 0.0


def _split_call(monkeypatch, problem):
    """Player 1's kernel call of an N = 4 game, its tail split at t_2."""
    (args, kwargs), = _game_calls(monkeypatch, problem, 1)
    return list(args), kwargs, kwargs["tail"][0]


@pytest.mark.parametrize("name", ["ex12", "meanfield"])
def test_split_refuses_a_tail_control_that_differs(name, monkeypatch, request):
    """One variant's map one node past t_{k+1}, or a constant term in every
    variant's tail map, breaks the shared tail."""
    args, kwargs, w = _split_call(monkeypatch, request.getfixturevalue(name))
    controls = args[6]
    for variants, col in ((1, 0), (slice(None), -1)):
        bad = controls.copy()
        bad[w + 1, variants, 0, col] += 1e-9
        with pytest.raises(ConfigurationError, match="one control map"):
            variant_costs(*args[:6], bad, *args[7:], **kwargs)


def _anchored_call(monkeypatch, problem):
    """The kernel call of the spike test's three spikes at t = 0.3, its tail
    anchored at t + 0.1."""
    (args, kwargs), = _spike_calls(monkeypatch, problem, eps_list=(0.1, 0.05, 0.025))
    return list(args), kwargs, kwargs["tail"][0]


@pytest.mark.parametrize("name", ["classical", "ex12"])
def test_anchored_split_refuses_a_tail_control_that_differs(name, monkeypatch, request):
    """One variant's u map at the split node, one variant's partner map one
    node later, or a constant term in every variant's map at the split node,
    breaks the shared tail."""
    problem = request.getfixturevalue(name)
    args, kwargs, w = _anchored_call(monkeypatch, problem)
    m = problem.m
    for node, variants, row, col in ((w, 1, 0, 0), (w + 1, 4, m, problem.n),
                                     (w, slice(None), 0, -1)):
        bad = args[6].copy()
        bad[node, variants, row, col] += 1e-9
        with pytest.raises(ConfigurationError, match="one control map"):
            variant_costs(*args[:6], bad, *args[7:], **kwargs)


@pytest.mark.parametrize("name", ["classical", "ex12"])
def test_anchored_split_refuses_partner_rows_that_differ(name, monkeypatch, request):
    """A spike that also moves one variant's partner control, on the window
    only, leaves that variant's X_eq rows at the split off the anchor's."""
    problem = request.getfixturevalue(name)
    args, kwargs, w = _anchored_call(monkeypatch, problem)
    bad = args[6].copy()
    bad[w - 1, 2, problem.m, -1] += 1e-9
    with pytest.raises(ConfigurationError, match="off the tail's basis"):
        variant_costs(*args[:6], bad, *args[7:], **kwargs)


def test_split_refuses_states_off_the_basis(meanfield, monkeypatch):
    """Without the re-anchoring at t_{k+1} the partner rows E_rho X are not
    X there, so the states at the split are off [I; I; 0]."""
    args, kwargs, w = _split_call(monkeypatch, meanfield)
    mask, dst, src = args[7]
    assert mask[w - 1]
    mask = mask.copy()
    mask[w - 1] = False
    with pytest.raises(ConfigurationError, match="off the tail's basis"):
        variant_costs(*args[:7], (mask, dst, src), **kwargs)
