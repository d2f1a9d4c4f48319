"""The measured default step: coefficient breakpoints on march nodes, the
pilot that chooses the step, and the Hermite dense output that returns the
paths at step T/2000."""

import dataclasses

import numpy as np
import pytest

from mflq import (BUNDLED, IllPosedError, MatrixFn, TimeGrid, TwoTimeMatrixFn,
                  build_delta_equilibrium, bundled_document, bundled_problem,
                  direct_diagonal_solve, hat, parse_problem, solve_open_loop,
                  solve_precommitment)
from mflq import integrators, precommit, solve_closed_loop
from mflq.closedloop import MARCH_SHARE
from mflq.integrators import march_times

PATHS = ("P", "Phat", "Theta", "Theta_hat")


def _synthetic(n=4, m=2, seed=7):
    """A time-inconsistent n = 4 problem: random dynamics with mean-field
    terms, discounted weights."""
    rng = np.random.default_rng(seed)

    def mat(r, c, scale):
        return (scale * rng.normal(size=(r, c))).tolist()

    def spd(k, base):
        X = rng.normal(size=(k, k))
        return (base * np.eye(k) + 0.1 * X @ X.T).tolist()

    return parse_problem({
        "n": n, "m": m, "T": 1.0, "delta": 0.5,
        "coefficients": {"A": mat(n, n, 0.3), "Abar": mat(n, n, 0.1),
                         "B": mat(n, m, 0.3), "Bbar": mat(n, m, 0.1),
                         "C": mat(n, n, 0.2), "Cbar": mat(n, n, 0.1),
                         "D": mat(n, m, 0.2), "Dbar": mat(n, m, 0.1)},
        "weights": {"Q": {"kind": "exp_discount", "lambda": 0.3, "base": spd(n, 1.0)},
                    "Qbar": spd(n, 0.2),
                    "R": {"kind": "exp_discount", "lambda": 0.2, "base": spd(m, 1.0)},
                    "Rbar": spd(m, 0.1), "G": spd(n, 1.0), "Gbar": spd(n, 0.2)}})


def _problem(name):
    return _synthetic() if name == "synthetic" else bundled_problem(name)


def _ill_posed():
    """meanfield with Rhat = 0.05 below delta/2 (see test_precommit_parity)."""
    doc = bundled_document("meanfield")
    doc["weights"]["Rbar"] = [[-0.95]]
    return parse_problem(doc)


class TestBreakpoints:
    def test_carried_through_samples_and_sums(self):
        f = MatrixFn.from_samples([0.0, 0.25, 1.0], [1.0, 2.0, 0.0], 1.0)
        g = MatrixFn.from_samples([0.0, 0.5, 1.0], [1.0, 2.0, 0.0], 1.0)
        assert f.breakpoints == (0.0, 0.25, 1.0)
        assert (f + g).breakpoints == (0.0, 0.25, 0.5, 1.0)
        assert (f + MatrixFn.constant([[1.0]], 1.0)).breakpoints == f.breakpoints
        assert MatrixFn.polynomial([[[1.0]], [[2.0]]], 1.0).breakpoints == ()

    def test_lags_carried_through_sums_and_shifted_by_frozen(self):
        w = TwoTimeMatrixFn.from_lag_samples([0.0, 0.125, 1.0], [1.0, 0.5, 0.25], 1.0)
        assert w.breakpoints == (0.0, 0.125, 1.0)
        assert (w + TwoTimeMatrixFn.exp_discount(0.3, [[1.0]], 1.0)).breakpoints \
            == w.breakpoints
        assert w.frozen(0.5).breakpoints == (0.5, 0.625, 1.5)

    def test_carried_through_hat(self, discounting):
        knots = tuple(np.arange(9) / 8)        # Qbar samples the lag at k/8
        assert discounting.Qbar.breakpoints == knots
        assert hat(discounting).Q.breakpoints == knots
        assert hat(discounting).A.breakpoints == ()
        np.testing.assert_allclose(discounting.breakpoints((0.0, 0.4)),
                                   sorted(set(knots) | {0.4 + u for u in knots}))

    def test_march_times_put_them_on_nodes(self):
        times = march_times(0.1, 1.0, 0.1, (-1.0, 0.125, 0.3, 0.30000000001, 2.0))
        assert {0.1, 0.125, 0.3, 1.0} <= set(times.tolist())
        assert np.all(np.diff(times) > 0) and np.diff(times).max() <= 0.1 + 1e-15
        assert times[0] == 0.1 and times[-1] == 1.0

    def test_grid_holding_every_breakpoint_is_unchanged(self):
        uniform = march_times(0.0, 1.0, 1 / 2000)
        assert np.array_equal(march_times(0.0, 1.0, 1 / 2000, (0.125, 0.5, 0.875)),
                              uniform)

    def test_solves_on_such_grids_are_bit_identical(self, discounting):
        """At h = T/2000 every grid holds the knots of discounting's Qbar, so
        the solves equal those of the same problem without breakpoints."""
        bare = dataclasses.replace(
            discounting, Qbar=dataclasses.replace(discounting.Qbar, breakpoints=()))
        h = discounting.T / 2000
        for t in (0.0, 0.4):
            a, b = solve_precommitment(discounting, t, h), solve_precommitment(bare, t, h)
            for name in ("times",) + PATHS:
                assert np.array_equal(getattr(a, name), getattr(b, name))
        grid = TimeGrid.uniform(discounting.T, 4)
        a = build_delta_equilibrium(discounting, grid, h)
        b = build_delta_equilibrium(bare, grid, h)
        assert np.array_equal(a.node_triples, b.node_triples, equal_nan=True)
        for x, y in zip(a.intervals, b.intervals):
            assert np.array_equal(x.times, y.times) and np.array_equal(x.Theta_hat,
                                                                       y.Theta_hat)

    @pytest.mark.parametrize("t", [0.1, 0.4])
    def test_knots_on_nodes_keep_fourth_order(self, discounting, t):
        """The uniform grids over [t, T] at these steps miss the knots t + k/8;
        with the knots off the nodes the error fell only 3.2-3.4x over the
        first halving, and now it falls about 16x per halving."""
        ref = solve_precommitment(discounting, t, discounting.T / 3072).Phat[0]
        errs = [np.abs(solve_precommitment(discounting, t, discounting.T / s).Phat[0]
                       - ref).max() for s in (48, 96, 192)]
        assert errs[0] / errs[1] >= 12 and errs[1] / errs[2] >= 12


class TestPilot:
    @pytest.mark.parametrize("name", BUNDLED + ("synthetic",))
    def test_step_within_bounds(self, name):
        problem = _problem(name)
        choice = precommit.step_choice(problem)
        assert problem.T / 2000 <= choice.step <= problem.T / 64
        assert 0 < choice.pilot_error < 1e-8
        assert precommit.default_step(problem) == choice.step

    @pytest.mark.parametrize("name", BUNDLED + ("synthetic",))
    def test_step_for_a_target_follows_the_h4_law(self, name):
        """The step for a target e is the default step times
        (e / STEP_TOL)^(1/4), clamped to [T/2000, T/64], with the same pilot
        estimate; solve_closed_loop's target at the default tol gives T/64."""
        problem = _problem(name)
        choice = precommit.step_choice(problem)
        for e in (1e-15, 1e-13, 1e-11, 1e-9, 1e-7):
            law = choice.step * (e / precommit.STEP_TOL) ** 0.25
            step, err = precommit.step_choice(problem, e)
            assert step == pytest.approx(min(max(law, problem.T / 2000), problem.T / 64),
                                         rel=1e-12)
            assert err == choice.pilot_error
        assert precommit.default_step(problem, 1e-4 * MARCH_SHARE) == problem.T / 64

    def test_cached_per_problem_object(self, monkeypatch):
        problem = bundled_problem("ex12")
        marches = []
        march = integrators.rk4_march

        def spy(*args, **kwargs):
            marches.append(len(args[1]) - 1)
            return march(*args, **kwargs)

        monkeypatch.setattr(integrators, "rk4_march", spy)
        step = precommit.default_step(problem)
        assert marches == [64, 128]
        assert precommit.default_step(problem) == step and marches == [64, 128]
        # every target reads the same pilot
        assert precommit.default_step(problem, 1e-7) == problem.T / 64
        assert marches == [64, 128]
        # a copy is another problem object, with its own cache
        assert precommit.default_step(dataclasses.replace(problem)) == step
        assert marches == [64, 128] * 2

    def test_ill_posed_problem_falls_back(self):
        """The pilot raises, so the step is T/2000 for every target, that of
        solve_closed_loop's games included, and the solve raises what it
        raises there."""
        problem = _ill_posed()
        assert precommit.step_choice(problem) == (problem.T / 2000, None)
        assert precommit.step_choice(problem, 1e-4 * MARCH_SHARE) == (problem.T / 2000,
                                                                      None)
        with pytest.raises(IllPosedError, match=r"Rhat\(t\)\+Dhat'PDhat lost definiteness"):
            solve_precommitment(problem, 0.0)


class TestDenseOutput:
    def test_hermite_order_on_ex12(self, ex12, monkeypatch):
        """Phat = 1/(T - s + 1): at the T/2000 output nodes the error falls
        at least 12x per halving of the march step."""
        errs = []
        for steps in (8, 16, 32, 64):
            monkeypatch.setattr(precommit, "default_step",
                                lambda p, target=precommit.STEP_TOL, h=ex12.T / steps: h)
            sol = solve_precommitment(ex12, 0.0)
            assert len(sol.times) == 2001
            errs.append(np.abs(sol.Phat[:, 0, 0] - 1.0 / (ex12.T - sol.times + 1.0)).max())
        assert all(a / b >= 12 for a, b in zip(errs, errs[1:])), errs

    def test_default_marches_at_the_pilot_step(self, meanfield, monkeypatch):
        marches = []
        march = integrators.rk4_march

        def spy(rhs, times, terminal, symmetric=False, slopes=None):
            marches.append((len(times) - 1, slopes is not None))
            return march(rhs, times, terminal, symmetric, slopes)

        precommit.default_step(meanfield)
        monkeypatch.setattr(integrators, "rk4_march", spy)
        sol = solve_precommitment(meanfield, 0.4)
        steps = int(np.ceil(0.6 / precommit.default_step(meanfield)))
        assert marches == [(steps, True)] and len(sol.times) == 1201


def test_every_pair_solve_runs_the_one_pair_march(monkeypatch):
    """The pilot, solve_precommitment and every game interval march the pair
    through `precommit._pair_march`, the one caller of dense_march in
    precommit: two pilot marches, one per solve, one per game interval."""
    marches = []
    march = precommit.dense_march

    def spy(rhs, times, out, terminal, symmetric=False):
        marches.append(len(times) - 1)
        return march(rhs, times, out, terminal, symmetric)

    monkeypatch.setattr(precommit, "dense_march", spy)
    problem = bundled_problem("meanfield")
    precommit.step_choice(problem)
    assert marches == [64, 128]
    solve_precommitment(problem, 0.4, 0.01)
    assert marches[2:] == [60]
    build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 4), 0.01)
    assert marches[3:] == [25] * 4


def test_refinement_games_march_at_the_tolerance_step(monkeypatch):
    """Every game interval of solve_closed_loop(discounting) marches at the
    step for tol * MARCH_SHARE, T/64 (every interval and knot of its
    partitions lies on that grid), and returns on the T/2000 output grid; a
    game built on its own marches at the default step."""
    marches = []
    march = precommit.dense_march

    def spy(rhs, times, out, terminal, symmetric=False):
        marches.append((np.diff(times).max(), np.diff(out).max()))
        return march(rhs, times, out, terminal, symmetric)

    problem = bundled_problem("discounting")
    coarse, default = (precommit.default_step(problem, e)
                       for e in (1e-4 * MARCH_SHARE, precommit.STEP_TOL))
    assert coarse == problem.T / 64 > default
    monkeypatch.setattr(precommit, "dense_march", spy)
    sol = solve_closed_loop(problem)
    assert len(marches) == sum(r["N"] for r in sol.trace) == 4 + 8 + 16
    for step, out in marches:
        assert step == pytest.approx(coarse, rel=1e-12)
        assert out == pytest.approx(problem.T / 2000, rel=1e-9)
    marches.clear()
    build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 4))
    assert len(marches) == 4
    for step, out in marches:
        assert default / 1.1 < step <= default
        assert out == pytest.approx(problem.T / 2000, rel=1e-9)


def _at(ref_times, times):
    """Indices of `times` in the finer grid `ref_times`."""
    i = np.searchsorted(ref_times, times - 1e-12)
    np.testing.assert_allclose(ref_times[i], times, rtol=0, atol=1e-12)
    return i


def _gap(a, b):
    return float(np.nanmax(np.abs(a - b)) / (1.0 + np.nanmax(np.abs(b))))


@pytest.mark.parametrize("name", BUNDLED + ("synthetic",))
def test_default_solves_match_a_finer_reference(name):
    """Every default solve lies within 1e-10 (1 + max|ref|) of an explicit
    solve at an eighth of its step or less, at the default's output nodes:
    the references of the pre-commitment pair and the game march at T/4000,
    whose grids hold the T/2000 output nodes."""
    problem = _problem(name)
    fine = problem.T / 4000
    assert fine <= precommit.default_step(problem) / 8
    for t in (0.0, 0.4):
        sol, ref = solve_precommitment(problem, t), solve_precommitment(problem, t, fine)
        i = _at(ref.times, sol.times)
        for path in PATHS:
            assert _gap(getattr(sol, path), getattr(ref, path)[i]) <= 1e-10, (t, path)
    grid = TimeGrid.uniform(problem.T, 16)
    eq, ref = build_delta_equilibrium(problem, grid), build_delta_equilibrium(problem, grid, fine)
    assert _gap(eq.node_triples, ref.node_triples) <= 1e-10
    for iv, rv in zip(eq.intervals, ref.intervals):
        i = _at(rv.times, iv.times)
        for path in PATHS:
            assert _gap(getattr(iv, path), getattr(rv, path)[i]) <= 1e-10, path
    h = precommit.default_step(problem) / 8
    direct, ref = (direct_diagonal_solve(problem, h=x, t_nodes=32) for x in (None, h))
    for field in ("Gamma", "Gamma_hat", "Theta", "Theta_hat"):
        assert _gap(getattr(direct, field), getattr(ref, field)) <= 1e-10, field
    if not problem.has_mean_field_dynamics:
        sol, ref = (solve_open_loop(problem, h=x, t_nodes=32) for x in (None, h))
        for field in ("P", "Phat"):
            assert _gap(getattr(sol, field).values, getattr(ref, field).values) <= 1e-10
        assert _gap(sol.Theta_open, ref.Theta_open) <= 1e-10
