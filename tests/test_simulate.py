import numpy as np
import pytest
from oracles import constant_gain, example_oracles

from mflq import (MCConfig, brownian_increments, estimate_cost, semigroup_failure_demo,
                  simulate_closed_loop, solve_precommitment)
from mflq.errors import ConfigurationError, ValidationError
from mflq.simulate import aligned_time_grid, closed_loop_states_at
from mflq.types import PiecewiseGain


class TestNoise:
    def test_deterministic_for_fixed_seed(self):
        mc = MCConfig(paths=100, steps=50, seed=9)
        dts = np.full(50, 0.02)
        np.testing.assert_array_equal(brownian_increments(mc, dts),
                                      brownian_increments(mc, dts))

    def test_seed_changes_draws(self):
        dts = np.full(50, 0.02)
        a = brownian_increments(MCConfig(paths=100, steps=50, seed=1), dts)
        b = brownian_increments(MCConfig(paths=100, steps=50, seed=2), dts)
        assert np.abs(a - b).max() > 0

    def test_antithetic_mirroring(self):
        mc = MCConfig(paths=100, steps=20, seed=3)
        dW = brownian_increments(mc, np.full(20, 0.05))
        np.testing.assert_array_equal(dW[50:], -dW[:50])

    def test_same_draws_as_concatenated_formula(self):
        """Filling one array in place draws exactly what concatenating the
        mirrored half and scaling the result draws."""
        dts = np.linspace(0.01, 0.2, 7)
        for mc in (MCConfig(paths=10, steps=7, seed=5),
                   MCConfig(paths=9, steps=7, seed=5, antithetic=False)):
            rng = np.random.Generator(np.random.Philox(key=mc.seed))
            Z = rng.standard_normal((mc.paths // 2 if mc.antithetic else mc.paths, 7))
            if mc.antithetic:
                Z = np.concatenate([Z, -Z], axis=0)
            np.testing.assert_array_equal(brownian_increments(mc, dts),
                                          Z * np.sqrt(dts)[None, :])

    def test_variance_scaling(self):
        mc = MCConfig(paths=200000, steps=1, seed=4)
        dW = brownian_increments(mc, np.array([0.25]))
        assert dW.var() == pytest.approx(0.25, rel=0.02)


class TestMCConfig:
    def test_antithetic_needs_two_pairs(self):
        """Two antithetic paths are one pair: the paired stderr would be NaN."""
        with pytest.raises(ConfigurationError, match="at least 4 paths, got 2"):
            MCConfig(paths=2)
        MCConfig(paths=4)
        MCConfig(paths=2, antithetic=False)


class TestAlignedGrid:
    def test_contains_requested_nodes(self):
        grid = aligned_time_grid(0.0, 1.0, 100, (0.3, 0.7))
        for v in (0.0, 0.3, 0.7, 1.0):
            assert np.abs(grid - v).min() < 1e-12
        assert np.all(np.diff(grid) > 0)

    def test_step_count_respected(self):
        grid = aligned_time_grid(0.0, 1.0, 64, ())
        assert len(grid) == 65


class TestSemigroupDemo:
    def test_gap_matches_closed_form(self):
        mc = MCConfig(paths=30000, steps=1200, seed=0)
        rep = semigroup_failure_demo(1.0, 0.5, 0.0, 1.0, mc)
        assert abs(rep["simulated"] - rep["closed_form"]) < 3 * rep["stderr"] \
            + 0.05 * rep["closed_form"]

    def test_no_restart_gives_zero(self):
        mc = MCConfig(paths=2000, steps=100, seed=0)
        rep = semigroup_failure_demo(1.0, 0.0, 0.0, 1.0, mc)
        assert rep["simulated"] == 0.0

    @pytest.mark.parametrize("s, tau, t", [(1.0, 0.2, 0.5), (0.4, 0.5, 0.0),
                                           (1.0, float("nan"), 0.0)])
    def test_rejects_times_out_of_order(self, s, tau, t):
        """t <= tau <= s is checked whatever the interpreter's -O flag."""
        with pytest.raises(ConfigurationError, match="t <= tau <= s"):
            semigroup_failure_demo(s, tau, t, 1.0, MCConfig(paths=4, steps=4))


class TestOracles:
    def test_value_consistency(self):
        o = example_oracles()
        assert o.value(0.0, 1.0) == pytest.approx(o.phat(0.0))
        assert o.mean(1.0, 0.0, 2.0) == pytest.approx(1.0)
        assert o.control(0.0, 1.0) == pytest.approx(-0.5)

    def test_discount_riccati_exponential_is_consistent(self):
        o = example_oracles()
        lam = 0.4
        rho = lambda s, t: np.exp(-lam * (s - t))
        g = lambda t: np.exp(-lam * (1.0 - t))
        assert o.consistency_witness(rho, g)
        # restriction property: p(s,t)/rho(s,t) is independent of t, so the
        # t = 0 solution restricted to [0.5, T] matches the t = 0.5 one after
        # discount normalization
        t0, p0 = o.discount_riccati(rho, g, 0.0)
        t5, p5 = o.discount_riccati(rho, g, 0.5)
        j = int(np.argmin(np.abs(t0 - 0.5)))
        assert p0[j] / rho(0.5, 0.0) == pytest.approx(p5[0], abs=1e-6)

    def test_hyperbolic_discount_is_inconsistent(self):
        o = example_oracles()
        rho = lambda s, t: 1.0 / (1.0 + 2.0 * (s - t))
        g = lambda t: 1.0
        assert not o.consistency_witness(rho, g)
        t0, p0 = o.discount_riccati(rho, g, 0.0)
        t5, p5 = o.discount_riccati(rho, g, 0.5)
        j = int(np.argmin(np.abs(t0 - 0.5)))
        assert abs(p0[j] - p5[0]) > 1e-3


class TestSimulation:
    def test_empirical_mean_tracks_conditional_mean(self, ex12):
        sol = solve_precommitment(ex12, 0.0)
        pg = PiecewiseGain.single(0.0, 1.0, sol.times, sol.Theta, sol.Theta_hat)
        mc = MCConfig(paths=20000, steps=100, seed=6)
        ens = simulate_closed_loop(ex12, pg, 0.0, [1.0], mc)
        emp = ens.states[:, :, 0].mean(axis=0)
        stderr = ens.states[:, :, 0].std(axis=0) / np.sqrt(mc.paths)
        assert np.all(np.abs(emp - ens.cond_mean[:, 0]) <= 3 * stderr + 1e-3)

    def test_constant_gain_accepted(self, ex12):
        mc = MCConfig(paths=50, steps=20, seed=1)
        ens = simulate_closed_loop(ex12, constant_gain(ex12.T, [[0.0]], [[0.0]]),
                                   0.0, [1.0], mc)
        assert ens.states.shape == (50, 21, 1)
        # zero gains: pure geometric dynamics, cond_mean constant (A = 0)
        np.testing.assert_allclose(ens.cond_mean[:, 0], 1.0, atol=1e-12)

    def test_tuple_gains_refused_by_name(self, ex12):
        """A (theta, theta_hat) tuple, a form once accepted, names the type
        that replaced it instead of failing on a missing attribute."""
        mc = MCConfig(paths=50, steps=20, seed=1)
        zero = (np.zeros((1, 1)), np.zeros((1, 1)))
        for run in (lambda: simulate_closed_loop(ex12, zero, 0.0, [1.0], mc),
                    lambda: closed_loop_states_at(ex12, zero, 0.0, [1.0], mc, 0.5)):
            with pytest.raises(ConfigurationError, match="PiecewiseGain.*got tuple"):
                run()

    def test_states_at_snaps_only_to_nodes(self, ex12):
        """s snaps to an Euler node within 1e-9 (1 + T) and is refused off the
        grid: at 8 steps 0.37 lies between nodes, 5.0 past T, -1.0 before 0."""
        mc = MCConfig(paths=4, steps=8, seed=1)
        zero = constant_gain(ex12.T, [[0.0]], [[0.0]])
        np.testing.assert_array_equal(
            closed_loop_states_at(ex12, zero, 0.0, [1.0], mc, 0.375 + 1e-12),
            closed_loop_states_at(ex12, zero, 0.0, [1.0], mc, 0.375))
        for s in (0.37, 5.0, -1.0):
            with pytest.raises(ValidationError, match="not a grid node"):
                closed_loop_states_at(ex12, zero, 0.0, [1.0], mc, s)

    def test_estimate_cost_shape_and_determinism(self, ex12):
        sol = solve_precommitment(ex12, 0.0, ex12.T / 2000)
        pg = PiecewiseGain.single(0.0, 1.0, sol.times, sol.Theta, sol.Theta_hat)
        mc = MCConfig(paths=2000, steps=100, seed=8)
        a = estimate_cost(ex12, simulate_closed_loop(ex12, pg, 0.0, [1.0], mc), 0.0)
        b = estimate_cost(ex12, simulate_closed_loop(ex12, pg, 0.0, [1.0], mc), 0.0)
        assert a == b
        # the pre-commitment control depends only on the deterministic
        # conditional mean, so the R-cost layer has zero path variance here
        assert a[1] == 0.0
        assert a[0] == pytest.approx(0.5, abs=5e-3)

    def test_estimate_cost_needs_the_ensemble_start(self, ex12):
        """J(t, .) is a cost of the state process started at t."""
        mc = MCConfig(paths=8, steps=10, seed=2)
        gains = constant_gain(ex12.T, [[1.0]], [[1.0]])
        ens = simulate_closed_loop(ex12, gains, 0.5, [1.0], mc)
        assert np.all(np.isfinite(estimate_cost(ex12, ens, 0.5)))
        for t in (0.0, 0.25):
            with pytest.raises(ConfigurationError, match=f"t = {t} .* t = 0.5"):
                estimate_cost(ex12, ens, t)

