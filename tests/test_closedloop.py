import itertools
from dataclasses import replace

import numpy as np
import pytest

from mflq import (BUNDLED, ConvergenceError, MatrixFn, PiecewiseGain, TwoTimeMatrixFn,
                  ValidationError, bundled_problem, direct_diagonal_solve, residual,
                  solve_closed_loop, solve_precommitment)
from mflq.cli import converge_study
from mflq.closedloop import MARCH_SHARE, _assemble, _diagonal_gains, refinements


@pytest.mark.parametrize("kwargs", [{"h": -0.1}, {"h": 0.0}, {"h": float("nan")},
                                    {"t_nodes": 0}, {"t_nodes": -2}])
def test_direct_solve_rejects_bad_step_or_grid(ex12, kwargs):
    with pytest.raises(ValidationError):
        direct_diagonal_solve(ex12, **kwargs)


class TestScalarTerminalOracle:
    def test_direct_solve_matches_ode_reference(self, ex12):
        """Scalar pure-terminal problem: on the diagonal the pair reduces to
        the coupled ODEs  Ghat' = Ghat^2 - G,  G' = 2 G Ghat - G - Ghat^2
        (backward from (0, 1)); checked against a scipy reference."""
        from scipy.integrate import solve_ivp

        def rhs(s, y):
            G, Gh = y
            return [2 * G * Gh - G - Gh * Gh, Gh * Gh - G]

        ref = solve_ivp(rhs, (1.0, 0.0), [0.0, 1.0], rtol=1e-11, atol=1e-12)
        G0, Gh0 = ref.y[:, -1]
        sol = direct_diagonal_solve(ex12, t_nodes=256)
        assert sol.Gamma[0, 0, 0, 0] == pytest.approx(G0, abs=2e-4)
        assert sol.Gamma_hat[0, 0, 0, 0] == pytest.approx(Gh0, abs=2e-4)

    def test_equilibrium_value(self, ex12):
        sol = direct_diagonal_solve(ex12, t_nodes=64)
        v = sol.value(0.0, [2.0])
        assert v == pytest.approx(4.0 * sol.Gamma_hat[0, 0, 0, 0], abs=1e-12)


def test_value_snaps_to_nodes(discounting):
    """value reads Gamma_hat(t, t) at a grid node, snapping within
    1e-9 (1 + T), and refuses any other time instead of reading the nearest
    node: off the grid, past T and before 0."""
    sol = direct_diagonal_solve(discounting, t_nodes=3)
    assert sol.nodes[1] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert sol.value(1.0 / 3.0 + 1e-12, [1.0]) == sol.Gamma_hat[1, 1, 0, 0]
    for off_grid in (0.2, 5.0, -1.0):
        with pytest.raises(ValidationError, match=f"time {off_grid} is not a grid node"):
            sol.value(off_grid, [1.0])


class TestClassicalReduction:
    def test_refinement_is_immediately_cauchy(self, classical):
        sol = solve_closed_loop(classical, N0=4, tol=1e-6)
        assert sol.grid.num_intervals == 8
        assert sol.trace[-1]["delta"] <= 1e-8

    def test_gains_match_riccati(self, classical):
        sol = solve_closed_loop(classical, N0=4, tol=1e-6)
        pre = solve_precommitment(classical, 0.0, h=classical.T / 2048)
        pre_gain = PiecewiseGain.single(0.0, classical.T, pre.times, pre.Theta,
                                        pre.Theta_hat)
        np.testing.assert_allclose(sol.Theta_hat[:-1], pre_gain.at_many(sol.nodes[:-1])[0],
                                   atol=1e-8)

    def test_hat_field_equals_base_field(self, classical):
        sol = direct_diagonal_solve(classical, t_nodes=32)
        gap = np.nanmax(np.abs(sol.Gamma - sol.Gamma_hat))
        assert gap <= 1e-10

    def test_display_residual_small(self, classical):
        sol = direct_diagonal_solve(classical, t_nodes=64)
        rep = residual(sol)
        assert rep["max_residual"] <= 1e-5 * rep["scale"]

    def test_t_independent_weights_give_t_independent_field(self, classical):
        prob = replace(classical,
                       Qbar=TwoTimeMatrixFn.constant(0.2 * np.eye(2), 1.0),
                       Rbar=TwoTimeMatrixFn.constant([[0.1]], 1.0),
                       Gbar=MatrixFn.constant(0.3 * np.eye(2), 1.0))
        sol = direct_diagonal_solve(prob, t_nodes=16)
        J = len(sol.nodes)
        worst = 0.0
        for j in range(1, J):
            for i in range(j, J):
                worst = max(worst, float(np.abs(sol.Gamma[i, j]
                                                - sol.Gamma[i, 0]).max()))
                worst = max(worst, float(np.abs(sol.Gamma_hat[i, j]
                                                - sol.Gamma_hat[i, 0]).max()))
        assert worst <= 1e-8


class TestRefinement:
    def test_trace_records_per_quantity_deltas(self, discounting):
        sol = solve_closed_loop(discounting, N0=4, tol=1e-4)
        assert sol.trace[0]["delta"] is None
        for rec in sol.trace[1:]:
            assert rec["sup_delta_Gamma"] >= 0
            assert rec["sup_delta_Theta"] >= 0
            assert rec["delta"] == max(rec["sup_delta_Gamma"],
                                       rec["sup_delta_Theta"])

    def test_convergence_failure_carries_trace(self, discounting):
        with pytest.raises(ConvergenceError) as exc:
            solve_closed_loop(discounting, N0=4, tol=1e-12, max_doublings=2)
        assert len(exc.value.trace) == 3

    def test_symmetry_of_fields(self, discounting):
        sol = solve_closed_loop(discounting, N0=4, tol=1e-4)
        asym = np.nanmax(np.abs(sol.Gamma - np.swapaxes(sol.Gamma, -1, -2)))
        assert asym <= 1e-9

    @pytest.mark.parametrize("name", BUNDLED)
    def test_tolerance_step_keeps_the_refinement(self, name):
        """Marching the games at the step for tol * MARCH_SHARE instead of
        the default step keeps N at every doubling and the accepted grid, and
        moves the accepted fields and gains by less than tol * MARCH_SHARE:
        against the same acceptance replayed on `refinements` at the default
        target."""
        problem, tol = bundled_problem(name), 1e-4
        sol = solve_closed_loop(problem, tol=tol)
        Ns, ref = [], None
        for item in itertools.islice(refinements(problem), 7):
            Ns.append(item.record["N"])
            ref = item.accepted(tol)
            if ref is not None:
                break
        assert [r["N"] for r in sol.trace] == Ns
        assert np.array_equal(sol.nodes, ref.nodes) and sol.game.N == ref.game.N
        for field in ("Gamma", "Gamma_hat", "Theta", "Theta_hat"):
            gap = np.nanmax(np.abs(getattr(sol, field) - getattr(ref, field)))
            assert gap <= tol * MARCH_SHARE, field


class TestExtrapolation:
    """Acceptance on the Richardson extrapolant 2 F_2N - F_N of the game fields."""

    @pytest.fixture(scope="class", params=["discounting", "meanfield"])
    def solved(self, request):
        problem = request.getfixturevalue(request.param)
        return problem, solve_closed_loop(problem, N0=4, tol=1e-4)

    @staticmethod
    def _error(sol, ref):
        """Sup-norm gap of (Gamma, Gamma_hat) to a finer reference at sol's nodes."""
        k = ref.grid.num_intervals // sol.grid.num_intervals
        return max(np.nanmax(np.abs(sol.Gamma - ref.Gamma[::k, ::k])),
                   np.nanmax(np.abs(sol.Gamma_hat - ref.Gamma_hat[::k, ::k])))

    def test_extrapolant_is_returned_on_the_coarser_grid(self, solved):
        _, sol = solved
        last = sol.trace[-1]
        assert last["delta"] >= 1e-4 > last["extrapolated_delta"]
        assert (sol.grid.num_intervals, sol.game.N) == (8, 16)
        np.testing.assert_array_equal(sol.nodes, sol.game.partition.nodes[::2])

    def test_closer_to_reference_than_the_finest_game(self, solved):
        problem, sol = solved
        ref = direct_diagonal_solve(problem, t_nodes=64)
        assert self._error(sol, ref) < 0.5 * self._error(_assemble(sol.game), ref)

    def test_gains_are_those_of_the_returned_diagonals(self, solved):
        problem, sol = solved
        Th, Thh = _diagonal_gains(problem, sol.nodes, sol.Gamma, sol.Gamma_hat)
        assert np.abs(sol.Theta - Th).max() <= 1e-12
        assert np.abs(sol.Theta_hat - Thh).max() <= 1e-12

    def test_observed_orders(self, discounting):
        """Raw deltas fall about 2x per doubling, extrapolated ones about 4x."""
        records = converge_study(discounting, N0=4, N_max=64)
        raw = [r["ratio"] for r in records if r["ratio"] is not None]
        ext = [r["extrapolated_ratio"] for r in records
               if r["extrapolated_ratio"] is not None]
        assert len(raw) == 3 and len(ext) == 2
        assert all(1.4 <= q <= 2.2 for q in raw), raw
        assert all(3.0 <= q <= 4.5 for q in ext), ext
        assert ext[-1] / raw[-1] >= 1.8


class TestCrossScheme:
    def test_game_limit_agrees_with_direct_solve(self, discounting):
        sol_game = solve_closed_loop(discounting, N0=4, tol=1e-4)
        N = sol_game.grid.num_intervals
        sol_dir = direct_diagonal_solve(discounting, t_nodes=N)
        gap = np.nanmax(np.abs(sol_game.Gamma - sol_dir.Gamma))
        gap_h = np.nanmax(np.abs(sol_game.Gamma_hat - sol_dir.Gamma_hat))
        assert max(gap, gap_h) <= 5e-4

    def test_zero_weights_give_zero_field(self, ex12):
        prob = replace(ex12,
                       G=MatrixFn.constant([[0.0]], 1.0),
                       Gbar=MatrixFn.constant([[0.0]], 1.0))
        sol = direct_diagonal_solve(prob, t_nodes=16)
        assert np.nanmax(np.abs(sol.Gamma)) == 0.0
        assert np.nanmax(np.abs(sol.Gamma_hat)) == 0.0
        rep = residual(sol)
        assert rep["max_residual"] == 0.0



class TestResidual:
    """The limit system's residual tells the direct solve from a field off by 1%."""

    BOUND = 5e-3

    @pytest.mark.parametrize("name", ["meanfield", "discounting"])
    def test_right_field_passes(self, name, request):
        sol = direct_diagonal_solve(request.getfixturevalue(name), t_nodes=32)
        assert residual(sol)["max_residual"] <= self.BOUND

    @pytest.mark.parametrize("name", ["meanfield", "discounting"])
    def test_perturbed_field_fails(self, name, request):
        sol = direct_diagonal_solve(request.getfixturevalue(name), t_nodes=32)
        assert residual(replace(sol, Gamma=1.01 * sol.Gamma))["max_residual"] > self.BOUND

    def test_discounting_right_and_perturbed_fields_far_apart(self, discounting):
        """The stencils that straddle a knot of Qbar's lag are skipped: the
        right field read 8.3e-4 with them, Gamma x 1.01 2.4e-2."""
        sol = direct_diagonal_solve(discounting, t_nodes=32)
        right = residual(sol)["max_residual"]
        wrong = residual(replace(sol, Gamma=1.01 * sol.Gamma))["max_residual"]
        assert 0 < right and wrong >= 1e3 * right

    def test_meanfield_residual_unchanged(self, meanfield):
        """Without breakpoints the batched residual is the scalar loop's:
        its values at h = T/2000, t_nodes = 32."""
        sol = direct_diagonal_solve(meanfield, h=meanfield.T / 2000, t_nodes=32)
        rep = residual(sol)
        assert rep["gamma_residual"] == pytest.approx(3.394843890447419e-07, rel=0, abs=1e-12)
        assert rep["gamma_hat_residual"] == pytest.approx(3.587461530063507e-07, rel=0,
                                                          abs=1e-12)
