"""Coefficients sampled once per march: per-stage anchors in
`pair_coefficients`, broadcast views from `stack_pair`, the number of
sampling calls of the game, the level march and the pilot, and the block
CSV writer."""

import dataclasses

import numpy as np
import pytest

from mflq import (MatrixFn, TimeGrid, build_delta_equilibrium, bundled_problem,
                  direct_diagonal_solve, parse_problem, solve_open_loop)
from mflq import closedloop, game, integrators, openloop, precommit
from mflq.cli import write_csv
from mflq.integrators import stage_times
from mflq.types import stack_pair

#: n = 2, m = 1, every coefficient kind: polynomial A and D, sampled B,
#: Abar and Qbar, exponentially discounted Q, R and G
VARIED = {
    "n": 2, "m": 1, "T": 1.0, "delta": 0.5,
    "coefficients": {
        "A": {"kind": "polynomial",
              "coeffs": [[[0.1, 0.2], [0.0, -0.3]], [[0.05, 0.0], [0.1, 0.2]]]},
        "Abar": {"kind": "samples", "times": [0.0, 0.6, 1.0],
                 "values": [[[0.1, 0.0], [0.0, 0.1]], [[0.2, 0.1], [0.0, 0.0]],
                            [[0.0, 0.0], [0.1, 0.1]]]},
        "B": {"kind": "samples", "times": [0.0, 0.3, 1.0],
              "values": [[[1.0], [0.5]], [[0.8], [0.7]], [[1.2], [0.4]]]},
        "Bbar": [[0.0], [0.0]],
        "C": [[0.2, 0.0], [0.1, 0.1]], "Cbar": [[0.0, 0.0], [0.0, 0.0]],
        "D": {"kind": "polynomial", "coeffs": [[[0.1], [0.0]], [[0.05], [0.1]]]},
        "Dbar": [[0.05], [0.0]]},
    "weights": {
        "Q": {"kind": "exp_discount", "lambda": 0.3, "base": [[1.0, 0.1], [0.1, 1.0]]},
        "Qbar": {"kind": "samples", "times": [0.0, 0.4, 1.0],
                 "values": [[[0.3, 0.0], [0.0, 0.2]], [[0.2, 0.0], [0.0, 0.1]],
                            [[0.1, 0.0], [0.0, 0.1]]]},
        "R": {"kind": "exp_discount", "lambda": 0.2, "base": [[1.0]]},
        "Rbar": [[0.1]],
        "G": {"kind": "exp_discount", "lambda": 0.15, "base": [[1.0, 0.0], [0.0, 1.0]]},
        "Gbar": [[0.3, 0.0], [0.0, 0.3]]}}

PROBLEMS = ("classical", "meanfield", "discounting", "ex12", "varied")


def _problem(name):
    return parse_problem(VARIED) if name == "varied" else bundled_problem(name)


@pytest.mark.parametrize("name", PROBLEMS)
def test_per_stage_anchors_equal_per_interval_calls(name):
    problem = _problem(name)
    nodes = TimeGrid.uniform(problem.T, 4).nodes
    grids = [stage_times(precommit.march_grids(problem, a, b, None, nodes[:k + 1])[0])
             for k, (a, b) in enumerate(zip(nodes[:-1], nodes[1:]))]
    anchors = np.repeat(nodes[:-1], [len(g) for g in grids])
    batched = precommit.pair_coefficients(problem, np.concatenate(grids), anchors)
    apart = [precommit.pair_coefficients(problem, g, float(t))
             for g, t in zip(grids, nodes)]
    for i, x in enumerate(batched):
        assert np.array_equal(x, np.concatenate([a[i] for a in apart]))


#: VARIED with the dynamics' bars zeroed, as the open loop requires
NO_BAR_DYNAMICS = {**VARIED, "coefficients": {
    **VARIED["coefficients"], "Abar": [[0.0, 0.0], [0.0, 0.0]], "Dbar": [[0.0], [0.0]]}}


def test_open_loop_on_varied_dynamics_matches_parent():
    """`solve_open_loop(NO_BAR_DYNAMICS, T/256, t_nodes=8)` as computed when the
    level march sampled the plain dynamics it now reads as hat ones: the
    diagonal gain, the asymmetry, and the sums of the fields weighted by
    cos(1 + i + 2j + 3a + 5b) at entry (a, b) of node pair (i, j)."""
    problem = parse_problem(NO_BAR_DYNAMICS)
    sol = solve_open_loop(problem, problem.T / 256, t_nodes=8)
    theta = [1.1424311852430644, 0.3729280946393704, 1.0405284758406552,
             0.49928194317822455, 0.9170240205329943, 0.6419935735343794,
             0.9058347763381308, 0.6871915467692574, 0.9793434154475299,
             0.6540920177163734, 1.059182312892542, 0.6156639745176052,
             1.150571080775352, 0.5713177205102756, 1.2626777643714555,
             0.5215106689301491, 1.4128035320088301, 0.46799116997792495]
    np.testing.assert_allclose(sol.Theta_open.ravel(), theta, rtol=0, atol=1.5e-12)
    assert sol.max_asymmetry == pytest.approx(0.005853841357236956, rel=0, abs=1e-12)
    for F, ref in ((sol.P.values, -0.4770324653569724), (sol.Phat.values, -0.6335997775079303)):
        i, j, a, b = np.ix_(*(np.arange(k) for k in F.shape))
        W = np.cos(1.0 + i + 2.0 * j + 3.0 * a + 5.0 * b)
        assert abs(float(np.sum(W * F)) - ref) <= 1.5e-12 * np.abs(W).sum()


class TestStackPair:
    def test_constants_stay_views(self):
        ss = np.linspace(0.0, 1.0, 9)
        a = MatrixFn.constant([[1.0, 2.0], [3.0, 4.0]], 1.0).at_many(ss)
        b = MatrixFn.constant([[5.0, 6.0], [7.0, 8.0]], 1.0).at_many(ss)
        z = stack_pair(a, b)
        assert z.shape == (9, 2, 2, 2) and z.strides[0] == 0 and not z.flags.writeable
        assert np.array_equal(z, np.stack([a, b], axis=1))

    @pytest.mark.parametrize("name", PROBLEMS)
    def test_constant_coefficients_stay_views(self, name):
        problem = _problem(name)
        ss = np.linspace(0.0, problem.T, 7)
        for x in precommit.pair_coefficients(problem, ss, 0.25 * problem.T):
            assert x.shape[:2] == (7, 2)
        A, B, C = precommit.pair_coefficients(problem, ss, 0.0, "ABC")
        if name in ("classical", "meanfield", "ex12", "discounting"):
            assert A.strides[0] == B.strides[0] == C.strides[0] == 0
        else:       # A and B vary, C is constant
            assert A.strides[0] and B.strides[0] and C.strides[0] == 0

    def test_varying_inputs_are_stacked(self):
        ss = np.linspace(0.0, 1.0, 9)
        vary = MatrixFn.polynomial([[[1.0]], [[2.0]]], 1.0).at_many(ss)
        const = MatrixFn.constant([[3.0]], 1.0).at_many(ss)
        for a, b in ((vary, const), (const, vary), (vary, 2.0 * vary)):
            z = stack_pair(a, b)
            assert z.flags.writeable and np.array_equal(z, np.stack([a, b], axis=1))
        # a stack of slices along a second axis, as the level march's weights
        w = np.broadcast_to(np.arange(6.0).reshape(2, 1, 3, 1), (9, 2, 1, 3, 1))
        assert np.array_equal(stack_pair(w, w + 0.0), np.stack([w, w + 0.0], axis=1))
        assert stack_pair(w, w).strides[0] == 0


class TestCallCounts:
    @pytest.mark.parametrize("N", [4, 16])
    def test_game_samples_the_pair_twice(self, N, monkeypatch):
        problem = bundled_problem("discounting")
        precommit.default_step(problem)         # the pilot samples on its own
        calls = []
        real = precommit.pair_coefficients

        def spy(*args, **kwargs):
            calls.append(args[1].shape)
            return real(*args, **kwargs)

        monkeypatch.setattr(game, "pair_coefficients", spy)
        monkeypatch.setattr(precommit, "pair_coefficients", spy)
        build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, N))
        assert len(calls) == 2

    @pytest.mark.parametrize("t_nodes", [8, 64])
    @pytest.mark.parametrize("solve, module", [(solve_open_loop, openloop),
                                               (direct_diagonal_solve, closedloop)])
    def test_level_march_samples_dynamics_once(self, solve, module, t_nodes, monkeypatch):
        problem = parse_problem(NO_BAR_DYNAMICS)
        calls, marches = [], []
        real_hat, real_march = integrators.hat, module.march_levels

        def counted(f, x):
            return dataclasses.replace(
                f, many=lambda ss: (calls.append(x), f.at_many(ss))[1])

        def spy(problem):
            hp = real_hat(problem)
            return dataclasses.replace(hp, **{x: counted(getattr(hp, x), x) for x in "ABCD"})

        monkeypatch.setattr(integrators, "hat", spy)
        monkeypatch.setattr(module, "march_levels",
                            lambda *a, **k: (marches.append(1), real_march(*a, **k))[1])
        solve(problem, problem.T / 256, t_nodes=t_nodes)
        assert marches == [1] and sorted(calls) == ["A", "B", "C", "D"]

    #: the parent's measured steps; the pilot without gains must keep them
    STEPS = {"classical": 0.004842492039091371, "ex12": 0.004586038017318074,
             "discounting": 0.0037619270705795266, "meanfield": 0.004692059534410574}

    @pytest.mark.parametrize("name", sorted(STEPS))
    def test_pilot_recomputes_no_gains(self, name, monkeypatch):
        problem = bundled_problem(name)
        calls = []
        real = precommit.gain_path
        monkeypatch.setattr(precommit, "gain_path",
                            lambda *a, **k: (calls.append(1), real(*a, **k))[1])
        step = precommit.default_step(problem)
        assert calls == []
        # BLAS differences move the pilot error by a few 1e-5 at most
        assert step == pytest.approx(self.STEPS[name], rel=1e-4)


class TestWriteCsv:
    TABLES = {
        "specials": np.array([[np.nan, np.inf, -np.inf], [-0.0, 5e-324, 1.0000000000000002],
                              [0.0, -1.5e300, 123456789.0]]),
        "empty": np.empty((0, 3)),
        "one_row": np.array([[0.1, 0.2, 0.3, 1e-17]]),
        "blocks": np.random.default_rng(3).normal(size=(600, 4)) * 10.0 ** np.arange(-3, 5, 2),
        "column": np.linspace(0.0, 1.0, 7),
        "integers": np.column_stack([np.arange(5), np.arange(5) / 3.0]),
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_bytes_of_savetxt(self, name, tmp_path):
        table = self.TABLES[name]
        header = [f"c{i}" for i in range(1 if table.ndim == 1 else table.shape[1])]
        ours, ref = tmp_path / "ours.csv", tmp_path / "ref.csv"
        write_csv(str(ours), header, table)
        np.savetxt(ref, table, fmt="%.17g", delimiter=",", header=",".join(header),
                   comments="")
        assert ours.read_bytes() == ref.read_bytes()
