from dataclasses import replace

import numpy as np
import pytest

from mflq import (MCConfig, PiecewiseGain, TimeGrid, ValidationError,
                  build_delta_equilibrium, delta_local_optimality_check,
                  jump_magnitudes, ordering_report, solve_precommitment)


@pytest.fixture(scope="module")
def disc_eq(discounting):
    return build_delta_equilibrium(discounting, TimeGrid.uniform(1.0, 4))


@pytest.mark.parametrize("h", [-0.1, 0.0, float("nan")])
def test_rejects_non_positive_step(discounting, h):
    with pytest.raises(ValidationError):
        build_delta_equilibrium(discounting, TimeGrid.uniform(1.0, 2), h)


@pytest.mark.parametrize("name", ["meanfield", "discounting"])
def test_interval_steps_follow_h_without_a_floor(name, request):
    """At N = 64 the step h = T/2000 asks for 32 steps per interval; the
    fields match a build at the 50 steps a floor used to impose."""
    problem = request.getfixturevalue(name)
    grid = TimeGrid.uniform(problem.T, 64)
    eq = build_delta_equilibrium(problem, grid, h=problem.T / 2000)
    floored = build_delta_equilibrium(problem, grid, h=(problem.T / 64) / 50)
    assert [len(iv.times) for iv in eq.intervals] == [33] * 64
    assert [len(iv.times) for iv in floored.intervals] == [51] * 64
    populated = ~np.isnan(eq.node_triples)
    assert np.array_equal(populated, ~np.isnan(floored.node_triples))
    assert np.abs(eq.node_triples[populated] - floored.node_triples[populated]).max() <= 1e-12
    assert np.abs(eq.values - floored.values).max() <= 1e-12


class TestSingleInterval:
    def test_single_player_is_precommitment(self, discounting):
        """With one interval the interval recursion is exactly the
        pre-commitment Riccati pair anchored at t = 0."""
        eq = build_delta_equilibrium(discounting, TimeGrid.uniform(1.0, 1))
        pre = solve_precommitment(discounting, 0.0)
        assert np.abs(eq.values[0] - pre.Phat[0]).max() < 1e-9
        pre_gain = PiecewiseGain.single(0.0, 1.0, pre.times, pre.Theta, pre.Theta_hat)
        ss = np.array([0.0, 0.31, 0.8])
        np.testing.assert_allclose(eq.gains.at_many(ss)[1], pre_gain.at_many(ss)[1],
                                   atol=1e-8)

    def test_scalar_terminal_value(self, ex12):
        eq = build_delta_equilibrium(ex12, TimeGrid.uniform(1.0, 1))
        assert eq.values[0][0, 0] == pytest.approx(0.5, abs=1e-8)


class TestRecursionStructure:
    def test_shapes(self, disc_eq):
        N = disc_eq.N
        assert N == 4
        assert len(disc_eq.intervals) == N
        assert disc_eq.values.shape == (N, 1, 1)
        assert disc_eq.node_triples.shape[:3] == (N + 1, N, 3)

    def test_own_interval_triple_equals_riccati_pair(self, disc_eq):
        """Carried through its own interval, player k's triple reproduces the
        optimized pair: Gamma_tilde_k = P_k and Gamma_k + Gamma_bar_k = Phat_k
        at the interval's lower node."""
        for k in range(disc_eq.N):
            iv = disc_eq.intervals[k]
            tilde = disc_eq.node_triples[k, k, 0]
            hat_ = disc_eq.node_triples[k, k, 1] + disc_eq.node_triples[k, k, 2]
            assert np.abs(tilde - iv.P[0]).max() < 1e-9
            assert np.abs(hat_ - iv.Phat[0]).max() < 1e-9

    def test_values_equal_hat_diagonal(self, disc_eq):
        for k in range(disc_eq.N):
            np.testing.assert_allclose(disc_eq.node_triples[k, k, 1]
                                       + disc_eq.node_triples[k, k, 2],
                                       disc_eq.values[k], atol=1e-9)

    def test_triples_nan_below_own_interval(self, disc_eq):
        # player 2's triple does not exist at node 1
        assert np.isnan(disc_eq.node_triples[1, 2]).all()

    def test_values_psd(self, disc_eq):
        for V in disc_eq.values:
            assert np.linalg.eigvalsh(V).min() >= -1e-10

    def test_gain_anchor_tracks_partition(self, disc_eq):
        """The gains' intervals are the game's: at s they read the segment of
        the player whose interval [rho(s), .) holds s."""
        g = disc_eq.gains
        np.testing.assert_array_equal(g.partition.nodes, disc_eq.partition.nodes)
        th, thh = g.at_many(np.array([0.1, 0.3, 0.99]))
        for s, k, a, b in zip((0.1, 0.3, 0.99), (0, 1, 3), th, thh):
            iv = disc_eq.intervals[k]
            assert a[0, 0] == pytest.approx(np.interp(s, iv.times, iv.Theta[:, 0, 0]),
                                            rel=0, abs=1e-12)
            assert b[0, 0] == pytest.approx(np.interp(s, iv.times, iv.Theta_hat[:, 0, 0]),
                                            rel=0, abs=1e-12)


class TestTimeConsistentCollapse:
    def test_classical_partition_invariance(self, classical):
        """A time-consistent problem gives the same gains for any partition."""
        eq2 = build_delta_equilibrium(classical, TimeGrid.uniform(1.0, 2))
        eq4 = build_delta_equilibrium(classical, TimeGrid.uniform(1.0, 4))
        ss = np.array([0.05, 0.4, 0.65, 0.95])
        np.testing.assert_allclose(eq2.gains.at_many(ss)[1], eq4.gains.at_many(ss)[1],
                                   atol=1e-9)
        assert np.abs(eq2.values[0] - eq4.values[0]).max() < 1e-9


def test_ordering_report(disc_eq, meanfield):
    rep = ordering_report(disc_eq)
    assert rep["passed"], rep["min_margin"]
    assert rep["min_margin"] >= -1e-8
    assert len(rep["per_interval"]) == disc_eq.N
    # the tilde components scaled by 1.5 rise above the players' own P
    for eq, margin in ((disc_eq, -0.457),
                       (build_delta_equilibrium(meanfield, TimeGrid.uniform(1.0, 4)), -0.971)):
        nt = eq.node_triples.copy()
        nt[:, :, 0] *= 1.5
        rep = ordering_report(replace(eq, node_triples=nt))
        worst = min((c for r in rep["per_interval"] for c in r["checks"]),
                    key=lambda c: c["margin"])
        assert not rep["passed"]
        assert worst["name"] == "P - Gtilde_0"
        assert rep["min_margin"] == worst["margin"] == pytest.approx(margin, abs=1e-3)


def test_jump_magnitudes(disc_eq):
    rep = jump_magnitudes(disc_eq)
    assert rep["passed"]
    assert rep["max_ratio"] < 1.0
    assert all(r["within_bound"] for r in rep["records"])


#: the majorants of jump_magnitudes(disc_eq) as np.trapezoid computes them
#: from the gaps of G, Gbar, Q, R, Qbar and Rbar
DISC_MAJORANTS = [0.08296073689437905, 0.061305274936080706]


def test_jump_magnitudes_without_np_trapezoid(disc_eq, monkeypatch):
    """The majorants need no np.trapezoid, which numpy 1.x lacks."""
    monkeypatch.delattr(np, "trapezoid", raising=False)
    got = [r["majorant"] for r in jump_magnitudes(disc_eq)["records"]]
    np.testing.assert_allclose(got, DISC_MAJORANTS, rtol=0, atol=1e-14)


def test_local_optimality_single_player(ex12):
    eq = build_delta_equilibrium(ex12, TimeGrid.uniform(1.0, 2))
    rep = delta_local_optimality_check(ex12, eq, 1, [1.0],
                                       mc=MCConfig(paths=4000, steps=200,
                                                   seed=13), n_probes=4)
    assert rep["passed"], rep["min_margin"]
