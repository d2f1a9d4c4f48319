"""The game's affine triple maps reproduce the joint march they replaced.

The game once marched every player's cost triple in one RK4 system together
with the current player's Riccati pair.  The reference values below were
produced by that joint march on meanfield and discounting at N = 3 and
h = T/200: the populated node triples in the order (j, l) for l <= min(j, N-1),
the values, and each interval's gains at its first, middle and last node.  A
joint march built here checks a synthetic n = 3, m = 2 problem the same way.

Discounting's values were re-pinned when march grids began to hold the
coefficients' breakpoints: at h = T/200 the lag knots k/8 of its Qbar,
shifted by the anchors 0, 1/3 and 2/3, are now nodes (68, 71 and 73 nodes
per interval instead of 68).  The new node triples and values lie within
8e-12 of a build at h = T/1600, the joint march's within 5.4e-8.
"""

import re
from dataclasses import replace

import numpy as np
import pytest

from mflq import (BlowUpError, IllPosedError, TimeGrid, TwoTimeMatrixFn,
                  build_delta_equilibrium, bundled_document, hat, parse_problem,
                  rk4_march, stage_times)
from mflq.integrators import feedback_gain, gain_path
from mflq.types import min_eig, symmetrize, tau_psd

RTOL = 1e-12

MF_TRIPLES = np.array([[[[2.2777469701242046, 0.07287732602218928],
                         [0.07287732602218928, 0.9908353891342357]],
                        [[2.3499542925882073, 0.041819101576063555],
                         [0.041819101576063555, 1.0131545050144541]],
                        [[0.3515323467684975, 0.003380257303649253],
                         [0.003380257303649253, 0.08889800143916012]]],
                       [[[1.8121278384721142, 0.05102529762464381],
                         [0.05102529762464381, 0.98729838679364]],
                        [[1.8701074480863251, 0.026657833852026584],
                         [0.026657833852026584, 1.0105629211254756]],
                        [[0.2982364988554831, 0.00146383970829325],
                         [0.00146383970829325, 0.1034909089960089]]],
                       [[[1.8121278384721142, 0.05102529762464381],
                         [0.05102529762464381, 0.98729838679364]],
                        [[1.8701074480863251, 0.026657833852026584],
                         [0.026657833852026584, 1.0105629211254756]],
                        [[0.2982364988554831, 0.00146383970829325],
                         [0.00146383970829325, 0.1034909089960089]]],
                       [[[1.3765886098598399, 0.03079513894247005],
                         [0.03079513894247005, 0.9818949304995888]],
                        [[1.4203777293223478, 0.012759699003144616],
                         [0.012759699003144616, 1.0072584031432594]],
                        [[0.24770189798820294, 0.00019677619376617307],
                         [0.00019677619376617307, 0.13397045873767818]]],
                       [[[1.3765886098598399, 0.03079513894247005],
                         [0.03079513894247005, 0.9818949304995888]],
                        [[1.4203777293223478, 0.012759699003144616],
                         [0.012759699003144616, 1.0072584031432594]],
                        [[0.24770189798820294, 0.00019677619376617307],
                         [0.00019677619376617307, 0.13397045873767818]]],
                       [[[1.3765886098598399, 0.03079513894247005],
                         [0.03079513894247005, 0.9818949304995888]],
                        [[1.4203777293223478, 0.012759699003144616],
                         [0.012759699003144616, 1.0072584031432594]],
                        [[0.24770189798820294, 0.00019677619376617307],
                         [0.00019677619376617307, 0.13397045873767818]]],
                       [[[1.0, 0.0],
                         [0.0, 1.0]],
                        [[1.0, 0.0],
                         [0.0, 1.0]],
                        [[0.2, 0.0],
                         [0.0, 0.2]]],
                       [[[1.0, 0.0],
                         [0.0, 1.0]],
                        [[1.0, 0.0],
                         [0.0, 1.0]],
                        [[0.2, 0.0],
                         [0.0, 0.2]]],
                       [[[1.0, 0.0],
                         [0.0, 1.0]],
                        [[1.0, 0.0],
                         [0.0, 1.0]],
                        [[0.2, 0.0],
                         [0.0, 0.2]]]])

MF_VALUES = np.array([[[2.7014866393567063, 0.04519935887971284],
                       [0.04519935887971284, 1.1020525064536146]],
                      [[2.168343946941808, 0.028121673560319825],
                       [0.028121673560319825, 1.114053830121485]],
                      [[1.6680796273105507, 0.012956475196910794],
                       [0.012956475196910794, 1.1412288618809374]]])

MF_THETA = np.array([[[[0.09352454327271457, 0.9694818196221101]],
                      [[0.06895713768534227, 0.9789101653584039]],
                      [[0.044526220173081714, 0.9922729295039973]]],
                     [[[0.06791585391385592, 0.9702268882318945]],
                      [[0.046995795072397775, 0.9798194626393113]],
                      [[0.026585856708530576, 0.9932777048236514]]],
                     [[[0.04395593267845912, 0.9688655885521531]],
                      [[0.026495721527929172, 0.9777472819027656]],
                      [[0.009900990099009903, 0.9900990099009901]]]])

MF_THETA_HAT = np.array([[[[0.19996782825276635, 1.0312610057015168]],
                          [[0.17623001950747594, 1.0372604211061205]],
                          [[0.1540110537100004, 1.0453938883293696]]],
                         [[[0.15333653205749495, 1.04605925859992]],
                          [[0.131177861991247, 1.0580607361973373]],
                          [[0.11055609652652901, 1.0745414028722478]]],
                         [[[0.11002881794796374, 1.0750427193404923]],
                          [[0.08961074563216102, 1.0994444700459332]],
                          [[0.07072802715956243, 1.1335345152772538]]]])

DISC_TRIPLES = np.array([[[[1.0284216961673074]],
                          [[1.0293634348309184]],
                          [[0.17591046865186824]]],
                         [[[0.9748260277059054]],
                          [[0.9767372311296673]],
                          [[0.17252928400134934]]],
                         [[[1.0248064269222714]],
                          [[1.0268156198409677]],
                          [[0.1975064836243862]]],
                         [[[0.9180810517231978]],
                          [[0.922706860209804]],
                          [[0.2071511332591569]]],
                         [[[0.9651520738070993]],
                          [[0.9700150525664396]],
                          [[0.2166848097385093]]],
                         [[[1.0146364788007831]],
                          [[1.019748787812768]],
                          [[0.23666752703442412]]],
                         [[[0.8607079764250578]],
                          [[0.8607079764250578]],
                          [[0.3]]],
                         [[[0.9048374180359595]],
                          [[0.9048374180359595]],
                          [[0.3]]],
                         [[[0.951229424500714]],
                          [[0.951229424500714]],
                          [[0.3]]]])

DISC_VALUES = np.array([[[1.2052739034827875]],
                        [[1.2243221034653533]],
                        [[1.256416314847192]]])

DISC_THETA = np.array([[[[1.0383119051838545]],
                        [[1.0376271497966472]],
                        [[1.0367068642239714]]],
                       [[[1.0346988946886544]],
                        [[1.032590019907933]],
                        [[1.029643981548396]]],
                       [[[1.0245339135522114]],
                        [[1.0184122028249316]],
                        [[1.00990099009901]]]])

DISC_THETA_HAT = np.array([[[[1.1040797650539327]],
                            [[1.0987556102124711]],
                            [[1.1016067751246001]]],
                           [[[1.1212072977791243]],
                            [[1.1233251387130567]],
                            [[1.1368333881410457]]],
                           [[[1.150036684277218]],
                            [[1.1650422965193434]],
                            [[1.1975148997559422]]]])

REFERENCE = {
    "meanfield": (MF_TRIPLES, MF_VALUES, MF_THETA, MF_THETA_HAT),
    "discounting": (DISC_TRIPLES, DISC_VALUES, DISC_THETA, DISC_THETA_HAT),
}


def _rel(a, b):
    return float(np.abs(np.asarray(a) - b).max() / np.abs(b).max())


def _populated(node_triples):
    N = node_triples.shape[0] - 1
    return np.array([node_triples[j, l]
                     for j in range(N + 1) for l in range(min(j, N - 1) + 1)])


@pytest.mark.parametrize("name", ["meanfield", "discounting"])
def test_matches_joint_march_values(name, request):
    problem = request.getfixturevalue(name)
    eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 3),
                                 h=problem.T / 200)
    triples, values, theta, theta_hat = REFERENCE[name]
    assert _rel(_populated(eq.node_triples), triples) <= RTOL
    assert np.isnan(eq.node_triples).sum() == eq.node_triples.size - triples.size
    assert _rel(eq.values, values) <= RTOL
    nodes = [[0, len(iv.times) // 2, len(iv.times) - 1] for iv in eq.intervals]
    assert _rel([iv.Theta[i] for iv, i in zip(eq.intervals, nodes)], theta) <= RTOL
    assert _rel([iv.Theta_hat[i] for iv, i in zip(eq.intervals, nodes)], theta_hat) <= RTOL


def _synthetic(n=3, m=2, seed=11):
    """A time-inconsistent problem: random dynamics, discounted weights."""
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


def _joint_march(problem, partition, h):
    """The earlier recursion: on interval k one RK4 system carries
    (P_k, Phat_k) and the triples of players 0..k, with the stage gains
    computed inside its field.  Returns node triples, values and the gains."""
    hp = hat(problem)
    nodes = partition.nodes
    N = partition.num_intervals
    n = problem.n
    Tri = np.empty((N, 3, n, n))
    Tri[:, 0] = Tri[:, 1] = problem.G.at_many(nodes[:N])
    Tri[:, 2] = problem.Gbar.at_many(nodes[:N])
    node_triples = np.full((N + 1, N, 3, n, n), np.nan)
    node_triples[N] = Tri
    P_term, Ph_term = problem.G(nodes[N - 1]), hp.G(nodes[N - 1])
    values, thetas, theta_hats = np.empty((N, n, n)), [None] * N, [None] * N
    for k in range(N - 1, -1, -1):
        a, b, tk = nodes[k], nodes[k + 1], nodes[k]
        times = np.linspace(a, b, max(1, int(np.ceil((b - a) / h - 1e-12))) + 1)
        Tri[:k + 1, 0] = Tri[:k + 1, 1]
        ss = stage_times(times)
        A, B, C, D, Ah, Bh, Ch, Dh = (f.at_many(ss) for f in (
            problem.A, problem.B, problem.C, problem.D, hp.A, hp.B, hp.C, hp.D))
        Ql, Rl = problem.Q.at_many(ss[:, None], nodes[:k + 1]), \
            problem.R.at_many(ss[:, None], nodes[:k + 1])
        Qbl, Rbl = problem.Qbar.at_many(ss[:, None], nodes[:k + 1]), \
            problem.Rbar.at_many(ss[:, None], nodes[:k + 1])
        Qh, Rh = hp.Q.at_many(ss, tk), hp.R.at_many(ss, tk)

        def rhs(q, Z):
            P, Ph = Z[0], Z[1]
            L = B[q].T @ P + D[q].T @ P @ C[q]
            Th = feedback_gain(Rl[q, -1] + D[q].T @ P @ D[q], L, problem.delta, "K", 0)
            Lh = Bh[q].T @ Ph + Dh[q].T @ P @ Ch[q]
            Thh = feedback_gain(Rh[q] + Dh[q].T @ P @ Dh[q], Lh, problem.delta, "Kh", 0)
            out = np.empty_like(Z)
            out[0] = -(P @ A[q] + A[q].T @ P + C[q].T @ P @ C[q] + Ql[q, -1] - L.T @ Th)
            out[1] = -(Ph @ Ah[q] + Ah[q].T @ Ph + Ch[q].T @ P @ Ch[q] + Qh[q]
                       - Lh.T @ Thh)
            M1, N1 = A[q] - B[q] @ Th, C[q] - D[q] @ Th
            M2, N2 = Ah[q] - Bh[q] @ Thh, Ch[q] - Dh[q] @ Thh
            Gt, Gm, Gb = Z[2::3], Z[3::3], Z[4::3]
            out[2::3] = -(Gt @ M1 + M1.T @ Gt + N1.T @ Gt @ N1 + Ql[q] + Th.T @ Rl[q] @ Th)
            out[3::3] = -(Gm @ M2 + M2.T @ Gm + N2.T @ Gt @ N2 + Ql[q]
                          + Thh.T @ Rl[q] @ Thh)
            out[4::3] = -(Gb @ M2 + M2.T @ Gb + Qbl[q] + Thh.T @ Rbl[q] @ Thh)
            return out

        state = np.concatenate([[P_term, Ph_term], Tri[:k + 1].reshape(-1, n, n)])
        path = rk4_march(rhs, times, state, symmetric=True)
        Tri[:k + 1] = path[0, 2:].reshape(k + 1, 3, n, n)
        node_triples[k, :k + 1] = Tri[:k + 1]
        P, Ph = path[:, 0], path[:, 1]
        thetas[k] = gain_path(P, P, B[::2], C[::2], D[::2], Rl[::2, -1], problem.delta,
                              "K", times)
        theta_hats[k] = gain_path(Ph, P, Bh[::2], Ch[::2], Dh[::2], Rh[::2],
                                  problem.delta, "Kh", times)
        values[k] = Ph[0]
        if k:
            for M in (Tri[k - 1, 1], Tri[k - 1, 1] + Tri[k - 1, 2]):
                assert min_eig(M) >= -max(tau_psd(M), 1e-8)
            P_term = symmetrize(Tri[k - 1, 1])
            Ph_term = symmetrize(Tri[k - 1, 1] + Tri[k - 1, 2])
    return node_triples, values, thetas, theta_hats


def test_synthetic_problem_matches_joint_march():
    problem = _synthetic()
    partition = TimeGrid.uniform(problem.T, 3)
    eq = build_delta_equilibrium(problem, partition, h=problem.T / 100)
    node_triples, values, thetas, theta_hats = _joint_march(problem, partition,
                                                           problem.T / 100)
    assert _rel(_populated(eq.node_triples), _populated(node_triples)) <= RTOL
    assert _rel(eq.values, values) <= RTOL
    for iv, th, thh in zip(eq.intervals, thetas, theta_hats):
        assert _rel(iv.Theta, th) <= RTOL
        assert _rel(iv.Theta_hat, thh) <= RTOL


def test_hat_factor_failure_is_named():
    """Rhat = R + Rbar below delta/2 while R + D'PD stays definite."""
    doc = bundled_document("meanfield")
    doc["weights"]["Rbar"] = [[-0.95]]
    problem = parse_problem(doc)
    msg = "Rhat + Dhat'P Dhat (interval 2) lost definiteness"
    with pytest.raises(IllPosedError, match=re.escape(msg)):
        build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 3))


def test_non_finite_triple_raises_blow_up(meanfield):
    """Player 0's mean-field weight is NaN, so only their triple blows up,
    already on the last interval, whose own pair stays finite."""
    qbar = TwoTimeMatrixFn(
        lambda s, t: np.full((2, 2), np.nan) if t == 0.0 else 0.1 * np.eye(2),
        (2, 2), meanfield.T)
    problem = replace(meanfield, Qbar=qbar)
    with pytest.raises(BlowUpError, match="blew up") as exc:
        build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 3),
                                h=problem.T / 200)
    assert exc.value.time > 2 / 3
