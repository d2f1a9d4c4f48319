"""The Monte Carlo kernel reproduces the per-step loops it replaced.

The reference values below were produced by the earlier per-step Euler loops
(one march per probe, scalar coefficient calls every step) at small sizes.
The batched kernel must match them to 1e-10 relative, with the same pass
flags; and both statistical checks must still fail on a wrong answer.
"""

from dataclasses import replace

import numpy as np
import pytest

from mflq import (GainSegment, MCConfig, PiecewiseGain, TimeGrid,
                  build_delta_equilibrium, delta_local_optimality_check,
                  estimate_cost, simulate_closed_loop, solve_open_loop,
                  verify_open_loop_equilibrium)
from mflq.errors import ConfigurationError

RTOL = 1e-10

# meanfield, N = 3 game gains (h = 1/200), x0 = (1, -0.5), 4 paths, 9 steps, seed 5
# (asked as 10 steps, which the per-interval rounding of the time they were
# made in turned into 3 per third: the grid these values are for)
MF_STATES = np.array([[[1.0, -0.5],
                      [1.0943262647849819, -0.48586357816981746],
                      [1.1554109050136063, -0.4632762298833627],
                      [1.2412072906108984, -0.44584508911693976],
                      [1.3860093985777064, -0.43973536342066555],
                      [1.6375406316926973, -0.4489819884105693],
                      [1.630546861489149, -0.4122757071657823],
                      [1.4929636218792135, -0.3627187762518389],
                      [1.5814179778744257, -0.34467587730352767],
                      [1.4964271900429227, -0.30620982419186404]],
                     [[1.0, -0.5],
                      [1.011070088054178, -0.4658312696416238],
                      [0.9668381150961882, -0.4212681262289441],
                      [1.0565364901413865, -0.40846132802585244],
                      [1.0738934902883746, -0.380654919434655],
                      [1.1769313574644877, -0.36925942819851076],
                      [1.1278879782343212, -0.3314296733253666],
                      [1.151942215531315, -0.3076906333712661],
                      [1.2736269679071, -0.29770637352047125],
                      [1.1569468908780585, -0.2564198817632817]],
                     [[1.0, -0.5],
                      [0.9202922093772179, -0.4439891608084065],
                      [0.8801713823335696, -0.40206614403770485],
                      [0.8230075400286903, -0.360104934556363],
                      [0.7361640842037989, -0.31277880893505033],
                      [0.5988748554299913, -0.26048602776388186],
                      [0.614341781758231, -0.24171304912947936],
                      [0.6822690351049537, -0.2317973340341844],
                      [0.6539515208430917, -0.2050479712701344],
                      [0.7028901579589323, -0.1921328224712551]],
                     [[1.0, -0.5],
                      [1.0035483861080217, -0.46402146933660016],
                      [1.0628817422189112, -0.4428553133245142],
                      [0.9840232940579566, -0.39294605133999017],
                      [0.9838881398398703, -0.3624396709924672],
                      [0.9050259230261137, -0.31942114737876465],
                      [0.9619424681357744, -0.3031862542429556],
                      [0.9584577717527059, -0.27685674903258006],
                      [0.8728891362929742, -0.2402669351765763],
                      [0.9772605882898303, -0.23165551419418007]]])
MF_COND_MEAN = np.array([[1.0, -0.5],
                        [1.0074875017150966, -0.4660030682742815],
                        [1.0153266331134196, -0.4340052037939954],
                        [1.0235118884145908, -0.403773946125668],
                        [1.0320424199211757, -0.3750443171600438],
                        [1.0409104116317975, -0.34772339303664074],
                        [1.0501136740999104, -0.3216349565163644],
                        [1.0596536196675819, -0.29657719450578157],
                        [1.0695266125465066, -0.27247520885413373],
                        [1.079732867553685, -0.24920075430296199]])
MF_COST = (3.0708802789306615, 0.21188326100692723)          # estimate_cost at t = 0

# discounting, N = 3 game gains (h = 1/200), from t = 0.2, x0 = 1, 4 paths, 10 steps, seed 6;
# re-pinned when the game's grids began to hold the lag knots k/8 of Qbar
DISC_STATES = np.array([[[1.0],
                         [0.9221895998020435],
                         [0.8672056946150644],
                         [0.7989643625994065],
                         [0.7327171668215727],
                         [0.6490403669956437],
                         [0.5951623883118322],
                         [0.5378669073278313],
                         [0.5097687942120799],
                         [0.48328700925873835],
                         [0.4518694235830346]],
                        [[1.0],
                         [0.9120136591060701],
                         [0.8254470426002396],
                         [0.7388604218379197],
                         [0.6922581746641792],
                         [0.6201061232719504],
                         [0.5441975801482988],
                         [0.511843497646832],
                         [0.4778065129190264],
                         [0.45123796395493776],
                         [0.40281394445997193]],
                        [[1.0],
                         [0.9446484940424693],
                         [0.875043204898368],
                         [0.7949678610901619],
                         [0.7255911568450151],
                         [0.6845753038242293],
                         [0.6238948079527297],
                         [0.5747709143376132],
                         [0.5035751566770799],
                         [0.4404289500691786],
                         [0.3899767978115657]],
                        [[1.0],
                         [0.9548244347384427],
                         [0.9182640032638204],
                         [0.8582971610412327],
                         [0.7662724279348742],
                         [0.7153443314250303],
                         [0.6802375935603583],
                         [0.6016339010459599],
                         [0.5358679387581001],
                         [0.4707490738165607],
                         [0.43609119536791774]]])
DISC_COST = (1.1880052874076088, 0.0013190756413741234)

# ex12, N = 4 game, player 1, x0 = 1, 200 paths, 40 steps, seed 2
DELTA_COST = 0.5760827094050593
DELTA_MIN_MARGIN = 0.010813948919526379
DELTA_RECORDS = [   # probe, excess_cost, stderr, margin
    ('const +0.5', 0.3263325327673682, 0.012898562754613183, 0.36502822103120774),
    ('const -0.5', 0.025134305260345036, 0.005314297865277167, 0.04107719885617654),
    ('feedback +0.25', 0.006265425039160294, 0.0015161746267886949, 0.010813948919526379),
    ('feedback -0.25', 0.08467497574849134, 0.007370620769340976, 0.10678683805651426),
    ('const rand4', 0.3849993795584731, 0.004901783921828651, 0.399704731323959),
    ('const rand5', 0.11132330987835742, 0.009131889169369758, 0.1387189773864667),
    ('const rand6', 0.029597576098975075, 0.005984643124304618, 0.047551505471888925),
    ('const rand7', 0.05220452702444067, 0.0032050292414770435, 0.06181961474887181),
    ('const rand8', 0.4980941987176532, 0.005998335321208022, 0.5160892046812773),
    ('const rand9', 0.3710258054802486, 0.013491890979665844, 0.4115014784192461),
]

# classical, open loop on 16 t-nodes, x0 = (1, 1), 200 paths, 40 steps, seed 3
SPIKE_MIN_MARGIN = -0.2656973977489473
SPIKE_RECORDS = [   # t, probe, epsilon, ratio, stderr
    (0.2, 'const+1', 0.1, 3.972076883087772, 0.021242632899854605),
    (0.2, 'const-1', 0.1, 0.007415074414572253, 0.002920447149341306),
    (0.2, 'feedback-shift', 0.1, 0.18616261113891516, 0.005641920356609144),
    (0.2, 'const+1', 0.05, 3.78658019964286, 0.029073969781453133),
    (0.2, 'const-1', 0.05, -0.027441435184052086, 0.004195610349926712),
    (0.2, 'feedback-shift', 0.05, 0.02305086503411311, 0.008533190173458422),
    (0.2, 'const+1', 0.025, 3.624736186837652, 0.034524087313598885),
    (0.2, 'const-1', 0.025, -0.07230045181412822, 0.005920879354524205),
    (0.2, 'feedback-shift', 0.025, -0.2969923097458067, 0.010431637332286461),
    (0.5, 'const+1', 0.1, 2.756132661246197, 0.017121822592200516),
    (0.5, 'const-1', 0.1, 0.13321085235861024, 0.0032773890920154585),
    (0.5, 'feedback-shift', 0.1, 0.16216027554873383, 0.0052145366228785045),
    (0.5, 'const+1', 0.05, 2.578766693255312, 0.02274403824592739),
    (0.5, 'const-1', 0.05, 0.029081718402949618, 0.004874759418065456),
    (0.5, 'feedback-shift', 0.05, 0.053951673930993774, 0.007347274050430328),
    (0.5, 'const+1', 0.025, 2.3787068857829983, 0.02713936914020981),
    (0.5, 'const-1', 0.025, -0.13721193499622955, 0.006436055562227703),
    (0.5, 'feedback-shift', 0.025, -0.16609667227230557, 0.00881788918561462),
]


def _close(actual, expected):
    expected = np.asarray(expected, float)
    np.testing.assert_allclose(actual, expected, rtol=RTOL,
                               atol=RTOL * float(np.abs(expected).max()))


@pytest.fixture(scope="module")
def ex12_game(ex12):
    return build_delta_equilibrium(ex12, TimeGrid.uniform(ex12.T, 4), h=ex12.T / 2000)


def test_closed_loop_ensemble_and_cost(meanfield, discounting):
    eq = build_delta_equilibrium(meanfield, TimeGrid.uniform(meanfield.T, 3),
                                 h=meanfield.T / 200)
    ens = simulate_closed_loop(meanfield, eq.gains, 0.0, [1.0, -0.5],
                               MCConfig(paths=4, steps=9, seed=5))
    _close(ens.states, MF_STATES)
    _close(ens.cond_mean, MF_COND_MEAN)
    _close(estimate_cost(meanfield, ens, 0.0), MF_COST)
    # J(0.25, .) belongs to a state process started at 0.25, not to this one
    with pytest.raises(ConfigurationError, match="t = 0.25 .* t = 0.0"):
        estimate_cost(meanfield, ens, 0.25)

    eq = build_delta_equilibrium(discounting, TimeGrid.uniform(discounting.T, 3),
                                 h=discounting.T / 200)
    ens = simulate_closed_loop(discounting, eq.gains, 0.2, [1.0],
                               MCConfig(paths=4, steps=10, seed=6))
    _close(ens.states, DISC_STATES)
    _close(estimate_cost(discounting, ens, 0.2), DISC_COST)


def test_interval_deviation_report(ex12, ex12_game):
    rep = delta_local_optimality_check(ex12, ex12_game, 1, [1.0],
                                       mc=MCConfig(paths=200, steps=40, seed=2))
    assert rep["passed"] and rep["player"] == 1
    assert [r["probe"] for r in rep["records"]] == [r[0] for r in DELTA_RECORDS]
    _close([[r["excess_cost"], r["stderr"], r["margin"]] for r in rep["records"]],
           [r[1:] for r in DELTA_RECORDS])
    _close([rep["equilibrium_cost"], rep["min_margin"]], [DELTA_COST, DELTA_MIN_MARGIN])


def test_spike_report(classical):
    sol = solve_open_loop(classical, h=classical.T / 2000, t_nodes=16)
    rep = verify_open_loop_equilibrium(classical, sol, np.ones(2),
                                       mc=MCConfig(paths=200, steps=40, seed=3))
    assert not rep["passed"]     # 200 paths and 40 steps are too few to pass
    assert [(r["t"], r["probe"], r["epsilon"]) for r in rep["records"]] \
        == [r[:3] for r in SPIKE_RECORDS]
    _close([[r["ratio"], r["stderr"]] for r in rep["records"]],
           [r[3:] for r in SPIKE_RECORDS])
    _close(rep["min_margin"], SPIKE_MIN_MARGIN)


def test_interval_deviation_fails_without_theta_hat(ex12, ex12_game):
    """With Theta_hat set to 0 the game's gains are wrong, and player 1 profits
    from a deviation (margin about -0.21); the right gains pass."""
    gains = ex12_game.gains
    zero = PiecewiseGain(gains.partition, tuple(
        GainSegment(s.times, s.theta, np.zeros_like(s.theta_hat))
        for s in gains.segments))
    mc = MCConfig(paths=4000, steps=400, seed=9)
    bad = delta_local_optimality_check(ex12, replace(ex12_game, gains=zero), 1, [1.0], mc=mc)
    assert not bad["passed"]
    assert bad["min_margin"] == pytest.approx(-0.20576787412403363, rel=RTOL)
    good = delta_local_optimality_check(ex12, ex12_game, 1, [1.0], mc=mc)
    assert good["passed"]
    assert good["min_margin"] == pytest.approx(0.007258718281583116, rel=RTOL)


def test_spike_fails_on_shifted_gain(classical):
    """Theta_open + 0.5 is not an equilibrium, and a spike beats it (margin
    about -1.05); the solved gain passes."""
    sol = solve_open_loop(classical, h=classical.T / 2000)
    mc = MCConfig(paths=2000, steps=400, seed=3)
    bad = verify_open_loop_equilibrium(
        classical, replace(sol, Theta_open=sol.Theta_open + 0.5), np.ones(2), mc=mc)
    assert not bad["passed"]
    assert bad["min_margin"] == pytest.approx(-1.0548630130199623, rel=RTOL)
    good = verify_open_loop_equilibrium(classical, sol, np.ones(2), mc=mc)
    assert good["passed"]
    assert good["min_margin"] == pytest.approx(0.005298934745595503, rel=RTOL)
