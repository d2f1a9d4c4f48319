"""The stacked (P, Phat) march of `solve_precommitment` reproduces the solve it
replaced.

The pre-commitment pair was once solved by two marches: P at half the step,
then Phat reading P at its stage times.  REFERENCE holds that solve's P, Phat,
Theta and Theta_hat at the first, middle and last node, at the step
h = T/2000 (then the default), for the four bundled problems at t = 0 and
t = 0.4.
"""

import re

import numpy as np
import pytest

from mflq import IllPosedError, bundled_document, bundled_problem, parse_problem
from mflq import integrators, precommit
from mflq.cli import main

RTOL = 1e-12
FIELDS = ("P", "Phat", "Theta", "Theta_hat")

REFERENCE = {
    ('classical', 0.0): {
        'P': [[[2.3281009342471233, 0.22173519703636477],
               [0.22173519703636477, 0.9464558660659604]],
              [[1.6357254068849865, 0.10401651393752255],
               [0.10401651393752255, 0.9499367267134738]],
              [[1.0, 0.0], [0.0, 1.0]]],
        'Phat': [[[2.3281009342471246, 0.2217351970363653],
                  [0.2217351970363653, 0.946455866065962]],
                 [[1.6357254068849845, 0.10401651393752269],
                  [0.10401651393752269, 0.9499367267134753]],
                 [[1.0, 0.0], [0.0, 1.0]]],
        'Theta': [[[0.23202525616846353, 0.9420813906369454]],
                  [[0.11173820840592404, 0.9465859226743661]],
                  [[0.004987531172069827, 0.9975062344139651]]],
        'Theta_hat': [[[0.23202525616846406, 0.942081390636947]],
                      [[0.11173820840592417, 0.9465859226743676]],
                      [[0.004987531172069827, 0.9975062344139651]]],
    },
    ('classical', 0.4): {
        'P': [[[1.769952414733695, 0.1264956565693358],
               [0.1264956565693358, 0.9468768997137175]],
              [[1.374186838433723, 0.06075646616354462],
               [0.06075646616354462, 0.9615522207154771]],
              [[1.0, 0.0], [0.0, 1.0]]],
        'Phat': [[[1.769952414733698, 0.12649565656933615],
                  [0.12649565656933615, 0.9468768997137181]],
                 [[1.3741868384337257, 0.06075646616354474],
                  [0.06075646616354474, 0.9615522207154791]],
                 [[1.0, 0.0], [0.0, 1.0]]],
        'Theta': [[[0.13474916959772218, 0.9433352318179155]],
                  [[0.0673958640822465, 0.9585628917720844]],
                  [[0.004987531172069827, 0.9975062344139651]]],
        'Theta_hat': [[[0.1347491695977225, 0.9433352318179161]],
                      [[0.06739586408224663, 0.9585628917720863]],
                      [[0.004987531172069827, 0.9975062344139651]]],
    },
    ('discounting', 0.0): {
        'P': [[[1.0260532613021445]], [[0.9454006559507817]], [[0.8607079764250578]]],
        'Phat': [[[1.2052361538123137]], [[1.1346997658853069]], [[1.1607079764250579]]],
        'Theta': [[[1.0359449792829587]], [[1.0289279222228722]], [[1.00990099009901]]],
        'Theta_hat': [[[1.1040266523331341]], [[1.1122354102419965]], [[1.2152108114201308]]],
    },
    ('discounting', 0.4): {
        'P': [[[1.0210473731911271]], [[0.9689686656857005]], [[0.9139311852712282]]],
        'Phat': [[[1.229538407120856]], [[1.197877915079433]], [[1.2139311852712282]]],
        'Theta': [[[1.0309419153095551]], [[1.0234660573826329]], [[1.00990099009901]]],
        'Theta_hat': [[[1.1258760245550639]], [[1.1422275920971816]], [[1.20442316774909]]],
    },
    ('ex12', 0.0): {
        'P': [[[0.0]], [[0.0]], [[0.0]]],
        'Phat': [[[0.49999999999999994]], [[0.6666666666666667]], [[1.0]]],
        'Theta': [[[0.0]], [[0.0]], [[0.0]]],
        'Theta_hat': [[[0.49999999999999994]], [[0.6666666666666667]], [[1.0]]],
    },
    ('ex12', 0.4): {
        'P': [[[0.0]], [[0.0]], [[0.0]]],
        'Phat': [[[0.6249999999999991]], [[0.7692307692307692]], [[1.0]]],
        'Theta': [[[0.0]], [[0.0]], [[0.0]]],
        'Theta_hat': [[[0.6249999999999991]], [[0.7692307692307692]], [[1.0]]],
    },
    ('meanfield', 0.0): {
        'P': [[[2.1683158973945593, 0.09723831157301283],
               [0.09723831157301283, 0.973758999209141]],
              [[1.5697844232170353, 0.04680066127270919],
               [0.04680066127270919, 0.9774579903257836]],
              [[1.0, 0.0], [0.0, 1.0]]],
        'Phat': [[[2.7004522997016127, 0.04589592051055655],
                  [0.04589592051055655, 1.101533267266541]],
                 [[1.914032343971367, 0.02036986828044489],
                  [0.02036986828044489, 1.1249332087606307]],
                 [[1.2, 0.0], [0.0, 1.2]]],
        'Theta': [[[0.11639760282080865, 0.9540446798631513]],
                  [[0.061532576700629005, 0.9628119253101165]],
                  [[0.009900990099009903, 0.9900990099009901]]],
        'Theta_hat': [[[0.1992938355447522, 1.031969767570733]],
                      [[0.13107173927699317, 1.0582387608304071]],
                      [[0.07072802715956243, 1.1335345152772538]]],
    },
    ('meanfield', 0.4): {
        'P': [[[1.6872414107263334, 0.056601699753504015],
               [0.056601699753504015, 0.9757646251963394]],
              [[1.33833820695171, 0.027643607875472678],
               [0.027643607875472678, 0.983077585154288]],
              [[1.0, 0.0], [0.0, 1.0]]],
        'Phat': [[[2.0654657236319363, 0.025096158356422624],
                  [0.025096158356422624, 1.1177730737602558]],
                 [[1.619848868911193, 0.011546270773473637],
                  [0.011546270773473637, 1.1453016438791135]],
                 [[1.2, 0.0], [0.0, 1.2]]],
        'Theta': [[[0.07225499761960996, 0.9601309157855545]],
                  [[0.04048516155969032, 0.9703672259010713]],
                  [[0.009900990099009903, 0.9900990099009901]]],
        'Theta_hat': [[[0.14412125326808056, 1.0506387370276105]],
                      [[0.10592919951225493, 1.0791760274197233]],
                      [[0.07072802715956243, 1.1335345152772538]]],
    },
}


@pytest.mark.parametrize("name, t", sorted(REFERENCE))
def test_matches_two_march_solve(name, t):
    problem = bundled_problem(name)
    sol = precommit.solve_precommitment(problem, t, problem.T / 2000)
    last = len(sol.times) - 1
    nodes = [0, last // 2, last]
    for field in FIELDS:
        ref = np.array(REFERENCE[name, t][field])
        got = getattr(sol, field)[nodes]
        # relative to the field's scale: ex12's P and Theta vanish identically
        np.testing.assert_allclose(got, ref, rtol=0, atol=RTOL * np.abs(ref).max(),
                                   err_msg=f"{name} t={t} {field}")


def test_one_march_of_four_stages_per_step(monkeypatch, meanfield):
    marches, evals = [], [0]
    march = integrators.rk4_march

    def counted(rhs, times, terminal, symmetric=False):
        def counted_rhs(q, M):
            evals[0] += 1
            return rhs(q, M)
        marches.append(len(times) - 1)
        return march(counted_rhs, times, terminal, symmetric)

    monkeypatch.setattr(integrators, "rk4_march", counted)
    sol = precommit.solve_precommitment(meanfield, 0.4, meanfield.T / 2000)
    assert marches == [len(sol.times) - 1] == [1200]
    assert evals[0] == 4 * marches[0]


def _meanfield(**weights):
    doc = bundled_document("meanfield")
    doc["weights"].update(weights)
    return parse_problem(doc)


def test_hat_factor_failure_is_named():
    """Rhat = R + Rbar = 0.05 is below delta/2 = 0.25 while R + D'PD stays
    definite; the bundled Rbar = 0.05 solves."""
    msg = "Rhat(t)+Dhat'PDhat lost definiteness"
    with pytest.raises(IllPosedError, match=re.escape(msg)):
        precommit.solve_precommitment(_meanfield(Rbar=[[-0.95]]), 0.0)
    sol = precommit.solve_precommitment(_meanfield(), 0.0)
    assert np.isfinite(sol.Theta_hat).all()


def test_hat_factor_failure_exits_ill_posed(tmp_path, capsys):
    argv = ["precommit", "meanfield", "--h", "0.01", "--out", str(tmp_path / "x")]
    assert main(argv + ["--set", "weights.Rbar=[[-0.95]]"]) == 3
    assert "Rhat(t)+Dhat'PDhat" in capsys.readouterr().err
    assert main(argv) == 0
