"""The Riccati pair field on regrouped coefficients (`precommit.PairField`),
the Lyapunov majorants on its linear part, and the initial-time check of
`solve_precommitment`.

MAJORANTS and ORDERING hold values computed by the Lyapunov majorant march
when its field was still written out product by product: Pi(t), Pi_hat(t) of
`precommit_bounds(problem, 0.4, T/500)`, and the "Pi - P" and "Pihat - Phat"
margins at each interval's lower node of `ordering_report` on a 3-interval
game at h = T/200.  Discounting's values were re-pinned when march grids began
to hold the lag knots k/8 of its Qbar: both now lie within 5.3e-12 of the
same computations at an eighth of the step, the old ones within 3.8e-8.
"""

import numpy as np
import pytest

from mflq import (TimeGrid, ValidationError, build_delta_equilibrium,
                  bundled_problem, ordering_report, precommit_bounds,
                  solve_precommitment)
from mflq import integrators, precommit
from mflq.cli import main
from mflq.integrators import feedback_gain

MAJORANTS = {
    "meanfield": [[[1.6884696004932038, 0.08064795903265391],
                   [0.08064795903265391, 1.5358659416468479]],
                  [[2.0733567828275756, 0.10068682851377023],
                   [0.10068682851377023, 1.8730670079462444]]],
    "discounting": [[[1.6719801816559696]], [[2.1355523356476067]]],
}

ORDERING = {
    "meanfield": [6.723224147590304e-05, 5.946654510920017e-05, 4.7945190595006116e-05,
                  5.6372150621686844e-05, 3.257085926545799e-05, 5.289660301692825e-05],
    "discounting": [0.36804882542672934, 0.45514460471298634, 0.3643820455676201,
                    0.4760139238215553, 0.3542017657473593, 0.5126283494712451],
}

STAGES = 21     # three blocks of 8, 8 and 5 stages at blocks of 8


def _coefficients(rng, n, m, stages):
    """Random stacked (A, B, C, D, Q, R) with R >= I, so K stays definite."""
    def mats(r, c, scale):
        return rng.normal(scale=scale, size=(stages, 2, r, c))
    M = mats(m, m, 0.5)
    R = np.eye(m) + M @ M.swapaxes(-1, -2)
    Q = mats(n, n, 1.0)
    return (mats(n, n, 1.0), mats(n, m, 1.0), mats(n, n, 1.0), mats(n, m, 1.0),
            Q + Q.swapaxes(-1, -2), R)


def _explicit_field(coeffs, q, Z, delta, what):
    """The linear part and the whole pair field at stage q, written out
    product by product."""
    A, B, C, D, Q, R = (x[q] for x in coeffs)
    At, Bt, Ct, Dt = (x.swapaxes(-1, -2) for x in (A, B, C, D))
    P = Z[0]
    DP = Dt @ P
    L = Bt @ Z + DP @ C
    Th = feedback_gain(R + DP @ D, L, delta, what, q)
    lin = Z @ A + At @ Z + Ct @ P @ C + Q
    return lin, -(lin - L.swapaxes(-1, -2) @ Th)


class FlippedSandwich(precommit.PairField):
    """The pair field with its C'PC term entering with the wrong sign."""

    def __init__(self, coefficients):
        super().__init__(coefficients)
        self.C = coefficients[2]

    def __call__(self, q, Z):
        lin, L, K = super().__call__(q, Z)
        lin -= 2 * self.C[q].swapaxes(-1, -2) @ Z[0] @ self.C[q]
        return lin, L, K


def _mismatch(n, m, seed, field_type=precommit.PairField):
    """Largest error, relative to the field's scale, of the pair field against
    the explicit one (and of the field without control against its linear part)
    at every stage of a march that crosses two block boundaries, on random
    coefficients and random symmetric states."""
    rng = np.random.default_rng(seed)
    coeffs = _coefficients(rng, n, m, STAGES)
    A, _, C, _, Q, _ = coeffs
    field = field_type(coeffs)
    linear = field_type(precommit.without_control(A, C, Q))
    what = np.array(["K", "Khat"])
    worst = 0.0
    for q in range(STAGES - 1, -1, -1):
        X, Y = rng.normal(size=(2, n, n))
        Z = np.stack([X @ X.T, Y + Y.T])
        lin_want, want = _explicit_field(coeffs, q, Z, 0.5, what)
        lin, L, K = field(q, Z)
        got = L.swapaxes(-1, -2) @ feedback_gain(K, L, 0.5, what, q) - lin
        worst = max(worst, np.abs(got - want).max() / np.abs(want).max(),
                    np.abs(linear(q, Z)[0] - lin_want).max() / np.abs(lin_want).max())
    assert field.lo == linear.lo == 0
    return worst


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(integrators, "_PAIR_BLOCK", 8)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_field_reproduces_the_explicit_field(small_blocks, n, m):
    # m = 2 takes the Cholesky branch of feedback_gain
    assert _mismatch(n, m, seed=100 * n + m) <= 1e-13


def test_flipped_sandwich_is_seen(small_blocks):
    """A field whose C'PC term enters with the wrong sign fails the comparison."""
    for n, m in ((1, 1), (2, 2), (3, 1)):
        assert _mismatch(n, m, seed=100 * n + m, field_type=FlippedSandwich) > 1e-3


@pytest.mark.parametrize("name", sorted(MAJORANTS))
def test_majorants_unchanged(name):
    problem = bundled_problem(name)
    rep = precommit_bounds(problem, 0.4, problem.T / 500)
    ref = np.array(MAJORANTS[name])
    np.testing.assert_allclose(np.stack([rep.Pi[0], rep.Pi_hat[0]]), ref,
                               rtol=0, atol=1e-12)
    assert rep.bounds_hold


@pytest.mark.parametrize("name", sorted(ORDERING))
def test_ordering_margins_unchanged(name):
    problem = bundled_problem(name)
    eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, 3),
                                 h=problem.T / 200)
    rep = ordering_report(eq)
    got = [c["margin"] for r in rep["per_interval"] for c in r["checks"]
           if c["name"] in ("Pi - P", "Pihat - Phat") and c["node"] == r["interval"]]
    np.testing.assert_allclose(got, ORDERING[name], rtol=0, atol=1e-12)


class TestInitialTime:
    @pytest.mark.parametrize("t", [1.5, 1.0, -0.5])
    def test_outside_horizon_raises(self, ex12, t):
        with pytest.raises(ValidationError, match="outside"):
            solve_precommitment(ex12, t)

    def test_cli_exit_codes(self, tmp_path, capsys):
        argv = ["precommit", "ex12", "--h", "0.01", "--out", str(tmp_path / "x")]
        assert main(argv + ["--t", "1.5"]) == 2
        assert "outside [0, T)" in capsys.readouterr().err
        assert main(argv + ["--t", "0.5"]) == 0
