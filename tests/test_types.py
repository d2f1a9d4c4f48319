import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mflq import (MatrixFn, PiecewiseGain, TimeGrid, TwoParamMatrixField,
                  TwoTimeMatrixFn, ValidationError, hat, min_eig, symmetrize,
                  tau_psd, validate)
from mflq.errors import DimensionError
from mflq.types import GainSegment


def _index_gain(N: int) -> PiecewiseGain:
    """A gain on N uniform intervals of [0, 1] whose interval k reads k, and 10 + k."""
    part = TimeGrid.uniform(1.0, N)
    segs = []
    for k in range(N):
        ts = np.linspace(part.nodes[k], part.nodes[k + 1], 3)
        segs.append(GainSegment(ts, np.full((3, 1, 1), float(k)),
                                np.full((3, 1, 1), float(10 + k))))
    return PiecewiseGain(part, tuple(segs))


class TestTimeGrid:
    def test_uniform(self):
        g = TimeGrid.uniform(2.0, 4)
        assert g.T == 2.0
        assert g.num_intervals == 4
        np.testing.assert_allclose(g.nodes, [0, 0.5, 1.0, 1.5, 2.0])

    def test_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            TimeGrid(np.array([0.5, 1.0]))

    def test_must_increase(self):
        with pytest.raises(ValidationError):
            TimeGrid(np.array([0.0, 1.0, 1.0]))

    def test_interval_index_right_continuous(self):
        """A time reads the interval it starts or lies in; the horizon reads the last."""
        th = _index_gain(4).at_many(np.array([0.0, 0.25, 0.999, 1.0]))[0]
        np.testing.assert_array_equal(th[:, 0, 0], [0.0, 1.0, 3.0, 3.0])


class TestMatrixFn:
    def test_constant(self):
        f = MatrixFn.constant([[1.0, 2.0], [3.0, 4.0]], 1.0)
        np.testing.assert_array_equal(f(0.3), [[1, 2], [3, 4]])
        assert f.shape == (2, 2)

    def test_polynomial(self):
        f = MatrixFn.polynomial([[[1.0]], [[2.0]], [[3.0]]], 1.0)
        assert f(0.5)[0, 0] == pytest.approx(1 + 2 * 0.5 + 3 * 0.25)

    def test_from_samples_interpolates_and_clamps(self):
        f = MatrixFn.from_samples([0.0, 1.0], np.array([0.0, 2.0]), 1.0)
        assert f(0.25)[0, 0] == pytest.approx(0.5)
        assert f(-1.0)[0, 0] == pytest.approx(0.0)
        assert f(5.0)[0, 0] == pytest.approx(2.0)

    def test_terminal_discount_anchored_at_horizon(self):
        f = MatrixFn.terminal_discount(0.7, [[2.0]], 3.0)
        assert f(3.0)[0, 0] == pytest.approx(2.0)
        assert f(0.0)[0, 0] == pytest.approx(2.0 * np.exp(-0.7 * 3.0))

    def test_add_and_shape_mismatch(self):
        a = MatrixFn.constant([[1.0]], 1.0)
        b = MatrixFn.constant([[2.0]], 1.0)
        assert (a + b)(0.1)[0, 0] == 3.0
        c = MatrixFn.constant(np.eye(2), 1.0)
        with pytest.raises(DimensionError):
            a + c

    def test_wrong_shape_raises_on_call(self):
        f = MatrixFn(lambda s: np.zeros((1, 2)), (2, 2), 1.0, "bad")
        with pytest.raises(DimensionError):
            f(0.0)


class TestTwoTimeMatrixFn:
    def test_exp_discount(self):
        f = TwoTimeMatrixFn.exp_discount(2.0, [[3.0]], 1.0)
        assert f(0.5, 0.5)[0, 0] == pytest.approx(3.0)
        assert f(1.0, 0.0)[0, 0] == pytest.approx(3.0 * np.exp(-2.0))

    def test_at_many_matches_scalar_loop(self):
        f = TwoTimeMatrixFn.exp_discount(1.3, np.eye(2), 1.0)
        ts = np.linspace(0.0, 0.8, 9)
        batch = f.at_many(0.8, ts)
        loop = np.stack([f(0.8, t) for t in ts])
        np.testing.assert_allclose(batch, loop, rtol=0, atol=1e-15)

    def test_lag_samples(self):
        f = TwoTimeMatrixFn.from_lag_samples([0.0, 1.0], np.array([1.0, 3.0]), 2.0)
        assert f(0.5, 0.0)[0, 0] == pytest.approx(2.0)
        # lags outside the sampled range clamp
        assert f(2.0, 0.0)[0, 0] == pytest.approx(3.0)
        batch = f.at_many(1.0, np.array([0.0, 0.5, 1.0]))
        np.testing.assert_allclose(batch[:, 0, 0], [3.0, 2.0, 1.0])

    def test_add_composes_batch_path(self):
        a = TwoTimeMatrixFn.constant([[1.0]], 1.0)
        b = TwoTimeMatrixFn.exp_discount(1.0, [[1.0]], 1.0)
        c = a + b
        ts = np.array([0.0, 0.5])
        np.testing.assert_allclose(c.at_many(0.5, ts),
                                   a.at_many(0.5, ts) + b.at_many(0.5, ts))


@given(arrays(np.float64, (3, 3), elements=st.floats(-10, 10)))
@settings(max_examples=50, deadline=None)
def test_symmetrize_is_projection(M):
    S = symmetrize(M)
    np.testing.assert_allclose(S, S.T)
    np.testing.assert_allclose(symmetrize(S), S)


def test_tau_psd_scales():
    assert tau_psd(np.zeros((2, 2))) == pytest.approx(1e-10)
    assert tau_psd(1e6 * np.eye(2)) > 1e-5


def test_min_eig():
    assert min_eig(np.diag([3.0, -2.0])) == pytest.approx(-2.0)


class TestTwoParamMatrixField:
    def test_from_triangle_extends_below_diagonal(self):
        g = TimeGrid.uniform(1.0, 2)
        vals = np.arange(9.0).reshape(3, 3, 1, 1)
        f = TwoParamMatrixField.from_triangle(g, vals)
        # entries with s < t, [i, j] with i < j, are frozen at the diagonal value of t
        assert f.values[0, 1, 0, 0] == f.values[1, 1, 0, 0]
        assert f.values[2, 1, 0, 0] == 7.0

    def test_from_triangle_matches_pairwise_loop(self):
        """The vectorized fill equals the loop over node pairs bit for bit."""
        g = TimeGrid.uniform(1.0, 6)
        vals = np.random.default_rng(3).normal(size=(7, 7, 2, 2))
        ref = vals.copy()
        for j in range(7):
            for i in range(j):
                ref[i, j] = ref[j, j]
        f = TwoParamMatrixField.from_triangle(g, vals)
        np.testing.assert_array_equal(f.values, ref)

    def test_max_asymmetry(self):
        g = TimeGrid.uniform(1.0, 1)
        vals = np.zeros((2, 2, 2, 2))
        f = TwoParamMatrixField(g, vals)
        assert f.max_asymmetry() == 0.0


class TestPiecewiseGain:
    def test_right_continuous_and_anchor(self):
        """at_many reads the segment of the interval [rho(s), .) holding s."""
        g = _index_gain(2)
        th, thh = g.at_many(np.array([0.5, 0.499999, 0.25, 0.75, 1.0, 0.9]))
        assert th[0, 0, 0] == 1.0                 # right-continuous at the node
        assert th[1, 0, 0] == 0.0
        assert th[2, 0, 0] == 0.0                 # rho(0.25) = 0
        assert th[3, 0, 0] == 1.0                 # rho(0.75) = 0.5
        assert th[4, 0, 0] == 1.0                 # horizon maps to last interval
        assert thh[5, 0, 0] == 11.0
        # a scalar time reads an (m, n) pair
        assert g.at_many(0.5)[1].shape == (1, 1)

    def test_single_starts_at_zero(self):
        """single spans [0, T]: samples that start later read their first
        before it, and a later t0 is refused, naming 0.0."""
        th = np.array([[[2.0]], [[4.0]]])
        g = PiecewiseGain.single(0.0, 1.0, [0.5, 1.0], th, -th)
        assert g.partition.nodes.tolist() == [0.0, 1.0]
        assert g.at_many(np.array([0.0, 0.25, 0.75]))[0][:, 0, 0].tolist() == [2.0, 2.0, 3.0]
        with pytest.raises(ValidationError, match="pass 0.0"):
            PiecewiseGain.single(0.5, 1.0, [0.5, 1.0], th, -th)

    def test_segment_count_checked(self):
        part = TimeGrid.uniform(1.0, 2)
        seg = GainSegment(np.array([0.0, 1.0]), np.zeros((2, 1, 1)),
                          np.zeros((2, 1, 1)))
        with pytest.raises(DimensionError):
            PiecewiseGain(part, (seg,))


def test_hat_sums(meanfield):
    hp = hat(meanfield)
    for s in (0.0, 0.3, 1.0):
        np.testing.assert_allclose(hp.A(s), meanfield.A(s) + meanfield.Abar(s))
        np.testing.assert_allclose(hp.G(s), meanfield.G(s) + meanfield.Gbar(s))
        np.testing.assert_allclose(hp.Q(s, 0.0),
                                   meanfield.Q(s, 0.0) + meanfield.Qbar(s, 0.0))


def test_validate_bundled_pass(classical, ex12, discounting, meanfield):
    for p in (classical, ex12, discounting, meanfield):
        rep = validate(p)
        assert rep.passed, rep.violations
        assert "H2: pass" in str(rep)


def test_validate_catches_indefinite_weight(classical):
    from dataclasses import replace
    bad = replace(classical, R=TwoTimeMatrixFn.constant([[-1.0]], classical.T))
    rep = validate(bad)
    assert not rep.passed
    assert any("R" in v for v in rep.violations)
