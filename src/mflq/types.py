"""Core value types: time grids, matrix-valued functions, problem data, sampled fields.

All types are immutable after construction and safe to share across threads;
`ProblemData.memo` only caches what is derived from the problem itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError, ValidationError


def tau_psd(M: np.ndarray) -> float:
    """Scale-aware eigenvalue floor for positive-semidefiniteness checks."""
    scale = float(np.abs(M).max()) if M.size else 0.0
    return 1e-10 * (1.0 + scale)


def symmetrize(M: np.ndarray) -> np.ndarray:
    """Orthogonal projection onto symmetric matrices, applied along the last two axes."""
    return 0.5 * (M + M.swapaxes(-1, -2))


def min_eig(M: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(symmetrize(M)).min())


@dataclass(frozen=True)
class TimeGrid:
    """Strictly increasing nodes from 0 to the horizon T."""

    nodes: np.ndarray

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValidationError("TimeGrid needs at least two nodes")
        if nodes[0] != 0.0:
            raise ValidationError("TimeGrid must start at 0")
        if not np.all(np.diff(nodes) > 0):
            raise ValidationError("TimeGrid nodes must be strictly increasing")

    @classmethod
    def uniform(cls, T: float, N: int) -> "TimeGrid":
        return cls(np.linspace(0.0, T, N + 1))

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def num_intervals(self) -> int:
        return len(self.nodes) - 1


def _interp(x, xs, vs):
    """Linear interpolation of the stacked matrices vs over the nodes xs at x
    (scalar or array), clamped to the end values."""
    x = np.clip(x, xs[0], xs[-1])
    i = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(xs) - 2)
    w = ((x - xs[i]) / (xs[i + 1] - xs[i]))[..., None, None]
    return (1.0 - w) * vs[i] + w * vs[i + 1]


def _add(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Sum of two equally shaped matrix stacks; stays a read-only broadcast view
    when neither operand varies along its leading axes."""
    lead = x.ndim - 2
    if lead and x.size and not any(x.strides[:lead]) and not any(y.strides[:lead]):
        first = (0,) * lead
        return np.broadcast_to(x[first] + y[first], x.shape)
    return x + y


def stack_pair(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.stack([a, b], axis=1) of two equally shaped stacks; a read-only
    broadcast view when neither varies along its stage axis 0, as constant
    samples from `at_many` do not."""
    if len(a) and not a.strides[0] and not b.strides[0]:
        return np.broadcast_to(np.stack([a[0], b[0]]), (len(a), 2) + a.shape[1:])
    return np.stack([a, b], axis=1)


def _union(*groups) -> tuple[float, ...]:
    """The sorted distinct times of several breakpoint tuples."""
    return tuple(sorted({float(x) for g in groups for x in g}))


@dataclass(frozen=True)
class MatrixFn:
    """A continuous matrix-valued function of one time variable on [0, T].

    `many`, when present, evaluates an array of times in one vectorized call;
    `at_many` falls back to a scalar loop otherwise.  `breakpoints` are the
    times where the function may fail to be smooth (the knots of sampled
    data); a march that puts them on its nodes keeps its order.
    """

    fn: Callable[[float], np.ndarray]
    shape: tuple[int, int]
    T: float
    name: str = ""
    many: Callable[[np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, s: float) -> np.ndarray:
        M = np.asarray(self.fn(s), dtype=float)
        if M.shape != self.shape:
            raise DimensionError(
                f"{self.name or 'MatrixFn'}({s}) has shape {M.shape}, expected {self.shape}"
            )
        return M

    def at_many(self, ss) -> np.ndarray:
        """ss.shape + (r, c) values at an array of times; a constant comes back as
        a read-only broadcast view."""
        ss = np.asarray(ss, float)
        if self.many is not None:
            return self.many(ss)
        return np.array([self(s) for s in ss.ravel()], float).reshape(ss.shape + self.shape)

    @classmethod
    def constant(cls, M, T: float, name: str = "") -> "MatrixFn":
        M = np.atleast_2d(np.asarray(M, dtype=float))
        return cls(lambda s, _M=M: _M, M.shape, T, name,
                   lambda ss, _M=M: np.broadcast_to(_M, ss.shape + _M.shape))

    @classmethod
    def polynomial(cls, coeffs: Sequence, T: float, name: str = "") -> "MatrixFn":
        """sum_i coeffs[i] * s**i with matrix coefficients."""
        cs = [np.atleast_2d(np.asarray(c, dtype=float)) for c in coeffs]
        shape = cs[0].shape

        def ev(s, _cs=cs):
            s = np.asarray(s, float)
            out = np.zeros(s.shape + shape)
            p = np.ones(s.shape + (1, 1))
            for c in _cs:
                out = out + p * c
                p = p * s[..., None, None]
            return out

        return cls(ev, shape, T, name, ev)

    @classmethod
    def from_samples(cls, times, values, T: float, name: str = "") -> "MatrixFn":
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None, None]

        def ev(s):
            return _interp(s, times, values)

        return cls(ev, values.shape[1:], T, name, ev, _union(times))

    @classmethod
    def terminal_discount(cls, lam: float, base, T: float, name: str = "") -> "MatrixFn":
        """t -> exp(-lam*(T-t)) * base; used for discounted terminal weights."""
        base = np.atleast_2d(np.asarray(base, dtype=float))

        def ev(t):
            return np.exp(-lam * (T - np.asarray(t)))[..., None, None] * base

        return cls(ev, base.shape, T, name, ev)

    def __add__(self, other: "MatrixFn") -> "MatrixFn":
        if self.shape != other.shape:
            raise DimensionError(f"cannot add MatrixFn shapes {self.shape} and {other.shape}")
        return MatrixFn(lambda s, a=self, b=other: a(s) + b(s), self.shape, self.T,
                        f"{self.name}+{other.name}",
                        lambda ss, a=self, b=other: _add(a.at_many(ss), b.at_many(ss)),
                        _union(self.breakpoints, other.breakpoints))


@dataclass(frozen=True)
class TwoTimeMatrixFn:
    """A continuous matrix function of (s, t) on the triangle 0 <= t <= s <= T.

    `many`, when present, evaluates arrays of s and t values, broadcast against
    each other, in a single vectorized call; `at_many` falls back to a scalar
    loop otherwise.  `breakpoints` are lags u = s - t where the function may
    fail to be smooth: at the anchor t they sit at s = t + u.
    """

    fn: Callable[[float, float], np.ndarray]
    shape: tuple[int, int]
    T: float
    name: str = ""
    many: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, s: float, t: float) -> np.ndarray:
        M = np.asarray(self.fn(s, t), dtype=float)
        if M.shape != self.shape:
            raise DimensionError(
                f"{self.name or 'TwoTimeMatrixFn'}({s},{t}) has shape {M.shape}, "
                f"expected {self.shape}"
            )
        return M

    def at_many(self, s, ts) -> np.ndarray:
        """Values at (s, t) for s and ts broadcast against each other, shaped
        broadcast_shape + (r, c): one s against a vector of anchors, a column of
        stage times against the anchors, or two aligned vectors for the diagonal.
        A constant comes back as a read-only broadcast view."""
        s, ts = np.asarray(s, float), np.asarray(ts, float)
        if self.many is not None:
            return self.many(s, ts)
        s, ts = np.broadcast_arrays(s, ts)
        return np.array([self(a, b) for a, b in zip(s.ravel(), ts.ravel())],
                        float).reshape(s.shape + self.shape)

    def frozen(self, t: float) -> MatrixFn:
        """The one-time function s -> self(s, t) at a fixed anchor t, its
        breakpoints the lags shifted by t."""
        return MatrixFn(lambda s, f=self: f(s, t), self.shape, self.T, self.name,
                        lambda ss, f=self: f.at_many(ss, t),
                        _union([t + u for u in self.breakpoints]))

    @classmethod
    def constant(cls, M, T: float, name: str = "") -> "TwoTimeMatrixFn":
        M = np.atleast_2d(np.asarray(M, dtype=float))

        def many(s, ts, _M=M):
            return np.broadcast_to(_M, np.broadcast_shapes(s.shape, ts.shape) + _M.shape)

        return cls(lambda s, t, _M=M: _M, M.shape, T, name, many)

    @classmethod
    def exp_discount(cls, lam: float, base, T: float, name: str = "") -> "TwoTimeMatrixFn":
        """(s, t) -> exp(-lam*(s-t)) * base."""
        base = np.atleast_2d(np.asarray(base, dtype=float))

        def ev(s, t):
            return np.exp(-lam * (np.asarray(s) - t))[..., None, None] * base

        return cls(ev, base.shape, T, name, ev)

    @classmethod
    def from_lag_samples(cls, lags, values, T: float, name: str = "") -> "TwoTimeMatrixFn":
        """Linear interpolation in the lag u = s - t; covers non-exponential discounts."""
        lags = np.asarray(lags, dtype=float)
        values = np.asarray(values, dtype=float)
        if values.ndim == 1:
            values = values[:, None, None]

        def ev(s, t):
            return _interp(np.asarray(s) - t, lags, values)

        return cls(ev, values.shape[1:], T, name, ev, _union(lags))

    def __add__(self, other: "TwoTimeMatrixFn") -> "TwoTimeMatrixFn":
        if self.shape != other.shape:
            raise DimensionError(
                f"cannot add TwoTimeMatrixFn shapes {self.shape} and {other.shape}"
            )
        return TwoTimeMatrixFn(
            lambda s, t, a=self, b=other: a(s, t) + b(s, t), self.shape, self.T,
            f"{self.name}+{other.name}",
            lambda s, ts, a=self, b=other: _add(a.at_many(s, ts), b.at_many(s, ts)),
            _union(self.breakpoints, other.breakpoints))


@dataclass(frozen=True)
class HatCoefficients:
    """Pointwise sums base + bar of every coefficient and weight."""

    A: MatrixFn
    B: MatrixFn
    C: MatrixFn
    D: MatrixFn
    Q: TwoTimeMatrixFn
    R: TwoTimeMatrixFn
    G: MatrixFn


@dataclass(frozen=True)
class ProblemData:
    """Mean-field LQ problem: state dynamics coefficients, two-time weights, horizon."""

    n: int
    m: int
    T: float
    A: MatrixFn
    Abar: MatrixFn
    B: MatrixFn
    Bbar: MatrixFn
    C: MatrixFn
    Cbar: MatrixFn
    D: MatrixFn
    Dbar: MatrixFn
    Q: TwoTimeMatrixFn
    Qbar: TwoTimeMatrixFn
    R: TwoTimeMatrixFn
    Rbar: TwoTimeMatrixFn
    G: MatrixFn
    Gbar: MatrixFn
    delta: float
    monotone: bool = False
    #: quantities derived from this problem object and kept with it (the
    #: measured default step, `hat`); `dataclasses.replace` starts a new one
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        expected = {
            "A": (self.n, self.n), "Abar": (self.n, self.n),
            "B": (self.n, self.m), "Bbar": (self.n, self.m),
            "C": (self.n, self.n), "Cbar": (self.n, self.n),
            "D": (self.n, self.m), "Dbar": (self.n, self.m),
            "Q": (self.n, self.n), "Qbar": (self.n, self.n),
            "R": (self.m, self.m), "Rbar": (self.m, self.m),
            "G": (self.n, self.n), "Gbar": (self.n, self.n),
        }
        for fname, shape in expected.items():
            f = getattr(self, fname)
            if f.shape != shape:
                raise DimensionError(f"{fname} has shape {f.shape}, expected {shape}")
        if self.delta <= 0:
            raise ValidationError("delta must be positive")

    def breakpoints(self, anchors=()) -> tuple[float, ...]:
        """The times where the coefficients a march samples may fail to be
        smooth: the breakpoints of the dynamics, and the weights' lag
        breakpoints shifted by every anchor t at which they are read."""
        lags = _union(*(f.breakpoints for f in (self.Q, self.Qbar, self.R, self.Rbar)))
        return _union(*(getattr(self, x).breakpoints for x in (
            "A", "Abar", "B", "Bbar", "C", "Cbar", "D", "Dbar")),
            [float(t) + u for t in np.atleast_1d(anchors) for u in lags])

    @property
    def has_mean_field_dynamics(self) -> bool:
        """True if any bar coefficient of the dynamics is nonzero on a sample grid."""
        ss = np.linspace(0.0, self.T, 7)
        return any(np.abs(f.at_many(ss)).max() > 0
                   for f in (self.Abar, self.Bbar, self.Cbar, self.Dbar))


def hat(problem: ProblemData) -> HatCoefficients:
    """Pointwise sums A+Abar, ..., G+Gbar, built once per problem object and
    kept in its memo."""
    if "hat" not in problem.memo:
        problem.memo["hat"] = HatCoefficients(
            A=problem.A + problem.Abar,
            B=problem.B + problem.Bbar,
            C=problem.C + problem.Cbar,
            D=problem.D + problem.Dbar,
            Q=problem.Q + problem.Qbar,
            R=problem.R + problem.Rbar,
            G=problem.G + problem.Gbar,
        )
    return problem.memo["hat"]


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...]
    continuity_modulus: float

    def __str__(self):
        lines = [f"H2: {'pass' if self.passed else 'FAIL'}"]
        lines += [f"  {v}" for v in self.violations]
        lines.append(f"continuity modulus estimate: {self.continuity_modulus:.3g}")
        return "\n".join(lines)


def validate(problem: ProblemData) -> ValidationReport:
    """Sample the positivity hypotheses on a triangular (s,t) grid of 13 times.

    Reports every violation found; continuity is a heuristic modulus estimate
    recorded in the report, not asserted.
    """
    viol: list[str] = []
    d = problem.delta
    times = np.linspace(0.0, problem.T, 13)

    def check_psd(M, label, floor=0.0):
        lo = min_eig(M)
        if lo < floor - tau_psd(M):
            viol.append(label)

    for t in times:
        check_psd(problem.G(t), f"G not PSD at t={t:g}")
        check_psd(problem.G(t) + problem.Gbar(t), f"G+Gbar not PSD at t={t:g}")
        for s in times[times >= t]:
            check_psd(problem.Q(s, t), f"Q not PSD at (s,t)=({s:g},{t:g})")
            check_psd(problem.Q(s, t) + problem.Qbar(s, t),
                      f"Q+Qbar not PSD at (s,t)=({s:g},{t:g})")
            check_psd(problem.R(s, t), f"R not ⪰ δI at (s,t)=({s:g},{t:g})", floor=d)
            check_psd(problem.R(s, t) + problem.Rbar(s, t),
                      f"R+Rbar not ⪰ δI at (s,t)=({s:g},{t:g})", floor=d)

    if problem.monotone:
        hp = hat(problem)
        for i, t in enumerate(times[:-1]):
            tau = times[i + 1]
            check_psd(problem.G(tau) - problem.G(t), f"G not monotone at t={t:g}")
            check_psd(hp.G(tau) - hp.G(t), f"G+Gbar not monotone at t={t:g}")
            for s in times[times >= tau]:
                for w, lbl in ((problem.Q, "Q"), (hp.Q, "Q+Qbar"),
                               (problem.R, "R"), (hp.R, "R+Rbar")):
                    check_psd(w(s, tau) - w(s, t),
                              f"{lbl} not monotone at (s,t,tau)=({s:g},{t:g},{tau:g})")

    # continuity heuristic: largest normalized increment over a refined diagonal sample
    fine = np.linspace(0.0, problem.T, 4 * len(times))
    mod = 0.0
    for f in (problem.A, problem.B, problem.C, problem.D, problem.G):
        vals = np.array([np.abs(f(s)).max() for s in fine])
        if len(vals) > 1:
            mod = max(mod, float(np.abs(np.diff(vals)).max() / (fine[1] - fine[0] + 1e-300)))

    return ValidationReport(passed=not viol, violations=tuple(viol), continuity_modulus=mod)


@dataclass(frozen=True)
class TwoParamMatrixField:
    """Grid-sampled field (s_i, t_j) -> n x n matrix on the triangle t <= s.

    The entries [i, j] with i < j (s < t, above the diagonal of the node
    indices) store the diagonal value at t, realizing the constant extension
    used when the field is read at arguments out of order.
    """

    grid: TimeGrid
    values: np.ndarray  # (S, S, n, n); [i, j] is the field at (s_i, t_j)

    @classmethod
    def from_triangle(cls, grid: TimeGrid, values: np.ndarray) -> "TwoParamMatrixField":
        """Build a field from entries valid on s >= t, overwriting s < t by extension."""
        vals = np.array(values, dtype=float, copy=True)
        i, j = np.triu_indices(len(grid.nodes), k=1)
        vals[i, j] = vals[j, j]
        return cls(grid, vals)

    def max_asymmetry(self) -> float:
        d = self.values - np.swapaxes(self.values, -1, -2)
        scale = 1.0 + float(np.abs(self.values).max())
        return float(np.abs(d).max()) / scale


@dataclass(frozen=True)
class GainSegment:
    """Continuous gain pair on one partition interval, sampled on its own fine grid."""

    times: np.ndarray        # ascending, covering [t_k, t_{k+1}]
    theta: np.ndarray        # (len(times), m, n)
    theta_hat: np.ndarray    # (len(times), m, n)


@dataclass(frozen=True)
class PiecewiseGain:
    """Feedback pair (Theta, Theta_hat), piecewise continuous over a partition.

    `at_many` reads it, right-continuously at interval starts; the horizon T
    reads the last interval.
    """

    partition: TimeGrid
    segments: tuple[GainSegment, ...]

    def __post_init__(self):
        if len(self.segments) != self.partition.num_intervals:
            raise DimensionError(
                f"PiecewiseGain has {len(self.segments)} segments for "
                f"{self.partition.num_intervals} intervals"
            )

    def at_many(self, ss) -> tuple[np.ndarray, np.ndarray]:
        """(theta, theta_hat) at an array of times, each ss.shape + (m, n):
        at s, the linear interpolant of the segment of the interval holding s."""
        ss = np.asarray(ss, float)
        k = np.clip(np.searchsorted(self.partition.nodes, ss, side="right") - 1,
                    0, self.partition.num_intervals - 1)
        shape = ss.shape + self.segments[0].theta.shape[1:]
        th, thh = np.empty(shape), np.empty(shape)
        for i, seg in enumerate(self.segments):
            sel = k == i
            th[sel] = _interp(ss[sel], seg.times, seg.theta)
            thh[sel] = _interp(ss[sel], seg.times, seg.theta_hat)
        return th, thh

    @classmethod
    def single(cls, t0: float, T: float, times, theta, theta_hat) -> "PiecewiseGain":
        """One-interval gain on [t0, T] (pre-commitment style feedback)."""
        if t0 != 0.0:
            part = TimeGrid(np.array([0.0, t0, T]))
            # leading interval never evaluated; reuse first sample
            lead = GainSegment(np.array([0.0, t0]),
                               np.repeat(theta[:1], 2, axis=0),
                               np.repeat(theta_hat[:1], 2, axis=0))
            seg = GainSegment(np.asarray(times, float), np.asarray(theta, float),
                              np.asarray(theta_hat, float))
            return cls(part, (lead, seg))
        part = TimeGrid(np.array([0.0, T]))
        seg = GainSegment(np.asarray(times, float), np.asarray(theta, float),
                          np.asarray(theta_hat, float))
        return cls(part, (seg,))

