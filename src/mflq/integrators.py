"""Backward terminal-value integration of matrix ODEs.

Provides the RK4 march every solver runs on (its right-hand side reads
coefficients sampled once on the march's stage grid) with its node grids
(`march_times`, breakpoints on nodes) and dense output, the feedback gain
K^{-1} L with its definiteness check, and the three fields the solvers march:
`LevelField`, the right-hand side of both level systems (the open loop and
the closed-loop limit); `PairField`, the Riccati/Lyapunov field of the
stacked pair (the pre-commitment pair, every game interval and the Lyapunov
majorants); and `triple_field`, the Lyapunov cost triples.
"""

from __future__ import annotations

import copy
import math

import numpy as np

from .errors import BlowUpError, IllPosedError, ValidationError
from .types import ProblemData, hat, stack_pair, symmetrize


def check_step(h: float) -> float:
    """h, after checking that it is a positive step size."""
    if not h > 0:
        raise ValidationError(f"step size must be positive, got {h!r}")
    return h


def _uniform(a: float, b: float, h: float) -> np.ndarray:
    """Uniform nodes from a to b with the fewest steps of size <= h."""
    return np.linspace(a, b, max(1, math.ceil((b - a) / h - 1e-12)) + 1)


def march_times(a: float, b: float, h: float, breakpoints=()) -> np.ndarray:
    """Nodes from a to b with steps of size <= h that hold a, b and every
    breakpoint inside (a, b), so that RK4 keeps its order on coefficients
    that are smooth only between breakpoints.

    The uniform grid with the fewest steps is returned whenever it already
    holds every breakpoint (to 1e-9 of the span); otherwise every stretch
    between consecutive breakpoints gets its own such grid.
    """
    check_step(h)
    span = b - a
    if span <= 0:
        raise ValidationError("empty integration interval")
    times = _uniform(a, b, h)
    tol = 1e-9 * span
    cuts = [a]
    for x in sorted(breakpoints):
        if cuts[-1] + tol < x < b - tol:
            cuts.append(float(x))
    if len(cuts) == 1 or np.abs(np.subtract.outer(cuts[1:], times)).min(axis=1).max() <= tol:
        return times
    cuts.append(b)
    return np.concatenate([_uniform(lo, hi, h)[:-1] for lo, hi in zip(cuts, cuts[1:])]
                          + [[b]])


def stage_times(times: np.ndarray) -> np.ndarray:
    """Half-step stage grid of a march over `times`: the nodes at even indices,
    the step midpoints at odd ones."""
    ss = np.empty(2 * len(times) - 1)
    ss[::2] = times
    ss[1::2] = 0.5 * (times[:-1] + times[1:])
    return ss


def rk4_step(f, y, h, stages=(0, 1, 2, 3)):
    """One classic RK4 step of y' = f(stage, y): (y + h/6 (k1 + 2 k2 + 2 k3
    + k4), k1), the stages being the step's start, its midpoint twice and its
    end.  k1, the field at the start, is the node slope of dense output.

    h is negative for a backward step and may be an array that broadcasts
    against y, for a batch of steps taken at once.
    """
    k1 = f(stages[0], y)
    k2 = f(stages[1], y + 0.5 * h * k1)
    k3 = f(stages[2], y + 0.5 * h * k2)
    k4 = f(stages[3], y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), k1


def rk4_march(rhs, times: np.ndarray, terminal: np.ndarray, symmetric: bool = False,
              slopes: np.ndarray | None = None) -> np.ndarray:
    """Classic RK4 march (`rk4_step`) from times[-1] down to times[0].

    rhs(q, M) is the field at stage q of `stage_times(times)`: the step from
    node i to node i-1 evaluates stages 2i, 2i-1 (twice) and 2i-2, so callers
    sample their coefficients on that grid once per march and read them by
    index.  Returns the values aligned with times.

    symmetric projects the state onto symmetric matrices after every step:
    along its last two axes if True, or along the transpose given by a tuple of
    axes, for a state in another layout (`march_levels`).

    slopes, an array shaped like the values, receives the field at every node
    for `dense_march`: the first stage of each step, and one more evaluation
    at times[0] once the march is done.
    """
    M = np.array(terminal, dtype=float, copy=True)
    vals = np.empty((len(times),) + M.shape)
    vals[-1] = M
    tl = times.tolist()
    for i in range(len(tl) - 1, 0, -1):
        q = 2 * i
        M, k1 = rk4_step(rhs, M, tl[i - 1] - tl[i], (q, q - 1, q - 1, q - 2))
        if slopes is not None:
            slopes[i] = k1
        if symmetric:
            Mt = M.swapaxes(-1, -2) if symmetric is True else M.transpose(symmetric)
            M = 0.5 * (M + Mt)
        if not np.logical_and.reduce(np.isfinite(M), axis=None):
            raise BlowUpError(f"backward integration blew up at s={times[i - 1]:g}",
                              time=float(times[i - 1]))
        vals[i - 1] = M
    if slopes is not None:
        slopes[0] = rhs(0, M)
    return vals


def dense_march(rhs, times: np.ndarray, out: np.ndarray, terminal: np.ndarray,
                symmetric: bool = False) -> np.ndarray:
    """`rk4_march` over `times`, returned at the times `out` in
    [times[0], times[-1]]: the march's own values when `out` is `times`, else
    its cubic Hermite dense output from the node values and node slopes,
    fourth order like the march (Hairer-Norsett-Wanner, Solving ODEs I, II.6)
    and the node values themselves wherever `out` hits a node.  symmetric
    (True or False) also projects the dense output."""
    if out is times:
        return rk4_march(rhs, times, terminal, symmetric)
    slopes = np.empty((len(times),) + np.shape(terminal))
    vals = rk4_march(rhs, times, terminal, symmetric, slopes)
    i = np.clip(np.searchsorted(times, out, side="right") - 1, 0, len(times) - 2)
    dt = times[i + 1] - times[i]
    th = (out - times[i]) / dt
    th2 = th * th
    th3 = th2 * th
    w = [2.0 * th3 - 3.0 * th2 + 1.0, (th3 - 2.0 * th2 + th) * dt,
         3.0 * th2 - 2.0 * th3, (th3 - th2) * dt]
    w = [x.reshape(x.shape + (1,) * (vals.ndim - 1)) for x in w]
    dense = w[0] * vals[i] + w[1] * slopes[i] + w[2] * vals[i + 1] + w[3] * slopes[i + 1]
    return symmetrize(dense) if symmetric else dense


def rk4_backward(rhs, a: float, b: float, terminal_value: np.ndarray, h: float,
                 symmetric: bool = False):
    """Classic RK4 march from b down to a with uniform steps of size <= h, for a
    field rhs(s, M) given as a function of the time.

    Returns (times ascending, values aligned with times); see rk4_march.
    """
    times = march_times(a, b, h)
    ss = stage_times(times)
    return times, rk4_march(lambda q, M: rhs(ss[q], M), times, terminal_value, symmetric)


def feedback_gain(K: np.ndarray, L: np.ndarray, delta: float, what, times
                  ) -> np.ndarray:
    """K^{-1} L over the leading axes, after checking K >= delta/2 I.

    The check is closed-form for 1x1 K and a Cholesky factorisation of
    K - delta/2 I otherwise; on failure it raises IllPosedError naming the first
    failing entry of `what` and of `times` (both broadcast against K's leading
    axes, so a stack of factors can carry one name each).
    """
    floor = 0.5 * delta
    m = K.shape[-1]
    if m == 1:
        if K[0, 0] < floor if K.ndim == 2 else np.logical_or.reduce(K < floor, axis=None):
            _lost_definiteness(K, floor, what, times)
        return L / K
    try:
        np.linalg.cholesky(symmetrize(K) - floor * np.eye(m))
    except np.linalg.LinAlgError:
        _lost_definiteness(K, floor, what, times)
    return np.linalg.solve(K, L)


def gain_path(Pb, P, B, C, D, R, delta: float, what, times) -> np.ndarray:
    """feedback_gain of [R + D'PD]^{-1} [B'Pb + D'PC], batched along a path."""
    Dt = np.swapaxes(D, -1, -2)
    return feedback_gain(R + Dt @ P @ D, np.swapaxes(B, -1, -2) @ Pb + Dt @ P @ C,
                         delta, what, times)


def _lost_definiteness(K, floor, what, times):
    bad = np.linalg.eigvalsh(symmetrize(K)).min(axis=-1) < floor
    first = np.unravel_index(np.argmax(bad), bad.shape)
    s = np.broadcast_to(times, bad.shape)[first]
    raise IllPosedError(f"{np.broadcast_to(what, bad.shape)[first]} lost definiteness "
                        f"at s={s:g}")


def right(X: np.ndarray, M: np.ndarray) -> np.ndarray:
    """X_j M for every slice j of a row-interleaved stack X (..., r, k, c)."""
    return (X.reshape(-1, X.shape[-1]) @ M).reshape(X.shape[:-1] + M.shape[-1:])


def left(L: np.ndarray, X: np.ndarray) -> np.ndarray:
    """L X_j for every slice j of a row-interleaved stack X (..., r, k, c)."""
    *lead, r, k, c = X.shape
    return (L @ X.reshape(*lead, r, k * c)).reshape(*lead, L.shape[0], k, c)


class LevelField:
    """The right-hand side of both level systems at the stages of one level.

    Called at stage q on the live slices Z (2, n, k, n), row-interleaved
    (Z[c, a, j, b] is entry (a, b) of slice j of component c = plain, hat, so
    `right` and `left` are one product each), it interpolates the diagonal pair
    (d, dh) between the last two slices, takes the gain all slices share,

        K = Rd + D'dD,  L = B'dh + D'dC,  Th = K^{-1} L,  M = A - B Th,  N = C - D Th,

    on the hat dynamics, and returns minus, on each slice pair (P = Z[0],
    weights at the slice's t),

        symmetric      Z M + M'Z + N'PN + Q + Th' R Th   (closed-loop limit)
        not symmetric  Z M + A'Z + C'PN + Q              (open loop).

    [L, K] is one product Y Gw: Y = [D'P_i, B'Phat_i, I] over the last two
    slices i, and Gw stacks their interpolation weights w times [C D] and
    [I 0] over [0 Rd].  The constructor builds these over the stages of every
    level at once; `level` hands one level its slice, with that level's
    sampled two-time weights Q and, for the symmetric field, R.
    """

    def __init__(self, A, B, C, D, Rd, w, delta: float, symmetric: bool):
        n, m = B.shape[-2:]
        self.n, self.delta, self.symmetric = n, delta, symmetric
        w = w[:, None, None]
        CD, E = np.concatenate([C, D], axis=-1), np.eye(n, n + m)
        self.Gw = np.concatenate([(1.0 - w) * CD, w * CD, (1.0 - w) * E, w * E,
                                  np.pad(Rd, ((0, 0), (0, 0), (n, 0)))], axis=1)
        self.F = np.stack([D, B], axis=1).swapaxes(-1, -2)
        self.Y = np.hstack([np.zeros((m, 4 * n)), np.eye(m)])
        self.Yv = self.Y[:, :4 * n].reshape(m, 2, 2 * n).swapaxes(0, 1)
        self.AC, self.BD = np.concatenate([A, C], axis=-2), np.concatenate([B, D], axis=-2)

    def level(self, rows: slice, ss, Q, R=None) -> "LevelField":
        """The field on the stages `rows` of one level, at the times ss, with
        that level's sampled weights; views of this one's arrays."""
        f = copy.copy(self)
        f.Gw, f.F, f.AC, f.BD = (x[rows] for x in (self.Gw, self.F, self.AC, self.BD))
        f.Q, f.R, f.ss = Q, R, ss.tolist()
        return f

    def __call__(self, q, Z):
        n = self.n
        np.matmul(self.F[q], Z[:, :, -2:].reshape(2, n, 2 * n), out=self.Yv)
        LK = self.Y @ self.Gw[q]
        Th = feedback_gain(LK[:, n:], LK[:, :n], self.delta, "diagonal factor", self.ss[q])
        MN = self.AC[q] - self.BD[q] @ Th
        ZM, PN = right(Z, MN[:n]), right(Z[0], MN[n:])
        if self.symmetric:
            out = ZM + ZM.transpose(0, 3, 2, 1)        # Z M + M'Z, slice by slice
            out += left(MN[n:].T, PN)
            out += self.Q[q]
            out += left(Th.T, right(self.R[q], Th))
        else:
            out = ZM + left(self.AC[q, :n].T, Z)
            out += left(self.AC[q, n:].T, PN)
            out += self.Q[q]
        return -out


def march_levels(problem: ProblemData, h: float, t_nodes: int, symmetric: bool):
    """`LevelField`'s level system on the t-grid tg of t_nodes intervals: the
    closed-loop limit if symmetric, else the open loop.

    Slice j, the pair (plain, hat) at t = tg[j] as a function of s, starts from
    (G, Ghat)(tg[j]) at s = T.  Level lev marches s from tg[lev] down to
    tg[lev-1] in RK4 steps of size <= h (`march_times`), and only the live slices
    0..lev: slice j is read at s >= tg[j], and slice lev stays for the
    diagonal, which interpolates between slices lev-1 and lev; the sub-steps
    put every breakpoint of the coefficients on a node, the weights' lags
    shifted by every live anchor (`ProblemData.breakpoints`).  Every level's
    grid is laid out first: the hat dynamics (the plain ones for an open loop,
    which has no mean-field dynamics) and hat R(s, s) are sampled once at the
    stages of all levels, into one `LevelField`, and per level each pair
    (plain, hat) of the two-time weights the field reads, Q and for the
    symmetric field R, at (stage, tg[j]) for the live slices (`stack_pair`,
    so constant weights stay views).  `symmetric` also projects every slice
    onto symmetric matrices every step.

    Returns tg and levels (2, J, J, n, n): levels[:, i, j] is the pair at
    (s, t) = (tg[i], tg[j]) for j <= i, NaN above the diagonal.
    """
    check_step(h)
    if not isinstance(t_nodes, (int, np.integer)) or t_nodes < 1:
        raise ValidationError(f"t_nodes must be a positive integer, got {t_nodes!r}")
    hp = hat(problem)
    tg = np.linspace(0.0, problem.T, t_nodes + 1)
    J = t_nodes + 1
    # grids[lev - 1] and stages[lev - 1] belong to level lev, over [tg[lev-1], tg[lev]]
    grids = [march_times(tg[lev - 1], tg[lev], h, problem.breakpoints(tg[:lev + 1]))
             for lev in range(1, J)]
    stages = [stage_times(times) for times in grids]
    cuts = np.cumsum([0] + [len(ss) for ss in stages])
    ss = np.concatenate(stages)
    w = np.concatenate([(x - a) / (b - a) for x, a, b in zip(stages, tg[:-1], tg[1:])])
    field = LevelField(*(g.at_many(ss) for g in (hp.A, hp.B, hp.C, hp.D)),
                       hp.R.at_many(ss, ss), w, problem.delta, symmetric)
    weights = [(problem.Q, hp.Q), (problem.R, hp.R)][:1 + symmetric]
    levels = np.full((2, J, J, problem.n, problem.n), np.nan)
    levels[:, -1] = problem.G.at_many(tg), hp.G.at_many(tg)
    Z = levels[:, -1].transpose(0, 2, 1, 3)
    for lev in range(J - 1, 0, -1):
        ss = stages[lev - 1]
        W = [stack_pair(*(f.at_many(ss[:, None], tg[:lev + 1]).transpose(0, 2, 1, 3)
                          for f in pair)) for pair in weights]
        f = field.level(slice(cuts[lev - 1], cuts[lev]), ss, *W)
        Z = rk4_march(f, grids[lev - 1], Z[:, :, :lev + 1],
                      symmetric=symmetric and (0, 3, 2, 1))[0]   # slice transpose
        levels[:, lev - 1, :lev] = Z[:, :, :lev].transpose(0, 2, 1, 3)
    return tg, levels


def pair_blocks(A, B, C, D, Q, R):
    """The pair field's coefficients at a block of stages, regrouped so that a
    stage is three products.

    The coefficients are stacked over the equations, (b, k, ., .), k = 2 for
    a plain-over-hat pair.  With M = [A B], N = [C D] and E = [I 0] (each
    n x (n+m)), returns U = [E', M', N', blockdiag(Q, R)], of shape
    (b, k, n+m, 4n+m).  On the stacked state Z, P = Z[0],

        U [Z M; Z E; P N; I] = E'ZM + M'ZE + N'PN + blockdiag(Q, R)
                             = [[Z A + A'Z + C'PC + Q, L'], [L, K]]

    holds the linear part, L = B'Z + D'PC and K = R + D'PD, and the field is
    L'K^{-1}L minus the linear part.
    """
    n, m = B.shape[-2:]
    U = np.zeros(A.shape[:-2] + (n + m, 4 * n + m))
    U[..., :n, :n] = np.eye(n)
    U[..., n:2 * n] = np.concatenate([A, B], axis=-1).swapaxes(-1, -2)
    U[..., 2 * n:3 * n] = np.concatenate([C, D], axis=-1).swapaxes(-1, -2)
    U[..., :n, 3 * n:4 * n] = Q
    U[..., n:, 4 * n:] = R
    return U


#: stages per block of `pair_blocks`: their time hardly moves between 64 and
#: 512 stages, and the regrouped coefficients of a whole march at once would
#: raise the peak memory.
_PAIR_BLOCK = 128


class PairField:
    """The Riccati/Lyapunov field of a stack of k equations on the stage grid
    of a backward RK4 march: the pre-commitment pair of every solve and game
    interval (`precommit._pair_march`, k = 2, plain over hat) and, by its
    linear part alone, the Lyapunov majorants (`precommit.lyapunov_pair`).

    `coefficients` are (A, B, C, D, Q, R) at every stage of the march,
    stacked over the equations, (stages, k, ., .); they are regrouped
    (`pair_blocks`) block by block as the march reaches them.  Called at
    stage q on the state Z (k, n, n), the field gives the linear part, L and
    K as views of one buffer, which the next call overwrites; every equation sandwiches P = Z[0].  The march
    must visit the stages in non-increasing order, as `rk4_march` does.
    """

    def __init__(self, coefficients):
        self.coefficients, self.lo = coefficients, len(coefficients[0])
        self.n, self.m = coefficients[1].shape[-2:]

    def __call__(self, q, Z):
        if q < self.lo:
            n, m, self.lo = self.n, self.m, max(0, q + 1 - _PAIR_BLOCK)
            self.U = pair_blocks(*(x[self.lo:q + 1] for x in self.coefficients))
            self.M, self.N = (self.U[..., k * n:(k + 1) * n].swapaxes(-1, -2) for k in (1, 2))
            r = self.right = np.zeros((self.U.shape[1], 4 * n + m, n + m))  # [ZM; ZE; PN; I]
            r[:, 3 * n:] = np.eye(n + m)
            self.ZM, self.ZE, self.PN = r[:, :n], r[:, n:2 * n, :n], r[:, 2 * n:3 * n]
            F = self.F = np.empty((len(r), n + m, n + m))
            self.views = F[:, :n, :n], F[:, n:, :n], F[:, n:, n:]
        j = q - self.lo
        np.matmul(Z, self.M[j], out=self.ZM)
        self.ZE[...] = Z
        np.matmul(Z[0], self.N[j], out=self.PN)
        np.matmul(self.U[j], self.right, out=self.F)
        return self.views


def triple_field(X: np.ndarray, M1, N1, M2, N2) -> np.ndarray:
    """The linear part of the Lyapunov-triple field on k stacked triples
    X[..., c, i, :, :] (component c = 0 tilde, 1 plain, 2 bar, of triple i):

        tilde  Gt M1 + M1' Gt + N1' Gt N1
        plain  Gm M2 + M2' Gm + N2' Gt N2
        bar    Gb M2 + M2' Gb

    The coefficients are (..., n, n), one per leading index of X.  The plain
    equation reads the tilde component in its sandwich term, and bar shares
    plain's Lyapunov part.  Every product is a right multiplication of all k
    triples at once.
    """
    M = np.stack([M1, M2, M2], axis=-3)
    out = _times(X, M) + _times(X.swapaxes(-1, -2), M).swapaxes(-1, -2)
    N = np.stack([N1, N2], axis=-3)
    GtN = _times(np.broadcast_to(X[..., :1, :, :, :], out[..., :2, :, :, :].shape), N)
    out[..., :2, :, :, :] += _times(GtN.swapaxes(-1, -2), N).swapaxes(-1, -2)
    return out


def _times(X, M):
    """X[..., c, i] @ M[..., c] for every i, as one (k n x n) product per c."""
    shape = X.shape
    return (X.reshape(shape[:-3] + (-1, shape[-1])) @ M).reshape(shape)


#: float64 elements per array while a block of affine step maps is built; a
#: block still spans at least 4 steps, so that at large n the per-block
#: overhead stays small against the work
_MAP_BLOCK_ELEMS = 1 << 14


def march_triples(times: np.ndarray, terminal: np.ndarray, coefficients) -> np.ndarray:
    """RK4 march of p symmetric Lyapunov triples x' = -(triple_field(x) + F)
    from times[-1] down to times[0], every step applied as an affine map.

    With its coefficients fixed, one symmetrized RK4 step is the map
    x -> Phi x + c, Phi shared by all triples and c one per triple (it carries
    the forcing).  On the upper triangles of the three components Phi is block
    lower-triangular: a tilde block, a plain block coupled to tilde through the
    sandwich, and a bar block equal to plain's own.  The maps of a block of
    steps are built at once by one batched `rk4_step` of the symmetric unit
    basis (S, 0, S), which returns the three blocks, and of the zero triples,
    which return c; then they are applied one per step.

    coefficients(rows, q) returns (M1, N1, M2, N2, F) at the four RK4 stages of
    the steps in the slice `rows`: (b, 4, n, n) each and F (b, 4, 3, p, n, n).
    Step r goes from times[r+1] down to times[r]; its stages sit at
    q[r] = 2r + (2, 1, 1, 0) of stage_times(times), and the second and third
    share a time but may differ.  terminal is (3, p, n, n); returns
    (len(times), 3, p, n, n).
    """
    X = np.asarray(terminal, dtype=float)
    p, n = X.shape[1], X.shape[-1]
    iu = np.triu_indices(n)
    ds = len(iu[0])
    # a symmetric G is the sum of G[a, b] S_ab over a <= b, S_ab = E_ab + E_ba
    probes = np.zeros((3, ds + p, n, n))
    probes[0, np.arange(ds), iu[0], iu[1]] = probes[0, np.arange(ds), iu[1], iu[0]] = 1.0
    probes[2, :ds] = probes[0, :ds]
    vals = np.empty((len(times), 3 * ds, p))
    vals[-1] = X[..., iu[0], iu[1]].transpose(0, 2, 1).reshape(3 * ds, p)
    dts = np.diff(times)
    # per step: the probes' triples, the forcing of four stages, and the map
    block = max(4, _MAP_BLOCK_ELEMS // (3 * n * n * (ds + 5 * p) + 9 * ds * ds))
    for hi in range(len(dts), 0, -block):
        rows = slice(max(0, hi - block), hi)
        b = hi - rows.start
        M1, N1, M2, N2, F = coefficients(rows, 2 * np.arange(rows.start, hi)[:, None]
                                         + (2, 1, 1, 0))

        def k(j, Y):
            out = triple_field(Y, M1[:, j], N1[:, j], M2[:, j], N2[:, j])
            out[:, :, ds:] += F[:, j]
            return -out

        x = np.broadcast_to(probes, (b,) + probes.shape)
        Y = symmetrize(rk4_step(k, x, -dts[rows, None, None, None, None])[0])[..., iu[0], iu[1]]
        # Phi[:, c, j, c', :] is component c' of the step of basis triple j in slot c
        Phi = np.zeros((b, 3, ds, 3, ds))
        Phi[:, 0, :, 0] = Y[:, 0, :ds]
        Phi[:, 0, :, 1] = Y[:, 1, :ds]
        Phi[:, 1, :, 1] = Phi[:, 2, :, 2] = Y[:, 2, :ds]
        PhiT = Phi.reshape(b, 3 * ds, 3 * ds).swapaxes(-1, -2).copy()
        c = Y[:, :, ds:].reshape(b, 3, p, ds).swapaxes(-1, -2).reshape(b, 3 * ds, p)
        v = vals[hi]
        for j in range(b - 1, -1, -1):
            v = vals[rows.start + j] = PhiT[j] @ v + c[j]
        finite = np.isfinite(vals[rows]).reshape(b, -1).all(axis=1)
        if not finite.all():
            s = float(times[rows.start + np.flatnonzero(~finite)[-1]])
            raise BlowUpError(f"backward integration blew up at s={s:g}", time=s)
    out = np.empty((len(times), 3, p, n, n))
    v = vals.reshape(len(times), 3, ds, p).swapaxes(-1, -2)
    out[..., iu[0], iu[1]] = v
    out[..., iu[1], iu[0]] = v
    return out

