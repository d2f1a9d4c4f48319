"""Monte Carlo simulation of controlled mean-field SDEs.

The conditional expectation appearing in dynamics and costs is computed from its
deterministic ODE (re-anchored at partition nodes), never from the cross-path
empirical mean, so the drift carries no sampling bias.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .integrators import rk4_step
from .types import ProblemData, _node_index, hat


@dataclass(frozen=True)
class MCConfig:
    paths: int
    steps: int = 2000
    seed: int = 0
    antithetic: bool = True

    def __post_init__(self):
        if self.paths < 2:
            raise ConfigurationError("MCConfig.paths must be >= 2")
        if self.steps < 1:
            raise ConfigurationError("MCConfig.steps must be >= 1")
        if self.antithetic and self.paths % 2 != 0:
            raise ConfigurationError("antithetic sampling needs an even path count")
        if self.antithetic and self.paths < 4:
            raise ConfigurationError(
                f"antithetic sampling needs at least 4 paths, got {self.paths}: its "
                f"stderr is taken over the averaged pairs, so it needs 2 of them")


#: paths per block of brownian_increments' draw: the only temporary it holds is
#: _DRAW_BLOCK x steps normals
_DRAW_BLOCK = 256


def brownian_increments(mc: MCConfig, dts: np.ndarray) -> np.ndarray:
    """(paths, len(dts)) Brownian increments; second half mirrors the first when antithetic.

    The values are the row-major Philox draw of the first half, scaled by
    sqrt(dts), but they are stored step-major: the result is the transposed
    view of a (steps, paths) array, so the increments of one step, dW[:, j],
    are contiguous.  The draw runs in blocks of _DRAW_BLOCK paths.
    """
    rng = np.random.Generator(np.random.Philox(key=mc.seed))
    half = mc.paths // 2 if mc.antithetic else mc.paths
    steps = len(dts)
    scale = np.sqrt(dts)[:, None]
    out = np.empty((steps, mc.paths))
    for p in range(0, half, _DRAW_BLOCK):
        q = min(p + _DRAW_BLOCK, half)
        np.multiply(rng.standard_normal((q - p, steps)).T, scale, out=out[:, p:q])
    if mc.antithetic:
        np.negative(out[:, :half], out=out[:, half:])
    return out.T


def aligned_time_grid(t: float, T: float, steps: int, nodes=()) -> np.ndarray:
    """Euler grid of `steps` steps from t to T whose nodes include every
    partition node in (t, T).

    Each sub-interval gets its length's share of the steps, rounded, at least
    one.  Where the rounded shares miss `steps`, single steps move until they
    total it: one is added where the step is longest, or taken where it is
    shortest among sub-intervals with more than one.
    """
    anchors = [t] + [float(v) for v in nodes if t < v < T] + [T]
    if steps < len(anchors) - 1:
        raise ConfigurationError(
            f"{steps} steps cannot align with {len(anchors) - 1} gain intervals")
    lengths = np.diff(anchors)
    ks = [max(1, int(round(steps * x / (T - t)))) for x in lengths]
    while sum(ks) != steps:
        dt = lengths / ks
        if sum(ks) < steps:
            ks[int(np.argmax(dt))] += 1
        else:
            ks[int(np.argmin(np.where(np.array(ks) > 1, dt, np.inf)))] -= 1
    return np.concatenate([[t]] + [np.linspace(a, b, k + 1)[1:]
                                   for a, b, k in zip(anchors[:-1], anchors[1:], ks)])


def trapezoid_weights(times: np.ndarray) -> np.ndarray:
    """Weights w such that sum_j w[j] f(times[j]) is the trapezoidal rule."""
    dts = np.diff(times)
    w = np.empty(len(times))
    w[0], w[-1] = 0.5 * dts[0], 0.5 * dts[-1]
    w[1:-1] = 0.5 * (dts[:-1] + dts[1:])
    return w


def reset_mask(times: np.ndarray, nodes) -> np.ndarray:
    """mask[j]: whether times[j + 1] is one of `nodes`, compared at 12 decimals."""
    keys = {round(float(v), 12) for v in nodes}
    return np.array([round(float(s), 12) in keys for s in times[1:]], dtype=bool)


def sandwich(E: np.ndarray, M: np.ndarray) -> np.ndarray:
    """E' M E: a quadratic-form weight M on the block of the state E selects."""
    return np.swapaxes(E, -1, -2) @ M @ E


def euler_transition(gen: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """I + dt G for a generator G stacked along the step axis."""
    dt = dts.reshape((-1,) + (1,) * (gen.ndim - 1))
    return np.eye(gen.shape[-1]) + dt * gen


def euler_maruyama(Z, drift, noise=None, dW=None, weight=None, observe=None,
                   reset=None):
    """Euler-Maruyama march of a linear SDE on an augmented state.

    Z holds one state column per path, shape (..., d, paths); leading axes are
    variants marched together on the same increments.  Step j maps Z to
    drift[j] @ Z, adds (noise[j] @ Z) * dW[:, j] to its leading noise rows,
    then, where reset = (mask, dst, src) has mask[j], copies rows src onto
    rows dst.  dW has shape (paths, steps) and is read one step at a time;
    stored step-major, as brownian_increments returns it, each dW[:, j] is
    contiguous.  Per-node matrices, indexed 0..steps: weight[j] adds
    <Z_j, weight[j] Z_j> to each path's cost, observe[j] records
    observe[j] @ Z_j.  The matrices of one step are stacked, so a step is one
    matmul.  Returns (final Z, cost or None, records or None), the records
    shaped (steps + 1, ..., rows, paths).
    """
    steps = len(drift)
    d = Z.shape[-2]
    k = 0 if noise is None else noise.shape[-2]
    nw = 0 if weight is None else d
    tails = [x for x in (weight, observe) if x is not None]
    K = stack_rows([drift] + [noise] * bool(k) + [x[:steps] for x in tails])
    lead = np.broadcast_shapes(Z.shape[:-2], K.shape[1:-2])
    Z = np.array(np.broadcast_to(Z, lead + Z.shape[-2:]), dtype=float)
    paths = Z.shape[-1]
    cost = None if weight is None else np.zeros(lead + (paths,))
    records = None if observe is None else \
        np.empty((steps + 1,) + lead + (observe.shape[-2], paths))
    mask, dst, src = reset if reset is not None else (np.zeros(steps, bool), None, None)
    buffers = [np.empty(lead + K.shape[-2:-1] + (paths,)) for _ in range(2)]

    def read(rows, Zj, j):
        """Cost and records from the weight and observe rows of one product."""
        if weight is not None:
            np.add(cost, np.einsum("...ip,...ip->...p", rows[..., :nw, :], Zj), out=cost)
        if observe is not None:
            records[j] = rows[..., nw:, :]

    for j in range(steps):
        out = np.matmul(K[j], Z, out=buffers[j % 2])
        read(out[..., d + k:, :], Z, j)
        Z = out[..., :d, :]
        if k:
            noisy = out[..., d:d + k, :]
            noisy *= dW[:, j]
            Z[..., :k, :] += noisy
        if mask[j]:
            Z[..., dst, :] = Z[..., src, :]
    if tails:
        read(stack_rows([x[steps] for x in tails]) @ Z, Z, steps)
    return Z, cost, records


def stack_rows(blocks):
    """Concatenate matrix stacks along their rows, broadcasting the leading axes."""
    lead = np.broadcast_shapes(*(b.shape[:-2] for b in blocks))
    return np.concatenate([np.broadcast_to(b, lead + b.shape[-2:]) for b in blocks],
                          axis=-2)


def rk4_propagator(F0, Fm, F1, dts):
    """Transition matrices of one classic RK4 step of y' = F(s) y, given F at
    each step's start, midpoint and end: `rk4_step` on the identity."""
    F = (F0, Fm, Fm, F1)
    return rk4_step(lambda j, Y: F[j] @ Y, np.eye(F0.shape[-1]), dts[:, None, None])[0]


@dataclass(frozen=True)
class PathEnsemble:
    """Closed-loop paths from t: the states on the grid, each path's cost and
    the deterministic conditional means.

    cost[p] is path p's Q and R running cost, trapezoidal on `times`, plus its
    G terminal cost, with the weights frozen at t; `estimate_cost` adds the
    E_t part, Qbar, Rbar and Gbar on cond_mean and cond_mean_u.
    """

    times: np.ndarray          # (L,)
    states: np.ndarray         # (paths, L, n)
    cost: np.ndarray           # (paths,)
    cond_mean: np.ndarray      # (L, n), E_t[X(s)] (deterministic)
    cond_mean_u: np.ndarray    # (L, m), E_t[u(s)]
    t: float
    antithetic: bool


def paired_mean_stderr(per_path: np.ndarray, antithetic: bool) -> tuple[float, float]:
    """(mean, stderr) of a per-path sample.  With antithetic sampling the two
    halves are partners, averaged first so the stderr is the paired estimator's."""
    if antithetic:
        half = per_path.shape[0] // 2
        per_path = 0.5 * (per_path[:half] + per_path[half:])
    return float(per_path.mean()), float(per_path.std(ddof=1) / math.sqrt(len(per_path)))


def mean_field_system(problem: ProblemData, ss: np.ndarray, u: np.ndarray):
    """The linear system of y = [X; E_rho X] at the times ss under the
    controls c = [u; E_rho u], in `variant_costs`' form.

    u (len(ss), ..., m, k) maps [y; ...] to u: its first 2n columns act on y,
    any others on further inputs such as a constant 1.  Returns (F, G) and
    (Nx, Nc), dy = (F y + G c) ds + (Nx y + Nc c) dW on the X rows, E_rho X
    following its mean ODE, and the map of c: u over the map of E_rho u,
    which is u's with its X columns moved onto E_rho X.
    """
    hp = hat(problem)
    n = problem.n
    A, Ab, B, Bb, C, Cb, D, Db, Ah, Bh = (f.at_many(ss) for f in (
        problem.A, problem.Abar, problem.B, problem.Bbar, problem.C, problem.Cbar,
        problem.D, problem.Dbar, hp.A, hp.B))
    drift = (np.block([[A, Ab], [np.zeros_like(A), Ah]]),
             np.block([[B, Bb], [np.zeros_like(B), Bh]]))
    noise = (np.concatenate([C, Cb], axis=-1), np.concatenate([D, Db], axis=-1))
    w = np.zeros_like(u)
    w[..., n:] = u[..., n:]
    w[..., n:2 * n] += u[..., :n]
    return drift, noise, np.concatenate([u, w], axis=-2)


@dataclass(frozen=True)
class _ClosedLoopSystem:
    """The [X; E_rho X] system of the feedback on an aligned Euler grid."""

    times: np.ndarray        # (L,)
    drift: np.ndarray        # (L-1, 2n, 2n): Euler in X, an RK4 step in E_rho X
    mean_drift: np.ndarray   # (L-1, 2n, 2n): an RK4 step in both
    noise: np.ndarray        # (L-1, n, 2n)
    observe: np.ndarray      # (L, n + m, 2n): the state X and the control u
    reset: tuple             # (mask, dst, src): E_rho X := X at partition nodes


def _closed_loop_system(problem: ProblemData, gains, t: float,
                        steps: int) -> _ClosedLoopSystem:
    """Step matrices of u = -Theta X + (Theta - Theta_hat) E_rho[X] from t to T,
    the gains a `PiecewiseGain`: E_rho X is re-anchored at its partition nodes
    in (t, T), and the grid puts them on its nodes.

    Coefficients and gains are sampled once at each step's RK4 stages s,
    s + dt/2 and s + dt by `gains.at_many`, which reads right-continuously, so
    a step ending on a partition node reads the next interval's gain at its
    last stage.
    """
    if not (hasattr(gains, "partition") and hasattr(gains, "at_many")):
        raise ConfigurationError(
            f"gains must be a PiecewiseGain (a partition and at_many), "
            f"got {type(gains).__name__}")
    nodes = gains.partition.nodes
    times = aligned_time_grid(t, problem.T, steps, nodes)
    L, n = len(times), problem.n
    dts = np.diff(times)
    ss = np.concatenate([times, times[:-1] + 0.5 * dts, times[:-1] + dts])
    th, thh = gains.at_many(ss)
    u = np.concatenate([-th, th - thh], axis=-1)   # on [X; E_rho X]
    (F, G), (Nx, Nc), c = mean_field_system(problem, ss, u)
    gen = F + G @ c
    stages = gen[:L - 1], gen[L:2 * L - 1], gen[2 * L - 1:]   # start, middle, end
    mean_drift = rk4_propagator(*stages, dts)
    drift = euler_transition(stages[0], dts)
    drift[:, n:] = mean_drift[:, n:]
    noise = Nx[:L - 1] + Nc[:L - 1] @ c[:L - 1]
    # records: the state and the control u = [-Theta, Theta - Theta_hat] [X; E_rho X]
    observe = np.concatenate([np.broadcast_to(np.eye(n, 2 * n), (L, n, 2 * n)),
                              u[:L]], axis=-2)
    reset = (reset_mask(times, [v for v in nodes if t < v < problem.T]),
             slice(n, 2 * n), slice(0, n))
    return _ClosedLoopSystem(times, drift, mean_drift, noise, observe, reset)


def initial_state(problem: ProblemData, x0) -> np.ndarray:
    """x0 as a flat float vector, which must hold the problem's n entries."""
    x0 = np.asarray(x0, float).reshape(-1)
    if x0.shape != (problem.n,):
        raise ConfigurationError(
            f"x0 has {x0.size} entries, the state has n = {problem.n}")
    return x0


def _start(x0) -> np.ndarray:
    """The (2n, 1) column [x0; x0]: E_rho X starts at the state."""
    x0 = np.asarray(x0, float).reshape(-1)
    return np.concatenate([x0, x0])[:, None]


def simulate_closed_loop(problem: ProblemData, gains, t: float, x0,
                         mc: MCConfig) -> PathEnsemble:
    """Euler-Maruyama under the feedback u = -Theta X + (Theta - Theta_hat) E_rho[X]
    of the `PiecewiseGain` gains.

    The per-path conditional mean E_rho[X] follows its linear ODE and is
    re-anchored to the path state at every partition node in (t, T); the
    ensemble-level E_t trajectory is the corresponding deterministic pair.
    Any other `gains` raise ConfigurationError.  Both march on euler_maruyama: the
    columns [X; E_rho X] per path (Euler in X, an RK4 step in E_rho X) and the
    deterministic [E_t X; E_t E_rho X] (RK4), with the step matrices of
    _closed_loop_system.  The path march records only the states and adds up
    each path's cost as it goes: the weight at node j is w_j (Q + u' R u) on
    [X; E_rho X], w the trapezoid weights, with G added at T, all frozen at t.
    The increments are dropped when the march returns.
    """
    start = _start(initial_state(problem, x0))
    cl = _closed_loop_system(problem, gains, t, mc.steps)
    n = problem.n
    X, u = cl.observe[:, :n], cl.observe[:, n:]
    Q, R = (f.at_many(cl.times, t) for f in (problem.Q, problem.R))
    weight = trapezoid_weights(cl.times)[:, None, None] * (sandwich(X, Q) + sandwich(u, R))
    weight[-1] += sandwich(X[-1], problem.G(t))
    _, cost, states = euler_maruyama(
        np.repeat(start, mc.paths, axis=1), cl.drift, cl.noise,
        brownian_increments(mc, np.diff(cl.times)), weight=weight, observe=X,
        reset=cl.reset)
    mean = euler_maruyama(start, cl.mean_drift, observe=cl.observe, reset=cl.reset)[2]
    # the state records are (L, n, paths): states is a view
    return PathEnsemble(times=cl.times, states=states.transpose(2, 0, 1), cost=cost,
                        cond_mean=mean[:, :n, 0], cond_mean_u=mean[:, n:, 0],
                        t=t, antithetic=mc.antithetic)


def closed_loop_states_at(problem: ProblemData, gains, t: float, x0, mc: MCConfig,
                          s: float) -> np.ndarray:
    """(n, paths) states at the grid node s of the ensemble that
    simulate_closed_loop(problem, gains, t, x0, mc) draws, marched only that
    far: no records, no deterministic mean.  s snaps to a node within
    1e-9 (1 + T); ValidationError off the grid."""
    start = _start(initial_state(problem, x0))
    cl = _closed_loop_system(problem, gains, t, mc.steps)
    it = _node_index(cl.times, s)
    dW = brownian_increments(mc, np.diff(cl.times))
    mask, dst, src = cl.reset
    Z = euler_maruyama(np.repeat(start, mc.paths, axis=1), cl.drift[:it],
                       cl.noise[:it], dW[:, :it], reset=(mask[:it], dst, src))[0]
    return Z[:problem.n]


def probe_map(m: int, n: int, const=0.0, gain=0.0) -> np.ndarray:
    """The (m, 2n + 1) map of u = const - gain X on [X; W; 1]: the feedback in
    the X columns, the constant in the last one."""
    out = np.zeros((m, 2 * n + 1))
    out[:, :n] -= gain
    out[:, -1] = const
    return out


def variant_costs(problem: ProblemData, grid, dW, y0, drift, noise, controls,
                  reset=None, tail=None) -> np.ndarray:
    """Per-path costs from t = grid[0], weights frozen at t, of control variants
    of one linear system, marched as one batch from the states y0 (one column
    per path) on the increments dW.

    The system acts on y = [X; W], W a partner state, and on the controls
    c = [u; w]: dy = (F y + G c) ds + (Nx y + Nc c) dW on the leading rows of
    y, with drift = (F, G) and noise = (Nx, Nc) per node.  controls[j, v] maps
    [y; 1] to c at node j for variant v.  reset = (mask, dst, src) copies rows
    src of y onto rows dst where mask[j].  The cost reads X = y[:n] and
    u = c[:m] with the weights Q, R, G, and their conditional means E_t X,
    E_t u with Qbar, Rbar, Gbar; no weight couples y with E_t y.

    So the cost splits.  Each path marches only its [y; 1], ny + 1 rows per
    variant, and pays Q, R and G.  E_t y is not random given the start: the
    scheme's mean is E_t [y_j; 1] = Phi_j [y0; 1] on every path, with Phi_j
    the same steps and resets marched once, without noise, from the identity.
    The E_t part of the cost is then the quadratic form [y0; 1]' M [y0; 1],
    M = sum_j Phi_j' Wbar_j Phi_j, Wbar the Qbar, Rbar and Gbar weights on
    [y; 1].  Returns the (variants, paths) costs.

    tail = (w, basis) or (w, basis, True) splits the path march at node w
    when the variants share everything from there on: the variants march
    steps 0..w-1 only, and one march of the shared tail gives each path's
    quadratic form of its cost from node w to T (`_shared_tail_cost`).  With
    True the form is anchored on variant 0's state at w.
    """
    n, m = problem.n, problem.m
    ny = y0.shape[0]
    Y = np.eye(ny, ny + 1)                  # the rows of y in [y; 1]
    u = controls[..., :m, :]
    F, G, Nx, Nc = (M[:, None] for M in drift + noise)
    gen = stack_rows((F @ Y + G @ controls, np.zeros((1, 1, 1, ny + 1))))
    step = euler_transition(gen[:-1], np.diff(grid))

    t = grid[0]
    Q, Qb, R, Rb = (f.at_many(grid, t)[:, None] for f in (
        problem.Q, problem.Qbar, problem.R, problem.Rbar))
    w = trapezoid_weights(grid)[:, None, None, None]
    weight = w * (sandwich(Y[:n], Q) + sandwich(u, R))
    weight[-1] += sandwich(Y[:n], problem.G(t))
    mean_weight = w * (sandwich(Y[:n], Qb) + sandwich(u, Rb))
    mean_weight[-1] += sandwich(Y[:n], problem.Gbar(t))

    basis = np.eye(ny + 1)
    Phi = euler_maruyama(basis, step, reset=reset,
                         observe=np.broadcast_to(basis, (len(grid), 1) + basis.shape))[2]
    M = sandwich(Phi, mean_weight).sum(axis=0)
    Z = np.concatenate([y0, np.ones((1, y0.shape[1]))])
    path_noise = (Nx @ Y + Nc @ controls)[:-1]
    if tail is None:
        cost = euler_maruyama(Z, step, path_noise, dW, weight=weight, reset=reset)[1]
    else:
        cost = _shared_tail_cost(Z, step, path_noise, dW, weight, reset, controls, *tail)
    return cost + np.einsum("ip,vij,jp->vp", Z, M, Z)


def _shared_tail_cost(Z, step, noise, dW, weight, reset, controls, w, basis,
                      anchored=False):
    """The per-path part of `variant_costs`, its march split at node w.

    Window: the variants march [y; 1] over steps 0..w-1 and pay the weights
    of nodes 0..w-1.  Tail: from node w on every variant has the same control
    maps, without a constant term, so each path's cost from node w is a
    quadratic form a' G_p a in the coordinates a of its state at w.  The
    fixed columns basis (ny + 1, r) have the identity in their first r rows,
    and those rows of the state are the coordinates:

    - unanchored, Z_w = basis @ a + the constant 1, a the first r rows of Z_w;
    - anchored, Z_w = Z_w(0) + basis @ d, d the first r rows of
      Z_w - Z_w(0), and a = [1; d]: variant 0's state at w is one more column,
      a different one on every path.

    G_p comes from one march of the polarization columns b = e_i and
    e_i + e_j (i < j) of the coordinates, mapped onto y, with the shared
    step matrices broadcast over the columns and the same increments.
    Both conditions are checked, not assumed: the rows of Z_w past the
    coordinates must be what the columns give, bit for bit, and the tail's
    control maps shared and without a constant.  ConfigurationError
    otherwise.
    """
    ny = Z.shape[0] - 1
    shared = controls[w:]
    if np.any(shared != shared[:, :1]) or np.any(shared[..., ny]):
        raise ConfigurationError(
            f"the tail from node {w} needs one control map for every variant, "
            f"without a constant term")
    mask, dst, src = reset if reset is not None else (np.zeros(len(step), bool), None, None)
    window_weight = weight[:w + 1].copy()
    window_weight[w] = 0.0     # node w's cost is the tail's
    Zw, cost, _ = euler_maruyama(Z, step[:w], noise[:w], dW[:, :w], weight=window_weight,
                                 reset=(mask[:w], dst, src))
    r = basis.shape[1]
    if anchored:
        anchor = Zw[:1]
        a = Zw[..., :r, :] - anchor[..., :r, :]
    else:
        anchor = np.eye(ny + 1)[:, ny:]       # the constant 1
        a = Zw[..., :r, :]
    if not np.array_equal((anchor + basis @ a)[..., r:, :], Zw[..., r:, :]):
        raise ConfigurationError(f"the states at node {w} are off the tail's basis")
    cols = basis[:ny, :, None]                # y of each coordinate's column
    if anchored:                              # the anchor: coordinate 0, 1 in every variant
        a = np.concatenate([np.ones_like(a[:, :1]), a], axis=1)
        cols = np.concatenate([anchor[0, :ny, None], np.broadcast_to(
            cols, (ny, r, Z.shape[-1]))], axis=1)
    k = a.shape[1]
    i, j = np.triu_indices(k)
    b = np.eye(k)[:, i] + np.eye(k)[:, j] * (i < j)
    cols = np.einsum("yka,kc->cya", cols, b)
    q = euler_maruyama(np.broadcast_to(cols, cols.shape[:2] + (Z.shape[-1],)),
                       step[w:, 0, :ny, :ny], noise[w:, 0, :, :ny], dW[:, w:],
                       weight=weight[w:, 0, :ny, :ny], reset=(mask[w:], dst, src))[1]
    diag = q[i == j]          # q(e_i) = G_ii, in the order of i
    G = np.empty((k, k, Z.shape[-1]))
    G[i, j] = G[j, i] = np.where((i == j)[:, None], q, 0.5 * (q - diag[i] - diag[j]))
    return cost + np.einsum("vip,ijp,vjp->vp", a, G, a)


def estimate_cost(problem: ProblemData, ens: PathEnsemble, t: float
                  ) -> tuple[float, float]:
    """(mean, stderr) of J(t, x0; u) on an ensemble started at t.

    The random part is the paths' own cost from the march, ens.cost; the E_t
    part is deterministic: Qbar and Rbar on cond_mean and cond_mean_u,
    trapezoidal on the grid, and Gbar at T, all frozen at t.  J(t, .) is a cost
    of the state process started at t, so t must be the ensemble's start.
    """
    if t != ens.t:
        raise ConfigurationError(
            f"estimate_cost at t = {t} of an ensemble started at t = {ens.t}: "
            f"J(t, .) is a cost of the state process started at t")
    Qb, Rb = (f.at_many(ens.times, t) for f in (problem.Qbar, problem.Rbar))
    m, u = ens.cond_mean, ens.cond_mean_u
    det = np.einsum("li,lij,lj->l", m, Qb, m) + np.einsum("li,lij,lj->l", u, Rb, u)
    det_total = float(trapezoid_weights(ens.times) @ det) \
        + float(m[-1] @ problem.Gbar(t) @ m[-1])
    mean, stderr = paired_mean_stderr(ens.cost, ens.antithetic)
    return mean + det_total, stderr


def semigroup_failure_demo(s: float, tau: float, t: float, x: float,
                           mc: MCConfig) -> dict:
    """Restart-vs-no-restart gap for dX = E[X] ds + E[X] dW under conditioning freezes.

    Returns the simulated mean-square gap at time s, its stderr, and the closed
    form [(e^{s-tau}-1)^2 + int_tau^s e^{2(r-tau)} dr] * Var(X(tau)) with
    Var(X(tau)) = x^2 int_t^tau e^{2(r-t)} dr: the gap is driven by the random
    re-anchoring offset X(tau) - E_t[X(tau)], amplified through drift and noise.
    Both processes march on `euler_maruyama` with the same increments.
    """
    if not t <= tau <= s:
        raise ConfigurationError(f"the demo needs t <= tau <= s, got t = {t}, "
                                 f"tau = {tau}, s = {s}")
    grid = aligned_time_grid(t, s, mc.steps, (tau,)) if t < tau < s else \
        np.linspace(t, s, mc.steps + 1)
    dts = np.diff(grid)
    # rows [XA, XB, mA, mB]: each state is driven by its anchor, mA = E_t X
    # and mB restarted from XB at tau (a no-op at tau = t, where both are x)
    drift = np.zeros((len(dts), 4, 4))
    drift[:, [0, 1], [0, 1]] = 1.0
    drift[:, [0, 1], [2, 3]] = dts[:, None]
    drift[:, [2, 3], [2, 3]] = np.exp(dts)[:, None]
    noise = np.broadcast_to(np.eye(2, 4, 2), (len(dts), 2, 4))
    XA, XB = euler_maruyama(np.full((4, mc.paths), float(x)), drift, noise,
                            brownian_increments(mc, dts),
                            reset=(reset_mask(grid, (tau,)), 3, 1))[0][:2]
    simulated, stderr = paired_mean_stderr((XB - XA) ** 2, mc.antithetic)
    closed = ((math.exp(s - tau) - 1.0) ** 2
              + 0.5 * (math.exp(2 * (s - tau)) - 1.0)) \
        * (0.5 * (math.exp(2 * (tau - t)) - 1.0)) * x * x
    return {"simulated": simulated, "stderr": stderr, "closed_form": closed}
