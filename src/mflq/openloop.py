"""Open-loop equilibrium for dynamics without mean-field terms.

Solves the diagonally-coupled, non-symmetric two-parameter Riccati pair on the
shared level march (`integrators.march_levels`): each level carries only the
t-slices read on it, driven by one diagonal factor interpolated at the
Runge-Kutta stage times.  Includes statistical spike-perturbation verification
and the pathwise stationarity residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ValidationError
from .integrators import gain_path, left, march_levels
from .precommit import default_step
from .simulate import (MCConfig, aligned_time_grid, brownian_increments, euler_maruyama,
                       euler_transition, initial_state, paired_mean_stderr, probe_map,
                       variant_costs)
from .types import ProblemData, TimeGrid, TwoParamMatrixField, _interp, hat


def _require_no_mean_field_dynamics(problem: ProblemData):
    if problem.has_mean_field_dynamics:
        raise ValidationError(
            "open-loop equilibrium requires Abar=Bbar=Cbar=Dbar=0 "
            "(mean-field terms in the dynamics are not supported)")


@dataclass(frozen=True)
class OpenLoopSolution:
    """Two-parameter pair (P, Phat), not required symmetric, plus the diagonal gain."""

    P: TwoParamMatrixField
    Phat: TwoParamMatrixField
    Theta_open: np.ndarray     # (J, m, n) at the t-grid nodes
    max_asymmetry: float

    @property
    def tgrid(self) -> TimeGrid:
        return self.P.grid

    def theta_open_at(self, t):
        """The diagonal gain at t (a time or an array of times), linear between
        the t-grid nodes."""
        return _interp(t, self.tgrid.nodes, self.Theta_open)


def solve_open_loop(problem: ProblemData, h: float | None = None,
                    t_nodes: int = 64) -> OpenLoopSolution:
    """The coupled pair (P(., t), Phat(., t)) on a t-grid of t_nodes intervals,
    by `march_levels` at the step h (default `default_step`).

    Every slice is driven by the same diagonal factor
    Theta(s) = [Rhat(s,s) + D'P(s,s)D]^{-1} [B'Phat(s,s) + D'P(s,s)C]; with
    M = A - B Theta and N = C - D Theta both equations read

        Z' + Z M + A'Z + C'P N + Q(s, t) = 0,   Z = P, Phat  (Qhat for Phat),

    not symmetric.  Level lev marches only the slices t_0..t_lev, the ones
    read on [t_{lev-1}, t_lev] (s >= t); the stored field extends each slice
    above the diagonal by its diagonal value.
    """
    _require_no_mean_field_dynamics(problem)
    hp = hat(problem)

    def rhs(f, q, Z):
        _, _, ZM, PN = f(q, Z)
        out = ZM + left(f.A[q].T, Z)
        out += left(f.C[q].T, PN)
        out += f.weights[0][q]
        return -out

    tg, levels = march_levels(
        problem, default_step(problem) if h is None else h, t_nodes,
        (problem.A, problem.B, problem.C, problem.D), [(problem.Q, hp.Q)], rhs)
    grid = TimeGrid(tg)
    P_field = TwoParamMatrixField.from_triangle(grid, levels[0])
    Ph_field = TwoParamMatrixField.from_triangle(grid, levels[1])

    idx = np.arange(len(tg))
    d, dh = levels[:, idx, idx]
    B, C, D = (f.at_many(tg) for f in (problem.B, problem.C, problem.D))
    Theta = gain_path(dh, d, B, C, D, hp.R.at_many(tg, tg), problem.delta,
                      "diagonal factor", tg)

    asym = max(P_field.max_asymmetry(), Ph_field.max_asymmetry())
    return OpenLoopSolution(P=P_field, Phat=Ph_field, Theta_open=Theta,
                            max_asymmetry=asym)


# ---------------------------------------------------------------------------
# statistical verification of the equilibrium property


def _equilibrium_run(problem, sol, grid, dW, x0, it):
    """(n, paths) states of the equilibrium path at grid[it], started from x0."""
    th = sol.theta_open_at(grid[:it])
    A, B, C, D = (f.at_many(grid[:it]) for f in (problem.A, problem.B, problem.C,
                                                  problem.D))
    start = np.repeat(x0[:, None], dW.shape[0], axis=1)
    return euler_maruyama(start, euler_transition(A - B @ th, np.diff(grid[:it + 1])),
                          C - D @ th, dW[:, :it])[0]


def _spiked_run(problem, sol, grid, dW, Xt, it, spikes):
    """Per-path costs from t = grid[it] on, weights frozen at t: row 0 for the
    equilibrium, row 1 + i for spikes[i] = (ie, probe), the control map
    `probe` on [t, grid[ie]) followed by the equilibrium path's own control.

    The variants run on `variant_costs` from the states Xt (n, paths) with
    y = [X; X_eq]: the equilibrium state rides along to supply the tail
    control -Theta X_eq, which is also its partner control.  After the last
    spike's end every variant plays -Theta X_eq, its partner rows are row
    0's, and its X differs from row 0's X_eq: the tail is split there,
    anchored on row 0's state, with the fixed columns [e_i; 0].
    """
    n, m = problem.n, problem.m
    tail = grid[it:]
    th = sol.theta_open_at(tail)
    eq = np.concatenate([np.zeros_like(th), -th, np.zeros((len(tail), m, 1))], axis=-1)
    c = np.repeat(np.concatenate([eq, eq], axis=-2)[:, None], 1 + len(spikes), axis=1)
    for v, (ie, probe) in enumerate(spikes, start=1):
        c[:ie - it, v, :m] = probe
    A, B, C, D = (_twice(f.at_many(tail)) for f in (problem.A, problem.B, problem.C,
                                                     problem.D))
    w = max(ie for ie, _ in spikes) - it
    return variant_costs(problem, tail, dW[:, it:], np.tile(Xt, (2, 1)), (A, B), (C, D), c,
                         tail=(w, np.eye(2 * n + 1, n), True))


def _twice(M):
    """blockdiag(M, M) along the last two axes."""
    r, c = M.shape[-2:]
    out = np.zeros(M.shape[:-2] + (2 * r, 2 * c))
    out[..., :r, :c] = out[..., r:, c:] = M
    return out


def _default_probes(problem, sol, t):
    """Spikes as control maps on [X; X_eq; 1]."""
    m, n = problem.m, problem.n
    return [
        ("const+1", probe_map(m, n, const=1.0)),
        ("const-1", probe_map(m, n, const=-1.0)),
        ("feedback-shift", probe_map(m, n, gain=sol.theta_open_at(t) + 0.3)),
    ]


def _check_spikes(T, check_times, eps_list):
    """Every spike [t, t + eps] must lie in [0, T] with eps longer than the
    node tolerance 1e-12 max(1, T), and there must be at least one of each."""
    if len(eps_list) == 0:
        raise ConfigurationError("eps_list is empty")
    if len(check_times) == 0:
        raise ConfigurationError("check_times is empty")
    tol = 1e-12 * max(1.0, abs(T))
    for t in check_times:
        if not 0.0 <= t < T:
            raise ConfigurationError(f"check time {t} outside [0, T) = [0, {T})")
        for eps in eps_list:
            if not eps > tol:
                raise ConfigurationError(f"spike length {eps} must exceed {tol:g}")
            if t + eps > T + tol:
                raise ConfigurationError(
                    f"spike [{t}, {t} + {eps}] runs past the horizon T = {T}")
    return tol


def verify_open_loop_equilibrium(problem: ProblemData, sol: OpenLoopSolution,
                                 x0, eps_list=None, mc: MCConfig | None = None,
                                 check_times=None) -> dict:
    """Spike-perturbation test: [J(spiked) - J(equilibrium)] / eps with common noise.

    Every spike runs on one Euler grid holding each t and t + eps as a node
    (times within 1e-12 max(1, T) are one node), on one draw; per check time
    one head marches to t and one march carries all its spikes.

    Reports one record per (time, eps descending, probe) and a pass flag: at
    the smallest eps the minimum ratio over probes must exceed -3 stderr.
    """
    _require_no_mean_field_dynamics(problem)
    T = problem.T
    if eps_list is None:
        eps_list = [0.1 * T, 0.05 * T, 0.025 * T]
    if mc is None:
        mc = MCConfig(paths=20000, steps=400, seed=7)
    if check_times is None:
        check_times = [0.2 * T, 0.5 * T]
    tol = _check_spikes(T, check_times, eps_list)
    x0 = initial_state(problem, x0)

    nodes = [0.0]
    for v in sorted(t + eps for t in check_times for eps in (0.0, *eps_list)):
        if nodes[-1] + tol < v < T - tol:
            nodes.append(v)
    if mc.steps < len(nodes):
        raise ConfigurationError(
            f"{mc.steps} Euler steps cannot hold the {len(nodes) - 1} check times and "
            f"spike ends t + eps inside (0, T) as nodes: give at least {len(nodes)} steps")
    grid = aligned_time_grid(0.0, T, mc.steps, nodes)
    dW = brownian_increments(mc, np.diff(grid))

    records = []
    eps_sorted = sorted(eps_list, reverse=True)
    for t in check_times:
        probes = _default_probes(problem, sol, t)
        it = int(np.argmin(np.abs(grid - t)))
        ends = [int(np.argmin(np.abs(grid - (t + eps)))) for eps in eps_sorted]
        costs = _spiked_run(problem, sol, grid, dW,
                            _equilibrium_run(problem, sol, grid, dW, x0, it), it,
                            [(ie, probe) for ie in ends for _, probe in probes])
        variants = [(eps, name) for eps in eps_sorted for name, _ in probes]
        for (eps, name), dJ in zip(variants, costs[1:] - costs[0]):
            mean, stderr = paired_mean_stderr(dJ, mc.antithetic)
            records.append({"t": float(t), "probe": name, "epsilon": float(eps),
                            "ratio": mean / eps, "stderr": stderr / eps})

    smallest = min(eps_list)
    margins = [r["ratio"] + 3.0 * r["stderr"] for r in records
               if abs(r["epsilon"] - smallest) < 1e-12]
    worst = min(margins)
    return {"records": records, "passed": bool(worst >= -1e-8),
            "min_margin": float(worst)}


def bsde_residual_check(problem: ProblemData, sol: OpenLoopSolution,
                        mc: MCConfig | None = None) -> dict:
    """Pathwise stationarity residual along the simulated equilibrium path.

    At sampled times t the adjoint pair is reconstructed from the diagonal field
    values, Y = Phat(t,t) X*, Z = P(t,t)(C X* + D u*); the first-order condition
    Rhat(t,t) u* + B'Y + D'Z must vanish identically.
    """
    _require_no_mean_field_dynamics(problem)
    if mc is None:
        mc = MCConfig(paths=2000, steps=256, seed=11)
    hp = hat(problem)
    tg = sol.tgrid.nodes
    grid = aligned_time_grid(0.0, problem.T, mc.steps, tg[1:-1])
    dW = brownian_increments(mc, np.diff(grid))
    th = sol.theta_open_at(grid)
    A, B, C, D = (f.at_many(grid) for f in (problem.A, problem.B, problem.C, problem.D))
    Rd = hp.R.at_many(grid, grid)
    states = euler_maruyama(np.ones((problem.n, mc.paths)),
                            euler_transition((A - B @ th)[:-1], np.diff(grid)),
                            (C - D @ th)[:-1], dW,
                            observe=np.broadcast_to(np.eye(problem.n), A.shape))[2]

    worst = 0.0
    per_time = []
    node_set = {round(float(v), 12): k for k, v in enumerate(tg)}
    for j, s in enumerate(grid):
        key = round(float(s), 12)
        if key in node_set:
            k = node_set[key]
            d = sol.P.values[k, k]
            dh = sol.Phat.values[k, k]
            X = states[j].T
            u = -X @ sol.Theta_open[k].T
            Y = X @ dh.T
            Z = (X @ C[j].T + u @ D[j].T) @ d.T
            res = u @ Rd[j].T + Y @ B[j] + Z @ D[j]
            scale = 1.0 + np.abs(u @ Rd[j].T) + np.abs(Y @ B[j]) + np.abs(Z @ D[j])
            rel = float((np.abs(res) / scale).max())
            per_time.append({"t": float(s), "max_relative_residual": rel})
            worst = max(worst, rel)

    return {"max_relative_residual": worst, "per_time": per_time}
