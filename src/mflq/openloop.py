"""Open-loop equilibrium for dynamics without mean-field terms.

Solves the diagonally-coupled, non-symmetric two-parameter Riccati pair by a
stacked backward march over all t-slices, with the shared diagonal factor
interpolated at Runge-Kutta stage times.  Includes statistical spike-perturbation
verification and the pathwise stationarity residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .integrators import feedback_gain, gain_path, rk4_march, stage_times
from .simulate import MCConfig, aligned_time_grid, brownian_increments
from .types import ProblemData, TimeGrid, TwoParamMatrixField, hat


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

    def theta_open_at(self, t: float) -> np.ndarray:
        nodes = self.tgrid.nodes
        t = min(max(t, nodes[0]), nodes[-1])
        i = min(int(np.searchsorted(nodes, t, side="right")) - 1, len(nodes) - 2)
        i = max(i, 0)
        w = (t - nodes[i]) / (nodes[i + 1] - nodes[i])
        return (1.0 - w) * self.Theta_open[i] + w * self.Theta_open[i + 1]


def solve_open_loop(problem: ProblemData, h: float | None = None,
                    t_nodes: int = 64) -> OpenLoopSolution:
    """Backward march of all t-slices of the coupled pair (P(., t), Phat(., t)).

    Every slice is driven by the same diagonal factor
    [Rhat(s,s) + D'P(s,s)D]^{-1} [B'Phat(s,s) + D'P(s,s)C]; at stage times the
    diagonal is linearly interpolated between the two bracketing t-slices (all
    slices keep integrating below the diagonal so the interpolation stays clean;
    the stored field freezes sub-diagonal entries at the diagonal value).
    """
    _require_no_mean_field_dynamics(problem)
    if h is None:
        h = problem.T / 2000.0
    hp = hat(problem)
    tg = np.linspace(0.0, problem.T, t_nodes + 1)
    J = t_nodes + 1
    sub = max(1, math.ceil((problem.T / t_nodes) / h - 1e-12))

    # state Z: (2, J, n, n) -- Z[0] = P slices, Z[1] = Phat slices
    Z = np.stack([problem.G.at_many(tg), hp.G.at_many(tg)])
    P_levels = np.empty((J,) + Z.shape[1:])
    Ph_levels = np.empty_like(P_levels)
    P_levels[-1] = Z[0]
    Ph_levels[-1] = Z[1]

    for lev in range(J - 1, 0, -1):
        a, b = tg[lev - 1], tg[lev]
        times = np.linspace(a, b, sub + 1)
        ss = stage_times(times)
        # the diagonal at a stage time interpolates between the bracketing slices
        w = (ss - a) / (b - a)
        A, B, C, D = (f.at_many(ss) for f in (problem.A, problem.B, problem.C, problem.D))
        Rd = hp.R.at_many(ss, ss)
        Q = problem.Q.at_many(ss[:, None], tg)
        Qh = hp.Q.at_many(ss[:, None], tg)

        def rhs(q, Zs, j=lev - 1):
            As, Bs, Cs, Ds = A[q], B[q], C[q], D[q]
            d, dh = (1.0 - w[q]) * Zs[:, j] + w[q] * Zs[:, j + 1]
            Dd = Ds.T @ d
            Lam = feedback_gain(Rd[q] + Dd @ Ds, Bs.T @ dh + Dd @ Cs,
                                problem.delta, "diagonal factor", ss[q])   # (m, n)
            # both slice stacks at once; the sandwich terms read P only
            CP = Cs.T @ Zs[0]
            out = Zs @ As + As.T @ Zs + CP @ Cs
            out[0] += Q[q]
            out[1] += Qh[q]
            out -= (Zs @ Bs + CP @ Ds) @ Lam
            return -out

        Z = rk4_march(rhs, times, Z)[0]
        P_levels[lev - 1] = Z[0]
        Ph_levels[lev - 1] = Z[1]

    grid = TimeGrid(tg)
    P_field = TwoParamMatrixField.from_triangle(grid, P_levels, symmetric=False)
    Ph_field = TwoParamMatrixField.from_triangle(grid, Ph_levels, symmetric=False)

    idx = np.arange(J)
    d, dh = P_levels[idx, idx], Ph_levels[idx, idx]
    B, C, D = (f.at_many(tg) for f in (problem.B, problem.C, problem.D))
    Theta = gain_path(dh, d, B, C, D, hp.R.at_many(tg, tg), problem.delta,
                      "diagonal factor", tg)

    asym = max(P_field.max_asymmetry(), Ph_field.max_asymmetry())
    return OpenLoopSolution(P=P_field, Phat=Ph_field, Theta_open=Theta,
                            max_asymmetry=asym)



# ---------------------------------------------------------------------------
# statistical verification of the equilibrium property


def _trapezoid_weights(grid: np.ndarray, start: int) -> np.ndarray:
    t = grid[start:]
    w = np.empty(len(t))
    w[0] = 0.5 * (t[1] - t[0])
    w[-1] = 0.5 * (t[-1] - t[-2])
    if len(t) > 2:
        w[1:-1] = 0.5 * (t[2:] - t[:-2])
    return w


def _integrand(problem, t, s, X, u, m, eu):
    """Per-path running cost with weights frozen at t; m, eu are per-path E_t rows."""
    out = np.einsum("pi,ij,pj->p", X, problem.Q(s, t), X)
    out = out + np.einsum("pi,ij,pj->p", m, problem.Qbar(s, t), m)
    out = out + np.einsum("pi,ij,pj->p", u, problem.R(s, t), u)
    return out + np.einsum("pi,ij,pj->p", eu, problem.Rbar(s, t), eu)


def _terminal(problem, t, X, m):
    out = np.einsum("pi,ij,pj->p", X, problem.G(t), X)
    return out + np.einsum("pi,ij,pj->p", m, problem.Gbar(t), m)


def _equilibrium_run(problem, sol, grid, dts, dW, x0, it, t):
    """Forward equilibrium path; returns (X at t, cost from t, tail controls, tail E_t[u])."""
    P = dW.shape[0]
    L = len(grid)
    X = np.tile(x0, (P, 1))
    for j in range(it):
        s, dt = grid[j], dts[j]
        u = -X @ sol.theta_open_at(s).T
        X = X + (X @ problem.A(s).T + u @ problem.B(s).T) * dt \
            + (X @ problem.C(s).T + u @ problem.D(s).T) * dW[:, j:j + 1]

    Xt = X.copy()
    m = X.copy()   # Euler conditional mean: exactly the mean of the discrete scheme
    w = _trapezoid_weights(grid, it)
    J = np.zeros(P)
    us, eus = [], []
    for j in range(it, L):
        s = grid[j]
        th = sol.theta_open_at(s)
        u = -X @ th.T
        eu = -m @ th.T
        us.append(u)
        eus.append(eu)
        J += w[j - it] * _integrand(problem, t, s, X, u, m, eu)
        if j == L - 1:
            break
        dt = dts[j]
        X = X + (X @ problem.A(s).T + u @ problem.B(s).T) * dt \
            + (X @ problem.C(s).T + u @ problem.D(s).T) * dW[:, j:j + 1]
        m = m + dt * (m @ problem.A(s).T + eu @ problem.B(s).T)
    J += _terminal(problem, t, X, m)
    return Xt, J, us, eus


def _spiked_run(problem, sol, grid, dts, dW, Xt, us, eus, it, ie, t, probe):
    """Cost of the spiked control: probe on [t, t+eps), original tail control after."""
    kind, val = probe
    P = Xt.shape[0]
    L = len(grid)
    X = Xt.copy()
    m = Xt.copy()
    w = _trapezoid_weights(grid, it)
    J = np.zeros(P)
    for j in range(it, L):
        s = grid[j]
        if j < ie:
            if kind == "const":
                u = np.tile(val, (P, 1))
                eu = np.tile(val, (P, 1))
            else:
                u = -X @ val.T
                eu = -m @ val.T
        else:
            u = us[j - it]
            eu = eus[j - it]
        J += w[j - it] * _integrand(problem, t, s, X, u, m, eu)
        if j == L - 1:
            break
        dt = dts[j]
        X = X + (X @ problem.A(s).T + u @ problem.B(s).T) * dt \
            + (X @ problem.C(s).T + u @ problem.D(s).T) * dW[:, j:j + 1]
        m = m + dt * (m @ problem.A(s).T + eu @ problem.B(s).T)
    J += _terminal(problem, t, X, m)
    return J


def _default_probes(problem, sol, t):
    ones = np.ones(problem.m)
    K = sol.theta_open_at(t)
    return [
        ("const+1", ("const", ones)),
        ("const-1", ("const", -ones)),
        ("feedback-shift", ("feedback", K + 0.3 * np.ones_like(K))),
    ]


def verify_open_loop_equilibrium(problem: ProblemData, sol: OpenLoopSolution,
                                 x0, eps_list=None, mc: MCConfig | None = None,
                                 check_times=None) -> dict:
    """Spike-perturbation test: [J(spiked) - J(equilibrium)] / eps with common noise.

    Reports one record per (time, probe, eps) and a pass flag: at the smallest
    eps the minimum ratio over probes must exceed -3 stderr.
    """
    _require_no_mean_field_dynamics(problem)
    T = problem.T
    if eps_list is None:
        eps_list = [0.1 * T, 0.05 * T, 0.025 * T]
    if mc is None:
        mc = MCConfig(paths=20000, steps=400, seed=7)
    if check_times is None:
        check_times = [0.2 * T, 0.5 * T]
    x0 = np.asarray(x0, float).reshape(-1)

    records = []
    for t in check_times:
        for eps in sorted(eps_list, reverse=True):
            grid = aligned_time_grid(0.0, T, mc.steps, (t, t + eps))
            dts = np.diff(grid)
            dW = brownian_increments(mc, dts)
            it = int(np.argmin(np.abs(grid - t)))
            ie = int(np.argmin(np.abs(grid - (t + eps))))
            Xt, Jeq, us, eus = _equilibrium_run(problem, sol, grid, dts, dW, x0, it, t)
            for name, probe in _default_probes(problem, sol, t):
                Jp = _spiked_run(problem, sol, grid, dts, dW, Xt, us, eus,
                                 it, ie, t, probe)
                diff = Jp - Jeq
                if mc.antithetic:
                    half = len(diff) // 2
                    diff = 0.5 * (diff[:half] + diff[half:])
                records.append({
                    "t": float(t), "probe": name, "epsilon": float(eps),
                    "ratio": float(diff.mean()) / eps,
                    "stderr": float(diff.std(ddof=1) / math.sqrt(len(diff))) / eps,
                })

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
    dts = np.diff(grid)
    dW = brownian_increments(mc, dts)
    X = np.tile(np.ones(problem.n), (mc.paths, 1))

    worst = 0.0
    per_time = []
    node_set = {round(float(v), 12): k for k, v in enumerate(tg)}
    for j, s in enumerate(grid):
        key = round(float(s), 12)
        if key in node_set:
            k = node_set[key]
            d = sol.P.values[k, k]
            dh = sol.Phat.values[k, k]
            th = sol.Theta_open[k]
            u = -X @ th.T
            Y = X @ dh.T
            Z = (X @ problem.C(s).T + u @ problem.D(s).T) @ d.T
            res = u @ hp.R(s, s).T + Y @ problem.B(s) + Z @ problem.D(s)
            scale = 1.0 + np.abs(u @ hp.R(s, s).T) + np.abs(Y @ problem.B(s)) \
                + np.abs(Z @ problem.D(s))
            rel = float((np.abs(res) / scale).max())
            per_time.append({"t": float(s), "max_relative_residual": rel})
            worst = max(worst, rel)
        if j < len(grid) - 1:
            th = sol.theta_open_at(s)
            u = -X @ th.T
            X = X + (X @ problem.A(s).T + u @ problem.B(s).T) * dts[j] \
                + (X @ problem.C(s).T + u @ problem.D(s).T) * dW[:, j:j + 1]

    return {"max_relative_residual": worst, "per_time": per_time}
