"""Closed-loop equilibrium: the limit of the finite-player game.

Two independent routes produce the two-parameter pair (Gamma, Gamma_hat):
refinement of the interval game under partition doubling, and a direct backward
march of the limit system on the shared level march
(`integrators.march_levels`), in which every t-slice is driven by the shared
diagonal gain and each level carries only the slices read on it.
Cross-validating the two is the main consistency check for the equilibrium
field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .game import DeltaEquilibrium, build_delta_equilibrium
from .integrators import gain_path, left, march_levels, right
from .precommit import default_step
from .types import ProblemData, TimeGrid, _interp, hat


@dataclass(frozen=True)
class ClosedLoopSolution:
    """Equilibrium field pair on a node grid, lower triangle s >= t populated.

    Gamma[i, j] approximates Gamma(t_i, t_j) (entries above the diagonal are
    NaN); Theta_hat holds the equilibrium feedback on the diagonal, which both
    equations of the limit system carry, and Theta the gain
    [R + D'Gamma D]^{-1} [B'Gamma + D'Gamma C] of the Gamma diagonal alone, a
    second quantity the refinement requires to be Cauchy.
    """

    problem: ProblemData
    grid: TimeGrid
    Gamma: np.ndarray        # (J, J, n, n)
    Gamma_hat: np.ndarray    # (J, J, n, n)
    Theta: np.ndarray        # (J, m, n)
    Theta_hat: np.ndarray    # (J, m, n)
    trace: tuple
    game: DeltaEquilibrium | None = None

    @property
    def nodes(self) -> np.ndarray:
        return self.grid.nodes

    def node_index(self, t: float) -> int:
        return int(np.argmin(np.abs(self.nodes - t)))

    def value(self, t: float, x) -> float:
        """Equilibrium value <Gamma_hat(t,t) x, x> at the nearest node."""
        j = self.node_index(t)
        x = np.asarray(x, float).reshape(-1)
        return float(x @ self.Gamma_hat[j, j] @ x)


def equilibrium_value(sol: ClosedLoopSolution, t: float, x) -> float:
    return sol.value(t, x)


def _assemble(eq: DeltaEquilibrium) -> tuple[np.ndarray, ...]:
    """Node-grid field pair from a finite-player solve.

    Every anchor column t_j is served by player j's own cost triple so the
    anchors line up exactly across refinements; the terminal row is the
    terminal weight itself.
    """
    N = eq.N
    if N < 2:
        raise ConfigurationError("field assembly needs at least two intervals")
    problem = eq.problem
    hp = hat(problem)
    n = problem.n
    J = N + 1
    nodes = eq.partition.nodes
    Gm = np.full((J, J, n, n), np.nan)
    Gh = np.full((J, J, n, n), np.nan)
    Gm[N] = problem.G.at_many(nodes)
    Gh[N] = hp.G.at_many(nodes)
    # node_triples is NaN above the diagonal, as the fields are
    Gm[:N, :N] = eq.node_triples[:N, :, 1]
    Gh[:N, :N] = eq.node_triples[:N, :, 1] + eq.node_triples[:N, :, 2]
    Th, Thh = _diagonal_gains(problem, hp, nodes, Gm, Gh)
    return Gm, Gh, Th, Thh


def _tri_diff(A: np.ndarray, B: np.ndarray) -> float:
    """Sup-norm over the populated (lower-triangular) entries."""
    d = np.abs(A - B)
    return float(np.nanmax(d)) if d.size else 0.0


def refinements(problem: ProblemData, N0: int = 4, h: float | None = None):
    """The game refined by partition doubling: yields (N, eq, fields, deltas)
    for N = N0, 2 N0, 4 N0, ... without end.

    fields = (Gamma, Gamma_hat, Theta, Theta_hat) on the partition's nodes;
    deltas = (sup_delta_Gamma, sup_delta_Theta) against the previous
    refinement on its nodes, which are an exact subset of the finer ones (None
    for N0).  Each game is built only when the next item is asked for.
    """
    prev = None
    N = N0
    while True:
        eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, N), h)
        fields = _assemble(eq)
        deltas = None
        if prev is not None:
            Gm, Gh, Th, Thh = fields
            pGm, pGh, pTh, pThh = prev
            deltas = (max(_tri_diff(Gm[::2, ::2], pGm), _tri_diff(Gh[::2, ::2], pGh)),
                      max(float(np.abs(Th[::2] - pTh).max()),
                          float(np.abs(Thh[::2] - pThh).max())))
        yield N, eq, fields, deltas
        prev = fields
        N *= 2


def solve_closed_loop(problem: ProblemData, N0: int = 4, tol: float = 1e-4,
                      max_doublings: int = 6, h: float | None = None
                      ) -> ClosedLoopSolution:
    """Partition-doubling refinement of the interval game until Cauchy in sup-norm.

    Successive field pairs (and the feedback gains) are compared on the coarser
    partition's nodes (see `refinements`); stops when the difference drops
    below `tol`, raises ConvergenceError (with the full refinement trace)
    otherwise.
    """
    if N0 < 2:
        raise ConfigurationError("N0 must be at least 2")
    trace: list[dict] = []
    for N, eq, fields, deltas in itertools.islice(refinements(problem, N0, h),
                                                  max_doublings + 1):
        if deltas is None:
            trace.append({"N": N, "delta": None})
            continue
        delta = max(deltas)
        trace.append({"N": N, "delta": delta,
                      "sup_delta_Gamma": deltas[0], "sup_delta_Theta": deltas[1]})
        if delta < tol:
            Gm, Gh, Th, Thh = fields
            return ClosedLoopSolution(problem=problem, grid=eq.partition,
                                      Gamma=Gm, Gamma_hat=Gh, Theta=Th,
                                      Theta_hat=Thh, trace=tuple(trace), game=eq)
    raise ConvergenceError(
        f"game refinement not Cauchy below {tol:g} after {max_doublings} doublings",
        trace=tuple(trace))


def direct_diagonal_solve(problem: ProblemData, h: float | None = None,
                          t_nodes: int = 128) -> ClosedLoopSolution:
    """The limit system on a t-grid of t_nodes intervals, by `march_levels`
    at the step h (default `default_step`).

    Every slice pair (Gamma(., t), Gamma_hat(., t)) shares the diagonal feedback
    Theta_hat(s) = [Rhat(s,s) + Dhat' Gamma(s,s) Dhat]^{-1}
    [Bhat' Gamma_hat(s,s) + Dhat' Gamma(s,s) Chat]; with M = Ahat - Bhat
    Theta_hat and N = Chat - Dhat Theta_hat both equations read

        Z' + Z M + M'Z + N' Gamma N + Q(s, t) + Theta_hat' R(s, t) Theta_hat = 0,

    Z = Gamma, Gamma_hat (Qhat and Rhat for Gamma_hat), symmetrized every
    step.  Level lev marches only the slices t_0..t_lev, the ones read on
    [t_{lev-1}, t_lev] (s >= t); entries above the diagonal are NaN.
    """
    hp = hat(problem)

    def rhs(f, q, Z):
        Th, N, ZM, PN = f(q, Z)
        Q, R = f.weights
        out = ZM + ZM.transpose(0, 3, 2, 1)        # Z M + M'Z, slice by slice
        out += left(N.T, PN)
        out += Q[q]
        out += left(Th.T, right(R[q], Th))
        return -out

    tg, (Gm, Gh) = march_levels(
        problem, default_step(problem) if h is None else h, t_nodes,
        (hp.A, hp.B, hp.C, hp.D), [(problem.Q, hp.Q), (problem.R, hp.R)], rhs,
        symmetric=True)
    Theta, Theta_hat = _diagonal_gains(problem, hp, tg, Gm, Gh)
    return ClosedLoopSolution(problem=problem, grid=TimeGrid(tg), Gamma=Gm,
                              Gamma_hat=Gh, Theta=Theta, Theta_hat=Theta_hat, trace=())


def _diagonal_gains(problem, hp, nodes, Gm, Gh):
    """Diagonal gain pair (Theta, Theta_hat) of a field pair at its nodes."""
    idx = np.arange(len(nodes))
    d, dh = Gm[idx, idx], Gh[idx, idx]
    B, C, D, Bh, Ch, Dh = (f.at_many(nodes) for f in (
        problem.B, problem.C, problem.D, hp.B, hp.C, hp.D))
    Th = gain_path(d, d, B, C, D, problem.R.at_many(nodes, nodes), problem.delta,
                   "R + D'Gamma D", nodes)
    Thh = gain_path(dh, d, Bh, Ch, Dh, hp.R.at_many(nodes, nodes), problem.delta,
                    "Rhat + Dhat'Gamma Dhat", nodes)
    return Th, Thh


def residual(sol: ClosedLoopSolution, problem: ProblemData | None = None) -> dict:
    """Finite-difference residual of the limit system over the stored field.

    Uses a five-point fourth-order stencil for the s-derivative along each
    t-column.  Both equations carry the equilibrium feedback Theta_hat, as the
    game recursion and direct_diagonal_solve do: the Gamma-equation with
    Theta_hat' R(s,t) Theta_hat, the Gamma_hat one with Theta_hat' Rhat(s,t)
    Theta_hat.  Returns the max and per-equation residuals over all interior
    stencil points.
    """
    if problem is None:
        problem = sol.problem
    hp = hat(problem)
    tg = sol.nodes
    J = len(tg)
    if J < 5:
        raise ConfigurationError("residual needs at least five grid nodes")
    dt = float(tg[1] - tg[0])
    w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    worst_g = 0.0
    worst_gh = 0.0
    for j in range(J):
        for i in range(max(j + 2, 2), J - 2):
            s = float(tg[i])
            t = float(tg[j])
            dG = np.tensordot(w, sol.Gamma[i - 2:i + 3, j], axes=(0, 0))
            dGh = np.tensordot(w, sol.Gamma_hat[i - 2:i + 3, j], axes=(0, 0))
            Ah, Bh, Ch, Dh = hp.A(s), hp.B(s), hp.C(s), hp.D(s)
            Thh = _interp(s, tg, sol.Theta_hat)
            M = Ah - Bh @ Thh
            Nc = Ch - Dh @ Thh
            G = sol.Gamma[i, j]
            Gh = sol.Gamma_hat[i, j]
            sand = Nc.T @ G @ Nc
            res_g = dG + G @ M + M.T @ G + sand \
                + Thh.T @ problem.R(s, t) @ Thh + problem.Q(s, t)
            res_gh = dGh + Gh @ M + M.T @ Gh + sand \
                + Thh.T @ hp.R(s, t) @ Thh + hp.Q(s, t)
            worst_g = max(worst_g, float(np.abs(res_g).max()))
            worst_gh = max(worst_gh, float(np.abs(res_gh).max()))
    scale = 1.0 + float(np.nanmax(np.abs(sol.Gamma_hat)))
    return {"max_residual": max(worst_g, worst_gh),
            "gamma_residual": worst_g,
            "gamma_hat_residual": worst_gh,
            "scale": scale}
