"""Closed-loop equilibrium: the limit of the finite-player game.

Two independent routes produce the two-parameter pair (Gamma, Gamma_hat):
refinement of the interval game under partition doubling, with Richardson
extrapolation of its first-order fields, and a direct backward
march of the limit system on the shared level march
(`integrators.march_levels`), in which every t-slice is driven by the shared
diagonal gain and each level carries only the slices read on it.
Cross-validating the two is the main consistency check for the equilibrium
field.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, ConvergenceError
from .game import DeltaEquilibrium, build_delta_equilibrium
from .integrators import gain_path, left, march_levels, right
from .precommit import STEP_TOL, default_step
from .types import ProblemData, TimeGrid, _node_index, hat

#: `solve_closed_loop(tol=...)` marches its games at the step whose RK4 error
#: is tol * MARCH_SHARE: the refinement resolves no more, since the fields it
#: accepts at tol are themselves about tol / 10 off the limit
MARCH_SHARE = 1e-3


@dataclass(frozen=True)
class ClosedLoopSolution:
    """Equilibrium field pair on a node grid, lower triangle s >= t populated.

    Gamma[i, j] approximates Gamma(t_i, t_j) (entries above the diagonal are
    NaN); Theta_hat holds the equilibrium feedback on the diagonal, which both
    equations of the limit system carry, and Theta the gain
    [R + D'Gamma D]^{-1} [B'Gamma + D'Gamma C] of the Gamma diagonal alone, a
    second quantity the refinement requires to be Cauchy.

    game is the finest game the refinement built (None for the direct
    solve).  When the returned fields are a Richardson extrapolant, that
    game has twice as many intervals as `grid`, and its own fields did not
    pass the tolerance: its piecewise gains (`game.gains`, the policy to
    simulate) are first-order accurate while the fields are second-order.
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

    def value(self, t: float, x) -> float:
        """Equilibrium value <Gamma_hat(t,t) x, x> at a grid node t, snapped to
        the nearest node within 1e-9 (1 + T); ValidationError off the grid."""
        j = _node_index(self.nodes, t)
        x = np.asarray(x, float).reshape(-1)
        return float(x @ self.Gamma_hat[j, j] @ x)


def _field_solution(problem: ProblemData, grid: TimeGrid, Gm: np.ndarray,
                    Gh: np.ndarray, game: DeltaEquilibrium | None = None
                    ) -> ClosedLoopSolution:
    """The field pair (Gm, Gh) on `grid`, with the diagonal gains of that pair."""
    Th, Thh = _diagonal_gains(problem, grid.nodes, Gm, Gh)
    return ClosedLoopSolution(problem=problem, grid=grid, Gamma=Gm, Gamma_hat=Gh,
                              Theta=Th, Theta_hat=Thh, trace=(), game=game)


def _assemble(eq: DeltaEquilibrium) -> ClosedLoopSolution:
    """Node-grid field pair from a finite-player solve.

    Every anchor column t_j is served by player j's own cost triple so the
    anchors line up exactly across refinements; the terminal row is the
    terminal weight itself.
    """
    N = eq.N
    if N < 2:
        raise ConfigurationError("field assembly needs at least two intervals")
    problem = eq.problem
    n = problem.n
    J = N + 1
    nodes = eq.partition.nodes
    Gm = np.full((J, J, n, n), np.nan)
    Gh = np.full((J, J, n, n), np.nan)
    Gm[N] = problem.G.at_many(nodes)
    Gh[N] = hat(problem).G.at_many(nodes)
    # node_triples is NaN above the diagonal, as the fields are
    Gm[:N, :N] = eq.node_triples[:N, :, 1]
    Gh[:N, :N] = eq.node_triples[:N, :, 1] + eq.node_triples[:N, :, 2]
    return _field_solution(problem, eq.partition, Gm, Gh, eq)


def _tri_diff(A: np.ndarray, B: np.ndarray) -> float:
    """Sup-norm over the populated (lower-triangular) entries."""
    d = np.abs(A - B)
    return float(np.nanmax(d)) if d.size else 0.0


def _deltas(fine: ClosedLoopSolution, coarse: ClosedLoopSolution) -> tuple[float, float]:
    """(sup delta of the field pair, sup delta of the gain pair) of `fine`
    against `coarse` on the coarse nodes, every other fine node."""
    return (max(_tri_diff(fine.Gamma[::2, ::2], coarse.Gamma),
                _tri_diff(fine.Gamma_hat[::2, ::2], coarse.Gamma_hat)),
            max(float(np.abs(fine.Theta[::2] - coarse.Theta).max()),
                float(np.abs(fine.Theta_hat[::2] - coarse.Theta_hat).max())))


def _ratio(prev: float | None, cur: float | None) -> float | None:
    """Observed reduction of a delta over one doubling: about 2 at first
    order, 4 at second."""
    return prev / cur if prev is not None and cur else None


class Refinement(NamedTuple):
    """One doubling of `refinements`.

    raw: the N-interval game's fields F_N on its partition (raw.game is that
    game).  extrapolated: from the second doubling on, the Richardson
    extrapolant E = 2 F_N - F_{N/2} on the N/2 nodes, with Theta and
    Theta_hat the diagonal gains of its field pair (its game is the
    N-interval one, the finest built).  record: the trace entry, with N, the
    raw deltas against F_{N/2}, the extrapolated delta against the previous
    extrapolant (sup-norm over all four arrays) and each delta's ratio to the
    one before it.
    """

    raw: ClosedLoopSolution
    extrapolated: ClosedLoopSolution | None
    record: dict

    def accepted(self, tol: float) -> ClosedLoopSolution | None:
        """The raw fields if their delta is below tol, failing that the
        extrapolant if its delta is, else None."""
        for sol, delta in ((self.raw, self.record["delta"]),
                           (self.extrapolated, self.record["extrapolated_delta"])):
            if delta is not None and delta < tol:
                return sol
        return None


def refinements(problem: ProblemData, N0: int = 4, h: float | None = None,
                target: float = STEP_TOL):
    """The game refined by partition doubling: yields a `Refinement` for
    N = N0, 2 N0, 4 N0, ... without end.

    Every game is `build_delta_equilibrium` at the step h or, without one,
    at `default_step` for the target error (STEP_TOL by default;
    `solve_closed_loop` passes tol * MARCH_SHARE).

    The raw fields converge to first order in the mesh, so their deltas
    halve per doubling; the extrapolants cancel that leading term (Richardson
    1911; Hairer-Norsett-Wanner, Solving ODEs I, II.9) and their deltas fall
    about fourfold.  Every comparison is made on the coarser nodes, an exact
    subset of the finer ones.  Each game is built only when the next item is
    asked for.
    """
    prev = prev_ext = None
    prev_rec: dict = {}
    N = N0
    while True:
        eq = build_delta_equilibrium(problem, TimeGrid.uniform(problem.T, N), h, target)
        raw = _assemble(eq)
        ext = deltas = ext_delta = None
        if prev is not None:
            deltas = _deltas(raw, prev)
            ext = _field_solution(problem, prev.grid,
                                  2.0 * raw.Gamma[::2, ::2] - prev.Gamma,
                                  2.0 * raw.Gamma_hat[::2, ::2] - prev.Gamma_hat, eq)
            if prev_ext is not None:
                ext_delta = max(_deltas(ext, prev_ext))
        dG, dT = deltas or (None, None)
        delta = None if deltas is None else max(deltas)
        record = {"N": N, "delta": delta, "sup_delta_Gamma": dG, "sup_delta_Theta": dT,
                  "extrapolated_delta": ext_delta,
                  "ratio": _ratio(prev_rec.get("delta"), delta),
                  "extrapolated_ratio": _ratio(prev_rec.get("extrapolated_delta"),
                                               ext_delta)}
        yield Refinement(raw, ext, record)
        prev, prev_ext, prev_rec = raw, ext, record
        N *= 2


def solve_closed_loop(problem: ProblemData, N0: int = 4, tol: float = 1e-4,
                      max_doublings: int = 6, h: float | None = None
                      ) -> ClosedLoopSolution:
    """Partition-doubling refinement of the interval game until Cauchy in sup-norm.

    At every doubling (see `refinements`) the raw fields F_N, and failing
    them the Richardson extrapolant E = 2 F_N - F_{N/2}, are accepted when
    their delta against the previous doubling's drops below `tol`.  Returns
    the fields that passed, the raw F_N on the N-interval partition or the
    extrapolant on the N/2-interval one, with `game` the N-interval game, the
    finest built.  Raises ConvergenceError (with the full refinement trace)
    after `max_doublings` doublings.

    Unless h is given, every game marches at the step whose RK4 error is
    tol * MARCH_SHARE (`precommit.step_choice`), T/64 on every bundled
    problem at the default tol, not at the 1e-12 of the other solves: the
    march error stays three orders below the tolerance.
    """
    if N0 < 2:
        raise ConfigurationError("N0 must be at least 2")
    trace: list[dict] = []
    for item in itertools.islice(refinements(problem, N0, h, tol * MARCH_SHARE),
                                 max_doublings + 1):
        trace.append(item.record)
        sol = item.accepted(tol)
        if sol is not None:
            return replace(sol, trace=tuple(trace))
    last = trace[-1]
    raise ConvergenceError(
        f"game refinement not Cauchy below {tol:g} after {max_doublings} doublings "
        f"(last delta ratios: raw {last['ratio']}, extrapolated "
        f"{last['extrapolated_ratio']})", trace=tuple(trace))


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
    return _field_solution(problem, TimeGrid(tg), Gm, Gh)


def _diagonal_gains(problem, nodes, Gm, Gh):
    """Diagonal gain pair (Theta, Theta_hat) of a field pair at its nodes."""
    hp = hat(problem)
    idx = np.arange(len(nodes))
    d, dh = Gm[idx, idx], Gh[idx, idx]
    B, C, D, Bh, Ch, Dh = (f.at_many(nodes) for f in (
        problem.B, problem.C, problem.D, hp.B, hp.C, hp.D))
    Th = gain_path(d, d, B, C, D, problem.R.at_many(nodes, nodes), problem.delta,
                   "R + D'Gamma D", nodes)
    Thh = gain_path(dh, d, Bh, Ch, Dh, hp.R.at_many(nodes, nodes), problem.delta,
                    "Rhat + Dhat'Gamma Dhat", nodes)
    return Th, Thh


def residual(sol: ClosedLoopSolution) -> dict:
    """Finite-difference residual of the limit system over the stored field.

    Uses a five-point fourth-order stencil for the s-derivative along each
    t-column, skipping every stencil whose points straddle a breakpoint of
    the coefficients read in that column (`ProblemData.breakpoints`), where
    the field is not smooth enough for the stencil.  Both equations carry the
    equilibrium feedback Theta_hat, as the game recursion and
    direct_diagonal_solve do: the Gamma-equation with
    Theta_hat' R(s,t) Theta_hat, the Gamma_hat one with
    Theta_hat' Rhat(s,t) Theta_hat.  Returns the max and per-equation
    residuals over all interior stencil points.
    """
    problem = sol.problem
    hp = hat(problem)
    tg = sol.nodes
    J = len(tg)
    if J < 5:
        raise ConfigurationError("residual needs at least five grid nodes")
    dt = float(tg[1] - tg[0])
    w = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / (12.0 * dt)
    Thh = sol.Theta_hat
    Ah, Bh, Ch, Dh = (f.at_many(tg) for f in (hp.A, hp.B, hp.C, hp.D))
    M, Nc = Ah - Bh @ Thh, Ch - Dh @ Thh
    Mt, Nt = M.swapaxes(-1, -2), Nc.swapaxes(-1, -2)
    worst = {"Gamma": 0.0, "Gamma_hat": 0.0}
    for j in range(J):
        i = np.arange(max(j + 2, 2), J - 2)
        bps = np.array(problem.breakpoints((tg[j],)))
        if bps.size and i.size:
            tol = 1e-9 * dt
            inside = (bps > tg[i - 2, None] + tol) & (bps < tg[i + 2, None] - tol)
            i = i[~inside.any(axis=1)]
        if not i.size:
            continue
        for name, F, (Q, R) in (("Gamma", sol.Gamma, (problem.Q, problem.R)),
                                ("Gamma_hat", sol.Gamma_hat, (hp.Q, hp.R))):
            G = F[i, j]
            res = np.tensordot(w, F[i + np.arange(-2, 3)[:, None], j], axes=(0, 0))
            res += G @ M[i] + Mt[i] @ G + Nt[i] @ sol.Gamma[i, j] @ Nc[i]
            res += Thh[i].swapaxes(-1, -2) @ R.at_many(tg[i], tg[j]) @ Thh[i]
            res += Q.at_many(tg[i], tg[j])
            worst[name] = max(worst[name], float(np.abs(res).max()))
    scale = 1.0 + float(np.nanmax(np.abs(sol.Gamma_hat)))
    return {"max_residual": max(worst.values()),
            "gamma_residual": worst["Gamma"],
            "gamma_hat_residual": worst["Gamma_hat"],
            "scale": scale}
