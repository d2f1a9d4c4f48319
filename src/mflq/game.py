"""Finite-player sequential game over a time partition.

Each player k controls one interval [t_k, t_{k+1}) with all cost weights frozen
at t_k, best-responding to the gains already fixed by the later players.  The
solve runs backward over the intervals.  On each one player k solves the
pre-commitment pair frozen at t_k, by the same march (`precommit._pair_march`),
from other terminal data; the Lyapunov triples that track every earlier
player's cost under the composite feedback are linear once that march's stage
gains are known, and advance by the affine maps of the same RK4 steps
(`cost_triples`, which prices any given feedback).  This module holds only
those triples and the stitching: terminal data for player k-1 come from
player (k-1)'s own triple at t_k.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigurationError, IllPosedError
from .integrators import check_step, march_triples, stage_times
from .precommit import (STEP_TOL, PrecommitSolution, _pair_march, _pair_solution,
                        lyapunov_pair, march_grids, pair_coefficients)
from .simulate import (MCConfig, aligned_time_grid, brownian_increments,
                       closed_loop_states_at, initial_state, mean_field_system,
                       paired_mean_stderr, probe_map, reset_mask, trapezoid_weights,
                       variant_costs)
from .types import (GainSegment, PiecewiseGain, ProblemData, TimeGrid, min_eig,
                    symmetrize, tau_psd)


#: one player's Riccati pair and gains on their own interval [t_k, t_{k+1}),
#: the pre-commitment solution frozen at t = t_k on that interval
IntervalSolution = PrecommitSolution


@dataclass(frozen=True)
class DeltaEquilibrium:
    """Backward-recursion solution of the N-player game on a partition.

    node_triples[j, l] holds player l's Lyapunov triple (tilde, plain, bar)
    evaluated at node t_j, approached from within the interval directly above
    t_j; it is populated for l <= j and for the terminal row j = N.  Each
    triple is carried through its own player's interval as well, where it
    coincides with that player's Riccati pair.
    values[k] is the hat-Riccati matrix of player k at t_k, so player k's
    equilibrium cost from state x at t_k is <values[k] x, x>.
    """

    problem: ProblemData
    partition: TimeGrid
    intervals: list[IntervalSolution]
    gains: PiecewiseGain
    node_triples: np.ndarray   # (N+1, N, 3, n, n), NaN where undefined
    values: np.ndarray         # (N, n, n)

    @property
    def N(self) -> int:
        return self.partition.num_intervals


def build_delta_equilibrium(problem: ProblemData, partition: TimeGrid,
                            h: float | None = None, target: float = STEP_TOL
                            ) -> DeltaEquilibrium:
    """Backward interval recursion producing the piecewise equilibrium gains.

    Inside interval k the pre-commitment pair march (`precommit._pair_march`)
    carries player k's Riccati pair (P_k, Phat_k) alone and keeps the gains
    (Theta, Theta_hat) of its four stages in every step.  Given those gains
    the cost triples of players 0..k (player k's own included, which
    coincides with the pair) solve linear equations: they advance by the affine
    maps of the same RK4 steps (`cost_triples`).  The triples restart their
    first component from the second at every interval boundary.

    The march and output grids of every interval are `march_grids`': an
    explicit h marches and returns at h; by default the march runs at
    `default_step` for the target error (STEP_TOL by default;
    `closedloop.solve_closed_loop` passes one tied to its tolerance) and
    each `IntervalSolution` comes back at step T/2000 by Hermite dense
    output, its gains recomputed there (`_pair_solution`, one gain path per
    interval).  All grids are laid out first, and the pair's
    coefficients are sampled in two calls for the whole partition: at every
    interval's stages and at every output grid, each frozen at its t_k.
    """
    if h is not None:
        check_step(h)
    nodes = partition.nodes
    N = partition.num_intervals
    if N < 1:
        raise ConfigurationError("partition must contain at least one interval")
    n, m = problem.n, problem.m

    # Active triples, player-indexed; initialized at t_N where the first two
    # components coincide with that player's terminal weight.
    Tri = np.empty((N, 3, n, n))
    Tri[:, 0] = Tri[:, 1] = problem.G.at_many(nodes[:N])
    Tri[:, 2] = problem.Gbar.at_many(nodes[:N])
    node_triples = np.full((N + 1, N, 3, n, n), np.nan)
    node_triples[N] = Tri

    grids = [march_grids(problem, float(nodes[k]), float(nodes[k + 1]), h, nodes[:k + 1],
                         target) for k in range(N)]
    stages = [stage_times(times) for times, _ in grids]
    stage_coeffs = _by_interval(problem, nodes, stages)
    out_coeffs = _by_interval(problem, nodes, [out for _, out in grids], "BCDR")

    pair = None     # the last player's own (G, Ghat), `_pair_march`'s default
    intervals: list[IntervalSolution | None] = [None] * N
    values = np.empty((N, n, n))

    for k in range(N - 1, -1, -1):
        tk = float(nodes[k])
        (times_k, out_k), coeffs = grids[k], stage_coeffs[k]

        # Entering this interval the tilde components restart from the plain
        # ones (both players' views agree at the boundary).
        Tri[:k + 1, 0] = Tri[:k + 1, 1]

        what = np.array([f"R + D'PD (interval {k})",
                         f"Rhat + Dhat'P Dhat (interval {k})"])
        Z, record = _pair_march(problem, tk, times_k, out_k, pair, what, coeffs)
        intervals[k] = _pair_solution(problem, tk, out_k, Z, what, out_coeffs[k])
        values[k] = intervals[k].Phat[0]
        # row r: the four stages of the step from node r+1 down to node r
        steps = len(times_k) - 1
        gains4 = np.array(record[:4 * steps]).reshape(steps, 4, 2, m, n)[::-1]
        # players 0..k under these gains, each weighted at its own t_l
        # (player k's anchor last), on the dynamics the pair march sampled
        Tri[:k + 1] = cost_triples(problem, times_k, nodes[:k + 1],
                                   Tri[:k + 1].swapaxes(0, 1), gains4,
                                   coeffs[:4])[0].swapaxes(0, 1)
        node_triples[k, :k + 1] = Tri[:k + 1]

        if k:
            Gk = Tri[k - 1, 1]
            Gkh = Tri[k - 1, 1] + Tri[k - 1, 2]
            for name, M in (("next terminal", Gk), ("next hat terminal", Gkh)):
                if min_eig(M) < -max(tau_psd(M), 1e-8):
                    raise IllPosedError(
                        f"{name} at t_{k} lost positive semidefiniteness")
            pair = symmetrize(np.stack([Gk, Gkh]))

    segments = [GainSegment(times=iv.times, theta=iv.Theta, theta_hat=iv.Theta_hat)
                for iv in intervals]
    gains = PiecewiseGain(partition=partition, segments=tuple(segments))
    return DeltaEquilibrium(problem=problem, partition=partition,
                            intervals=intervals, gains=gains,
                            node_triples=node_triples, values=values)


def cost_triples(problem: ProblemData, times: np.ndarray, anchors: np.ndarray,
                 terminal: np.ndarray, gains: np.ndarray, coefficients) -> np.ndarray:
    """The Lyapunov cost triples (tilde, plain, bar) of the players whose
    weights are frozen at `anchors`, under one given feedback, marched over
    `times` from `terminal` by `march_triples`' affine step maps.

    gains (steps, 4, 2, m, n) holds (Theta, Theta_hat) at the four RK4 stages
    of every step, row r the step from times[r+1] down to times[r]; zero
    gains price the uncontrolled state.  coefficients are the dynamics
    (A, B, C, D) at `stage_times(times)`, each plain over hat
    (`pair_coefficients`).  The weights Q, R, Qbar and Rbar are read at
    (stage, anchor), one anchor per triple.  terminal is (3, p, n, n),
    p = len(anchors); returns (len(times), 3, p, n, n).
    """
    ta = stage_times(times)[:, None], anchors
    Q, R = problem.Q.at_many(*ta), problem.R.at_many(*ta)
    Qb, Rb = problem.Qbar.at_many(*ta), problem.Rbar.at_many(*ta)
    (A, Ah), (B, Bh), (C, Ch), (D, Dh) = (x.swapaxes(0, 1) for x in coefficients)
    p, n = len(anchors), problem.n

    def step_coefficients(rows, q):
        Th, Thh = gains[rows, :, 0], gains[rows, :, 1]
        ThT, ThhT = Th.swapaxes(-1, -2)[:, :, None], Thh.swapaxes(-1, -2)[:, :, None]
        F = np.empty(q.shape + (3, p, n, n))
        F[:, :, 0] = Q[q] + ThT @ R[q] @ Th[:, :, None]
        F[:, :, 1] = Q[q] + ThhT @ R[q] @ Thh[:, :, None]
        F[:, :, 2] = Qb[q] + ThhT @ Rb[q] @ Thh[:, :, None]
        return (A[q] - B[q] @ Th, C[q] - D[q] @ Th,
                Ah[q] - Bh[q] @ Thh, Ch[q] - Dh[q] @ Thh, F)

    return march_triples(times, terminal, step_coefficients)


def _by_interval(problem: ProblemData, nodes: np.ndarray, grids: list,
                 names: str = "ABCDQR") -> list[tuple]:
    """`pair_coefficients` on the times of every interval's grid in one call,
    the weights at interval k read at its anchor t_k = nodes[k]; split back
    into one tuple of views per interval."""
    sizes = [len(g) for g in grids]
    anchors = np.repeat(nodes[:len(grids)], sizes)
    cuts = np.cumsum(sizes)[:-1]
    return list(zip(*(np.split(x, cuts) for x in pair_coefficients(
        problem, np.concatenate(grids), anchors, names))))


def ordering_report(eq: DeltaEquilibrium) -> dict:
    """Eigenvalue margins for the comparison chain at every partition node.

    On interval k the chain is 0 <= Gamma_tilde_l <= P_k <= Pi_k and
    0 <= Gamma_hat_l <= Phat_k <= Pi_hat_k for every earlier player l < k,
    checked at both interval endpoints.  Pi_k / Pi_hat_k are the Lyapunov
    majorants obtained by dropping each equation's quadratic gain term,
    marched on each interval's own grid.
    Returns {"min_margin", "passed", "per_interval"}.
    """
    problem = eq.problem
    nodes = eq.partition.nodes
    margins = []
    per_interval = []
    for k in range(eq.N):
        iv = eq.intervals[k]
        steps = len(iv.times) - 1
        Z = lyapunov_pair(problem, iv.times, float(nodes[k]),
                          np.stack([iv.P[-1], iv.Phat[-1]]))
        Pi_path, Pih_path = Z[:, 0], Z[:, 1]

        rec = {"interval": k, "checks": []}
        for end, idx, j in ((0, 0, k), (1, steps, k + 1)):
            P_end, Ph_end = iv.P[idx], iv.Phat[idx]
            pairs = [
                ("P >= 0", min_eig(P_end)),
                ("Phat >= 0", min_eig(Ph_end)),
                ("Pi - P", min_eig(Pi_path[idx] - P_end)),
                ("Pihat - Phat", min_eig(Pih_path[idx] - Ph_end)),
            ]
            for l in range(k):
                if end == 0:
                    Gt = eq.node_triples[k, l, 0]
                    Gm = eq.node_triples[k, l, 1]
                    Gb = eq.node_triples[k, l, 2]
                else:
                    # At the top endpoint the tilde component has just been
                    # restarted from the plain one.
                    Gm = eq.node_triples[k + 1, l, 1]
                    Gb = eq.node_triples[k + 1, l, 2]
                    Gt = Gm
                pairs += [
                    (f"Gtilde_{l} >= 0", min_eig(Gt)),
                    (f"Ghat_{l} >= 0", min_eig(Gm + Gb)),
                    (f"P - Gtilde_{l}", min_eig(P_end - Gt)),
                    (f"Phat - Ghat_{l}", min_eig(Ph_end - (Gm + Gb))),
                ]
            for name, val in pairs:
                rec["checks"].append({"node": j, "name": name, "margin": float(val)})
                margins.append(float(val))
        per_interval.append(rec)

    min_margin = min(margins) if margins else 0.0
    return {"min_margin": min_margin,
            "passed": bool(min_margin >= -1e-8),
            "per_interval": per_interval}


def jump_magnitudes(eq: DeltaEquilibrium) -> dict:
    """Sup-norm gaps between consecutive players' triples at shared nodes.

    For each k, compares player k against player k-1 at every node of the common
    domain [t_{k+1}, T] and reports the data-variation majorant
    |G_k - G_{k-1}| + |Gbar_k - Gbar_{k-1}| + the integral of the same gaps of
    Q, R, Qbar and Rbar (the bar weights drive the triples' bar component),
    with a fixed safety factor of 10 on the comparison.
    """
    problem = eq.problem
    nodes = eq.partition.nodes
    N = eq.N
    records = []
    worst_ratio = 0.0
    for k in range(1, N - 1):
        jump = 0.0
        for j in range(k + 1, N + 1):
            for comp in range(3):
                d = eq.node_triples[j, k, comp] - eq.node_triples[j, k - 1, comp]
                jump = max(jump, float(np.abs(d).max()))
        tk, tk1 = float(nodes[k]), float(nodes[k - 1])
        dG = sum(float(np.abs(np.atleast_2d(f(tk) - f(tk1))).max())
                 for f in (problem.G, problem.Gbar))
        ss = np.linspace(nodes[k + 1], nodes[N], 33)
        dq = sum(np.abs(f.at_many(ss, tk) - f.at_many(ss, tk1)).max(axis=(-2, -1))
                 for f in (problem.Q, problem.R, problem.Qbar, problem.Rbar))
        majorant = dG + float(trapezoid_weights(ss) @ dq)
        bound = 10.0 * majorant + 1e-9
        worst_ratio = max(worst_ratio, jump / bound)
        records.append({"player": k, "jump": jump, "majorant": majorant,
                        "within_bound": bool(jump <= bound)})
    return {"records": records,
            "max_ratio": worst_ratio,
            "passed": all(r["within_bound"] for r in records)}


def delta_local_optimality_check(problem: ProblemData, eq: DeltaEquilibrium,
                                 k: int, x0, mc: MCConfig | None = None,
                                 n_probes: int = 10) -> dict:
    """Monte-Carlo check that player k cannot profit from a one-interval deviation.

    Simulates the equilibrium to t_k, then compares the frozen-at-t_k cost of
    the equilibrium continuation against `n_probes` alternative controls on
    [t_k, t_{k+1}) (constants, shifted feedbacks, random constants), all under
    common random numbers.  Passes when every probe's cost exceeds the
    equilibrium cost within three standard errors.  The variants march only
    up to t_{k+1}; after it they share one march of the tail (`_tail_cost`),
    except for the last player, who has no shared tail.  n_probes must be at
    least 1 and x0 must hold n entries: ConfigurationError otherwise.
    """
    if mc is None:
        mc = MCConfig(paths=20000, steps=400, seed=13)
    nodes = eq.partition.nodes
    if not 0 <= k < eq.N:
        raise ConfigurationError(f"player index {k} outside 0..{eq.N - 1}")
    if n_probes < 1:
        raise ConfigurationError(f"n_probes must be at least 1, got {n_probes}")
    tk = float(nodes[k])
    T = problem.T
    x0 = initial_state(problem, x0)

    if k == 0:
        Xk = np.repeat(x0[:, None], mc.paths, axis=1)
    else:
        Xk = closed_loop_states_at(problem, eq.gains, 0.0, x0,
                                   replace(mc, seed=mc.seed + 1), tk)

    tail_steps = max(eq.N - k, int(round(mc.steps * (T - tk) / T)))
    grid = aligned_time_grid(tk, T, tail_steps, nodes[(nodes > tk + 1e-12)
                                                      & (nodes < T - 1e-12)])
    dW = brownian_increments(mc, np.diff(grid))

    probes = _deviation_probes(problem, eq, k, n_probes)
    costs = _tail_cost(problem, eq, k, grid, dW, Xk, [probe for _, probe in probes])
    base = costs[0]
    records = []
    min_margin = np.inf
    for (label, _), dev in zip(probes, costs[1:]):
        mean, stderr = paired_mean_stderr(dev - base, mc.antithetic)
        margin = mean + 3.0 * stderr
        min_margin = min(min_margin, margin)
        records.append({"probe": label, "excess_cost": mean, "stderr": stderr,
                        "margin": margin})
    scale = 1.0 + abs(float(base.mean()))
    return {"player": k,
            "equilibrium_cost": float(base.mean()),
            "records": records,
            "min_margin": float(min_margin),
            "passed": bool(min_margin >= -1e-8 * scale)}


def _deviation_probes(problem, eq, k, n_probes):
    """Constant and feedback-shift controls used as one-interval deviations,
    as control maps on [X; E_rho X; 1]."""
    m, n = problem.m, problem.n
    tk = float(eq.partition.nodes[k])
    K0 = eq.gains.at_many(tk)[0]
    probes = [
        ("const +0.5", probe_map(m, n, const=0.5)),
        ("const -0.5", probe_map(m, n, const=-0.5)),
        ("feedback +0.25", probe_map(m, n, gain=K0 + 0.25)),
        ("feedback -0.25", probe_map(m, n, gain=K0 - 0.25)),
    ]
    rng = np.random.default_rng(2024 + k)
    while len(probes) < n_probes:
        c = rng.normal(scale=0.75, size=m)
        probes.append((f"const rand{len(probes)}", probe_map(m, n, const=c)))
    return probes[:n_probes]


def _tail_cost(problem, eq, k, grid, dW, Xk, probes):
    """Per-path frozen-at-t_k costs of the tail from the states Xk (n, paths):
    row 0 for the equilibrium, row 1 + i for the control map `probes[i]` on
    [t_k, t_{k+1}).

    The variants run on `variant_costs` with y = [X; E_rho X] and the controls
    [u; E_rho u] (`mean_field_system`); E_rho X is re-anchored to X at every
    later partition node.  Before the last player the re-anchoring at t_{k+1}
    leaves every variant at [X; X; 1], and all variants follow the equilibrium
    from there, so the tail from t_{k+1} is shared: `variant_costs` marches it
    once per path, on the basis [I; I; 0].
    """
    n, m = problem.n, problem.m
    nodes = eq.partition.nodes
    # u = -Theta X + (Theta - Theta_hat) E_rho X, replaced by the probes on the window
    th, thh = eq.gains.at_many(grid)
    u = np.empty((len(grid), 1 + len(probes), m, 2 * n + 1))
    u[:] = np.concatenate([-th, th - thh, np.zeros((len(grid), m, 1))], axis=-1)[:, None]
    window = grid < float(nodes[k + 1]) - 1e-12
    for v, probe in enumerate(probes, start=1):
        u[window, v] = probe
    drift, noise, controls = mean_field_system(problem, grid, u)
    reset = (reset_mask(grid, nodes[k + 1:-1]), slice(n, 2 * n), slice(0, n))
    tail = None
    if k < eq.N - 1:
        tail = (int(np.count_nonzero(window)),
                np.concatenate([np.eye(n), np.eye(n), np.zeros((1, n))]))
    return variant_costs(problem, grid, dW, np.tile(Xk, (2, 1)), drift, noise,
                         controls, reset, tail=tail)
